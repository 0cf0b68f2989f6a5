"""Conjugates of sampled vector maps and the certificate calculus on them.

A :class:`SampledMap` is a finite graph {(x, F(x))}; off-sample the map is
+inf, so conjugates are weak suprema of finite value clouds and everything
stays exact.  On top of that this module provides epigraph membership, the
extended-epigraph elements (L, U), their ⊞-sum, the Ψ collapse back to
ordinary epigraphs, and the searches that produce certificates for the
three layered inequality conditions (index 1: a positive operator T; index
2: split (L', T); index 3: split (L', L'', T)).

A map stores its points as one :class:`FiniteVecSet` and its values apart,
each cleared once, when the map is built (:func:`weakfront.numeric.cleared`).
So :func:`compose` and :meth:`SampledMap.add` on one point set change only
the values and keep that set, while :func:`conjugate`,
:func:`epi_membership` and the instance tables bring the two scales
together in their integer clouds, at one factor per term.

One generator, :func:`certificates`, enumerates a budget's distinct value
sets for all three indices in one loop nest; the search takes its first
qualifying item and the dual values fold over all of them.  It runs every
block on the instance's integer tables (:class:`FacetTables`, built with
the instance): each operator's image in facet coordinates is derived once,
as one column of integers per facet normal, at the one scale of
:func:`frontier_scale`; a block's cloud is one integer subtraction per
facet, and the maxima of its rows, found by one sort, are its frontier.
What a search derives from its config's budgets is kept in the config's
one bounded memo (:class:`SearchConfig`).  An item's value set is the
⊎-sum of two interned frontiers, yielded once per distinct pair, which
the search asks for one point's region without building it
(:func:`weakfront.staircase2d.region_sum`).  The query
point is cleared once, so from query to certificate the search does no
``Fraction`` arithmetic.  A :class:`Certificate` is its operators alone;
:func:`beta_value_set` rebuilds its value set from scratch, keeping
nothing, with :func:`compose`, :func:`conjugate` and ``ws_sum`` from the
restrictions the tables keep (F on the feasible sample, F and G on
C ∩ dom F, G on C, C's indicator), so building an instance or verifying a
certificate hashes, compares and orders no ``Fraction``.  Verification
keeps what it rebuilds: :func:`weakfront.farkas.kept_value_set` calls it
once per (instance, L, operators) and keeps the set.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from itertools import chain
from operator import add, sub
from typing import Callable, Iterable, Iterator, Optional, Sequence, Tuple

from .cones import (
    Cone,
    DimensionError,
    LinOp,
    PointClass,
    PosOp,
    classify_point,
    facet_matrix,
    sample_linops,
    sample_positive_operators,
)
from .numeric import (
    Number, Vec, chunked, cleared, dot, mat_vec, require_exact, vec_neg, vec_scale,
    vec_sub,
)
from .order_sets import (
    FiniteVecSet,
    GenSet,
    Orient,
    Tag,
    set_preceq,
    ws_sum,
    wsup_finite,
)
from .staircase2d import LOWER, maximal, region_sum, row_products


class SampledMap:
    """Finite-sample vector map; +inf off the sample (so always proper).

    Samples are exact, with no repeated x.  A map stores its points as one
    :class:`FiniteVecSet`, ``pointset`` (the cleared form (Dx, X) of the
    sorted points), and its values apart, as (Dv, V): the integer rows
    Dv·F(x) in the points' order, reduced by one gcd with Dv.  Both forms
    are unique, so equality and hashing follow them.  :func:`compose` and
    :meth:`add` change only the values and keep that object;
    :attr:`samples`, :meth:`domain` and :meth:`value` read exact values
    back on demand.
    """

    __slots__ = ("in_dim", "out_dim", "pointset", "_values")

    def __new__(cls, samples: Iterable[Tuple[Sequence[Number], Sequence[Number]]]):
        pairs = [(tuple(x), tuple(v)) for x, v in samples]
        if not pairs:
            raise ValueError("empty sample list")
        in_dim, out_dim = len(pairs[0][0]), len(pairs[0][1])
        for x, v in pairs:
            if len(x) != in_dim or len(v) != out_dim:
                raise DimensionError("inconsistent sample dimensions")
            require_exact(x, "sample point")
            require_exact(v, "sample value")
        xs, vs = zip(*pairs)
        Dx, X = cleared(chain.from_iterable(xs))
        Dv, V = cleared(chain.from_iterable(vs))
        rows = sorted(zip(chunked(X, in_dim, len(xs)), range(len(xs))))
        for (u, _), (w, i) in zip(rows, rows[1:]):
            if u == w:
                raise ValueError(f"duplicate sample point {xs[i]!r}")
        V = chunked(V, out_dim, len(vs))
        points = FiniteVecSet.from_ints(Dx, [u for u, _ in rows])
        return cls._on(points, Dv, [V[i] for _, i in rows])

    @classmethod
    def _on(cls, points: FiniteVecSet, D: int, V: Sequence[tuple]) -> "SampledMap":
        """The map with the values v/D on ``points``, V integer rows in the
        points' order, reduced by one gcd to its stored form."""
        g = math.gcd(D, *chain.from_iterable(V))
        if g > 1:
            V = [tuple([c // g for c in v]) for v in V]
        F = object.__new__(cls)
        object.__setattr__(F, "in_dim", points.dim)
        object.__setattr__(F, "out_dim", len(V[0]))
        object.__setattr__(F, "pointset", points)
        object.__setattr__(F, "_values", (D // g, tuple(V)))
        return F

    def __setattr__(self, name, value):
        raise AttributeError("SampledMap is immutable")

    def cleared(self) -> tuple:
        """(Dx, X, Dv, V): the points' cleared form, X the sorted integer
        rows Dx·x, and the values', V the rows Dv·F(x) in the same order."""
        return (*self.pointset.cleared(), *self._values)

    @property
    def samples(self) -> tuple:
        """The exact samples (x, F(x)), sorted by x."""
        D, V = self._values
        values = (tuple([Fraction(c, D) for c in v]) for v in V)
        return tuple(zip(self.pointset.points, values))

    def value(self, x: Sequence[Number]) -> Optional[Vec]:
        """F(x), or None off the sample (also for a point of another
        length); x is cleared once and looked up among the integer rows."""
        x = tuple(x)
        require_exact(x, "query point")
        Dx, X = self.pointset.cleared()
        e, Y = cleared(x)
        key = tuple([c * (Dx // e) for c in Y])
        i = bisect_left(X, key)
        if Dx % e or i == len(X) or X[i] != key:
            return None
        D, V = self._values
        return tuple([Fraction(c, D) for c in V[i]])

    def add(self, other: "SampledMap") -> "SampledMap":
        """Pointwise sum of two maps on one point set, as a map and its
        compositions are, row by row; other point sets are refused."""
        if self.out_dim != other.out_dim:
            raise DimensionError("sum of maps with different value dimensions")
        if self.pointset != other.pointset:
            raise ValueError("pair maps must share their domain")
        (D1, V1), (D2, V2) = self._values, other._values
        D = math.lcm(D1, D2)
        a, b = D // D1, D // D2
        V = [tuple([a * p + b * q for p, q in zip(u, v)]) for u, v in zip(V1, V2)]
        return SampledMap._on(self.pointset, D, V)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SampledMap):
            return NotImplemented
        return self.pointset == other.pointset and self._values == other._values

    def __hash__(self) -> int:
        return hash((self.pointset, self._values))

    def __repr__(self) -> str:
        n = len(self.pointset)
        return f"SampledMap({n} samples, {self.in_dim}->{self.out_dim})"


def _int_images(rows: Sequence[tuple], vs: Sequence[tuple]) -> list:
    """The products rows·v of integer vectors v, as integer vectors, formed
    by columns (:func:`weakfront.staircase2d.row_products`)."""
    return list(zip(*row_products(rows, list(zip(*vs)), len(vs))))


def compose(M: LinOp, G: SampledMap) -> SampledMap:
    """The map x -> M(G(x)) on G's own point set: with M cleared as
    (d, d·M), only the values change, to (d·M)·(Dv·G(x)) at the scale d·Dv."""
    if M.cols != G.out_dim:
        raise DimensionError(f"compose: a {M.rows}x{M.cols} operator after {G!r}")
    _, _, D, V = G.cleared()
    d, dM = M.cleared()
    return SampledMap._on(G.pointset, d * D, _int_images(dM, V))


# --- conjugate and epigraphs ------------------------------------------------------


def value_cloud(F: SampledMap, L: LinOp) -> Tuple[int, list]:
    """(s, cols): the cloud {L(x) - F(x) : x in dom F} as the integer
    vectors a·(d·L)·(Dx·x) - b·(Dv·F(x)) at the scale s = lcm(d·Dx, Dv),
    with L cleared as (d, d·L), a = s/(d·Dx) and b = s/Dv; one list per
    coordinate, in the order of F's points."""
    Dx, X, Dv, V = F.cleared()
    d, dL = L.cleared()
    s = math.lcm(d * Dx, Dv)
    a, b = s // (d * Dx), s // Dv
    LX = row_products(dL, list(zip(*X)), len(X))  # one list per row of L
    return s, [[a * p - b * c for p, c in zip(lx, v)] for lx, v in zip(LX, zip(*V))]


def conjugate(F: SampledMap, L: LinOp, K: Cone) -> GenSet:
    """The conjugate value F*(L) = wsup{L(x) - F(x) : x in dom F}, the weak
    supremum of :func:`value_cloud`.  Always a FINITE SUP GenSet for
    sampled maps."""
    if L.cols != F.in_dim or L.rows != F.out_dim or K.dim != F.out_dim:
        raise DimensionError("conjugate: map/operator/cone dimensions disagree")
    s, cols = value_cloud(F, L)
    return wsup_finite(FiniteVecSet.from_ints(s, zip(*cols)), K)


def epi_membership(
    F: SampledMap, L: LinOp, y: Sequence[Number], K: Cone
) -> bool:
    """(L, y) lies in the epigraph of F*: no sample has L(x) - F(x) - y
    strictly inside K (the conjugate never exceeds y anywhere), tested at
    the scale s = lcm(e·Dx, Dv, dy) as a·(e·L)·(Dx·x) - b·(Dv·F(x)) - s·y,
    L cleared as (e, e·L), y as (dy, dy·y), a = s/(e·Dx) and b = s/Dv."""
    y = tuple(y)
    if L.cols != F.in_dim or L.rows != F.out_dim or len(y) != K.dim:
        raise DimensionError("epi_membership: dimensions disagree")
    require_exact(y, "query point")
    Dx, X, Dv, V = F.cleared()
    e, eL = L.cleared()
    dy, Y = cleared(y)
    s = math.lcm(e * Dx, Dv, dy)
    a, b, sy = s // (e * Dx), s // Dv, vec_scale(s // dy, Y)
    for lx, v in zip(_int_images(eL, X), V):
        w = tuple([a * p - b * c - q for p, c, q in zip(lx, v, sy)])
        if classify_point(K, w) is PointClass.INTERIOR:
            return False
    return True


class ExtEpiElement:
    """An element (L, U) of the extended epigraph: F*(L) set-precedes U."""

    __slots__ = ("op", "bound")

    def __init__(self, op: LinOp, bound: GenSet):
        if bound.tag is not Tag.FINITE:
            raise ValueError("extended-epigraph bound must be FINITE")
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "bound", bound)

    def __setattr__(self, name, value):
        raise AttributeError("ExtEpiElement is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExtEpiElement):
            return NotImplemented
        return self.op == other.op and self.bound == other.bound

    def __hash__(self) -> int:
        return hash((self.op, self.bound))

    def __repr__(self) -> str:
        return f"ExtEpiElement({self.op!r}, {self.bound!r})"


def exepi_membership(F: SampledMap, e: ExtEpiElement, K: Cone) -> bool:
    """Is (e.op, e.bound) really in the extended epigraph of F*?"""
    if e.bound.cone != K:
        raise ValueError("exepi_membership: bound lives under a different cone")
    return set_preceq(conjugate(F, e.op, K), e.bound)


def boxplus(e1: ExtEpiElement, e2: ExtEpiElement) -> ExtEpiElement:
    """The ⊞-sum (L1 + L2, U1 ⊎ U2) of two extended-epigraph elements."""
    return ExtEpiElement(e1.op + e2.op, ws_sum(e1.bound, e2.bound))


# --- the Ψ collapse ----------------------------------------------------------------


def witness_translate(U: GenSet, y: Sequence[Number]) -> Fraction:
    """The exact slide t such that y lies on the frontier of U + t*k0
    (k0 = the cone's interior witness); negative t means y is strictly
    below U.  U must be a finite SUP set."""
    if U.tag is not Tag.FINITE or U.orient is not Orient.SUP:
        raise ValueError("witness_translate needs a finite SUP GenSet")
    K = U.cone
    y = tuple(y)
    if len(y) != K.dim:
        raise DimensionError("witness_translate: point/cone dimensions disagree")
    require_exact(y, "query point")
    k0 = K.interior_witness
    best = None
    for g in U.generators.points:
        d = vec_sub(y, g)
        worst = max(
            Fraction(dot(a, d), dot(a, k0))
            for a in K.normals
        )
        if best is None or worst < best:
            best = worst
    return best


def psi_contains(
    family: Callable[[LinOp, GenSet], bool],
    L: LinOp,
    y: Sequence[Number],
    K: Cone,
    candidates: Iterable[GenSet] = (),
) -> bool:
    """Does the collapsed set Ψ(family) = ⋃ {L}×U contain (L, y)?

    True iff some bound U with family(L, U) actually contains y.  Candidate
    bounds are tried first; the built-in witness y + (frontier of the cone
    itself, i.e. the INF set generated by {y}) is tried last — it contains y
    by construction, so membership reduces to the family predicate.  Sound
    for any family that is a genuine extended epigraph: a bound that
    set-precedes it cannot contain points of its strict lower region.
    """
    y = tuple(y)
    if len(y) != K.dim:
        raise DimensionError("psi_contains: point/cone dimensions disagree")
    for U in candidates:
        if U.tag is Tag.FINITE and U.contains(y) and family(L, U):
            return True
    point_witness = GenSet(Tag.FINITE, Orient.INF, FiniteVecSet([y]), K)
    return bool(family(L, point_witness))


def split_witness(
    F1: SampledMap,
    F2: SampledMap,
    L: LinOp,
    y: Sequence[Number],
    K: Cone,
    cfg: "SearchConfig",
) -> Optional[Tuple[LinOp, LinOp, GenSet, GenSet]]:
    """Search for a split L = L1 + L2 with bounds U1, U2 such that
    (L1, U1) and (L2, U2) are extended-epigraph elements of F1*, F2* and
    y lies on the frontier of U1 ⊎ U2.

    U1 is taken as F1*(L1); U2 as F2*(L2) slid up along the interior
    witness k0 by t = :func:`witness_translate` of U1 ⊎ U2 and y, which
    puts y on the frontier of (U1 ⊎ U2) + t·k0 = U1 ⊎ (U2 + t·k0).
    Returns the first L1, in deterministic budget order, with t >= 0, or
    None.
    """
    y = tuple(y)
    k0 = K.interior_witness
    for L1 in cfg.linop_budget(F1.out_dim, F1.in_dim):
        L2 = L - L1
        U1 = conjugate(F1, L1, K)
        U2 = conjugate(F2, L2, K)
        t = witness_translate(ws_sum(U1, U2), y)
        if t >= 0:
            return L1, L2, U1, U2.translate(vec_scale(t, k0))
    return None


# --- certificate search -------------------------------------------------------------


MAX_GRID_VALUES = 10_001  # the most values a budget grid may offer each entry
MEMO_CAP = 2_048  # the most objects a config's memo keeps into a new search


class SearchConfig:
    """Budgets for certificate searches: hint operators first, then the zero
    operator, then full grids (box 0 means "zero only").

    ``t_box``/``t_step`` control the positive-operator grid, ``l_box``/
    ``l_step`` the splitting-operator grids.  A box or step that is not an
    int or a Fraction, a negative box, a step that is not positive and a
    grid of more than ``MAX_GRID_VALUES`` values per entry (2·⌊box/step⌋ + 1,
    counted without building it) are refused here, before any hint is
    tried.  Every budget operator's entries are multiples of 1/``den``, the
    lcm of the steps' denominators and of the hints' cleared denominators.
    Each (S, K) gets one positive-operator budget and each shape one
    splitting-operator budget, both built by one rule, drawn lazily and
    kept as long as the config.

    Everything else the config keeps is what :func:`certificates` derives
    from those budgets, in one memo (:meth:`_memo_for_call`), each list in
    budget order:

    * per instance tables and scale, the splitting operators' images of
      the rows, the split blocks F*(L') and I_C*(L'') and, per pair of
      budget positions, their ⊎-sums;
    * per tables, scale and rows (``c_f``, ``c`` or ``dom_g``), each T's
      image of those rows, so indices on equal rows share them;
    * per tables, scale, rows and image of the rest operator, the T-blocks,
      which depend on the query's L but not on its y;
    * every frontier and frontier row that a search builds, interned by
      content, so equal ones are one object.

    L's own image is built per search and not kept.  A search, or a dual
    value with both its passes, that starts while the memo holds more than
    ``MEMO_CAP`` objects starts a new one, and none evicts while it runs;
    so every such call starts with at most ``MEMO_CAP`` objects derived.
    """

    __slots__ = (
        "t_box", "t_step", "l_box", "l_step", "hints_T", "hints_L", "den", "_budgets",
        "_memo",
    )

    def __init__(
        self,
        t_box: Number = 1,
        t_step: Number = 1,
        l_box: Number = 0,
        l_step: Number = 1,
        hints_T: Sequence[LinOp] = (),
        hints_L: Sequence[LinOp] = (),
    ):
        for name, v in (
            ("t_box", t_box), ("t_step", t_step), ("l_box", l_box), ("l_step", l_step)
        ):
            require_exact((v,), name)
        for k, box, step in (("t", t_box, t_step), ("l", l_box, l_step)):
            if box < 0:
                raise ValueError(f"{k}_box must be nonnegative, got {box}")
            if step <= 0:
                raise ValueError(f"{k}_step must be positive, got {step}")
            if 2 * (box // step) + 1 > MAX_GRID_VALUES:
                raise ValueError(
                    f"{k}_box {box} with {k}_step {step} makes a grid of more "
                    f"than {MAX_GRID_VALUES} values per entry"
                )
        object.__setattr__(self, "t_box", t_box)
        object.__setattr__(self, "t_step", t_step)
        object.__setattr__(self, "l_box", l_box)
        object.__setattr__(self, "l_step", l_step)
        object.__setattr__(self, "hints_T", tuple(hints_T))
        object.__setattr__(self, "hints_L", tuple(hints_L))
        hints = math.lcm(*(h.cleared()[0] for h in (*self.hints_T, *self.hints_L)))
        object.__setattr__(self, "den", cleared((t_step, l_step), hints)[0])
        object.__setattr__(self, "_budgets", {})
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name, value):
        raise AttributeError("SearchConfig is immutable")

    def _memo_for_call(self) -> dict:
        """The memo one consumer call reads and extends over all its
        :func:`certificates` passes: the kept one, or a new empty one, kept
        from then on, when the kept one holds more than ``MEMO_CAP`` objects.
        A call still running keeps the memo it started with, so every
        frontier it yields stays alive and its later passes reuse them."""
        if len(self._memo) > MEMO_CAP:
            object.__setattr__(self, "_memo", {})
        return self._memo

    def posop_budget(self, S: Cone, K: Cone) -> Iterable[PosOp]:
        """The kept budget of L+(S, K): the ``hints_T``, zero and the
        ascending grid of :func:`sample_positive_operators`, each tested
        once per config (:meth:`_budget`).  The first call tests the hints
        and zero, raising when S has no generators or a hint is not
        positive; a call after one that raised raises again."""
        return self._budget(
            (S, K), self.hints_T, K.dim, S.dim, lambda op: PosOp(op, S, K),
            lambda skip: sample_positive_operators(
                S, K, self.t_box, self.t_step, skip
            ) if self.t_box else (),
        )

    def linop_budget(self, rows: int, cols: int) -> Iterable[LinOp]:
        """The kept budget of rows x cols operators: the ``hints_L``, zero
        and the ascending grid of :func:`sample_linops` (:meth:`_budget`)."""
        return self._budget(
            (rows, cols), self.hints_L, rows, cols, lambda op: op,
            lambda skip: (
                op for op in sample_linops(rows, cols, self.l_box, self.l_step)
                if op not in skip
            ) if self.l_box else (),
        )

    def _budget(self, key, hints, rows: int, cols: int, make, grid) -> "_Replay":
        """The budget kept under ``key``, built on its first call: ``make``
        of each hint of shape rows x cols and of zero, without repeats, then
        the items of ``grid(skip)``, drawn lazily, which passes over the
        operators in ``skip``, those of the head.  The budget is
        kept as a :class:`_Replay` only once its head is built, so a call
        whose ``make`` raised keeps nothing."""
        budget = self._budgets.get(key)
        if budget is None:
            ops = dict.fromkeys(
                op for op in (*hints, LinOp.zero(rows, cols))
                if (op.rows, op.cols) == (rows, cols)
            )
            head = [make(op) for op in ops]
            budget = self._budgets[key] = _Replay(chain(head, grid(ops)))
        return budget


class Certificate:
    """The operators (T, L', L'') of one of the layered inequality
    conditions; L' is present iff ``index`` >= 2 and L'' iff ``index`` == 3.

    The condition's left-hand WS-sum W is a function of these operators and
    the instance data, rebuilt from the maps' cleared integers by
    :func:`beta_value_set`; the certificate qualifies a point y exactly
    when y is not strictly below W.
    """

    __slots__ = ("index", "T", "Lp", "Lpp")

    def __init__(
        self,
        index: int,
        T: PosOp,
        Lp: Optional[LinOp] = None,
        Lpp: Optional[LinOp] = None,
    ):
        if index not in (1, 2, 3):
            raise ValueError("certificate index must be 1, 2 or 3")
        if (Lp is None) != (index == 1):
            raise ValueError("split operator L' is present iff index >= 2")
        if (Lpp is None) != (index != 3):
            raise ValueError("second split operator L'' is present iff index == 3")
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "Lp", Lp)
        object.__setattr__(self, "Lpp", Lpp)

    def __setattr__(self, name, value):
        raise AttributeError("Certificate is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Certificate):
            return NotImplemented
        return (
            self.index == other.index
            and self.T.op == other.T.op
            and self.Lp == other.Lp
            and self.Lpp == other.Lpp
        )

    def __hash__(self) -> int:
        return hash((self.index, self.T.op, self.Lp, self.Lpp))

    def __repr__(self) -> str:
        parts = [f"index={self.index}", f"T={self.T.op.entries!r}"]
        if self.Lp is not None:
            parts.append(f"Lp={self.Lp.entries!r}")
        if self.Lpp is not None:
            parts.append(f"Lpp={self.Lpp.entries!r}")
        return "Certificate(" + ", ".join(parts) + ")"


def beta_value_set(
    index: int,
    P,
    L: LinOp,
    T: PosOp,
    Lp: Optional[LinOp] = None,
    Lpp: Optional[LinOp] = None,
) -> GenSet:
    """The left-hand WS-sum W of the layered condition with the given
    operators, recomputed from the instance data:

    * index 1:  (F + I_C + T∘G restricted to C)*(L)
    * index 2:  F*(L') ⊎ (I_C + T∘G on C)*(L - L')
    * index 3:  F*(L') ⊎ I_C*(L'') ⊎ (T∘G on dom G)*(L - L' - L'')

    The restrictions to C are the instance's, kept in its tables
    (:class:`FacetTables`): T∘(G|C) = (T∘G)|C, so T is composed with a
    kept restriction of G, and F|(C ∩ dom F) and G on the same points share
    one point set, so :meth:`SampledMap.add` sums them row by row.  No
    ``Fraction`` is hashed or compared here.
    """
    if index not in (1, 2, 3):
        raise ValueError("index must be 1, 2 or 3")
    K = P.K
    tab = P.tables
    if index == 1:
        return conjugate(tab.F_cf.add(compose(T.op, tab.G_cf)), L, K)
    front = conjugate(P.F, Lp, K)
    if index == 2:
        return ws_sum(front, conjugate(compose(T.op, tab.G_c), L - Lp, K))
    front = ws_sum(front, conjugate(tab.I_c, Lpp, K))
    return ws_sum(front, conjugate(compose(T.op, P.G), L - Lp - Lpp, K))


class EmptyFeasibleSet(ValueError):
    """No sample point is feasible (or none of them is in dom F)."""


class FacetTables:
    """An instance's data in the integer facet coordinates of K, for
    :func:`certificates`, built once, with the instance, from the maps'
    cleared rows and C's cleared point set, merged on integers.

    Rows are the samples X = dom F ∪ dom G in ascending order.  With ``N``
    the primitive integer normals of K and D = ``den`` the lcm of the
    scales of F's and G's points and values and of C, ``xs`` holds D·x,
    ``nf`` N·(D·F(x)) and ``gs`` D·G(x) (None off dom F, dom G); ``dom_f``,
    ``dom_g``, ``c`` and ``c_f`` list the rows of dom F, dom G, C and
    C ∩ dom F.  The tables refuse a C point outside dom G (the first of the
    sorted C), and an instance whose feasible rows, those of C ∩ dom F with
    -D·G(x) in S, are none (:class:`EmptyFeasibleSet`).  A frontier is the
    list of the maximal facet coordinates of a cloud, in descending
    lexicographic order, at the one integer scale of its search
    (:func:`frontier_scale`).  A search clears each of its operators into
    an integer image of the rows once (:meth:`image`), one tuple per facet
    normal; every block's frontier is built from those columns, one
    subtraction per facet column (:meth:`block`).

    The tables also keep the restrictions that the instance and
    :func:`beta_value_set` read: ``F_cf`` and ``G_cf``, F and G on
    C ∩ dom F, which share one point set; ``G_c``, G on C, and ``I_c``, C's
    indicator, which share C's; and ``feasible_F``, F on the feasible rows.
    So no other code restricts a map.
    """

    __slots__ = (
        "N", "xs", "nf", "gs", "den", "dom_f", "dom_g", "c", "c_f",
        "F_cf", "G_cf", "G_c", "I_c", "feasible_F",
    )

    def __init__(self, P, C: FiniteVecSet):
        N = self.N = P.K.normals
        (Fx, XF, Fv, VF), (Gx, XG, Gv, VG) = P.F.cleared(), P.G.cleared()
        dc, XC = C.cleared()
        den = self.den = math.lcm(Fx, Fv, Gx, Gv, dc)
        fs, gs = (
            {vec_scale(den // dx, x): vec_scale(den // dv, v) for x, v in zip(X, V)}
            for dx, X, dv, V in ((Fx, XF, Fv, VF), (Gx, XG, Gv, VG))
        )
        xs = self.xs = sorted(fs.keys() | gs.keys())
        fv = [fs.get(x) for x in xs]
        self.nf = [None if f is None else mat_vec(N, f) for f in fv]
        self.gs = [gs.get(x) for x in xs]
        cs = [vec_scale(den // dc, x) for x in XC]
        for k, x in enumerate(cs):
            if x not in gs:
                raise ValueError(f"C point {P.C[k]!r} is outside dom G")
        rows = range(len(xs))
        at = dict(zip(xs, rows))
        self.dom_f = [i for i in rows if fv[i] is not None]
        self.dom_g = [i for i in rows if self.gs[i] is not None]
        self.c = [at[x] for x in cs]
        self.c_f = [i for i in self.c if fv[i] is not None]
        feasible = [
            i for i in self.c_f
            if classify_point(P.S, vec_neg(self.gs[i])) is not PointClass.OUTSIDE
        ]
        if not feasible:
            raise EmptyFeasibleSet(
                "instance violates the standing assumption: no feasible "
                "sample point lies in dom F (no point x of 'C' with -'G'(x) "
                "in 'S' is a sample point of 'F')"
            )
        cf = FiniteVecSet.from_ints(den, [xs[i] for i in self.c_f])
        self.F_cf = SampledMap._on(cf, den, [fv[i] for i in self.c_f])
        self.G_cf = SampledMap._on(cf, den, [self.gs[i] for i in self.c_f])
        self.G_c = SampledMap._on(C, den, [self.gs[i] for i in self.c])
        self.I_c = SampledMap._on(C, 1, [(0,) * P.K.dim] * len(cs))
        self.feasible_F = SampledMap._on(
            FiniteVecSet.from_ints(den, [xs[i] for i in feasible]), den,
            [fv[i] for i in feasible],
        )

    def image(self, M: LinOp, d: int, vs: list) -> tuple:
        """The integer images (N·(d·M))·v of the vectors ``vs``, rows of
        ``xs`` or ``gs``, in column form: one tuple per facet normal a, of
        the products a·(d·M)·v in the order of ``vs``.  One operator's term
        of a block's cloud, at the scale D·d, d a multiple of M's
        denominators, formed by :func:`weakfront.staircase2d.row_products`."""
        A = facet_matrix(self.N, M, d)
        return tuple([tuple(r) for r in row_products(A, tuple(zip(*vs)), len(vs))])

    def block(self, A: Sequence, B: Optional[Sequence] = None) -> list:
        """The frontier of one conjugate block, whose cloud is the difference
        A - B of two images in column form (A alone without B): one
        subtraction per facet column, then the maxima of the cloud's rows."""
        if B is not None:
            A = [map(sub, a, b) for a, b in zip(A, B)]
        return maximal(zip(*A))

    def sum(self, A: list, B: list) -> list:
        """The frontier of the WS-sum of frontiers A and B, at their one
        scale: the maxima of the pairwise sums of their coordinates."""
        return maximal([tuple(map(add, u, v)) for u in A for v in B])


def _take(cols: tuple, rows: list) -> list:
    """The columns ``cols`` at the rows ``rows``, each as a lazy map."""
    return [map(col.__getitem__, rows) for col in cols]


def frontier_scale(P, L: LinOp, cfg: SearchConfig) -> int:
    """The one integer scale of every frontier that :func:`certificates`
    yields at the perturbation L: D·lcm(``cfg.den``, d), D the instance
    tables' denominator and d L's.  Each block's operator is a sum of L and
    budget operators, so its entries are multiples of 1/lcm(...)."""
    return P.tables.den * math.lcm(cfg.den, L.cleared()[0])


_END = object()


class _Replay:
    """One pass over a budget iterator, drawn lazily; later passes replay the
    items already drawn before drawing more, so nested loops over the same
    budget enumerate it once.  Once the source is drained, by this pass or
    another, a pass reads the drawn list itself."""

    __slots__ = ("_source", "_drawn")

    def __init__(self, source: Iterable):
        self._source = iter(source)
        self._drawn: list = []

    def __iter__(self):
        return self._draw() if self._source is not None else iter(self._drawn)

    def _draw(self):
        k = 0
        while True:
            if k == len(self._drawn):
                item = _END if self._source is None else next(self._source, _END)
                if item is _END:
                    self._source = None
                    return
                self._drawn.append(item)
            yield self._drawn[k]
            k += 1


def certificates(
    index: int, P, L: LinOp, cfg: SearchConfig, memo: Optional[dict] = None
) -> Iterator[tuple]:
    """The distinct value sets of the budget of condition ``index`` at the
    perturbation L, each as the first item in budget order that has it,
    ((T, L', L''), front, block): the operators (None where the index has
    no split) and two :class:`FacetTables` frontiers, lists of integer
    coordinates at ``frontier_scale(P, L, cfg)``, whose ⊎-sum is the item's
    value set W.  ``front`` is the split blocks' sum, the single zero
    vector (the identity of ⊎) at index 1, and ``block`` the T-block.
    Consumers ask for the regions of points against W with
    :func:`weakfront.staircase2d.region_sum` or ``region_sums``, and build W
    with :meth:`FacetTables.sum` only where they need its generators.

    One loop nest serves all three indices: L' outer, L'' middle, T inner,
    each over its budget as the config keeps it (hints, zero, ascending
    grid).  The index decides three things only: whether the L' and L''
    loops run over the splitting budget or over the single item None; the
    rows of the T-block, the conjugate at L - L' - L'' of T∘G on C ∩ dom F
    plus F (index 1), on C (index 2) or on dom G (index 3); and the split
    blocks ⊎-summed in front of it, F*(L') from index 2 on and I_C*(L'')
    at index 3, summed once per (L', L'') pair and kept.  Every block runs
    on the instance's integer tables at that one scale, and no ``Fraction``
    point is built.

    A block's cloud is linear in its operators, so each operator's integer
    image is computed once (:meth:`FacetTables.image`), as one column per
    facet normal, when a loop first reaches it: (N·d·L)·x on the rows, less
    d·N·F(x) at index 1; (N·d·M)·x on every row for each splitting
    operator M; and (N·d·T)·G(x) on the rows for each T.  Each block is the
    frontier of a difference of images, formed one facet column at a time
    from the columns' entries at the block's rows: F*(L') of
    (N·d·L')·x - d·N·F(x) on dom F, I_C*(L'') of (N·d·L'')·x on C, and a
    T-block of the rest's image (L's less the split operators', a tuple of
    columns) minus T's.  All but L's image are kept in ``memo``, the one
    a consumer took for all its passes, or else the config's
    (:meth:`SearchConfig._memo_for_call`); equal images on equal rows give
    equal clouds, whichever index or rest they came from.  Every T-block, F*(L') and
    ⊎-sum of split blocks is interned there when it is built, so an item
    repeats an earlier one's value set exactly when both frontiers are the
    same objects, and each object yielded stays alive while the generator
    runs.  So repeats are skipped by ``id``: a block that came with the
    same front before, and a whole T loop whose (front, T-block list) has
    run.  One call builds each T-block at most once.
    """
    if index not in (1, 2, 3):
        raise ValueError("condition index must be 1, 2 or 3")
    K = P.K
    tab = P.tables
    d = frontier_scale(P, L, cfg) // tab.den
    Ls = cfg.linop_budget(K.dim, P.F.in_dim)
    Ts = cfg.posop_budget(P.S, K)
    Lps, Lpps, rows = {
        1: ((None,), (None,), tab.c_f),
        2: (Ls, (None,), tab.c),
        3: (Ls, Ls, tab.dom_g),
    }[index]
    rows, xs = tuple(rows), tab.xs
    base = tab.image(L, d, [xs[i] for i in rows])
    if index == 1:
        base = tuple(
            tuple([b - d * c for b, c in zip(col, f)])
            for col, f in zip(base, zip(*[tab.nf[i] for i in rows]))
        )
    # by budget position: per (tab, d) (N·d·M)·x, F*(L'), I_C*(L'') and, at
    # [j][k], F*(L') ⊎ I_C*(L''); per (tab, d, rows) (N·d·T)·G(x); per
    # (tab, d, rows, image of L - L' - L'') the T-blocks; and each frontier
    # and row -> its one object
    memo = cfg._memo_for_call() if memo is None else memo
    images, f_stars, ind_stars, fronts = memo.setdefault((tab, d), ([], [], [], []))
    t_images, dnf = memo.setdefault((tab, d, rows), []), None
    yielded = {}  # id(front) -> ids of its blocks yielded and T-block lists run

    def intern(frontier: list) -> list:
        kept = [memo.setdefault(r, r) for r in frontier]
        return memo.setdefault(tuple(kept), kept)

    def split_image(k: int, M: LinOp) -> tuple:
        if k == len(images):
            images.append(tab.image(M, d, xs))
        return images[k]

    for j, Lp in enumerate(Lps):
        f_star, rest_p = [(0,) * len(tab.N)], base  # the identity of ⊎
        if Lp is not None:
            XLp = split_image(j, Lp)
            if j == len(f_stars):
                dnf = dnf or [
                    [d * c for c in f] for f in zip(*[tab.nf[i] for i in tab.dom_f])
                ]
                f_stars.append(intern(tab.block(_take(XLp, tab.dom_f), dnf)))
            f_star = f_stars[j]
            rest_p = tuple(
                tuple(map(sub, b, c)) for b, c in zip(base, _take(XLp, rows))
            )
        for k, Lpp in enumerate(Lpps):
            front, rest = f_star, rest_p
            if Lpp is not None:
                XLpp = split_image(k, Lpp)
                if k == len(ind_stars):
                    ind_stars.append(tab.block(_take(XLpp, tab.c)))
                if j == len(fronts):
                    fronts.append([])
                if k == len(fronts[j]):
                    fronts[j].append(intern(tab.sum(f_star, ind_stars[k])))
                front = fronts[j][k]
                rest = tuple(
                    tuple(map(sub, b, c)) for b, c in zip(rest_p, _take(XLpp, rows))
                )
            blocks = memo.setdefault((tab, d, rows, rest), [])
            seen = yielded.setdefault(id(front), set())
            if id(blocks) in seen:
                continue  # this T loop has run with this front
            seen.add(id(blocks))
            for t, T in enumerate(Ts):
                if t == len(blocks):
                    if t == len(t_images):
                        t_images.append(tab.image(T.op, d, [tab.gs[i] for i in rows]))
                    blocks.append(intern(tab.block(rest, t_images[t])))
                if id(blocks[t]) not in seen:
                    seen.add(id(blocks[t]))
                    yield (T, Lp, Lpp), front, blocks[t]


def script_A_membership(
    i: int,
    P,
    L: LinOp,
    y: Sequence[Number],
    cfg: SearchConfig,
) -> Optional[Certificate]:
    """Search the budget for a certificate placing (L, y) in the i-th
    representation set.  Returns the first qualifying certificate in the
    order of :func:`certificates`, or None when the budget is exhausted —
    a None is *not* a disproof.

    y qualifies when it is not strictly below the item's value set W.  The
    test asks :func:`weakfront.staircase2d.region_sum` for the region of
    q = ⌊s·N·y⌋ against the item's two frontiers, s the frontier scale (an
    integer g exceeds s·N·y exactly where it exceeds q), so no W is built.
    y is cleared once, as (e, Y = e·y), and q is s·(N·Y) // e, on integers.
    """
    y = tuple(y)
    K = P.K
    if L.rows != K.dim or L.cols != P.F.in_dim or len(y) != K.dim:
        raise DimensionError("script_A_membership: dimensions disagree")
    require_exact(y, "query point")
    e, Y = cleared(y)
    s = frontier_scale(P, L, cfg)
    q = tuple([s * c // e for c in mat_vec(K.normals, Y)])
    for ops, front, block in certificates(i, P, L, cfg):
        if region_sum(front, block, q) != LOWER:
            return Certificate(i, *ops)
    return None
