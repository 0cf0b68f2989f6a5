"""Conjugates of sampled vector maps and the certificate calculus on them.

A :class:`SampledMap` is a finite graph {(x, F(x))}; off-sample the map is
+inf, so conjugates are weak suprema of finite value clouds and everything
stays exact.  On top of that this module provides epigraph membership, the
extended-epigraph elements (L, U), their ⊞-sum, the Ψ collapse back to
ordinary epigraphs, and the searches that produce certificates for the
three layered inequality conditions (index 1: a positive operator T; index
2: split (L', T); index 3: split (L', L'', T)).

One generator, :func:`certificates`, enumerates a budget for all three
indices in one loop nest; the certificate search takes its first
qualifying item and the dual values fold over all of them.  It runs every
block on the instance's integer tables (:class:`FacetTables`, derived once
per instance): a block's cloud is linear in its operators, so each
operator's integer image in facet coordinates is derived once, as one
column of integers per facet normal; each block's cloud is built from
those columns by one integer subtraction per facet, and the maxima of its
rows, found by one sort of the row tuples, are its frontier; the search
builds no ``Fraction`` point.  Its query point is cleared once
(:func:`weakfront.numeric.cleared`), and its facet coordinates are scaled
and floored on integers, so from query to certificate the search does no
``Fraction`` arithmetic.
A call brings its operators' cleared forms to the one scale of
:func:`frontier_scale`, so its frontiers are plain lists of integer
coordinates at that scale.  The :class:`SearchConfig` keeps its operator
budgets and, per instance tables and scale, the budget operators' images
and the split blocks F*(L') and I_C*(L''); L's image and the T-blocks are
kept for the length of one call.  An item's value set is the ⊎-sum of two
frontiers, which the search asks for one point's region without building
it (:func:`weakfront.staircase2d.region_sum`).  A :class:`Certificate`
is its operators alone; :func:`beta_value_set` rebuilds its value set
with :func:`compose`, :func:`conjugate` and ``ws_sum``, without the
tables' images or frontiers, wherever that set is read: in verification
and in output.  Those, the tables and :func:`epi_membership` run on each
map's and operator's one stored form, cleared when it is built
(:meth:`SampledMap.cleared`, :meth:`LinOp.cleared`, both through
:func:`weakfront.numeric.cleared`), and each conjugate's
cloud is a cleared point set; an operator's images of a map's points are
formed one matrix row at a time over the points' coordinate columns
(:func:`weakfront.staircase2d.row_products`).  The restrictions to C that
a value set reads (F and G on C ∩ dom F, G on C, C's indicator) are kept
in the tables, built once per instance, and maps on one tuple of points
are added row by row, so verifying a certificate hashes, compares and
orders no ``Fraction``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from itertools import chain
from operator import add, mul, sub
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
    Number, Vec, chunked, cleared, dot, mat_vec, require_exact, vec_scale, vec_sub,
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

    Samples are exact, with no repeated x.  A map stores its sorted points
    ``xs`` and its cleared form (:meth:`cleared`) only; :func:`compose`,
    :meth:`restrict` and :meth:`add` build maps from integers alone, and
    :attr:`samples` and :meth:`value` read exact values back on demand.
    Equality and hashing follow the exact samples, not the cleared form: a
    restriction keeps its parent's D.  :meth:`restrict` hashes the points,
    so verification reads restrictions kept per instance (:class:`FacetTables`).
    """

    __slots__ = ("in_dim", "out_dim", "xs", "_cleared")

    def __new__(cls, samples: Iterable[Tuple[Sequence[Number], Sequence[Number]]]):
        pairs = [(tuple(x), tuple(v)) for x, v in samples]
        if not pairs:
            raise ValueError("empty sample list")
        in_dim = len(pairs[0][0])
        out_dim = len(pairs[0][1])
        table = {}
        for x, v in pairs:
            if len(x) != in_dim or len(v) != out_dim:
                raise DimensionError("inconsistent sample dimensions")
            require_exact(x, "sample point")
            require_exact(v, "sample value")
            if x in table:
                raise ValueError(f"duplicate sample point {x!r}")
            table[x] = v
        xs, vs = zip(*sorted(table.items()))
        D, flat = cleared(chain(chain.from_iterable(xs), chain.from_iterable(vs)))
        k = len(xs) * in_dim
        X, V = chunked(flat, in_dim, len(xs)), chunked(flat[k:], out_dim, len(xs))
        return cls._from_ints(xs, D, X, V)

    @classmethod
    def _from_ints(cls, xs: Sequence[Vec], D: int, X: list, V: list) -> "SampledMap":
        """The map on the sorted points ``xs`` cleared as (D, X, V)."""
        F = object.__new__(cls)
        object.__setattr__(F, "in_dim", len(xs[0]))
        object.__setattr__(F, "out_dim", len(V[0]))
        object.__setattr__(F, "xs", tuple(xs))
        object.__setattr__(F, "_cleared", (D, X, V))
        return F

    def __setattr__(self, name, value):
        raise AttributeError("SampledMap is immutable")

    @classmethod
    def indicator(cls, xs: Sequence[Vec], D: int, X: list, out_dim: int) -> "SampledMap":
        """The indicator map of the sorted distinct points ``xs``, cleared
        as (D, X = [D·x]): 0 on them, +inf elsewhere."""
        return cls._from_ints(xs, D, X, [(0,) * out_dim] * len(X))

    def cleared(self) -> tuple:
        """(D, [D·x], [D·F(x)]) in sample order, D a common denominator of
        every sample."""
        return self._cleared

    @property
    def samples(self) -> tuple:
        """The exact samples (x, F(x)), sorted by x."""
        D, _, V = self._cleared
        return tuple(zip(self.xs, (tuple([Fraction(c, D) for c in v]) for v in V)))

    def domain(self) -> tuple:
        return self.xs

    def value(self, x: Sequence[Number]) -> Optional[Vec]:
        x = tuple(x)
        i = bisect_left(self.xs, x)
        if i == len(self.xs) or self.xs[i] != x:
            return None
        D, _, V = self._cleared
        return tuple([Fraction(c, D) for c in V[i]])

    def restrict(self, points: Iterable[Sequence[Number]]) -> "SampledMap":
        keep = {tuple(p) for p in points}
        rows = [i for i, x in enumerate(self.xs) if x in keep]
        if not rows:
            raise ValueError("restriction has empty domain")
        D, X, V = self._cleared
        return SampledMap._from_ints(
            [self.xs[i] for i in rows], D, [X[i] for i in rows], [V[i] for i in rows]
        )

    def add(self, other: "SampledMap") -> "SampledMap":
        """Pointwise sum on the intersection of the two domains.

        Equal domains are summed row by row.  Maps on one ``xs`` tuple, as
        a map and its compositions are, find that out with one identity
        test per row and compare no ``Fraction``.  Other domains are
        intersected by a merge that bisects the points."""
        if self.out_dim != other.out_dim:
            raise DimensionError("sum of maps with different value dimensions")
        (D1, X, V1), (D2, _, V2) = self._cleared, other._cleared
        xs = self.xs
        if xs != other.xs:
            rows, j = [], 0
            for i, x in enumerate(xs):
                j = bisect_left(other.xs, x, j)
                if j < len(other.xs) and other.xs[j] == x:
                    rows.append((i, j))
            if not rows:
                raise ValueError("maps have disjoint domains")
            xs = [xs[i] for i, _ in rows]
            X, V1 = [X[i] for i, _ in rows], [V1[i] for i, _ in rows]
            V2 = [V2[j] for _, j in rows]
        D = math.lcm(D1, D2)
        a, b = D // D1, D // D2
        return SampledMap._from_ints(
            xs, D, [vec_scale(a, x) for x in X],
            [tuple([a * p + b * q for p, q in zip(u, v)]) for u, v in zip(V1, V2)],
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, SampledMap):
            return NotImplemented
        return self.samples == other.samples

    def __hash__(self) -> int:
        return hash(self.samples)

    def __repr__(self) -> str:
        return f"SampledMap({len(self.xs)} samples, {self.in_dim}->{self.out_dim})"


def _int_images(rows: Sequence[tuple], vs: Sequence[tuple]) -> list:
    """The products rows·v of integer vectors v, as integer vectors, formed
    by columns (:func:`weakfront.staircase2d.row_products`)."""
    return list(zip(*row_products(rows, list(zip(*vs)), len(vs))))


def compose(M: LinOp, G: SampledMap) -> SampledMap:
    """The map x -> M(G(x)) on G's domain: with M cleared as (d, d·M), the
    values (d·M)·(D·G(x)) at the scale d·D."""
    if M.cols != G.out_dim:
        raise DimensionError(f"compose: a {M.rows}x{M.cols} operator after {G!r}")
    D, X, V = G.cleared()
    d, dM = M.cleared()
    return SampledMap._from_ints(
        G.xs, d * D, [vec_scale(d, x) for x in X], _int_images(dM, V)
    )


# --- conjugate and epigraphs ------------------------------------------------------


def conjugate(F: SampledMap, L: LinOp, K: Cone) -> GenSet:
    """The conjugate value F*(L) = wsup{L(x) - F(x) : x in dom F}.

    Always a FINITE SUP GenSet for sampled maps.  Its cloud is the integer
    vectors (d·L)·(D·x) - d·(D·F(x)) at the scale d·D, L cleared as (d, d·L).
    """
    if L.cols != F.in_dim or L.rows != F.out_dim or K.dim != F.out_dim:
        raise DimensionError("conjugate: map/operator/cone dimensions disagree")
    D, X, V = F.cleared()
    d, dL = L.cleared()
    LX = row_products(dL, list(zip(*X)), len(X))  # one list per row of L
    cols = [[p - d * c for p, c in zip(lx, v)] for lx, v in zip(LX, zip(*V))]
    return wsup_finite(FiniteVecSet.from_ints(d * D, zip(*cols)), K)


def epi_membership(
    F: SampledMap, L: LinOp, y: Sequence[Number], K: Cone
) -> bool:
    """(L, y) lies in the epigraph of F*: no sample has L(x) - F(x) - y
    strictly inside K (the conjugate never exceeds y anywhere), tested at
    the scale d·D as (d·L)·(D·x) - d·(D·F(x)) - d·D·y, d the lcm of L's
    cleared denominator e and y's, with (d·L) = (d/e)·(e·L)."""
    y = tuple(y)
    if L.cols != F.in_dim or L.rows != F.out_dim or len(y) != K.dim:
        raise DimensionError("epi_membership: dimensions disagree")
    require_exact(y, "query point")
    D, X, V = F.cleared()
    e, eL = L.cleared()
    d, dy = cleared(y, e)
    s, dDy = d // e, vec_scale(D, dy)
    for lx, v in zip(_int_images(eL, X), V):
        w = tuple([s * p - d * c - q for p, c, q in zip(lx, v, dDy)])
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
    k0 = K.interior_witness
    y = tuple(y)
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
    witness just enough to put y on the summed frontier.  Returns the first
    hit in deterministic budget order, or None.
    """
    y = tuple(y)
    k0 = K.interior_witness
    for L1 in cfg.linop_budget(F1.out_dim, F1.in_dim):
        L2 = L - L1
        U1 = conjugate(F1, L1, K)
        U2 = conjugate(F2, L2, K)
        W = ws_sum(U1, U2)
        t = witness_translate(W, y)
        if t < 0:
            continue
        shifted = U2.translate(vec_scale(t, k0))
        summed = ws_sum(U1, shifted)
        if summed.contains(y):
            return L1, L2, U1, shifted
    return None


# --- certificate search -------------------------------------------------------------


MAX_GRID_VALUES = 10_001  # the most values a budget grid may offer each entry


class SearchConfig:
    """Budgets for certificate searches: hint operators first, then the zero
    operator, then full grids (box 0 means "zero only").

    ``t_box``/``t_step`` control the positive-operator grid, ``l_box``/
    ``l_step`` the splitting-operator grids.  A box or step that is not an
    int or a Fraction, a negative box, a step that is not positive and a
    grid of more than ``MAX_GRID_VALUES`` values per entry (2·⌊box/step⌋ + 1,
    counted without building it) are refused here, before any hint is
    tried.  Every budget operator's
    entries are multiples of 1/``den``, the lcm of the steps' denominators
    and of the hints' cleared denominators.  Each (S, K) gets one
    positive-operator budget and each shape one splitting-operator budget,
    both built by one rule and kept as long as the config; so are the
    operator images and split blocks that :func:`certificates` derives from
    them alone, per instance tables and scale, in budget order.
    """

    __slots__ = (
        "t_box", "t_step", "l_box", "l_step", "hints_T", "hints_L", "den", "_budgets",
        "_images",
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
        object.__setattr__(self, "_images", {})

    def __setattr__(self, name, value):
        raise AttributeError("SearchConfig is immutable")

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
    one ``xs`` tuple, so :meth:`SampledMap.add` sums them row by row.  No
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


class FacetTables:
    """An instance's data in the integer facet coordinates of K, for
    :func:`certificates`.

    Rows are the samples X = dom F ∪ dom G in ascending order.  With ``N``
    the primitive integer normals of K and D = ``den`` the lcm of the
    denominators of F's and G's cleared forms, ``xs`` holds D·x, ``nf``
    N·(D·F(x)) and ``gs`` D·G(x) (None off dom F, dom G), rescaled from those
    integers; ``dom_f``, ``dom_g``, ``c`` and ``c_f`` list the rows of
    dom F, dom G, C and C ∩ dom F.  A frontier is the list of the maximal
    facet coordinates of a cloud, in descending lexicographic order, all at
    the one integer scale of their search (:func:`frontier_scale`).  A
    search clears each of its operators into an integer image of the rows
    once (:meth:`image`), in column form: one tuple per facet normal, its
    entries by row.  Every block's frontier is built from those columns,
    one subtraction per facet column (:meth:`block`).

    The tables also keep the restrictions that :func:`beta_value_set`
    reads, built from the same integers at the scale D: ``F_cf`` and
    ``G_cf``, F and G on C ∩ dom F, which share one ``xs`` tuple; ``G_c``,
    G on C; and ``I_c``, C's indicator, which shares ``G_c``'s.  So
    verifying a certificate restricts no map and hashes no ``Fraction``.
    """

    __slots__ = (
        "N", "xs", "nf", "gs", "den", "dom_f", "dom_g", "c", "c_f",
        "F_cf", "G_cf", "G_c", "I_c",
    )

    def __init__(self, P):
        N = self.N = P.K.normals
        den = self.den = math.lcm(P.F.cleared()[0], P.G.cleared()[0])
        fs, gs = {}, {}  # x -> (den·x, den·F(x)), and the same for G
        for M, table in ((P.F, fs), (P.G, gs)):
            D, X, V = M.cleared()
            s = den // D
            for x, u, v in zip(M.xs, X, V):
                table[x] = (vec_scale(s, u), vec_scale(s, v))
        x = sorted(fs.keys() | gs.keys())
        self.xs = [(fs[v] if v in fs else gs[v])[0] for v in x]
        fv = [fs[v][1] if v in fs else None for v in x]
        self.nf = [None if f is None else mat_vec(N, f) for f in fv]
        self.gs = [gs[v][1] if v in gs else None for v in x]
        in_c = set(P.C)
        rows = range(len(x))
        self.dom_f = [i for i in rows if fv[i] is not None]
        self.dom_g = [i for i in rows if self.gs[i] is not None]
        self.c = [i for i in rows if x[i] in in_c]
        self.c_f = [i for i in self.c if fv[i] is not None]
        xcf = tuple([x[i] for i in self.c_f])
        Xcf, Xc = [self.xs[i] for i in self.c_f], [self.xs[i] for i in self.c]
        self.F_cf = SampledMap._from_ints(xcf, den, Xcf, [fv[i] for i in self.c_f])
        self.G_cf = SampledMap._from_ints(xcf, den, Xcf, [self.gs[i] for i in self.c_f])
        self.G_c = SampledMap._from_ints(P.C, den, Xc, [self.gs[i] for i in self.c])
        self.I_c = SampledMap.indicator(P.C, den, Xc, P.K.dim)

    def image(self, M: LinOp, d: int, vs: list) -> tuple:
        """The integer images (N·(d·M))·v of the vectors ``vs``, rows of
        ``xs`` or ``gs``, in column form: one tuple per facet normal a, of
        the products a·(d·M)·v in the order of ``vs``.  One operator's term
        of a block's cloud, at the scale D·d, d a multiple of M's
        denominators."""
        return tuple(
            tuple([sum(map(mul, a, v)) for v in vs])
            for a in facet_matrix(self.N, M, d)
        )

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
    budget enumerate it once."""

    __slots__ = ("_source", "_drawn")

    def __init__(self, source: Iterable):
        self._source = iter(source)
        self._drawn: list = []

    def __iter__(self):
        k = 0
        while True:
            if k == len(self._drawn):
                item = next(self._source, _END)
                if item is _END:
                    return
                self._drawn.append(item)
            yield self._drawn[k]
            k += 1


def certificates(index: int, P, L: LinOp, cfg: SearchConfig) -> Iterator[tuple]:
    """Every budget item of condition ``index`` at the perturbation L, as
    ((T, L', L''), front, block): the operators (None where the index has
    no split) and two :class:`FacetTables` frontiers, lists of integer
    coordinates at ``frontier_scale(P, L, cfg)``, whose ⊎-sum is the item's
    value set W.  ``front`` is the split blocks' sum, the single zero
    vector (the identity of ⊎) at index 1, and ``block`` the T-block.
    Consumers ask for one point's region against W with
    :func:`weakfront.staircase2d.region_sum`, and build W with
    :meth:`FacetTables.sum` only where they need its generators.

    One loop nest serves all three indices: L' outer, L'' middle, T inner,
    each over its budget as the config keeps it (hints, zero, ascending
    grid).  The index decides three things only: whether the L' and L''
    loops run over the splitting budget or over the single item None; the
    rows of the T-block, the conjugate at L - L' - L'' of T∘G on C ∩ dom F
    plus F (index 1), on C (index 2) or on dom G (index 3); and the split
    blocks ⊎-summed in front of it, F*(L') from index 2 on and I_C*(L'')
    at index 3, summed once per (L', L'') pair.  Every block runs on the
    instance's integer tables at that one scale, and no ``Fraction`` point
    is built.

    A block's cloud is linear in its operators, so each operator's integer
    image is computed once (:meth:`FacetTables.image`), as one column per
    facet normal: per call, (N·d·L)·x on the rows, less d·N·F(x) at index
    1; per config, tables and d, for each splitting operator M (N·d·M)·x
    on every row and for each T (N·d·T)·G(x) on each index's rows, when a
    loop first reaches it.  Each block is the frontier of a difference of
    images, formed one facet column at a time from the columns' entries at
    the block's rows: F*(L') of (N·d·L')·x - d·N·F(x) on dom F, I_C*(L'')
    of (N·d·L'')·x on C, and a T-block of the rest's image (L's less the
    split operators', a tuple of columns) minus T's.  F*(L') and I_C*(L'')
    are kept with the images; the T-blocks are kept per call, by the
    rest's columns and the position of T, and dropped with the generator;
    equal images give equal clouds, even for distinct rests.
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
    xs, gs = tab.xs, [tab.gs[i] for i in rows]
    base = tab.image(L, d, [xs[i] for i in rows])
    if index == 1:
        base = tuple(
            tuple([b - d * c for b, c in zip(col, f)])
            for col, f in zip(base, zip(*[tab.nf[i] for i in rows]))
        )
    # kept, by budget position: (N·d·M)·x, F*(L'), I_C*(L''), (N·d·T)·G(x) per index
    images, f_stars, ind_stars, *t_kept = cfg._images.setdefault(
        (tab, d), tuple([] for _ in range(6))
    )
    t_images, dnf = t_kept[index - 1], None
    t_blocks = {}  # the image of L - L' - L'' -> its T-blocks, by position of T

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
                f_stars.append(tab.block(_take(XLp, tab.dom_f), dnf))
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
                front = tab.sum(f_star, ind_stars[k])
                rest = tuple(
                    tuple(map(sub, b, c)) for b, c in zip(rest_p, _take(XLpp, rows))
                )
            blocks = t_blocks.setdefault(rest, [])
            for t, T in enumerate(Ts):
                if t == len(blocks):
                    if t == len(t_images):
                        t_images.append(tab.image(T.op, d, gs))
                    blocks.append(tab.block(rest, t_images[t]))
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
    q = tuple([s * c // e for c in K.basis.to_quad(Y)])
    for ops, front, block in certificates(i, P, L, cfg):
        if region_sum(front, block, q) != LOWER:
            return Certificate(i, *ops)
    return None
