"""Conjugates of sampled vector maps and the certificate calculus on them.

A :class:`SampledMap` is a finite graph {(x, F(x))}; off-sample the map is
+inf, so conjugates are weak suprema of finite value clouds and everything
stays exact.  On top of that this module provides epigraph membership, the
extended-epigraph elements (L, U), their ⊞-sum, the Ψ collapse back to
ordinary epigraphs, and the searches that produce certificates for the
three layered inequality conditions (index 1: a positive operator T; index
2: split (L', T); index 3: split (L', L'', T)).

One generator, :func:`certificates`, enumerates a budget for all three
indices; the certificate search takes its first qualifying item and the
dual values fold over all of them.  It memoises the conjugate blocks that
certificates share for the length of one call only, so nothing is cached
between calls.  :func:`beta_value_set` rebuilds one certificate's value set
from scratch and is what verification and conversion use.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence, Tuple

from .cones import (
    Cone,
    DimensionError,
    LinOp,
    PointClass,
    PosOp,
    classify_point,
    sample_linops,
    sample_positive_operators,
)
from .numeric import Number, Vec, dot, vec_scale, vec_sub, vec_add
from .order_sets import (
    FiniteVecSet,
    GenSet,
    Orient,
    RegionLabel,
    Tag,
    set_preceq,
    ws_sum,
    wsup_finite,
)


class SampledMap:
    """Finite-sample vector map; +inf off the sample (so always proper).

    Samples are stored sorted by x and must not repeat x values.
    """

    __slots__ = ("in_dim", "out_dim", "samples", "_table")

    def __init__(self, samples: Iterable[Tuple[Sequence[Number], Sequence[Number]]]):
        pairs = [(tuple(x), tuple(v)) for x, v in samples]
        if not pairs:
            raise ValueError("empty sample list")
        in_dim = len(pairs[0][0])
        out_dim = len(pairs[0][1])
        table = {}
        for x, v in pairs:
            if len(x) != in_dim or len(v) != out_dim:
                raise DimensionError("inconsistent sample dimensions")
            if x in table:
                raise ValueError(f"duplicate sample point {x!r}")
            table[x] = v
        object.__setattr__(self, "in_dim", in_dim)
        object.__setattr__(self, "out_dim", out_dim)
        object.__setattr__(self, "samples", tuple(sorted(table.items())))
        object.__setattr__(self, "_table", table)

    def __setattr__(self, name, value):
        raise AttributeError("SampledMap is immutable")

    @classmethod
    def indicator(cls, points: Iterable[Sequence[Number]], out_dim: int) -> "SampledMap":
        """The indicator map of a point set: 0 on the set, +inf elsewhere."""
        zero = (0,) * out_dim
        return cls((tuple(p), zero) for p in points)

    @classmethod
    def linear(cls, op: LinOp, points: Iterable[Sequence[Number]]) -> "SampledMap":
        return cls((tuple(p), op.apply(p)) for p in points)

    def domain(self) -> tuple:
        return tuple(x for x, _ in self.samples)

    def value(self, x: Sequence[Number]) -> Optional[Vec]:
        return self._table.get(tuple(x))

    def restrict(self, points: Iterable[Sequence[Number]]) -> "SampledMap":
        keep = {tuple(p) for p in points}
        kept = [(x, v) for x, v in self.samples if x in keep]
        if not kept:
            raise ValueError("restriction has empty domain")
        return SampledMap(kept)

    def add(self, other: "SampledMap") -> "SampledMap":
        """Pointwise sum on the intersection of the two domains."""
        if self.out_dim != other.out_dim:
            raise DimensionError("sum of maps with different value dimensions")
        merged = [
            (x, vec_add(v, other._table[x]))
            for x, v in self.samples
            if x in other._table
        ]
        if not merged:
            raise ValueError("maps have disjoint domains")
        return SampledMap(merged)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SampledMap):
            return NotImplemented
        return self.samples == other.samples

    def __hash__(self) -> int:
        return hash(self.samples)

    def __repr__(self) -> str:
        return f"SampledMap({len(self.samples)} samples, {self.in_dim}->{self.out_dim})"


def compose(op, G: SampledMap) -> SampledMap:
    """The map x -> op(G(x)) on G's domain (op is a LinOp or PosOp)."""
    return SampledMap((x, op.apply(v)) for x, v in G.samples)


# --- conjugate and epigraphs ------------------------------------------------------


def conjugate(F: SampledMap, L: LinOp, K: Cone) -> GenSet:
    """The conjugate value F*(L) = wsup{L(x) - F(x) : x in dom F}.

    Always a FINITE SUP GenSet for sampled maps.
    """
    if L.cols != F.in_dim or L.rows != F.out_dim or K.dim != F.out_dim:
        raise DimensionError("conjugate: map/operator/cone dimensions disagree")
    cloud = FiniteVecSet(
        vec_sub(L.apply(x), v) for x, v in F.samples
    )
    return wsup_finite(cloud, K)


def epi_membership(
    F: SampledMap, L: LinOp, y: Sequence[Number], K: Cone
) -> bool:
    """(L, y) lies in the epigraph of F*: no sample has L(x) - F(x) - y
    strictly inside K (the conjugate never exceeds y anywhere)."""
    y = tuple(y)
    if L.cols != F.in_dim or L.rows != F.out_dim or len(y) != K.dim:
        raise DimensionError("epi_membership: dimensions disagree")
    for x, v in F.samples:
        d = vec_sub(vec_sub(L.apply(x), v), y)
        if classify_point(K, d) is PointClass.INTERIOR:
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


class SearchConfig:
    """Budgets for certificate searches: hint operators first, then the zero
    operator, then full grids (box 0 means "zero only").

    ``t_box``/``t_step`` control the positive-operator grid, ``l_box``/
    ``l_step`` the splitting-operator grids.
    """

    __slots__ = ("t_box", "t_step", "l_box", "l_step", "hints_T", "hints_L")

    def __init__(
        self,
        t_box: Number = 1,
        t_step: Number = 1,
        l_box: Number = 0,
        l_step: Number = 1,
        hints_T: Sequence[LinOp] = (),
        hints_L: Sequence[LinOp] = (),
    ):
        object.__setattr__(self, "t_box", t_box)
        object.__setattr__(self, "t_step", t_step)
        object.__setattr__(self, "l_box", l_box)
        object.__setattr__(self, "l_step", l_step)
        object.__setattr__(self, "hints_T", tuple(hints_T))
        object.__setattr__(self, "hints_L", tuple(hints_L))

    def __setattr__(self, name, value):
        raise AttributeError("SearchConfig is immutable")

    def posop_budget(self, S: Cone, K: Cone) -> Iterable[PosOp]:
        """Hints, then zero, then the ascending positive-operator grid."""
        seen = set()
        for hint in self.hints_T:
            if hint.rows == K.dim and hint.cols == S.dim:
                if hint.entries not in seen:
                    seen.add(hint.entries)
                    yield PosOp(hint, S, K)
        zero = LinOp.zero(K.dim, S.dim)
        if zero.entries not in seen:
            seen.add(zero.entries)
            yield PosOp(zero, S, K)
        if self.t_box != 0:
            for T in sample_positive_operators(S, K, self.t_box, self.t_step):
                if T.op.entries not in seen:
                    seen.add(T.op.entries)
                    yield T

    def linop_budget(self, rows: int, cols: int) -> Iterable[LinOp]:
        """Hints, then zero, then the ascending full grid."""
        seen = set()
        for hint in self.hints_L:
            if hint.rows == rows and hint.cols == cols:
                if hint.entries not in seen:
                    seen.add(hint.entries)
                    yield hint
        zero = LinOp.zero(rows, cols)
        if zero.entries not in seen:
            seen.add(zero.entries)
            yield zero
        if self.l_box != 0:
            for L in sample_linops(rows, cols, self.l_box, self.l_step):
                if L.entries not in seen:
                    seen.add(L.entries)
                    yield L


class Certificate:
    """A verified witness for one of the layered inequality conditions.

    ``value_set`` is the condition's left-hand WS-sum W; the certificate
    qualifies a point y exactly when y is not strictly below W.
    """

    __slots__ = ("index", "T", "Lp", "Lpp", "value_set")

    def __init__(
        self,
        index: int,
        T: PosOp,
        Lp: Optional[LinOp] = None,
        Lpp: Optional[LinOp] = None,
        value_set: Optional[GenSet] = None,
    ):
        if index not in (1, 2, 3):
            raise ValueError("certificate index must be 1, 2 or 3")
        if (Lp is None) != (index == 1):
            raise ValueError("split operator L' is present iff index >= 2")
        if (Lpp is None) != (index != 3):
            raise ValueError("second split operator L'' is present iff index == 3")
        if value_set is None or value_set.tag is not Tag.FINITE:
            raise ValueError("certificate value set must be a FINITE GenSet")
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "Lp", Lp)
        object.__setattr__(self, "Lpp", Lpp)
        object.__setattr__(self, "value_set", value_set)

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
    """
    K = P.K
    TG = compose(T, P.G)
    if index == 1:
        core = P.F.restrict(P.C).add(TG.restrict(P.C))
        return conjugate(core, L, K)
    if index == 2:
        block = TG.restrict(P.C)
        return ws_sum(
            conjugate(P.F, Lp, K),
            conjugate(block, L - Lp, K),
        )
    if index == 3:
        ind_c = SampledMap.indicator(P.C, K.dim)
        first = ws_sum(
            conjugate(P.F, Lp, K),
            conjugate(ind_c, Lpp, K),
        )
        return ws_sum(first, conjugate(TG, L - Lp - Lpp, K))
    raise ValueError("index must be 1, 2 or 3")


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


def certificates(
    index: int, P, L: LinOp, cfg: SearchConfig
) -> Iterator[Certificate]:
    """Every budget certificate of condition ``index`` at the perturbation L,
    each carrying the value set :func:`beta_value_set` would rebuild for it.

    Order: L' outer, L'' middle, T inner, each budget in its own order
    (hints, zero, ascending grid).  Blocks shared between certificates are
    computed once per call and dropped with the generator: T∘G per T, F*(L')
    per L', I_C*(L'') per L'', F*(L') ⊎ I_C*(L'') per (L', L''), and
    (T∘G)*(L - L' - L'') per (T, L' + L'').  Budget items drawn by the first
    pass are replayed by the later ones.
    """
    if index not in (1, 2, 3):
        raise ValueError("condition index must be 1, 2 or 3")
    K = P.K
    Ts = _Replay(cfg.posop_budget(P.S, K))
    if index == 1:
        F_C = P.F.restrict(P.C)
        for T in Ts:
            core = F_C.add(compose(T, P.G).restrict(P.C))
            yield Certificate(1, T, value_set=conjugate(core, L, K))
        return
    if index == 2:
        blocks = {}  # T -> (T∘G restricted to C)
        for Lp in cfg.linop_budget(K.dim, P.F.in_dim):
            f_star = conjugate(P.F, Lp, K)
            rest = L - Lp
            for T in Ts:
                block = blocks.get(T.op.entries)
                if block is None:
                    block = blocks[T.op.entries] = compose(T, P.G).restrict(P.C)
                W = ws_sum(f_star, conjugate(block, rest, K))
                yield Certificate(2, T, Lp=Lp, value_set=W)
        return
    Ls = _Replay(cfg.linop_budget(K.dim, P.F.in_dim))
    ind_c = SampledMap.indicator(P.C, K.dim)
    composed = {}  # T -> T∘G
    ind_stars = {}  # L'' -> I_C*(L'')
    tg_stars = {}  # (T, L - L' - L'') -> (T∘G)*(L - L' - L'')
    for Lp in Ls:
        f_star = conjugate(P.F, Lp, K)
        for Lpp in Ls:
            ind_star = ind_stars.get(Lpp.entries)
            if ind_star is None:
                ind_star = ind_stars[Lpp.entries] = conjugate(ind_c, Lpp, K)
            first = ws_sum(f_star, ind_star)
            rest = L - Lp - Lpp
            for T in Ts:
                key = (T.op.entries, rest.entries)
                tg_star = tg_stars.get(key)
                if tg_star is None:
                    TG = composed.get(T.op.entries)
                    if TG is None:
                        TG = composed[T.op.entries] = compose(T, P.G)
                    tg_star = tg_stars[key] = conjugate(TG, rest, K)
                W = ws_sum(first, tg_star)
                yield Certificate(3, T, Lp=Lp, Lpp=Lpp, value_set=W)


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
    """
    y = tuple(y)
    K = P.K
    if L.rows != K.dim or L.cols != P.F.in_dim or len(y) != K.dim:
        raise DimensionError("script_A_membership: dimensions disagree")
    for cert in certificates(i, P, L, cfg):
        if cert.value_set.classify(y) is not RegionLabel.LOWER:
            return cert
    return None
