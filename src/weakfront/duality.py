"""Sampled vector optimization problems and their dual values.

A :class:`ProblemInstance` is the sampled data of

    minimize (weakly)  F(x)   subject to  x in C,  G(x) in -S

under the cone order of K.  The three dual problems attach, to each
certificate (a positive operator T, optionally with splitting operators),
a lower frontier of guaranteed values; the dual value of a search budget is
the weak supremum of the union of those frontiers.  That supremum is
computed exactly: each certificate contributes an upward region (its
generators plus the cone) and the union's supremum is the boundary of the
intersection of those regions.  The merge works on the negated picture,
in the orientation of the value sets W themselves: there each region is
the set below W's frontier, and in facet coordinates (see
:mod:`weakfront.staircase2d`) the generators of the regions' intersection
are the maxima of the componentwise minima (the meets) of pairs.  Mapping
them back needs the inverse of the normal matrix, so K must be simplicial,
of any dimension.  Every generator of the result therefore carries a
concrete certificate that re-verifies.  A certificate whose region already
contains every current generator cannot change the intersection, so the
merge skips it: no current generator is UPPER against its frontier
(:func:`weakfront.staircase2d.region_sums`, asked of the enumerator's two
frontiers without building their ⊎-sum), and it builds a frontier only for
the few certificates that change the merge, joined in by
:func:`weakfront.staircase2d.meet`.  The merge and the search for
each generator's certificate run on the enumerator's integer frontiers,
which share one scale, with no per-piece negation; only the generators are
negated and mapped back, once, as integer vectors through the cleared
inverse of the normal matrix, and a certificate is stored as its operators.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from .cones import Cone, DimensionError, LinOp, PointClass, classify_point
from .numeric import (
    Number, Vec, encode_mat, encode_vec, mat_vec, require_exact, vec_neg,
)
from .order_sets import (
    FiniteVecSet,
    GenSet,
    Orient,
    Tag,
    set_preceq,
    winf_finite,
)
from .staircase2d import FRONTIER, UPPER, meet, region_sums
from .conjugate import (
    Certificate,
    FacetTables,
    SampledMap,
    SearchConfig,
    certificates,
    frontier_scale,
    value_cloud,
)
from .farkas import HardFailure, alpha_holds

_DUAL_NAMES = ("VD1", "VD2", "VD3")


class ProblemInstance:
    """Sampled problem data: maps F (objective) and G (constraint) on a
    shared domain sample, the constraint index set C, and the two cones.

    ``flags`` records structural facts that finite samples cannot express
    (linearity of the underlying data, convexity of the underlying C, an
    interior-feasible Slater point); they gate how dual gaps are reported.
    C is sorted and deduplicated on integers, as a :class:`FiniteVecSet`.
    ``tables`` is the data in integer facet coordinates (:class:`FacetTables`),
    built once, at construction, from that set and the maps; they refuse a
    C point outside dom G and an empty feasible sample, and keep every
    restriction the instance reads.
    ``feasible_F`` is theirs: F on A ∩ dom F, A = C ∩ G⁻¹(-S) the feasible
    sample, the set (alpha) and (VP_L) range over.
    """

    __slots__ = ("F", "G", "C", "K", "S", "hints_T", "hints_L", "flags", "tables")

    def __init__(
        self,
        F: SampledMap,
        G: SampledMap,
        C: Sequence[Sequence[Number]],
        K: Cone,
        S: Cone,
        hints_T: Sequence[LinOp] = (),
        hints_L: Sequence[LinOp] = (),
        flags: Optional[dict] = None,
    ):
        if F.in_dim != G.in_dim:
            raise DimensionError("F and G have different domain dimensions")
        if F.out_dim != K.dim:
            raise DimensionError("F values and K live in different dimensions")
        if G.out_dim != S.dim:
            raise DimensionError("G values and S live in different dimensions")
        C_pts = [tuple(x) for x in C]
        if not C_pts:
            raise ValueError("empty constraint index set C")
        for x in C_pts:
            if len(x) != F.in_dim:
                raise DimensionError("C point dimension disagrees with domain")
            require_exact(x, "C point")
        C_set = FiniteVecSet(C_pts)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "C", C_set.points)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "hints_T", tuple(hints_T))
        object.__setattr__(self, "hints_L", tuple(hints_L))
        object.__setattr__(self, "flags", dict(flags or {}))
        object.__setattr__(self, "tables", FacetTables(self, C_set))

    def __setattr__(self, name, value):
        raise AttributeError("ProblemInstance is immutable")

    @property
    def feasible_F(self) -> SampledMap:
        return self.tables.feasible_F

    @property
    def n(self) -> int:
        return self.F.in_dim

    @property
    def m(self) -> int:
        return self.F.out_dim

    @property
    def p(self) -> int:
        return self.G.out_dim

    def search_config(self, **budget) -> SearchConfig:
        """A SearchConfig of the budget keywords (``t_box``, ``t_step``,
        ``l_box``, ``l_step``; its defaults for the others) with this
        instance's hints merged in."""
        return SearchConfig(hints_T=self.hints_T, hints_L=self.hints_L, **budget)

    def slater_holds(self) -> Optional[bool]:
        """Exact check of the interior-feasibility flag: the declared point
        x1 must have G(x1) strictly inside -S.  None when no point is
        declared."""
        x1 = self.flags.get("slater_point")
        if x1 is None:
            return None
        gx = self.G.value(tuple(x1))
        if gx is None:
            return False
        return classify_point(self.S, vec_neg(gx)) is PointClass.INTERIOR

    def theorem_flags(self) -> bool:
        """True when the declared structure matches the strong-duality
        hypotheses: linear data, convex C, and a verified Slater point."""
        return bool(
            self.flags.get("is_linear_F")
            and self.flags.get("is_linear_G")
            and self.flags.get("is_convex_C")
            and self.slater_holds()
        )

    def __repr__(self) -> str:
        return (
            f"ProblemInstance(n={self.n}, m={self.m}, p={self.p}, "
            f"|C|={len(self.C)})"
        )


def winf_vp(P: ProblemInstance, L: LinOp) -> GenSet:
    """The primal value frontier of (VP_L): winf{F(x) - L(x) : x in A ∩ dom F},
    of the negated integer cloud of F*(L) on ``P.feasible_F``
    (:func:`weakfront.conjugate.value_cloud`), at its scale."""
    if L.rows != P.m or L.cols != P.n:
        raise DimensionError("winf_vp: perturbation shape disagrees")
    s, cols = value_cloud(P.feasible_F, L)
    return winf_finite(FiniteVecSet.from_ints(s, map(vec_neg, zip(*cols))), P.K)


class DualValue:
    """The dual value of one problem/budget: the exact weak supremum of all
    certificate value frontiers, with one re-verifiable certificate stored
    per attained generator."""

    __slots__ = ("which", "perturbation", "attained", "frontier", "certificates")

    def __init__(
        self,
        which: str,
        perturbation: LinOp,
        attained: FiniteVecSet,
        frontier: GenSet,
        certificates: Tuple[Tuple[Vec, Certificate], ...],
    ):
        object.__setattr__(self, "which", which)
        object.__setattr__(self, "perturbation", perturbation)
        object.__setattr__(self, "attained", attained)
        object.__setattr__(self, "frontier", frontier)
        object.__setattr__(self, "certificates", certificates)

    def __setattr__(self, name, value):
        raise AttributeError("DualValue is immutable")

    def __repr__(self) -> str:
        return (
            f"DualValue({self.which}, attained={list(self.attained.points)!r})"
        )


def dual_value(
    P: ProblemInstance,
    which: str,
    L: LinOp,
    cfg: SearchConfig,
) -> DualValue:
    """Evaluate one dual problem over a certificate budget, exactly.

    Each certificate guarantees every value on (and weakly below) the
    frontier of its negated value set; the budget's dual value is the weak
    supremum of the union of those frontiers, i.e. the boundary of the
    intersection of the upward regions.  The merge runs on the integer
    facet coordinates of W's frontiers that the enumerator computed, all at
    the search's one scale, and keeps the running generators negated, in
    W's orientation: the componentwise minima of pairs of current and piece
    generators, then their maxima.  Each result u is mapped back once, on
    integers, to the vector -(δ·N^{-1})·u at the scale δ·s, with N^{-1}
    cleared as (δ, δ·N^{-1}) (:class:`RayBasis`) and s the frontier scale;
    those vectors are sorted and form the attained set as they are, with
    no division.  A certificate is skipped when every current generator is
    LOWER or FRONTIER against its frontier, since its region then contains
    them all and the merge would return them unchanged; W's frontier is
    built (:meth:`FacetTables.sum`) only for the first certificate and for
    those not skipped, and joined in by ``meet``.  Each generator of the
    result lies on some certificate's frontier and is stored with the first
    such certificate in budget order, skipped ones included; the owners are
    found in a second pass of the enumerator that stops once every
    generator has one, and stored as their operators, paired with their
    points in the attained set's order (``DualValue.certificates``).  Both
    passes see each distinct value set once, as the enumerator yields them,
    and label all current generators against it at once (``region_sums``).
    The second pass reads what the first kept in the config's memo
    (:class:`~weakfront.conjugate.SearchConfig`), whose cap is checked once
    per call, so the owner pass never starts on an emptied one.  K must be
    simplicial (exactly ``dim`` linearly independent normals, so that its
    basis has an inverse), of any dimension.
    """
    if which not in _DUAL_NAMES:
        raise ValueError(f"unknown dual problem {which!r}")
    if L.rows != P.m or L.cols != P.n:
        raise DimensionError("dual_value: perturbation shape disagrees")
    basis = P.K.basis
    if basis.inverse is None:
        raise ValueError(
            "exact dual merge needs a simplicial cone K (exactly dim linearly "
            "independent normals)"
        )
    index = int(which[-1])
    memo = cfg._memo_for_call()  # one for both passes
    low = None  # the merged generators, negated: in W's orientation
    for _, front, block in certificates(index, P, L, cfg, memo):
        if low is None:
            low = P.tables.sum(front, block)
        elif UPPER in region_sums(front, block, low):
            low = meet(low, P.tables.sum(front, block))
    if low is None:
        raise ValueError("empty certificate budget")

    # u is on the frontier of W exactly when its point is on that of -W
    owner = {}
    for ops, front, block in certificates(index, P, L, cfg, memo):
        for u, code in zip(low, region_sums(front, block, low)):
            if code == FRONTIER and u not in owner:
                owner[u] = Certificate(index, *ops)
        if len(owner) == len(low):
            break
    else:  # cannot happen: each point is on the region boundary
        raise RuntimeError("an attained point has no certificate on its frontier")
    delta, inverse = basis.inverse
    # each point -N^{-1}·u/s as the integer vector -(δ·N^{-1})·u at the scale δ·s
    points = sorted((vec_neg(mat_vec(inverse, u)), u) for u in low)
    scale = delta * frontier_scale(P, L, cfg)
    attained = FiniteVecSet.from_ints(scale, [h for h, _ in points])
    frontier = GenSet(Tag.FINITE, Orient.INF, attained, P.K)
    owners = tuple(zip(attained.points, [owner[u] for _, u in points]))
    return DualValue(which, L, attained, frontier, owners)


def weak_duality_check(
    P: ProblemInstance, L: LinOp, cfg: SearchConfig
) -> Tuple[bool, bool, bool]:
    """The three weak-duality relations, in order:

    wsup(VD3) precedes wsup(VD2);  wsup(VD2) precedes wsup(VD1);
    wsup(VD1) precedes winf(VP).

    All three hold for every budget built from shared operator grids.
    """
    d1 = dual_value(P, "VD1", L, cfg)
    d2 = dual_value(P, "VD2", L, cfg)
    d3 = dual_value(P, "VD3", L, cfg)
    vp = winf_vp(P, L)
    return (
        set_preceq(d3.frontier, d2.frontier),
        set_preceq(d2.frontier, d1.frontier),
        set_preceq(d1.frontier, vp),
    )


class StrongDualityResult:
    """Outcome of a strong-duality check: HOLDS, GAP (with a witness where
    the frontiers differ: a primal frontier generator no budget certificate
    attains, or, when there is none, an attained point that is not a primal
    generator), or INCONCLUSIVE (convex-flagged instance, bare budget)."""

    __slots__ = ("status", "which", "primal", "dual", "witness", "record")

    def __init__(self, status, which, primal, dual, witness=None, record=None):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "which", which)
        object.__setattr__(self, "primal", primal)
        object.__setattr__(self, "dual", dual)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "record", record)

    def __setattr__(self, name, value):
        raise AttributeError("StrongDualityResult is immutable")

    def __repr__(self) -> str:
        if self.witness is None:
            return f"StrongDualityResult({self.status}, {self.which})"
        return (
            f"StrongDualityResult({self.status}, {self.which}, "
            f"witness={self.witness!r})"
        )


def strong_duality_check(
    P: ProblemInstance,
    L: LinOp,
    cfg: SearchConfig,
    which: str = "VD1",
) -> StrongDualityResult:
    """Compare winf(VP_L) with the budget dual value, exactly.

    HOLDS when the two canonical frontiers coincide — then every primal
    frontier generator is an attained, certificate-carrying dual value.
    Otherwise GAP reports a witness with its (alpha)/certificate record:
    the first primal generator that is not attained, with ``beta_status``
    NOT_FOUND, or, when every primal generator is attained, the first
    attained point that is not a primal generator, with ``beta_status``
    FOUND.  GAP is downgraded to INCONCLUSIVE when the instance is
    convex-flagged but the budget carried no hints (the search, not the
    theorem, ran out).
    """
    vp = winf_vp(P, L)
    dv = dual_value(P, which, L, cfg)
    if dv.frontier == vp:
        return StrongDualityResult("HOLDS", which, vp, dv)
    primal, attained = vp.generators.points, dv.attained.points
    witness = next((g for g in primal if g not in attained), None)
    found = witness is None
    if found:
        witness = next(h for h in attained if h not in primal)
    record = {
        "witness": encode_vec(witness),
        "alpha": alpha_holds(P, L, vec_neg(witness)),
        "beta_status": "FOUND" if found else "NOT_FOUND",
    }
    convex = bool(
        P.flags.get("is_convex_C")
        and P.flags.get("is_linear_F")
        and P.flags.get("is_linear_G")
    )
    bare = not (cfg.hints_T or cfg.hints_L)
    status = "INCONCLUSIVE" if (convex and bare) else "GAP"
    return StrongDualityResult(status, which, vp, dv, witness, record)


def stable_strong_duality_sweep(
    P: ProblemInstance,
    L_grid: Sequence[LinOp],
    cfg: SearchConfig,
    which: str = "VD1",
) -> dict:
    """strong_duality_check across a grid of perturbations L.

    A GAP on an instance whose declared structure satisfies the
    strong-duality hypotheses, searched with hints, is a hard failure: the
    theorem says the certificate exists, so the implementation lost it.
    """
    rows = []
    counts = {"HOLDS": 0, "GAP": 0, "INCONCLUSIVE": 0}
    hinted = bool(cfg.hints_T or cfg.hints_L)
    for L in L_grid:
        res = strong_duality_check(P, L, cfg, which)
        counts[res.status] += 1
        row = {"L": encode_mat(L.entries), "status": res.status}
        if res.witness is not None:
            row["witness"] = encode_vec(res.witness)
            row["record"] = res.record
        rows.append(row)
        if res.status == "GAP" and P.theorem_flags() and hinted:
            raise HardFailure(
                "strong duality gap on a hinted instance satisfying the "
                "strong-duality hypotheses",
                {"L": encode_mat(L.entries), "record": res.record},
            )
    return {
        "format": 1,
        "which": which,
        "rows": rows,
        "summary": counts,
    }
