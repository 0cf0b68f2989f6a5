"""Weak suprema/infima of finite vector sets and the set order they induce.

A finite set M in an ordered vector space splits the space into three regions
relative to its weak supremum:

* LOWER    -- points strictly below some element of M (inside ``M - int K``),
* FRONTIER -- the weak supremum itself (boundary of ``M - int K``),
* UPPER    -- everything else.

``wsup_finite`` returns the frontier as a :class:`GenSet`: a canonical
generator list plus an orientation (SUP for suprema, INF for infima) and the
cone.  Set comparison (``set_preceq``), the sum ``ws_sum`` and the partition
check are built on the same region tests.

Points are exact (ints and Fractions), so canonical generator lists are
unique and every region test is an exact sign test.  On every polyhedral
cone the region tests and the canonical generators run on the integer facet
coordinates N·y (:mod:`weakfront.staircase2d`).
"""

from __future__ import annotations

import enum
from typing import Callable, Iterable, Optional, Sequence

from .cones import Cone, DimensionError
from .numeric import (
    Number,
    Vec,
    require_exact,
    mat_rank,
    vec_neg,
    vec_add,
)
from . import staircase2d


class RegionLabel(enum.Enum):
    LOWER = "LOWER"
    FRONTIER = "FRONTIER"
    UPPER = "UPPER"


_CODE_TO_LABEL = {
    staircase2d.LOWER: RegionLabel.LOWER,
    staircase2d.FRONTIER: RegionLabel.FRONTIER,
    staircase2d.UPPER: RegionLabel.UPPER,
}


class Orient(enum.Enum):
    """Whether a GenSet is a weak supremum (SUP) or weak infimum (INF)."""

    SUP = "SUP"
    INF = "INF"


class Tag(enum.Enum):
    FINITE = "FINITE"
    PLUS_INF = "PLUS_INF"
    MINUS_INF = "MINUS_INF"


class IllegalInfinitySum(ArithmeticError):
    """Raised when a sum would combine {+inf} with {-inf}."""


class FiniteVecSet:
    """Immutable nonempty finite set of same-dimension vectors.

    Points are deduplicated and kept lexicographically sorted, so two sets
    with the same elements compare equal and iterate in the same order.
    """

    __slots__ = ("points", "dim")

    def __init__(self, points: Iterable[Sequence[Number]]):
        seen = set()
        acc = []
        dim = None
        for p in points:
            v = tuple(p)
            if dim is None:
                dim = len(v)
            elif len(v) != dim:
                raise DimensionError(
                    f"mixed point dimensions: {len(v)} vs {dim}"
                )
            require_exact(v, "point")
            if v not in seen:
                seen.add(v)
                acc.append(v)
        if not acc:
            raise ValueError("empty point set")
        acc.sort()
        object.__setattr__(self, "points", tuple(acc))
        object.__setattr__(self, "dim", dim)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteVecSet is immutable")

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, p) -> bool:
        return tuple(p) in self.points

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteVecSet):
            return NotImplemented
        return self.points == other.points

    def __hash__(self) -> int:
        return hash(self.points)

    def __repr__(self) -> str:
        return f"FiniteVecSet({list(self.points)!r})"

    def negate(self) -> "FiniteVecSet":
        return FiniteVecSet(vec_neg(p) for p in self.points)

    def translate(self, v: Sequence[Number]) -> "FiniteVecSet":
        v = tuple(v)
        return FiniteVecSet(vec_add(p, v) for p in self.points)

    def minkowski(self, other: "FiniteVecSet") -> "FiniteVecSet":
        if self.dim != other.dim:
            raise DimensionError("Minkowski sum of mismatched dimensions")
        return FiniteVecSet(
            vec_add(p, q) for p in self.points for q in other.points
        )


# --- region classification ---------------------------------------------------


def classify_against(
    M: FiniteVecSet, K: Cone, y: Sequence[Number]
) -> RegionLabel:
    """Region of ``y`` relative to the weak supremum of finite ``M``.

    LOWER means ``y`` lies in ``M - int K``, FRONTIER means ``y`` is in the
    weak supremum itself, UPPER covers the rest of the space.
    """
    y = tuple(y)
    if len(y) != K.dim or M.dim != K.dim:
        raise DimensionError("point/set/cone dimensions disagree")
    return classify_many(M, K, [y])[0]


def classify_many(
    M: FiniteVecSet,
    K: Cone,
    points: Sequence[Sequence[Number]],
    *,
    sup: bool = True,
) -> list:
    """Bulk version of :func:`classify_against` (used by the verify suites).

    ``sup=False`` classifies against the weak infimum instead.  The
    queries run as dominance tests on integer facet coordinates.
    """
    pts = [tuple(p) for p in points]
    for p in pts:
        if len(p) != K.dim:
            raise DimensionError("point/cone dimensions disagree")
        require_exact(p, "query point")
    codes = staircase2d.classify_points_2d(K.basis, M.points, pts, sup=sup)
    return [_CODE_TO_LABEL[c] for c in codes]


# --- canonical generators / wsup / winf --------------------------------------


def _canonical_sup_points(points, K: Cone):
    """Drop every point weakly dominated by another; lex-min keeps ties.

    ``p`` is dropped when some other point ``q`` has ``q - p in K`` and
    either the dominance is strict (``p - q not in K``) or ``q`` precedes
    ``p`` lexicographically.  Points equivalent under the cone's lineality
    share facet coordinates, and :func:`staircase2d.maxima` keeps the first
    of equal coordinates, so ``points`` in lexicographic order keep exactly
    the lex-smallest member of each class.
    """
    idx = staircase2d.canonical_indices_2d(K.basis, points)
    return tuple(points[i] for i in idx)


class GenSet:
    """A weak supremum or infimum: canonical generators + orientation + cone.

    ``tag`` distinguishes the two infinite elements ({+inf}, {-inf}) from
    finite frontiers.  Finite GenSets with the same orientation are equal
    exactly when their canonical generator lists are equal.
    """

    __slots__ = ("tag", "orient", "generators", "cone")

    def __init__(
        self,
        tag: Tag,
        orient: Orient,
        generators: Optional[FiniteVecSet],
        cone: Cone,
    ):
        if tag is Tag.FINITE:
            if generators is None:
                raise ValueError("finite GenSet needs generators")
            if generators.dim != cone.dim:
                raise DimensionError("generator/cone dimensions disagree")
        elif generators is not None:
            raise ValueError("infinite GenSet carries no generators")
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "orient", orient)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "cone", cone)

    def __setattr__(self, name, value):
        raise AttributeError("GenSet is immutable")

    # construction helpers ----------------------------------------------------

    @classmethod
    def plus_inf(cls, cone: Cone, orient: Orient = Orient.SUP) -> "GenSet":
        return cls(Tag.PLUS_INF, orient, None, cone)

    @classmethod
    def minus_inf(cls, cone: Cone, orient: Orient = Orient.SUP) -> "GenSet":
        return cls(Tag.MINUS_INF, orient, None, cone)

    # queries ------------------------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self.tag is Tag.FINITE

    def classify(self, y: Sequence[Number]) -> RegionLabel:
        """Region of ``y`` relative to this set (LOWER = strictly below it)."""
        if self.tag is Tag.PLUS_INF:
            return RegionLabel.LOWER
        if self.tag is Tag.MINUS_INF:
            return RegionLabel.UPPER
        return classify_many(
            self.generators, self.cone, [y], sup=self.orient is Orient.SUP
        )[0]

    def classify_many(self, points: Sequence[Sequence[Number]]) -> list:
        if self.tag is Tag.PLUS_INF:
            return [RegionLabel.LOWER] * len(points)
        if self.tag is Tag.MINUS_INF:
            return [RegionLabel.UPPER] * len(points)
        return classify_many(
            self.generators, self.cone, points, sup=self.orient is Orient.SUP
        )

    def contains(self, y: Sequence[Number]) -> bool:
        if not self.is_finite:
            return False
        return self.classify(y) is RegionLabel.FRONTIER

    # algebra -------------------------------------------------------------------

    def negate(self) -> "GenSet":
        flipped = Orient.INF if self.orient is Orient.SUP else Orient.SUP
        if self.tag is Tag.PLUS_INF:
            return GenSet(Tag.MINUS_INF, flipped, None, self.cone)
        if self.tag is Tag.MINUS_INF:
            return GenSet(Tag.PLUS_INF, flipped, None, self.cone)
        return GenSet(Tag.FINITE, flipped, self.generators.negate(), self.cone)

    def translate(self, v: Sequence[Number]) -> "GenSet":
        if not self.is_finite:
            return self
        return GenSet(
            Tag.FINITE, self.orient, self.generators.translate(v), self.cone
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, GenSet):
            return NotImplemented
        if (
            self.tag is not other.tag
            or self.orient is not other.orient
            or self.cone != other.cone
        ):
            return False
        return self.generators == other.generators

    def __hash__(self) -> int:
        return hash((self.tag, self.orient, self.generators, self.cone))

    def __repr__(self) -> str:
        if not self.is_finite:
            return f"GenSet({self.tag.value}, {self.orient.value})"
        return (
            f"GenSet({self.orient.value}, gens={list(self.generators.points)!r})"
        )


def wsup_finite(M: FiniteVecSet, K: Cone) -> GenSet:
    """Weak supremum of a finite set as a canonical SUP GenSet.

    The frontier equals the boundary of ``gens - int K``; generators are the
    weakly-maximal elements of M (one representative per lineality class).
    """
    if M.dim != K.dim:
        raise DimensionError("set/cone dimensions disagree")
    gens = _canonical_sup_points(M.points, K)
    return GenSet(Tag.FINITE, Orient.SUP, FiniteVecSet(gens), K)


def winf_finite(M: FiniteVecSet, K: Cone) -> GenSet:
    """Weak infimum of a finite set; mirror image of :func:`wsup_finite`."""
    return wsup_finite(M.negate(), K).negate()


def wmax_finite(M: FiniteVecSet, K: Cone) -> FiniteVecSet:
    """Weakly maximal elements of M: the subset lying on its own frontier.

    Finite nonempty sets always have at least one weakly maximal point.
    """
    labels = classify_many(M, K, M.points, sup=True)
    picked = [
        p for p, lab in zip(M.points, labels) if lab is RegionLabel.FRONTIER
    ]
    return FiniteVecSet(picked)


def wmin_finite(M: FiniteVecSet, K: Cone) -> FiniteVecSet:
    labels = classify_many(M, K, M.points, sup=False)
    picked = [
        p for p, lab in zip(M.points, labels) if lab is RegionLabel.FRONTIER
    ]
    return FiniteVecSet(picked)


# --- the set order ------------------------------------------------------------


def _is_pointed(K: Cone) -> bool:
    return mat_rank(K.normals) == K.dim


def set_preceq(U: GenSet, V: GenSet) -> bool:
    """Set order on frontiers: U precedes V iff V has no point strictly
    below U, i.e. ``V`` misses ``U - int K``.

    Works on any mix of SUP/INF orientations; {-inf} precedes everything and
    everything precedes {+inf}.
    """
    if U.cone != V.cone:
        raise ValueError("set_preceq: operands live under different cones")
    if U.tag is Tag.MINUS_INF or V.tag is Tag.PLUS_INF:
        return True
    if U.tag is Tag.PLUS_INF:
        return False  # V is finite or {-inf} here
    if V.tag is Tag.MINUS_INF:
        return False
    K = U.cone
    gu = U.generators.points
    gv = V.generators.points
    if U.orient is Orient.SUP and V.orient is Orient.SUP:
        # frontier(U) subset of gv - K: no u above wsup(gv)
        return RegionLabel.UPPER not in classify_many(V.generators, K, gu)
    if U.orient is Orient.SUP and V.orient is Orient.INF:
        # no v strictly below any u
        return RegionLabel.LOWER not in classify_many(U.generators, K, gv)
    if U.orient is Orient.INF and (
        V.orient is Orient.INF or mat_rank(K.normals) == 1
    ):
        # frontier(V) subset of gu + K: no v below winf(gu).  Under a
        # half-space (a half-line in dim 1) an INF and a SUP frontier are
        # hyperplanes parallel to its boundary, ordered by their offsets in
        # the same way.
        return RegionLabel.LOWER not in classify_many(
            U.generators, K, gv, sup=False
        )
    # INF preceding SUP under any other cone: both frontiers are unbounded
    # and bend in opposite directions, so in a pointed cone the SUP frontier
    # always dips below the INF one along a recession ray.
    if _is_pointed(K):
        return False
    raise NotImplementedError(
        "INF-vs-SUP comparison undecided for non-pointed cones that are "
        "not half-spaces"
    )


# --- sums ----------------------------------------------------------------------


def ws_sum(U: GenSet, V: GenSet) -> GenSet:
    """Sum of two weak-supremum sets: ``wsup(U + V)`` with infinity absorption.

    Defined for SUP-oriented operands; {+inf} and {-inf} absorb, and adding
    {+inf} to {-inf} raises :class:`IllegalInfinitySum`.  (Sums of INF sets
    can escape to {+inf} even for finite generator lists, so they are
    rejected rather than silently mis-answered.)
    """
    if U.cone != V.cone:
        raise ValueError("ws_sum: operands live under different cones")
    tags = (U.tag, V.tag)
    if Tag.PLUS_INF in tags and Tag.MINUS_INF in tags:
        raise IllegalInfinitySum("(+inf) + (-inf) is undefined")
    if Tag.PLUS_INF in tags:
        return GenSet.plus_inf(U.cone)
    if Tag.MINUS_INF in tags:
        return GenSet.minus_inf(U.cone)
    if U.orient is not Orient.SUP or V.orient is not Orient.SUP:
        raise ValueError("ws_sum is defined for SUP-oriented operands")
    return wsup_finite(U.generators.minkowski(V.generators), U.cone)


def neutral_sup(K: Cone) -> GenSet:
    """The neutral element for ws_sum: the frontier of ``-int K`` (gens {0})."""
    zero = (0,) * K.dim
    return GenSet(Tag.FINITE, Orient.SUP, FiniteVecSet([zero]), K)


# --- partition check ------------------------------------------------------------


def check_partition_style(
    core: FiniteVecSet,
    member: Callable[[Vec], bool],
    K: Cone,
    grid: Sequence[Sequence[Number]],
) -> bool:
    """Check the three-way partition property of a frontier on a point grid.

    ``core`` generates the candidate frontier U (SUP-oriented), ``member``
    is an independent membership predicate for U.  Every grid point must fall
    in exactly one of: ``U - int K``, U itself, ``U + int K``.
    """
    pts = [tuple(p) for p in grid]
    labels = classify_many(core, K, pts, sup=True)
    for y, lab in zip(pts, labels):
        below = lab is RegionLabel.LOWER
        on = bool(member(y))
        above = lab is RegionLabel.UPPER
        if (below + on + above) != 1:
            return False
    return True
