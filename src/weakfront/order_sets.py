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

Each set is stored once as its cleared integers (:class:`FiniteVecSet`), so
canonical generator lists are unique and every region test is an exact sign
test; on every polyhedral cone the region tests and the canonical generators
run on the integer facet coordinates N·y (:mod:`weakfront.staircase2d`).
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from itertools import chain
from typing import Iterable, Optional, Sequence

from .cones import Cone, DimensionError
from .numeric import Number, chunked, cleared, require_exact, vec_neg
from . import staircase2d


class RegionLabel(enum.Enum):
    LOWER = "LOWER"
    FRONTIER = "FRONTIER"
    UPPER = "UPPER"


_LABELS = (RegionLabel.LOWER, RegionLabel.FRONTIER, RegionLabel.UPPER)  # by code


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
    """Immutable nonempty finite set of same-dimension exact vectors, stored
    once as its cleared form (den, vecs): den the lcm of the points' reduced
    denominators, vecs the distinct integer vectors den·p in ascending (so
    lexicographic) order.  The form is unique, so equality and hashing
    follow it; :attr:`points` reads the points back as ``Fraction``s."""

    __slots__ = ("dim", "_cleared")

    def __new__(cls, points: Iterable[Sequence[Number]]):
        vs = [tuple(p) for p in points]
        for v in vs:
            if len(v) != len(vs[0]):
                raise DimensionError(f"mixed point dimensions: {len(v)} vs {len(vs[0])}")
            require_exact(v, "point")
        den, flat = cleared(chain.from_iterable(vs))
        return cls.from_ints(den, chunked(flat, len(vs[0]) if vs else 0, len(vs)))

    @classmethod
    def from_ints(cls, den: int, vecs: Iterable[Sequence[int]]) -> "FiniteVecSet":
        """The points v/den of integer vectors v of one dimension (den > 0),
        deduplicated, reduced by one gcd to the cleared form and sorted."""
        uniq = set(map(tuple, vecs))
        if not uniq:
            raise ValueError("empty point set")
        g = math.gcd(den, *chain.from_iterable(uniq))
        if g > 1:
            den, uniq = den // g, {tuple([c // g for c in v]) for v in uniq}
        S = object.__new__(cls)
        object.__setattr__(S, "_cleared", (den, tuple(sorted(uniq))))
        object.__setattr__(S, "dim", len(S._cleared[1][0]))
        return S

    def __setattr__(self, name, value):
        raise AttributeError("FiniteVecSet is immutable")

    def cleared(self) -> tuple:
        """(den, vecs), the integer vectors den·p in ascending order."""
        return self._cleared

    @property
    def points(self) -> tuple:
        """The exact points, as ``Fraction`` vectors in lexicographic order."""
        den, vecs = self._cleared
        return tuple(tuple([Fraction(c, den) for c in v]) for v in vecs)

    def __len__(self) -> int:
        return len(self._cleared[1])

    def __iter__(self):
        return iter(self.points)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteVecSet):
            return NotImplemented
        return self._cleared == other._cleared

    def __hash__(self) -> int:
        return hash(self._cleared)

    def __repr__(self) -> str:
        return f"FiniteVecSet({list(self.points)!r})"

    def negate(self) -> "FiniteVecSet":
        return FiniteVecSet.from_ints(self._cleared[0], map(vec_neg, self._cleared[1]))

    def minkowski(self, other: "FiniteVecSet") -> "FiniteVecSet":
        if self.dim != other.dim:
            raise DimensionError("Minkowski sum of mismatched dimensions")
        (d1, A), (d2, B) = self._cleared, other._cleared
        d = math.lcm(d1, d2)
        a, b = d // d1, d // d2
        return FiniteVecSet.from_ints(
            d, [tuple([a * p + b * q for p, q in zip(u, v)]) for u in A for v in B]
        )


# --- region classification ---------------------------------------------------

def classify_many(
    M: FiniteVecSet,
    K: Cone,
    points: Sequence[Sequence[Number]],
    *,
    sup: bool = True,
) -> list:
    """Region of each point relative to the weak supremum of finite ``M``:
    LOWER in ``M - int K``, FRONTIER on the weak supremum itself, UPPER
    elsewhere.  ``sup=False`` classifies against the weak infimum instead.  The
    queries run as dominance tests on integer facet coordinates.  A batch
    is checked and cleared once, while calls pass its very point tuples,
    and the labels are the list the engine appends them to
    (:func:`weakfront.staircase2d.classify_points_2d`).
    """
    return staircase2d.classify_points_2d(K.basis, M.cleared(), points, sup, _LABELS)


# --- canonical generators / wsup / winf --------------------------------------


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
    def plus_inf(cls, cone: Cone) -> "GenSet":
        return cls(Tag.PLUS_INF, Orient.SUP, None, cone)

    @classmethod
    def minus_inf(cls, cone: Cone) -> "GenSet":
        return cls(Tag.MINUS_INF, Orient.SUP, None, cone)

    # queries ------------------------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self.tag is Tag.FINITE

    def classify(self, y: Sequence[Number]) -> RegionLabel:
        """Region of ``y`` relative to this set (LOWER = strictly below it)."""
        return self.classify_many([y])[0]

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
        shifted = self.generators.minkowski(FiniteVecSet([v]))
        return GenSet(Tag.FINITE, self.orient, shifted, self.cone)

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
    maxima of the facet coordinates of M's ascending cleared vectors, and of
    equal coordinates the first: under lineality, the lex-smallest point.
    """
    if M.dim != K.dim:
        raise DimensionError("set/cone dimensions disagree")
    den, vecs = M.cleared()
    idx = staircase2d.canonical_indices_2d(K.basis, vecs)
    gens = FiniteVecSet.from_ints(den, [vecs[i] for i in idx])
    return GenSet(Tag.FINITE, Orient.SUP, gens, K)


def winf_finite(M: FiniteVecSet, K: Cone) -> GenSet:
    """Weak infimum of a finite set; mirror image of :func:`wsup_finite`."""
    return wsup_finite(M.negate(), K).negate()


# --- the set order ------------------------------------------------------------


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
    # rank(N) == 1 is one normal: normals are primitive, deduplicated and
    # positive on the interior witness, so no two are parallel.
    if U.orient is Orient.INF and (V.orient is Orient.INF or len(K.normals) == 1):
        # frontier(V) subset of gu + K: no v below winf(gu).  Under a
        # half-space (a half-line in dim 1) an INF and a SUP frontier are
        # hyperplanes parallel to its boundary, ordered by their offsets in
        # the same way.
        return RegionLabel.LOWER not in classify_many(
            U.generators, K, gv, sup=False
        )
    # INF preceding SUP when rank(N) >= 2: for a facet normal a, g in gv with
    # a·g maximal and k in K with a·k = 0 < b·k for another normal b (the
    # facet is not lin K), each g - t·k is on V's frontier, and it leaves
    # gu + K once b·(g - t·k - u) < 0 for every u in gu.
    return False


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
    zero = FiniteVecSet.from_ints(1, [(0,) * K.dim])
    return GenSet(Tag.FINITE, Orient.SUP, zero, K)
