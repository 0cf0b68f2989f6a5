"""Exact facet-coordinate core for every polyhedral cone.

A solid polyhedral cone K = {y : N·y >= 0} is given by the matrix N of its
primitive-integer facet normals, with any number of rows:

    y in K      <=>  N·y >= 0 componentwise,
    y in int K  <=>  N·y >  0 componentwise.

In these facet coordinates the K-order is the componentwise order, so the
generators of wsup(M) are the maximal vectors of N·M (Kung, Luccio &
Preparata, J. ACM 22(4), 1975) and every region test is a dominance query
against them.  With one or two facets the maxima come from one sort and a
sweep, O(n log n); with more, each vector is tested against the maxima kept
so far, O(n·h) for h maxima.  Each batch of points is scaled once by the
lcm of its denominators, so the comparisons run on plain integers.  Infima
are suprema of the negated data.  Only mapping new coordinates back to
points needs N^{-1}, which exists exactly for simplicial K (``dim``
linearly independent normals).  The module and function names date from
the planar staircase this core replaced; perfbench's tracer binds them by
name.
"""

from __future__ import annotations

from fractions import Fraction
from operator import ge, gt
from typing import Sequence

from weakfront.numeric import Vec, common_denominator, dot, scaled

# Region codes (kept as plain ints so this module has no enum dependencies;
# order_sets maps them onto RegionLabel).
LOWER, FRONTIER, UPPER = 0, 1, 2


def _inverse(rows: Sequence[Sequence]) -> tuple | None:
    """Exact inverse of a square matrix by Gauss-Jordan elimination, or None
    when the matrix is singular."""
    n = len(rows)
    work = [
        [Fraction(c) for c in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        prow = [c / work[col][col] for c in work[col]]
        work[col] = prow
        for r in range(n):
            f = work[r][col]
            if r != col and f != 0:
                work[r] = [a - f * b for a, b in zip(work[r], prow)]
    return tuple(tuple(row[n:]) for row in work)


class RayBasis:
    """Facet coordinates of a polyhedral cone: ``normals`` is the integer
    matrix N (the cone's own primitive normals), ``inverse`` its exact
    inverse when N is square and invertible (K simplicial), None otherwise."""

    __slots__ = ("normals", "inverse")

    def __init__(self, normals: tuple, inverse: tuple | None):
        self.normals = normals
        self.inverse = inverse

    @classmethod
    def for_cone(cls, K) -> "RayBasis":
        """The basis of K, with an inverse only when K's normals are exactly
        ``dim`` linearly independent vectors."""
        N = K.normals
        return cls(N, _inverse(N) if len(N) == K.dim else None)

    def to_quad(self, y: Sequence) -> tuple:
        """Facet coordinates N·y."""
        return tuple(dot(row, y) for row in self.normals)

    def from_quad(self, q: Sequence) -> Vec:
        """Original coordinates N^{-1}·q of facet coordinates q (simplicial
        K only)."""
        return tuple(dot(row, q) for row in self.inverse)

    def int_coords(self, vecs: Sequence[Vec]) -> list:
        """Facet coordinates of ``vecs`` scaled by their common denominator:
        integers, in the order of ``vecs``.  One scale serves the whole
        batch, so the componentwise order is preserved."""
        den = common_denominator(vecs)
        return [self.to_quad(scaled(v, den)) for v in vecs]


def maxima(coords: Sequence[tuple]) -> list:
    """Indices of the maximal vectors of ``coords`` under the componentwise
    order, in descending lexicographic order of their vectors.

    Sorted in descending order, a vector can only be dominated by one before
    it, and a dominated one is dominated by a kept one.  With one or two
    coordinates the kept vectors ascend strictly in the last coordinate, so
    a vector is kept exactly when its last coordinate exceeds the last kept
    one's: one sort and a sweep, O(n log n) (Kung, Luccio & Preparata).
    With more coordinates each vector is tested against the kept vectors,
    O(n·h) for h maxima.  Of equal vectors the first is kept: the reverse
    sort is stable.  Under a cone that is not pointed, distinct points share
    coordinates along its lineality space, so a caller passing
    lexicographically sorted points keeps the lex-smallest of each such
    class."""
    order = sorted(range(len(coords)), key=coords.__getitem__, reverse=True)
    if coords and len(coords[0]) in (1, 2):
        kept = order[:1]
        for i in order[1:]:
            if coords[i][-1] > coords[kept[-1]][-1]:
                kept.append(i)
        return kept
    kept = []
    for i in order:
        q = coords[i]
        if not any(all(map(ge, coords[k], q)) for k in kept):
            kept.append(i)
    return kept


def region_sup(front: list, q: tuple) -> int:
    """Region code of q against the weak supremum generated by the maximal
    vectors ``front`` (descending): LOWER when one lies strictly above q,
    FRONTIER when one lies weakly above it, UPPER otherwise."""
    code = UPPER
    for g in front:
        if g[0] < q[0]:
            break  # no later vector reaches q in the first coordinate
        if all(map(ge, g, q)):
            if all(map(gt, g, q)):
                return LOWER
            code = FRONTIER
    return code


def classify_points_2d(
    basis: RayBasis, gens: Sequence[Vec], points: Sequence[Vec], sup: bool = True
) -> list:
    """Region codes of ``points`` against wsup(gens), or against winf(gens)
    when sup=False: the infimum is minus the supremum of the negated data,
    with LOWER and UPPER swapped.  Gens and points share one scale."""
    coords = basis.int_coords([*gens, *points])
    if not sup:
        coords = [tuple(-c for c in q) for q in coords]
    qg, qp = coords[: len(gens)], coords[len(gens) :]
    front = [qg[i] for i in maxima(qg)]
    codes = [region_sup(front, q) for q in qp]
    return codes if sup else [UPPER - c for c in codes]


def canonical_indices_2d(basis: RayBasis, vecs: Sequence[Vec]) -> list:
    """Indices of the maximal points of ``vecs`` (the generators of their
    weak supremum)."""
    return maxima(basis.int_coords(vecs))
