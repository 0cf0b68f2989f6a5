"""Exact facet-coordinate core for every polyhedral cone.

A solid polyhedral cone K = {y : N·y >= 0} is given by the matrix N of its
primitive-integer facet normals, with any number of rows:

    y in K      <=>  N·y >= 0 componentwise,
    y in int K  <=>  N·y >  0 componentwise.

In these facet coordinates the K-order is the componentwise order, so the
generators of wsup(M) are the maximal vectors of N·M (Kung, Luccio &
Preparata, J. ACM 22(4), 1975) and every region test is a dominance query
against them.  With one or two facets the maxima come from one sort and a
sweep, O(n log n), and each query is labelled by two bisections of that
staircase; with more, each vector is tested against the maxima kept so far,
O(n·h) for h maxima.  :func:`maximal` finds the maximal vectors
themselves, sorting the tuples with no key function, and :func:`maxima`
their indices; the certificate blocks, their ⊎-sums and the dual merge
keep their frontiers as lists of such vectors.  A point set arrives
cleared.  A batch of query points is cleared once, as a whole, at the
set's scale and theirs (:func:`weakfront.numeric.cleared`), and its facet
coordinates are summed one normal row at a time over its coordinate
columns (:func:`row_products`), as are those of a set whose maxima are
asked for: the comparisons run on plain integers, with no call per point.
Infima are suprema of the negated data, labelled on the negated normals.
Only mapping facet coordinates back to points needs N^{-1}, which exists
exactly for simplicial K (``dim`` linearly independent normals); the
basis keeps it cleared once, as (δ, δ·N^{-1}), so that mapping runs on
integers too.  The module and function names date from the planar
staircase this core replaced; perfbench's tracer binds them by name.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import chain
from operator import ge, gt, sub
from typing import Iterable, Sequence

from weakfront.numeric import Vec, chunked, cleared, dot

# Region codes (kept as plain ints so this module has no enum dependencies;
# order_sets maps them onto RegionLabel).
LOWER, FRONTIER, UPPER = 0, 1, 2


def _inverse(rows: Sequence[Sequence]) -> tuple | None:
    """Exact inverse of a square matrix A by Gauss-Jordan elimination,
    cleared as (δ, δ·A^{-1}), or None when the matrix is singular."""
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
    d, flat = cleared(chain.from_iterable(row[n:] for row in work))
    return d, tuple(chunked(flat, n, n))


class RayBasis:
    """Facet coordinates of a polyhedral cone: ``normals`` is the integer
    matrix N (the cone's own primitive normals), ``inverse`` its exact
    inverse cleared as (δ, δ·N^{-1}) when N is square and invertible (K
    simplicial), None otherwise."""

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
        return tuple([dot(row, y) for row in self.normals])


def maximal(cloud: Iterable[tuple]) -> list:
    """The maximal vectors of a cloud of integer tuples under the
    componentwise order, each once, in descending lexicographic order.

    Sorted in descending order, with no key function, a vector can only be
    dominated by one before it, and a dominated one is dominated by a kept
    one.  With one or two coordinates the kept vectors ascend strictly in
    the last coordinate, so a vector is kept exactly when its last
    coordinate exceeds the last kept one's: one sort and a sweep,
    O(n log n) (Kung, Luccio & Preparata).  With more coordinates each
    vector is tested against the kept vectors, O(n·h) for h maxima.  Equal
    vectors, which distinct points share along the lineality space of a
    cone that is not pointed, are kept once."""
    rows = sorted(cloud, reverse=True)
    if rows and len(rows[0]) <= 2:
        kept, last = rows[:1], rows[0][-1]
        for r in rows:
            if r[-1] > last:
                kept.append(r)
                last = r[-1]
        return kept
    kept = []
    for q in rows:
        if not any(all(map(ge, k, q)) for k in kept):
            kept.append(q)
    return kept


def maxima(coords: Sequence[tuple]) -> list:
    """Indices of the maximal vectors of ``coords``, in the order of
    :func:`maximal`, each vector at its first index: a caller passing
    lexicographically sorted points keeps the lex-smallest of each class
    of points that share coordinates."""
    first = {}
    for i, q in enumerate(coords):
        first.setdefault(q, i)
    return [first[q] for q in maximal(first)]


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


def region_sum(front: list, block: list, q: tuple) -> int:
    """Region code of q against the weak supremum of the ⊎-sum of the
    frontiers ``front`` and ``block`` (both descending), without forming
    the sum: LOWER when q - f is LOWER against ``block`` for some f in
    ``front``, else FRONTIER when some q - f is FRONTIER, else UPPER.  The
    region against a cloud is the region against its maxima, so this is
    ``region_sup`` of their sum's frontier."""
    if not block:
        return UPPER
    code, top = UPPER, block[0][0]
    for f in front:
        if f[0] + top < q[0]:
            break  # no sum with this or a later f reaches q's first coordinate
        c = region_sup(block, tuple(map(sub, q, f)))
        if c == LOWER:
            return LOWER
        code = min(code, c)
    return code


def classify_points_2d(
    basis: RayBasis, gens: tuple, points: Sequence[Vec], sup: bool = True
) -> list:
    """Region codes of ``points`` against wsup(gens), or against winf(gens)
    when sup=False: the infimum is minus the supremum of the negated data,
    so it is labelled on the negated normals, with LOWER and UPPER swapped.
    ``gens`` is a cleared point set (den, vecs); the points are cleared at
    d = lcm(den, their denominators), and the generators' maxima rescaled
    by d/den.

    The batch is handled in whole columns, with no call per point: it is
    cleared once (:func:`weakfront.numeric.cleared`), and each facet
    coordinate is summed, one normal row at a time, over the batch's
    coordinate columns.  With one or two facets the maxima form a
    staircase along which the first coordinate strictly falls and the last
    strictly rises, so those with g0 > q0 (or g0 >= q0) are a prefix whose
    last one has the largest last coordinate: two bisections label q.  With
    more facets each query runs ``region_sup``."""
    den, vecs = gens
    N = basis.normals if sup else [tuple([-c for c in a]) for a in basis.normals]
    d, flat = cleared(chain.from_iterable(points), den)
    kept = maximal([tuple([dot(a, v) for a in N]) for v in vecs])
    s = d // den
    dim = len(N[0])
    # row j: facet coordinate j of every query; flat[k::dim]: coordinate k
    rows = row_products(N, [flat[k::dim] for k in range(dim)], len(points))
    if len(rows) > 2:
        front = [tuple([s * c for c in g]) for g in kept]
        codes = [region_sup(front, q) for q in zip(*rows)]
        return codes if sup else [UPPER - c for c in codes]
    lower, upper = (LOWER, UPPER) if sup else (UPPER, LOWER)
    drop = [-s * g[0] for g in kept]  # ascending, as is the last coordinate
    rise = [s * g[-1] for g in kept]
    codes = []
    for a, b in zip(rows[0], rows[-1]):
        i = bisect_left(drop, -a)  # the maxima with g0 > a
        if i and rise[i - 1] > b:
            codes.append(lower)
        else:
            j = bisect_right(drop, -a, i)  # the maxima with g0 >= a
            codes.append(FRONTIER if j and rise[j - 1] >= b else upper)
    return codes


def row_products(A: Sequence[Sequence], cols: Sequence[Sequence], n: int) -> list:
    """The products a·v of each row a of the integer matrix A with ``n``
    vectors v given by their coordinate columns (``cols[k]``: coordinate k
    of every v), one list per row of A, in the order of the vectors.  Each
    is summed one entry of a at a time over a whole column, zero entries
    skipped, with no call per vector."""
    out = []
    for a in A:
        row = [0] * n
        for c, col in zip(a, cols):
            if c:
                row = [u + c * x for u, x in zip(row, col)]
        out.append(row)
    return out


def canonical_indices_2d(basis: RayBasis, vecs: Sequence[tuple]) -> list:
    """Indices of the maximal vectors of ``vecs``, integer vectors at one
    scale (the generators of their weak supremum), from their facet
    coordinates formed by columns (:func:`row_products`).  A single vector
    is its own maximum, and needs no coordinates."""
    if len(vecs) == 1:
        return [0]
    rows = row_products(basis.normals, list(zip(*vecs)), len(vecs))
    return maxima(list(zip(*rows)))
