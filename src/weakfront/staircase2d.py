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
keep their frontiers as lists of such vectors, and with one or two facets
the merge's two questions of them are monotone sweeps along both lists
(:func:`region_sums`, :func:`meet`).  A point set arrives
cleared.  A batch of query points is checked and cleared as a whole into
coordinate columns, and kept for as long as calls pass its very point
tuples (:func:`_batch_columns`, the one place that decides this); its
facet coordinates are formed over those columns (:func:`row_products`),
as are those of a set whose maxima are asked for: the comparisons run on
plain integers, with no call per point.  A query's label is appended as
the caller's own object for its region, in one pass (order_sets passes
its ``RegionLabel`` members; the default is the int codes below).
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
from functools import partial, reduce
from itertools import chain, repeat
from math import gcd, lcm
from operator import add, ge, gt, is_, mul, sub
from typing import Iterable, Sequence

from weakfront.numeric import DimensionError, Vec, chunked, cleared, dot, require_exact

# Region codes (kept as plain ints so this module has no enum dependencies;
# order_sets passes its RegionLabel members in their place, by code).
LOWER, FRONTIER, UPPER = 0, 1, 2


def _inverse(rows: Sequence[Sequence[int]]) -> tuple | None:
    """Exact inverse of a square integer matrix A, cleared as (δ, δ·A^{-1}),
    or None when A is singular, by fraction-free Gauss-Jordan elimination
    (Bareiss): each division is exact, and [A | I] ends as [p·I | p·A^{-1}]."""
    n = len(rows)
    work = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(rows)]
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        p, prow = work[col][col], work[col]
        for r in range(n):
            f = work[r][col]
            if r != col:
                work[r] = [(p * a - f * b) // prev for a, b in zip(work[r], prow)]
        prev = p
    flat = [c for row in work for c in row[n:]]
    g = gcd(prev, *flat) if prev > 0 else -gcd(prev, *flat)
    return prev // g, tuple(chunked([c // g for c in flat], n, n))


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


def region_sums(front: list, block: list, qs: list) -> list:
    """``region_sum`` of each q of ``qs``, a descending list of maximal
    vectors, against front ⊎ block.  With one or two coordinates, for each
    f the prefixes of ``block`` that label q - f (g0 > q0 - f0, and
    g0 >= q0 - f0) only grow along ``qs``: one merge-walk per f."""
    if len(qs) < 2 or len(qs[0]) > 2:
        return [region_sum(front, block, q) for q in qs]
    codes, n = [UPPER] * len(qs), len(block)
    for f in front:
        i = j = 0
        for k, q in enumerate(qs):
            a, b = q[0] - f[0], q[-1] - f[-1]
            while i < n and block[i][0] > a:
                i += 1
            while j < n and block[j][0] >= a:
                j += 1
            if i and block[i - 1][-1] > b:
                codes[k] = LOWER
            elif j and block[j - 1][-1] >= b and codes[k]:
                codes[k] = FRONTIER
    return codes


def meet(A: list, B: list) -> list:
    """``maximal`` of the componentwise minima of the pairs from two
    descending lists of maximal vectors.  With one or two coordinates a
    pair (a, b) with b0 >= a0 is weakly below a's pair with the last such
    b, which has the largest b1, and symmetrically: |A| + |B| candidates."""
    if A and len(A[0]) > 2:
        return maximal([tuple(map(min, u, v)) for u in A for v in B])
    pairs = []
    for X, Y in ((A, B), (B, A)):
        j = 0
        for x in X:
            while j < len(Y) and Y[j][0] >= x[0]:
                j += 1
            if j:
                pairs.append(tuple(map(min, x, Y[j - 1])))
    return maximal(pairs)


# The last batch kept: a copy of its point tuples (which keeps them alive),
# the dimension it was checked at, its own scale d_q and its columns.
_last_batch = ((), None, 1, [])

_EXACT_TYPES = {int, Fraction}


def _batch_columns(points: Sequence[Vec], dim: int) -> tuple:
    """(d_q, columns) of a batch of query points: the kept batch's when
    ``points`` are its very point tuples, in order, checked at ``dim``
    (tuples, ints and Fractions are immutable; a point of another type
    becomes a new tuple); else the batch is checked, cleared once and kept
    in place of the last.  The check refuses a point whose length is not
    ``dim`` or an entry that is not an int or a Fraction: the first bad
    point decides, its length first."""
    global _last_batch
    kept, kept_dim = _last_batch[:2]
    if kept_dim == dim and len(kept) == len(points) and all(map(is_, kept, points)):
        return _last_batch[2:]
    points = list(map(tuple, points))
    types = map(type, chain.from_iterable(points))
    if not ({dim}.issuperset(map(len, points)) and _EXACT_TYPES.issuperset(types)):
        for p in points:  # a bad point, or an entry of a subclass
            if len(p) != dim:
                raise DimensionError("point/cone dimensions disagree")
            require_exact(p, "query point")
    dq, flat = cleared(chain.from_iterable(points))
    _last_batch = (points, dim, dq, [flat[k::dim] for k in range(dim)])
    return _last_batch[2:]


def classify_points_2d(
    basis: RayBasis,
    gens: tuple,
    points: Sequence[Vec],
    sup: bool = True,
    labels: Sequence = (LOWER, FRONTIER, UPPER),
) -> list:
    """Regions of ``points`` against wsup(gens), or against winf(gens) when
    sup=False, each given as its entry of ``labels`` (the objects that
    stand for LOWER, FRONTIER and UPPER, by default the codes themselves),
    in one list built once: the infimum is minus the supremum of the
    negated data, so it is labelled on the negated normals, with
    ``labels`` reversed.  ``gens`` is a cleared point set (den, vecs); the
    points are cleared at their own scale d_q, and both are brought to
    d = lcm(den, d_q), the generators' maxima by d/den and the points by
    d/d_q folded into N.

    The batch is handled in whole columns, with no call per point
    (:func:`_batch_columns`).  Each facet coordinate is one row
    of :func:`row_products` over the columns.  With one or two facets the
    maxima form a staircase along which the first coordinate strictly
    falls and the last strictly rises, so those with g0 > q0 (or g0 >= q0)
    are a prefix whose last one has the largest last coordinate: two
    bisections label q, appending its label itself.  With more facets each
    query runs ``region_sup``, whose codes index ``labels``."""
    den, vecs = gens
    N = basis.normals if sup else [tuple([-c for c in a]) for a in basis.normals]
    dq, cols = _batch_columns(points, len(N[0]))
    kept = maximal([tuple([dot(a, v) for a in N]) for v in vecs])
    d = lcm(den, dq)
    s, t, n = d // den, d // dq, len(points)
    T = [[t * c for c in a] for a in N]  # at the scale d
    by_code = labels if sup else labels[::-1]
    if len(N) > 2:
        front = [tuple([s * c for c in g]) for g in kept]
        qs = zip(*row_products(T, cols, n))
        return [by_code[region_sup(front, q)] for q in qs]
    lower, frontier, upper = by_code
    # -q0 and q1 of every query; -g0 and g1 ascend along the staircase
    neg_first, last = row_products([[-c for c in T[0]], T[-1]], cols, n)
    drop = [-s * g[0] for g in kept]
    rise = [s * g[-1] for g in kept]
    out = []
    for a, b in zip(neg_first, last):
        i = bisect_left(drop, a)  # the maxima with g0 > q0
        if i and rise[i - 1] > b:
            out.append(lower)
        else:
            j = bisect_right(drop, a, i)  # the maxima with g0 >= q0
            out.append(frontier if j and rise[j - 1] >= b else upper)
    return out


def row_products(A: Sequence[Sequence], cols: Sequence[Sequence], n: int) -> list:
    """The products a·v of each row a of the integer matrix A with ``n``
    vectors v given by their coordinate columns (``cols[k]``: coordinate k
    of every v), one list per row of A, in the order of the vectors.  Each
    row is one chain of maps over whole columns, with no call per vector:
    each column times its entry of a (as it is for 1, none for 0), the
    terms added pairwise, materialised once."""
    out = []
    for a in A:
        terms = [x if c == 1 else map(mul, x, repeat(c)) for c, x in zip(a, cols) if c]
        out.append(list(reduce(partial(map, add), terms)) if terms else [0] * n)
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
