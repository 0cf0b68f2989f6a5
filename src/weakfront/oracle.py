"""Brute-force reference implementations, independent of the engine.

Every function here evaluates its defining formula directly: raw loops over
normal products for region membership, raw Minkowski/value clouds with no
deduplication or canonicalization for the set operations.  Nothing is shared
with the engine's geometry (no Cone.classify_point, no staircases) so an
agreement between the two is meaningful evidence.

The bulk labeller, the Farkas cloud test (on clouds it builds itself from the
raw samples and operator matrices) and the scalar duals clear their inputs to
integers once per call, reading each entry once (with the oracle's own
helper), except that the bulk labeller keeps the last grid's cleared form,
its largest |entry| and its int64 form, its own and shared with nothing in
the engine, and reuses them while calls pass the very same grid point
tuples.  They evaluate their defining formulas as numpy array expressions:
the labeller as a max over the cloud of a min over the normals, in int64
when the cleared integers cannot overflow it and on exact Python ints
otherwise; the cloud test and the duals always on exact Python ints.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from operator import is_
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .order_sets import FiniteVecSet, RegionLabel


def _dot(a, y):
    return sum(ai * yi for ai, yi in zip(a, y))


def _strictly_inside(d, normals) -> bool:
    return all(_dot(a, d) > 0 for a in normals)


def _inside(d, normals) -> bool:
    return all(_dot(a, d) >= 0 for a in normals)


def _sub(p, q):
    return tuple(a - b for a, b in zip(p, q))


def region_of_point(points: Sequence, normals: Sequence, y) -> RegionLabel:
    """First-principles region of y: LOWER when y lies in some m - int K,
    FRONTIER when it is in M - K but not in M - int K, UPPER otherwise."""
    if any(_strictly_inside(_sub(m, y), normals) for m in points):
        return RegionLabel.LOWER
    if any(_inside(_sub(m, y), normals) for m in points):
        return RegionLabel.FRONTIER
    return RegionLabel.UPPER


def brute_region(M: FiniteVecSet, K, grid: FiniteVecSet) -> Dict[tuple, RegionLabel]:
    """Label table {grid point: region} for the weak supremum of M.

    Evaluated from the definition: the frontier is the closure of
    ``M - int K`` minus its interior, realized as ``(M - K)`` minus
    ``(M - int K)`` for finite M.
    """
    points = M.points
    return {y: region_of_point(points, K.normals, y) for y in grid.points}


# --- exact integer arrays --------------------------------------------------------


def _cleared(vectors: Sequence[Sequence], dim: int = -1) -> Tuple["np.ndarray", int]:
    """(V, d): V = d·vectors as exact Python ints, one row of ``dim`` per
    vector (inferred when ``vectors`` is not empty), d the lcm of the
    denominators; each entry is read once, by ``as_integer_ratio``."""
    ratios = [c.as_integer_ratio() for v in vectors for c in v]
    d = math.lcm(*{q for _, q in ratios})
    ints = [p * (d // q) for p, q in ratios]
    return np.array(ints, dtype=object).reshape(len(vectors), dim), d


def _product(a, b) -> Tuple["np.ndarray", int]:
    """The exact products of the rows of two cleared matrices: A @ Bᵀ over
    the product of their denominators."""
    return a[0] @ b[0].T, a[1] * b[1]


def _one_scale(*terms) -> Tuple[list, int]:
    """The integer arrays of exact terms (array, denominator) brought to
    one scale s, the lcm of their denominators, and s."""
    s = math.lcm(*(d for _, d in terms))
    return [t * (s // d) for t, d in terms], s


def _nonempty(*seqs) -> None:
    if not all(len(s) for s in seqs):
        raise ValueError("empty sample set or budget")


# The labels by code (0 LOWER, 1 FRONTIER, 2 UPPER), as an object array, so
# that one take maps a whole array of codes to them.
_CODE_ARRAY = np.array(
    [RegionLabel.LOWER, RegionLabel.FRONTIER, RegionLabel.UPPER], dtype=object
)

# The last grid labelled: a copy of its point tuples (which keeps them
# alive), its dimension, and (G, d, max |G|, G in int64 or None).
_last_grid = ((), None, None)


def _cleared_grid(grid: Sequence[Sequence], dim: int) -> tuple:
    """``_cleared(grid, dim)`` with its largest |entry| and, when that fits
    int64, its int64 form; kept while calls pass the very same point
    tuples, in order, at ``dim``: tuples, ints and Fractions are immutable.
    The caller's points are compared with the kept tuples as they are; a
    grid is copied into tuples only when it is not the kept one."""
    global _last_grid
    kept, kept_dim, form = _last_grid
    if kept_dim != dim or len(kept) != len(grid) or not all(map(is_, kept, grid)):
        grid = list(map(tuple, grid))
        G, d = _cleared(grid, dim)
        top = int(np.abs(G).max(initial=0))
        form = (G, d, top, G.astype(np.int64) if top < 2**63 else None)
        _last_grid = (grid, dim, form)
    return form


def brute_region_bulk(
    points: Sequence[Sequence],
    normals: Sequence[Sequence],
    grid: Sequence[Sequence],
) -> List[RegionLabel]:
    """Vectorized version of :func:`brute_region` over a raw point list.

    y is LOWER iff max over m of min over the normals a of a·m - a·y is
    positive, and FRONTIER iff it is 0: :func:`region_of_point`'s "some m
    with every a·(m - y) > 0 (>= 0)" read as one max-min.  The array is
    laid out (m, grid): each normal's outer difference of its row of
    M·Aᵀ and its row of A·Gᵀ is folded into the minimum, the max runs
    down the m axis, and one take from an object array maps the codes
    1 - sign(max) to the labels.  The points and the grid
    are cleared apart, each at its own scale (the grid once while it is
    the same point tuples, :func:`_cleared_grid`), and brought to their
    lcm, the grid only when that differs from its own scale; as
    |a·m - a·y| <= ||a||_1·(max|M| + max|G|), the test runs in int64 when
    that bound is below 2**62, on Python ints otherwise.  An empty cloud
    (max -1) labels every point UPPER, as :func:`region_of_point` does.
    """
    A, _ = _cleared(normals)
    dim = A.shape[1]
    M, dm = _cleared(points, dim)
    G, dg, top, G64 = _cleared_grid(grid, dim)
    s = math.lcm(dm, dg)
    M, k = M * (s // dm), s // dg
    bound = int(np.abs(A).sum(axis=1).max()) * (int(np.abs(M).max(initial=0)) + k * top)
    if bound < 2**62 and G64 is not None:
        M, A, G = M.astype(np.int64), A.astype(np.int64), G64
    if k != 1:
        G = G * k
    MA, GA = M @ A.T, A @ G.T
    worst = reduce(
        np.minimum, (np.subtract.outer(MA[:, j], GA[j]) for j in range(len(A)))
    )  # (m, grid)
    best = worst.max(axis=0, initial=-1)
    # 0 LOWER (> 0), 1 FRONTIER (= 0), 2 UPPER
    return _CODE_ARRAY[(1 - np.sign(best)).astype(np.intp)].tolist()


# --- direct-definition set operations -------------------------------------------


def brute_wsum(
    U: Sequence[Sequence], V: Sequence[Sequence], K, grid: Sequence[Sequence]
) -> List[RegionLabel]:
    """Region labels of the WS-sum wsup(U + V) on a grid, from the raw
    Minkowski cloud (duplicates kept, nothing canonicalized)."""
    cloud = [
        tuple(a + b for a, b in zip(u, v)) for u in U for v in V
    ]
    return brute_region_bulk(cloud, K.normals, grid)


def brute_beta(
    i: int, fsamples, gsamples, csamples, L, T, Lp, Lpp, normals, y
) -> bool:
    """Directly decide whether y avoids the open lower region of the sum of
    the condition-i value clouds: no sum s (one addend per cloud) may
    satisfy ``s - y`` strictly inside K = {v : N·v >= 0}.  This is the raw
    certificate test behind the Farkas-style implications, with no
    weak-supremum shortcut.

    The clouds come from the raw samples (x, F(x)), (x, G(x)), the points
    of C (which lies in dom G) and the operator matrices (L' read at i >= 2,
    L'' at i = 3), for each x:

    * i = 1: L(x) - F(x) - T(G(x)) on C ∩ dom F;
    * i = 2: L'(x) - F(x) on dom F, and (L - L')(x) - T(G(x)) on C;
    * i = 3: L'(x) - F(x) on dom F, L''(x) on C, and
      (L - L' - L'')(x) - T(G(x)) on dom G.
    """
    f, g = dict(fsamples), dict(gsamples)
    eye = [[int(r == c) for c in range(len(y))] for r in range(len(y))]

    def minus(M):
        return [[-c for c in r] for r in M]

    def cloud(rows, *blocks):  # [B1 B2 ...]·row, a row stacking what each B acts on
        M = [[c for r in parts for c in r] for parts in zip(*blocks)]
        return _product(_cleared(rows), _cleared(M))

    if i == 1:
        rows = [(*x, *f[x], *g[x]) for x in csamples if x in f]
        clouds = [cloud(rows, L, minus(eye), minus(T))]
    else:
        first = cloud([(*x, *v) for x, v in f.items()], Lp, minus(eye))
        if i == 2:
            rows = [(*x, *x, *g[x]) for x in csamples]
            clouds = [first, cloud(rows, L, minus(Lp), minus(T))]
        else:
            rows = [(*x, *x, *x, *v) for x, v in g.items()]
            rest = cloud(rows, L, minus(Lp), minus(Lpp), minus(T))
            clouds = [first, cloud(csamples, Lpp), rest]
    (Y, *clouds), _ = _one_scale(_cleared([y]), *clouds)
    sums = -Y  # every sum less y, one row each
    for c in clouds:
        sums = (sums[:, None, :] + c[None, :, :]).reshape(-1, len(y))
    N, _ = _cleared(normals)
    return not bool((sums @ N.T > 0).all(axis=1).any())


# --- scalar duality ---------------------------------------------------------------
#
# Each dual clears its inputs to integer arrays, brings every product term
# to one scale s and evaluates its defining max/min formula as one exact
# array expression over (u, w, lambda, x); the value is Fraction(best, s).


def _values(samples: Sequence[Tuple[Sequence, Fraction]]) -> Tuple["np.ndarray", int]:
    """The cleared values f(x) of (x, f(x)) samples, as one row."""
    F, df = _cleared([[fx for _, fx in samples]])
    return F[0], df


def _conjugate_values(U, fsamples) -> Tuple["np.ndarray", int]:
    """f*(u) = max over dom f of (u·x - f(x)), one entry per row of the
    cleared U, exact."""
    X = _cleared([x for x, _ in fsamples])
    (UX, fx), s = _one_scale(_product(U, X), _values(fsamples))
    return (UX - fx).max(axis=1), s


def scalar_lagrange_dual(
    samples: Sequence[Tuple[Sequence, Fraction]],
    gvals: Sequence[Sequence],
    lambdas: Sequence[Sequence],
) -> Fraction:
    """Classical scalar Lagrange dual over an explicit multiplier budget:

        max over lambda of  min over x of  f(x) + <lambda, g(x)>

    ``samples`` pairs each feasible-domain point with its objective value,
    ``gvals`` lists the constraint vector g(x) in the same order, ``lambdas``
    the nonnegative multiplier vectors to try.  Returns the best bound.
    """
    _nonempty(samples, gvals, lambdas)
    (fx, LG), s = _one_scale(
        _values(samples), _product(_cleared(lambdas), _cleared(gvals))
    )
    return Fraction((fx + LG).min(axis=1).max(), s)  # (lambda, x)


def scalar_primal_value(
    samples: Sequence[Tuple[Sequence, Fraction]],
    gvals: Sequence[Sequence],
) -> Fraction:
    """min f(x) over the sampled points with g(x) <= 0 componentwise."""
    best = None
    for (x, fx), gx in zip(samples, gvals):
        if all(c <= 0 for c in gx):
            if best is None or fx < best:
                best = fx
    if best is None:
        raise ValueError("no feasible sample")
    return best


def scalar_fenchel_lagrange_dual2(
    fsamples: Sequence[Tuple[Sequence, Fraction]],
    csamples: Sequence[Sequence],
    gvals_on_c: Sequence[Sequence],
    L: Sequence,
    us: Sequence[Sequence],
    lambdas: Sequence[Sequence],
) -> Fraction:
    """Classical scalar Fenchel-Lagrange dual over explicit budgets:

        max over (u, lambda) of  -f*(u) - max over x in C of
                                          ((L - u)·x - <lambda, g(x)>)

    with f*(u) = max over dom f of (u·x - f(x)).  No set machinery.
    """
    _nonempty(fsamples, csamples, gvals_on_c, us, lambdas)
    U, X = _cleared(us), _cleared(csamples)
    (fstar, LX, UX, LG), s = _one_scale(
        _conjugate_values(U, fsamples),
        _product(_cleared([L]), X),
        _product(U, X),
        _product(_cleared(lambdas), _cleared(gvals_on_c)),
    )
    block = (LX - UX[:, None, :] - LG).max(axis=2)  # (u, lambda, x)
    return Fraction((-fstar[:, None] - block).max(), s)


def scalar_fenchel_lagrange_dual3(
    fsamples: Sequence[Tuple[Sequence, Fraction]],
    csamples: Sequence[Sequence],
    gsamples: Sequence[Tuple[Sequence, Sequence]],
    L: Sequence,
    us: Sequence[Sequence],
    ws: Sequence[Sequence],
    lambdas: Sequence[Sequence],
) -> Fraction:
    """Three-way scalar split: the constraint-set support and the penalized
    constraint map get their own linear terms,

        max over (u, w, lambda) of  -f*(u) - max over C of (w·x)
                                    - max over dom g of
                                      ((L - u - w)·x - <lambda, g(x)>)
    """
    _nonempty(fsamples, csamples, gsamples, us, ws, lambdas)
    U, W = _cleared(us), _cleared(ws)
    X = _cleared([x for x, _ in gsamples])
    (fstar, WC, LX, UX, WX, LG), s = _one_scale(
        _conjugate_values(U, fsamples),
        _product(W, _cleared(csamples)),
        _product(_cleared([L]), X),
        _product(U, X),
        _product(W, X),
        _product(_cleared(lambdas), _cleared([gx for _, gx in gsamples])),
    )
    sup_c = WC.max(axis=1)
    block = (
        LX - UX[:, None, None, :] - WX[None, :, None, :] - LG
    ).max(axis=3)  # (u, w, lambda, x)
    return Fraction(
        (-fstar[:, None, None] - sup_c[None, :, None] - block).max(), s
    )
