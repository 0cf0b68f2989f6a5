"""Brute-force reference implementations, independent of the engine.

Every function here evaluates its defining formula directly: raw loops over
normal products for region membership, raw Minkowski/value clouds with no
deduplication or canonicalization for the set operations.  Nothing is shared
with the engine's geometry (no Cone.classify_point, no staircases) so an
agreement between the two is meaningful evidence.

The bulk labeller and the scalar duals clear their inputs to integers once
per call (with the oracle's own helpers) and evaluate the same sign tests and
max/min formulas as numpy array expressions: the labeller in int64 when the
cleared integers cannot overflow it, and on exact Python ints otherwise; the
duals always on exact Python ints.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

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


def _lcm_of_denominators(vectors: Iterable[Sequence]) -> int:
    return math.lcm(*{c.denominator for v in vectors for c in v})


def _int_matrix(vectors: Sequence[Sequence], scale: int, dim: int) -> "np.ndarray":
    """The integers scale·c, one row of ``dim`` per vector (shape (0, dim)
    for no vectors), as Python ints in an object array (exact at any size);
    ``scale`` is a multiple of every denominator."""
    return np.array(
        [c.numerator * (scale // c.denominator) for v in vectors for c in v],
        dtype=object,
    ).reshape(len(vectors), dim)


def _cleared(vectors: Sequence[Sequence]) -> Tuple["np.ndarray", int]:
    """(V, d) with V = d·vectors in integers, d the lcm of the denominators;
    ``vectors`` is not empty."""
    den = _lcm_of_denominators(vectors)
    return _int_matrix(vectors, den, len(vectors[0])), den


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


_CODES = (RegionLabel.LOWER, RegionLabel.FRONTIER, RegionLabel.UPPER)


def brute_region_bulk(
    points: Sequence[Sequence],
    normals: Sequence[Sequence],
    grid: Sequence[Sequence],
) -> List[RegionLabel]:
    """Vectorized version of :func:`brute_region` over a raw point list.

    Same sign tests, evaluated as integer tensor comparisons: in int64 when
    the cleared integers keep every normal product below 2**62, on Python
    ints otherwise.  An empty cloud labels every grid point UPPER, as
    :func:`region_of_point` does.
    """
    scale = math.lcm(_lcm_of_denominators(points), _lcm_of_denominators(grid))
    A, _ = _cleared(normals)
    M = _int_matrix(points, scale, A.shape[1])
    G = _int_matrix(grid, scale, A.shape[1])
    bound = np.abs(A).sum(axis=1).max() * (
        np.abs(M).max(initial=0) + np.abs(G).max(initial=0)
    )
    if bound < 2**62:
        M, G, A = (X.astype(np.int64) for X in (M, G, A))
    prods = (M[None, :, :] - G[:, None, :]) @ A.T  # (grid, m, normals)
    lower = (prods > 0).all(axis=2).any(axis=1)
    closed = (prods >= 0).all(axis=2).any(axis=1)
    codes = np.where(lower, 0, np.where(closed, 1, 2))
    return [_CODES[c] for c in codes]


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
    clouds: Sequence[Sequence[Sequence]], K, y: Sequence
) -> bool:
    """Directly decide whether y avoids the open lower region of the sum of
    several value clouds: no sum s (one addend per cloud) may satisfy
    ``s - y`` strictly inside K.  This is the raw certificate test behind the
    Farkas-style implications, with no weak-supremum shortcut."""
    normals = K.normals
    sums = [tuple(0 for _ in y)]
    for cloud in clouds:
        sums = [
            tuple(a + b for a, b in zip(s, c)) for s in sums for c in cloud
        ]
    return not any(_strictly_inside(_sub(s, y), normals) for s in sums)


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
