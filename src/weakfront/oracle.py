"""Brute-force reference implementations, independent of the engine.

Every function here evaluates its defining formula directly: raw loops over
normal products for region membership, raw Minkowski/value clouds with no
deduplication or canonicalization for the set operations.  Nothing is shared
with the engine's geometry (no Cone.classify_point, no staircases) so an
agreement between the two is meaningful evidence.

The bulk entry point clears everything to integers and evaluates the same
sign tests as numpy tensor comparisons; it falls back to the naive loops if
the integers could overflow int64.
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
    return {
        y: region_of_point(M.points, K.normals, y) for y in grid.points
    }


# --- bulk integer path ---------------------------------------------------------


def _lcm_of_denominators(vectors: Iterable[Sequence]) -> int:
    den = 1
    for v in vectors:
        for c in v:
            f = Fraction(c) if not isinstance(c, Fraction) else c
            den = math.lcm(den, f.denominator)
    return den


def _int_matrix(vectors: Sequence[Sequence], scale: int) -> "np.ndarray":
    rows = []
    for v in vectors:
        row = []
        for c in v:
            x = c * scale
            n = int(x)
            if n != x:
                raise ValueError(f"non-integer after scaling: {c!r}")
            row.append(n)
        rows.append(row)
    return np.array(rows, dtype=np.int64)


_CODES = (RegionLabel.LOWER, RegionLabel.FRONTIER, RegionLabel.UPPER)


def brute_region_bulk(
    points: Sequence[Sequence],
    normals: Sequence[Sequence],
    grid: Sequence[Sequence],
) -> List[RegionLabel]:
    """Vectorized version of :func:`brute_region` over a raw point list.

    Same sign tests, evaluated as integer tensor comparisons.  Falls back to
    the naive loops when the cleared integers might overflow int64.
    """
    scale = _lcm_of_denominators(points)
    scale = math.lcm(scale, _lcm_of_denominators(grid))
    nscale = _lcm_of_denominators(normals)
    try:
        M = _int_matrix(points, scale)
        G = _int_matrix(grid, scale)
        A = _int_matrix(normals, nscale)
    except ValueError:
        M = None
    if M is not None:
        bound = (
            int(np.abs(A).sum(axis=1).max())
            * (int(np.abs(M).max(initial=0)) + int(np.abs(G).max(initial=0)))
        )
        if bound < 2**62:
            diff = M[None, :, :] - G[:, None, :]  # (grid, m, dim)
            prods = diff @ A.T  # (grid, m, normals)
            lower = (prods > 0).all(axis=2).any(axis=1)
            closed = (prods >= 0).all(axis=2).any(axis=1)
            codes = np.where(lower, 0, np.where(closed, 1, 2))
            return [_CODES[c] for c in codes]
    return [region_of_point(points, normals, y) for y in grid]


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
    best = None
    for lam in lambdas:
        worst = None
        for (x, fx), gx in zip(samples, gvals):
            v = fx + _dot(lam, gx)
            if worst is None or v < worst:
                worst = v
        if worst is not None and (best is None or worst > best):
            best = worst
    if best is None:
        raise ValueError("empty sample set or multiplier budget")
    return best


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


def _support(points: Sequence[Sequence], u: Sequence) -> Fraction:
    return max(_dot(u, x) for x in points)


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

    with f*(u) = max over dom f of (u·x - f(x)).  Plain loops, no set
    machinery.
    """
    best = None
    for u in us:
        fstar = max(_dot(u, x) - fx for x, fx in fsamples)
        for lam in lambdas:
            block = max(
                _dot(_sub(L, u), x) - _dot(lam, gx)
                for x, gx in zip(csamples, gvals_on_c)
            )
            v = -fstar - block
            if best is None or v > best:
                best = v
    if best is None:
        raise ValueError("empty budget")
    return best


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
    best = None
    for u in us:
        fstar = max(_dot(u, x) - fx for x, fx in fsamples)
        for w in ws:
            sup_c = _support(csamples, w)
            rest = _sub(_sub(L, u), w)
            for lam in lambdas:
                block = max(
                    _dot(rest, x) - _dot(lam, gx) for x, gx in gsamples
                )
                v = -fstar - sup_c - block
                if best is None or v > best:
                    best = v
    if best is None:
        raise ValueError("empty budget")
    return best
