"""Exact staircase engine for pointed cones in the plane.

A pointed solid 2-D cone K has exactly two extreme rays, recoverable from the
facet normals (each feasible perpendicular of a normal is an extreme ray).
The adjugate of the ray basis B = [r1 r2] is an integer matrix with
adj(B)·B = det(B)·I and det(B) > 0 after orientation, so

    y in K      <=>  adj(B)·y >= 0 componentwise,
    y in int K  <=>  adj(B)·y >  0 componentwise,

with no division anywhere: integer inputs stay integers.  In these quadrant
coordinates the frontier of wsup(M) is the classic staircase of the maximal
points of M, and region tests become two binary searches on a sorted
antichain.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Sequence

from weakfront.numeric import Vec, dot

# Region codes (kept as plain ints so this module has no enum dependencies;
# order_sets maps them onto RegionLabel).
LOWER, FRONTIER, UPPER = 0, 1, 2


def _primitive(v: Sequence) -> tuple:
    """Canonical primitive-integer direction of a nonzero rational vector."""
    den = 1
    for c in v:
        if isinstance(c, Fraction):
            den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [int(c * den) for c in v]
    g = 0
    for c in ints:
        g = math.gcd(g, abs(c))
    return tuple(c // g for c in ints)


def extreme_rays_2d(K) -> tuple | None:
    """The two extreme rays of a pointed solid 2-D cone, oriented so that
    cross(r1, r2) > 0.  None when K is not 2-D or not pointed (halfplane:
    the candidate rays are antiparallel)."""
    if K.dim != 2:
        return None
    cands = set()
    for a in K.normals:
        for p in ((-a[1], a[0]), (a[1], -a[0])):
            if all(dot(b, p) >= 0 for b in K.normals):
                cands.add(_primitive(p))
    if len(cands) != 2:
        return None
    r1, r2 = sorted(cands)
    cr = r1[0] * r2[1] - r1[1] * r2[0]
    if cr == 0:
        return None
    if cr < 0:
        r1, r2 = r2, r1
    return r1, r2


class RayBasis:
    """Invertible coordinate change sending K onto the nonnegative quadrant
    (dim 2) or half-line (dim 1)."""

    __slots__ = ("dim", "rays", "adj", "det")

    def __init__(self, dim: int, rays: tuple, adj: tuple, det: int):
        self.dim = dim
        self.rays = rays
        self.adj = adj
        self.det = det

    @classmethod
    def for_cone(cls, K) -> "RayBasis | None":
        if K.dim == 1:
            sign = 1 if K.normals[0][0] > 0 else -1
            return cls(1, ((sign,),), ((sign,),), 1)
        if K.dim == 2:
            rays = extreme_rays_2d(K)
            if rays is None:
                return None
            r1, r2 = rays
            adj = ((r2[1], -r2[0]), (-r1[1], r1[0]))
            det = r1[0] * r2[1] - r1[1] * r2[0]
            return cls(2, rays, adj, det)
        return None

    def to_quad(self, y: Vec) -> tuple:
        """Quadrant coordinates det·B^{-1}·y (integer matrix product)."""
        return tuple(dot(row, y) for row in self.adj)

    def from_quad(self, q: Sequence) -> Vec:
        """Inverse map: original coordinates of a quadrant point."""
        return tuple(
            sum(self.rays[j][i] * Fraction(q[j]) for j in range(self.dim))
            / self.det
            for i in range(self.dim)
        )

    def join(self, y1: Vec, y2: Vec) -> Vec:
        """The least point K-above both arguments (componentwise max in
        quadrant coordinates); exists because the ray basis is a lattice
        basis for the K-order."""
        q = tuple(map(max, self.to_quad(y1), self.to_quad(y2)))
        return self.from_quad(q)


def _int_scale(values) -> int:
    """lcm of denominators across an iterable of exact numbers."""
    den = 1
    for x in values:
        if isinstance(x, Fraction):
            den = den * x.denominator // math.gcd(den, x.denominator)
    return den


def _as_int(x, scale: int) -> int:
    """x * scale as an int; ``scale`` clears every denominator in the data,
    so nothing is rounded."""
    return int(x * scale)


def skyline_max(pts: list) -> list:
    """Maximal elements of integer pairs under componentwise <=, as
    (u, v, payload) tuples sorted by u ascending (v descending).  Weakly
    dominated points are dropped; of equal points the smallest payload wins."""
    best = None
    out = []
    for u, v, i in sorted(pts, key=lambda t: (-t[0], -t[1], t[2])):
        if best is None or v > best:
            out.append((u, v, i))
            best = v
    out.reverse()
    return out


def skyline_min(pts: list) -> list:
    """Minimal elements (mirror of skyline_max), sorted by u ascending."""
    best = None
    out = []
    for u, v, i in sorted(pts, key=lambda t: (t[0], t[1], t[2])):
        if best is None or v < best:
            out.append((u, v, i))
            best = v
    return out


def classify_quad_sup(us: list, vs: list, u, v) -> int:
    """Region of (u,v) relative to wsup of the antichain (us asc, vs desc)."""
    i = bisect_right(us, u)
    if i < len(us) and vs[i] > v:
        return LOWER
    j = bisect_left(us, u)
    if j < len(us) and vs[j] >= v:
        return FRONTIER
    return UPPER


def classify_quad_inf(us: list, vs: list, u, v) -> int:
    """Region of (u,v) relative to winf of the antichain (us asc, vs desc)."""
    i = bisect_left(us, u)
    if i > 0 and vs[i - 1] < v:
        return UPPER
    j = bisect_right(us, u)
    if j > 0 and vs[j - 1] <= v:
        return FRONTIER
    return LOWER


def classify_points_2d(
    basis: RayBasis, gens: Sequence[Vec], points: Sequence[Vec], sup: bool = True
) -> list:
    """Bulk region labels of `points` against wsup(gens) (or winf when
    sup=False).  Exact: all coordinates are cleared to machine integers by a
    common denominator before the staircase comparisons."""
    qg = [basis.to_quad(g) for g in gens]
    qp = [basis.to_quad(p) for p in points]
    scale = _int_scale(c for q in qg for c in q)
    scale_p = _int_scale(c for q in qp for c in q)
    scale = scale * scale_p // math.gcd(scale, scale_p)
    ig = [
        (_as_int(q[0], scale), _as_int(q[1], scale), i) for i, q in enumerate(qg)
    ]
    sky = skyline_max(ig) if sup else skyline_min(ig)
    us = [t[0] for t in sky]
    vs = [t[1] for t in sky]
    fn = classify_quad_sup if sup else classify_quad_inf
    return [fn(us, vs, _as_int(q[0], scale), _as_int(q[1], scale)) for q in qp]


def canonical_indices_2d(
    basis: RayBasis, vecs: Sequence[Vec], sup: bool = True
) -> list:
    """Indices of the canonical (maximal / minimal) points of `vecs`."""
    qg = [basis.to_quad(g) for g in vecs]
    scale = _int_scale(c for q in qg for c in q)
    ig = [
        (_as_int(q[0], scale), _as_int(q[1], scale), i) for i, q in enumerate(qg)
    ]
    sky = skyline_max(ig) if sup else skyline_min(ig)
    return [t[2] for t in sky]
