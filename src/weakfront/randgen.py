"""Seeded random generators for property tests and verification suites.

Everything takes an explicit ``random.Random`` (or a seed) and produces
exact rational data, so identical seeds give identical objects on any
platform.  Trial k of a suite seeded s uses ``trial_rng(s, k)``; the
derived streams are independent enough for test purposes and — more
importantly — depend only on (s, k), not on execution order, which is what
makes parallel suite runs reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional, Sequence

from .cones import Cone, LinOp
from .conjugate import SampledMap
from .duality import ProblemInstance
from .farkas import EmptyFeasibleSet
from .order_sets import FiniteVecSet


def trial_rng(seed: int, trial: int) -> random.Random:
    """The RNG for one trial of a seeded suite (order-independent)."""
    return random.Random(seed * 1_000_003 + trial)


def _half(rng: random.Random, lo: int, hi: int) -> Fraction:
    """A half-integer in [lo, hi]."""
    return Fraction(rng.randint(2 * lo, 2 * hi), 2)


def rand_cone_2d(rng: random.Random) -> Cone:
    """A random solid pointed polyhedral cone in the plane.

    Two small-integer normals with independent directions; the rays are the
    normals' perpendiculars oriented inward, and their sum witnesses the
    interior.
    """
    while True:
        a1 = (rng.randint(-3, 3), rng.randint(-3, 3))
        a2 = (rng.randint(-3, 3), rng.randint(-3, 3))
        if a1 == (0, 0) or a2 == (0, 0):
            continue
        det = a1[0] * a2[1] - a1[1] * a2[0]
        if det == 0:
            continue  # parallel normals: not pointed (or not even solid)
        r1 = (-a1[1], a1[0])
        if a2[0] * r1[0] + a2[1] * r1[1] < 0:
            r1 = (a1[1], -a1[0])
        r2 = (-a2[1], a2[0])
        if a1[0] * r2[0] + a1[1] * r2[1] < 0:
            r2 = (a2[1], -a2[0])
        witness = (r1[0] + r2[0], r1[1] + r2[1])
        return Cone(
            normals=(a1, a2),
            generators=(r1, r2),
            interior_witness=witness,
        )


def rand_halfplane(rng: random.Random) -> Cone:
    """A random closed halfplane cone (solid but not pointed)."""
    while True:
        a = (rng.randint(-3, 3), rng.randint(-3, 3))
        if a != (0, 0):
            break
    r = (-a[1], a[0])
    return Cone(
        normals=(a,),
        generators=(r, (-r[0], -r[1]), a),
        interior_witness=a,
    )


def rand_finite_set(
    rng: random.Random,
    dim: int,
    max_points: int = 20,
    lo: int = -10,
    hi: int = 10,
) -> FiniteVecSet:
    """A random nonempty finite point set with half-integer coordinates."""
    count = rng.randint(1, max_points)
    pts = {
        tuple(_half(rng, lo, hi) for _ in range(dim)) for _ in range(count)
    }
    return FiniteVecSet(pts)


def rand_linop(
    rng: random.Random, rows: int, cols: int, bound: int = 2
) -> LinOp:
    """A random integer matrix operator with entries in [-bound, bound]."""
    return LinOp(
        tuple(
            tuple(Fraction(rng.randint(-bound, bound)) for _ in range(cols))
            for _ in range(rows)
        )
    )


def rand_sampled_map(
    rng: random.Random,
    in_dim: int,
    out_dim: int,
    max_samples: int = 15,
    domain: Optional[Sequence] = None,
) -> SampledMap:
    """A random sampled map; pass ``domain`` to fix the sample points."""
    if domain is None:
        count = rng.randint(1, max_samples)
        domain = {
            tuple(_half(rng, -2, 2) for _ in range(in_dim))
            for _ in range(count)
        }
    return SampledMap(
        (x, tuple(_half(rng, -5, 5) for _ in range(out_dim)))
        for x in sorted(domain)
    )


def rand_cone(rng: random.Random, dim: int) -> Cone:
    """A random solid pointed cone: the orthant in dimension one, a rotated
    planar cone or the orthant in dimension two."""
    if dim == 1:
        return Cone.orthant(1)
    if dim == 2:
        return Cone.orthant(2) if rng.random() < 0.4 else rand_cone_2d(rng)
    raise ValueError("random cones only in dimensions 1 and 2")


def rand_instance(
    rng: random.Random,
    n: Optional[int] = None,
    m: Optional[int] = None,
    p: Optional[int] = None,
    domain_points: int = 6,
) -> ProblemInstance:
    """A random feasible problem instance with total F and G.

    Dimensions default to random choices in {1, 2}.  Feasibility is
    guaranteed by construction: one domain point has its constraint value
    replaced by a strictly feasible one.
    """
    n = n if n is not None else rng.randint(1, 2)
    m = m if m is not None else rng.randint(1, 2)
    p = p if p is not None else rng.randint(1, 2)
    K = rand_cone(rng, m)
    S = rand_cone(rng, p)
    while True:
        domain = sorted(
            {
                tuple(_half(rng, -2, 2) for _ in range(n))
                for _ in range(domain_points)
            }
        )
        F = rand_sampled_map(rng, n, m, domain=domain)
        gvals = [tuple(_half(rng, -5, 5) for _ in range(p)) for _ in domain]
        gvals[rng.randrange(len(domain))] = tuple(-c for c in S.interior_witness)
        try:
            return ProblemInstance(F, SampledMap(zip(domain, gvals)), domain, K, S)
        except EmptyFeasibleSet:  # pragma: no cover - anchor prevents this
            continue
