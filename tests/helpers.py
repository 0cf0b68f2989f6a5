"""Reference constructions shared by the test modules, written from the
definitions through the checking constructors."""

import random
from fractions import Fraction

from weakfront.cones import PointClass, classify_point
from weakfront.conjugate import SampledMap
from weakfront.duality import ProblemInstance
from weakfront.numeric import vec_neg
from weakfront.randgen import rand_instance


def restricted(F, points):
    """F on the sample points among ``points``: F's exact samples there,
    through the checking constructor (which refuses an empty restriction)."""
    keep = {tuple(p) for p in points}
    return SampledMap((x, v) for x, v in F.samples if x in keep)


def reference_feasible_points(P):
    """The feasible sample A = {x in C : G(x) in -S}, sorted, looked up
    point by point."""
    out = []
    for x in P.C:
        gx = P.G.value(x)
        if gx is None:
            continue
        if classify_point(P.S, vec_neg(gx)) is not PointClass.OUTSIDE:
            out.append(tuple(x))
    return tuple(sorted(out))


def partial_instances(count, seed):
    """Random instances whose C holds infeasible points and points outside
    dom F: F loses one point of C, a feasible one when there are two."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        P = rand_instance(rng, domain_points=8)
        feasible = reference_feasible_points(P)
        if len(feasible) == len(P.C):
            continue
        drop = feasible[-1] if len(feasible) > 1 else next(
            x for x in P.C if x not in feasible
        )
        dom_f = [x for x in P.F.pointset.points if x != drop]
        out.append(ProblemInstance(restricted(P.F, dom_f), P.G, P.C, P.K, P.S))
    return out


def cut_instance(rng):
    """A random instance with its domains cut apart: F loses a point of C
    and gains one off dom G, and C loses a point of dom G, so C ∩ dom F,
    C, dom F and dom G all differ.  None when the draw has too few points
    to cut."""
    P = rand_instance(rng, domain_points=8)
    # stays in C and dom F, so the cut is feasible
    keep = P.feasible_F.pointset.points[0]
    rest = [x for x in P.C if x != keep]
    if len(rest) < 2:
        return None
    x0, x1 = rng.sample(rest, 2)  # x0 leaves dom F, x1 leaves C
    off = (Fraction(5),) * P.n  # outside the half-integer box of dom G
    F = SampledMap(
        [(x, v) for x, v in P.F.samples if x != x0]
        + [(off, tuple(Fraction(rng.randint(-6, 6), 2) for _ in range(P.m)))]
    )
    return ProblemInstance(F, P.G, [x for x in P.C if x != x1], P.K, P.S)
