"""The brute-force reference implementations get their own sanity tests, so
that suite agreements are evidence about the engine rather than about two
copies of the same bug.  The oracle's array code is in turn checked against
plain loops over the defining formulas, kept here as the reference."""

import ast
import random
from collections import Counter
from fractions import Fraction
from operator import add
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from weakfront import oracle
from weakfront.cones import Cone
from weakfront.conjugate import SampledMap, SearchConfig
from weakfront.duality import ProblemInstance
from weakfront.numeric import mat_vec
from weakfront.oracle import (
    brute_beta,
    brute_region,
    brute_region_bulk,
    brute_wsum,
    region_of_point,
    scalar_fenchel_lagrange_dual2,
    scalar_fenchel_lagrange_dual3,
    scalar_lagrange_dual,
    scalar_primal_value,
)
from weakfront.order_sets import FiniteVecSet, RegionLabel
from weakfront.randgen import rand_instance, rand_linop

O2 = Cone.orthant(2)
POINTS = [(0, 0), (2, 1), (1, 2)]


def test_region_of_point_from_first_principles():
    assert region_of_point(POINTS, O2.normals, (0, 0)) is RegionLabel.LOWER
    assert region_of_point(POINTS, O2.normals, (2, 1)) is RegionLabel.FRONTIER
    assert region_of_point(POINTS, O2.normals, (2, 2)) is RegionLabel.UPPER
    assert region_of_point(POINTS, O2.normals, (-5, 9)) is RegionLabel.UPPER


def test_brute_region_bulk_matches_naive_loop():
    grid = [
        (Fraction(a, 2), Fraction(b, 2))
        for a in range(-8, 9)
        for b in range(-8, 9)
    ]
    bulk = brute_region_bulk(POINTS, O2.normals, grid)
    for y, lab in zip(grid, bulk):
        assert region_of_point(POINTS, O2.normals, y) is lab


def test_brute_region_bulk_mixes_ints_and_denominators():
    pts = [(0, Fraction(1, 3)), (Fraction(5, 4), -1), (Fraction(-2, 7), 2)]
    normals = [(1, Fraction(1, 2)), (Fraction(-1, 5), Fraction(3, 2))]
    grid = pts + [
        (Fraction(a, 6) if a % 2 else a // 2, Fraction(b, 10) if b % 3 else b)
        for a in range(-9, 10)
        for b in range(-12, 13)
    ]
    bulk = brute_region_bulk(pts, normals, grid)
    assert bulk == [region_of_point(pts, normals, y) for y in grid]
    assert set(bulk) == set(RegionLabel)


def test_brute_region_bulk_takes_an_empty_cloud_or_grid():
    grid = [(0, 0), (Fraction(1, 2), -3)]
    assert brute_region_bulk([], O2.normals, grid) == [RegionLabel.UPPER] * 2
    assert brute_region_bulk([], O2.normals, grid) == [
        region_of_point([], O2.normals, y) for y in grid
    ]
    assert brute_region_bulk(POINTS, O2.normals, []) == []
    assert brute_region_bulk([], O2.normals, []) == []


def test_brute_region_bulk_overflow_falls_back(monkeypatch):
    # coordinates of 2^62 push the normal products past int64 (the old
    # 2^40 case stayed within it); the same tensor expression then runs on
    # Python ints, never the per-point loop
    def no_loop(*args):
        raise AssertionError("region_of_point called")

    monkeypatch.setattr(oracle, "region_of_point", no_loop)
    big = 2**62
    pts = [(big, 0), (0, big)]
    grid = [(big, big), (0, 0), (-big, big), (-big, -big - 1)]
    normals = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    out = brute_region_bulk(pts, normals, grid)
    # (0,0) touches each cloud point's lower boundary, so FRONTIER not LOWER;
    # below both points, but (big, 0) - y = (2^63, 2^62 + 1) and
    # (0, big) - y = (2^62, 2^63 + 1) each wrap to a negative int64
    assert out == [
        RegionLabel.UPPER,
        RegionLabel.FRONTIER,
        RegionLabel.FRONTIER,
        RegionLabel.LOWER,
    ]


# --- the bulk labeller against the definition ------------------------------------

# multiples of 1/6 in [-2, 2], as ints or Fractions (whole ones too)
sixth = st.one_of(
    st.integers(-2, 2), st.integers(-12, 12).map(lambda k: Fraction(k, 6))
)
BULK_CONES = [
    ((1,),),  # the orthant of R^1
    ((Fraction(-1, 3), Fraction(1, 6)),),  # a half-plane
    ((1, 0), (0, 1)),
    ((1, 0), (0, 1), (1, 1)),  # redundant
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)),  # the pyramid
]


@st.composite
def bulk_cases(draw):
    """A cloud of 0-12 points, a cone and a grid: drawn points, the cloud
    itself, and each cloud point with one coordinate redrawn, where the
    frontier and the lower region lie."""
    normals = draw(st.sampled_from(BULK_CONES))
    dim = len(normals[0])
    vec = st.tuples(*[sixth] * dim)
    cloud = draw(st.lists(vec, max_size=12))
    grid = draw(st.lists(vec, max_size=12)) + cloud
    for m in cloud:
        i = draw(st.integers(0, dim - 1))
        grid.append((*m[:i], draw(sixth), *m[i + 1 :]))
    return cloud, normals, grid


@given(bulk_cases())
@example(([], ((1, 0), (0, 1)), []))
@example(([], ((1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)), []))  # after a 2-d one
def test_brute_region_bulk_is_the_definition(case):
    """The labels are region_of_point's, point by point, and stay so when
    the cloud and grid are scaled by 2**62 (which moves no label) and the
    test runs on Python ints."""
    cloud, normals, grid = case
    want = [region_of_point(cloud, normals, y) for y in grid]
    assert brute_region_bulk(cloud, normals, grid) == want

    def big(vs):
        return [tuple(c * 2**62 for c in v) for v in vs]

    assert brute_region_bulk(big(cloud), normals, big(grid)) == want


@pytest.mark.parametrize("scale", [1, 2**62], ids=["int64", "python-ints"])
@pytest.mark.parametrize("normals", [BULK_CONES[1], BULK_CONES[-1]], ids=["one", "four"])
@pytest.mark.parametrize("m", [0, 1, 5])
def test_the_bulk_labeller_runs_m_by_grid(monkeypatch, scale, normals, m):
    """The min over the normals is an (m, grid) array, in int64 when the
    entries are small and on Python ints when they are scaled by 2**62
    (which moves no label), and the labels down its m axis are
    :func:`region_of_point`'s: for an empty cloud, one point and five,
    against one normal and four, on a grid of 13 points or more (so the
    two axes differ in length)."""
    shapes = []
    real = oracle.reduce

    def spy(fn, terms):
        out = real(fn, terms)
        shapes.append((out.shape, out.dtype))
        return out

    monkeypatch.setattr(oracle, "reduce", spy)
    rng = random.Random(m)
    dim = len(normals[0])
    ticks = [Fraction(k, 3) for k in range(-6, 7)]
    cloud = [tuple(rng.choice(ticks) for _ in range(dim)) for _ in range(m)]
    grid = [tuple(rng.choice(ticks) for _ in range(dim)) for _ in range(13)]
    grid += cloud + [(*p[:-1], p[-1] - Fraction(1, 3)) for p in cloud]
    big = [[tuple(c * scale for c in v) for v in vs] for vs in (cloud, grid)]
    labels = brute_region_bulk(big[0], normals, big[1])
    assert labels == [region_of_point(cloud, normals, y) for y in grid]
    assert all(type(lab) is RegionLabel for lab in labels)
    kind = np.dtype(np.int64) if scale == 1 else np.dtype(object)
    assert shapes == [((m, len(grid)), kind)]


def test_a_bulk_call_reads_each_fraction_once(monkeypatch):
    """On a 41 x 41 grid, the call reads no ``Fraction`` property and runs
    ``as_integer_ratio`` once per ``Fraction`` entry of the points, the
    normals and the grid."""
    calls = Counter()

    def counting(name, read):
        def wrapper(self):
            calls[name] += 1
            return read(self)

        return wrapper

    for name in ("numerator", "denominator"):
        prop = property(counting(name, getattr(Fraction, name).fget))
        monkeypatch.setattr(Fraction, name, prop)
    monkeypatch.setattr(
        Fraction,
        "as_integer_ratio",
        counting("as_integer_ratio", Fraction.as_integer_ratio),
    )
    rng = random.Random(41)
    ticks = [Fraction(k, 2) for k in range(-20, 21)]
    grid = [(a, b) for a in ticks for b in ticks]
    cloud = [(_rand_entry(rng, 20), rng.randint(-10, 10)) for _ in range(20)]
    normals = [(1, Fraction(1, 2)), (Fraction(-1, 3), 2)]
    labels = brute_region_bulk(cloud, normals, grid)
    entries = [c for v in (*cloud, *normals, *grid) for c in v]
    assert calls == {"as_integer_ratio": sum(type(c) is Fraction for c in entries)}
    assert set(labels) == set(RegionLabel)


def test_a_repeated_grid_is_read_once(monkeypatch):
    """A second call on the same 41 x 41 grid with a new cloud reads no
    ``Fraction`` property and runs ``as_integer_ratio`` only on the
    ``Fraction`` entries of the cloud and the normals."""
    calls = Counter()
    read = Fraction.as_integer_ratio

    def counting(self):
        calls["as_integer_ratio"] += 1
        return read(self)

    rng = random.Random(43)
    ticks = [Fraction(k, 2) for k in range(-20, 21)]
    grid = [(a, b) for a in ticks for b in ticks]
    normals = [(1, Fraction(1, 2)), (Fraction(-1, 3), 2)]
    cloud = [(_rand_entry(rng, 20), rng.randint(-10, 10)) for _ in range(20)]
    brute_region_bulk([(1, Fraction(1, 3))], normals, grid)
    for name in ("numerator", "denominator"):
        monkeypatch.setattr(Fraction, name, property(_refused(name)))
    monkeypatch.setattr(Fraction, "as_integer_ratio", counting)
    labels = brute_region_bulk(cloud, normals, grid)
    entries = [c for v in (*cloud, *normals) for c in v]
    assert calls == {"as_integer_ratio": sum(type(c) is Fraction for c in entries)}
    monkeypatch.undo()
    assert labels == [region_of_point(cloud, normals, y) for y in grid]


def _refused(name):
    def read(self):
        raise AssertionError(f"Fraction.{name} read")

    return read


def test_a_grid_changed_in_place_or_reshaped_is_cleared_again():
    """The memo keeps its own copy of the grid's point tuples, and its key
    holds the dimension: a grid with one point replaced in place, the same
    entries in another count of points, an empty grid in another
    dimension, and equal values in new objects are each labelled by the
    definition, and entries that do not fit the dimension are refused."""
    pts = [(0, Fraction(1, 3)), (Fraction(5, 4), -1)]
    grid = [
        (Fraction(a, 2), Fraction(b, 3))
        for a in range(-4, 5)
        for b in range(-4, 5)
    ]
    pyramid = BULK_CONES[-1]
    cases = [
        (pts, O2.normals, grid),
        (pts, O2.normals, grid),
        (pts, O2.normals, [*grid[:-1]]),
        ([], O2.normals, []),
        ([], pyramid, []),
        ([(1, 0, Fraction(1, 2))], pyramid, []),
        ([], O2.normals, []),
        (pts, O2.normals, [(Fraction(a, 2), Fraction(b, 3)) for a, b in grid]),
    ]
    for case in cases:
        _labels_by_the_definition(*case)
    for i in (0, 40, len(grid) - 1):
        grid[i] = (Fraction(5, 4), Fraction(-1, 2))
        _labels_by_the_definition(pts, O2.normals, grid)
    # the same twelve entries as six 2-d points, as three 4-d ones under
    # 2-d normals (refused, as on a first call), and as four 3-d ones
    flat = [Fraction(k, 5) for k in range(-6, 6)]
    by2, by4, by3 = ([tuple(flat[i : i + n]) for i in range(0, 12, n)] for n in (2, 4, 3))
    _labels_by_the_definition([by2[1]], O2.normals, by2)
    with pytest.raises(ValueError):
        brute_region_bulk([], O2.normals, by4)
    _labels_by_the_definition([by3[1]], BULK_CONES[4], by3)


def test_a_kept_grid_is_cleared_once_and_only_while_its_tuples_stay(monkeypatch):
    """A grid rebuilt with equal values in new tuples is cleared afresh,
    and so is a grid with one point replaced in place; the kept grid is
    not.  Each is labelled by the definition."""
    clears = []
    real = oracle._cleared

    def counting(vectors, dim=-1):
        clears.append(len(vectors))
        return real(vectors, dim)

    monkeypatch.setattr(oracle, "_cleared", counting)
    pts = [(0, Fraction(1, 3)), (Fraction(5, 4), -1)]

    def build():
        ticks = range(-4, 5)
        return [(Fraction(a, 2), Fraction(b, 3)) for a in ticks for b in ticks]

    grid = build()
    for cloud in (pts, pts[:1], pts):
        _labels_by_the_definition(cloud, O2.normals, grid)
    assert clears.count(len(grid)) == 1
    _labels_by_the_definition(pts, O2.normals, build())
    assert clears.count(len(grid)) == 2
    grid[40] = (Fraction(5, 4), Fraction(-1, 2))
    for cloud in (pts, pts[1:]):
        _labels_by_the_definition(cloud, O2.normals, grid)
    assert clears.count(len(grid)) == 3


def test_a_hit_whose_scale_overflows_int64_runs_on_python_ints():
    """A kept grid of entries up to 2**41 at scale 1 is first labelled in
    int64; labelled again against a cloud of small entries with a
    denominator of 2**25 it is brought to a scale at which its entries
    pass 2**64, so the test must run on Python ints (wrapped int64
    entries mislabel it), although the cloud's own entries stay small."""
    big = 2**40
    grid = [(a * big, b * big) for a in range(-2, 3) for b in range(-2, 3)]
    tiny = Fraction(1, 2**25)
    _labels_by_the_definition([(big, 0), (0, big)], O2.normals, grid)
    kept = oracle._last_grid
    assert kept[0] == grid and kept[2][3] is not None  # an int64 form is kept
    cloud = [(tiny, 0), (0, tiny)]
    _labels_by_the_definition(cloud, O2.normals, grid)
    assert oracle._last_grid is kept
    assert len(set(brute_region_bulk(cloud, O2.normals, grid))) == 3


def _labels_by_the_definition(cloud, normals, grid):
    assert brute_region_bulk(cloud, normals, grid) == [
        region_of_point(cloud, normals, y) for y in grid
    ]


def test_brute_region_table():
    table = brute_region(
        FiniteVecSet(POINTS), O2, FiniteVecSet([(0, 0), (3, 3)])
    )
    assert table[(0, 0)] is RegionLabel.LOWER
    assert table[(3, 3)] is RegionLabel.UPPER


def test_brute_wsum_uses_the_raw_minkowski_cloud():
    U = [(0, 1)]
    V = [(1, 0), (0, 2)]
    # cloud {(1,1), (0,3)}
    labels = brute_wsum(U, V, O2, [(1, 1), (0, 3), (2, 2), (0, 0)])
    assert labels == [
        RegionLabel.FRONTIER,
        RegionLabel.FRONTIER,
        RegionLabel.UPPER,
        RegionLabel.LOWER,
    ]


def test_brute_beta_strict_domination_only():
    o1 = Cone.orthant(1).normals
    x, zero, one = (Fraction(1),), ((0,),), ((1,),)
    F, G = [(x, (Fraction(0),))], [(x, (Fraction(-2),))]
    # i = 1, L = 1, T = 0: the one cloud {L(x) - F(x) - T(G(x))} = {1};
    # y qualifies iff 1 - y is not strictly positive
    assert brute_beta(1, F, G, [x], one, zero, None, None, o1, (Fraction(1),)) is True
    assert brute_beta(1, F, G, [x], one, zero, None, None, o1, (Fraction(0),)) is False
    # i = 2, L = T = 1, L' = 0: the clouds {L'(x) - F(x)} = {0} and
    # {(L - L')(x) - T(G(x))} = {3} sum to {3}
    assert brute_beta(2, F, G, [x], one, one, zero, None, o1, (Fraction(3),)) is True
    assert brute_beta(2, F, G, [x], one, one, zero, None, o1, (Fraction(5, 2),)) is False


def _scalar_instance():
    # minimize x subject to 1 - x <= 0 over samples {0, 1/2, ..., 2}
    xs = [Fraction(k, 2) for k in range(5)]
    samples = [((x,), x) for x in xs]
    gvals = [(1 - x,) for x in xs]
    return xs, samples, gvals


def test_scalar_lagrange_dual_reaches_the_primal_value():
    xs, samples, gvals = _scalar_instance()
    lams = [(Fraction(k, 2),) for k in range(5)]
    assert scalar_primal_value(samples, gvals) == 1
    assert scalar_lagrange_dual(samples, gvals, lams) == 1
    # starving the multiplier budget weakens the bound
    assert scalar_lagrange_dual(samples, gvals, [(Fraction(0),)]) == 0


def test_scalar_duals_raise_on_empty_budgets():
    xs, samples, gvals = _scalar_instance()
    with pytest.raises(ValueError):
        scalar_lagrange_dual(samples, gvals, [])
    cs = [(x,) for x in xs]
    gs = samples_g(xs)
    lams = [(Fraction(1),)]
    us = [(Fraction(0),)]
    with pytest.raises(ValueError):
        scalar_fenchel_lagrange_dual2(samples, cs, gvals, (0,), [], [])
    for args in (
        ([], cs, gvals, (0,), us, lams),
        (samples, [], [], (0,), us, lams),
        (samples, cs, gvals, (0,), us, []),
    ):
        with pytest.raises(ValueError):
            scalar_fenchel_lagrange_dual2(*args)
    for args in (
        (samples, cs, gs, (0,), [], us, lams),
        (samples, cs, gs, (0,), us, [], lams),
        (samples, cs, gs, (0,), us, us, []),
        ([], cs, gs, (0,), us, us, lams),
        (samples, [], gs, (0,), us, us, lams),
        (samples, cs, [], (0,), us, us, lams),
    ):
        with pytest.raises(ValueError):
            scalar_fenchel_lagrange_dual3(*args)
    with pytest.raises(ValueError):
        scalar_lagrange_dual([], [], lams)


def test_scalar_fenchel_chain_matches_lagrange_here():
    xs, samples, gvals = _scalar_instance()
    cs = [(x,) for x in xs]
    lams = [(Fraction(k, 2),) for k in range(5)]
    us = [(Fraction(k),) for k in (-1, 0, 1)]
    L = (Fraction(0),)
    d2 = scalar_fenchel_lagrange_dual2(samples, cs, gvals, L, us, lams)
    d3 = scalar_fenchel_lagrange_dual3(samples, cs, samples_g(xs), L, us, us, lams)
    assert d2 == 1
    assert d3 == 1


def samples_g(xs):
    return [((x,), (1 - x,)) for x in xs]


# --- plain-loop references for the scalar duals ----------------------------------


def _dot(a, y):
    return sum(ai * yi for ai, yi in zip(a, y))


def _sub(p, q):
    return tuple(a - b for a, b in zip(p, q))


def loop_lagrange_dual(samples, gvals, lambdas):
    best = None
    for lam in lambdas:
        worst = None
        for (x, fx), gx in zip(samples, gvals):
            v = fx + _dot(lam, gx)
            if worst is None or v < worst:
                worst = v
        if worst is not None and (best is None or worst > best):
            best = worst
    return best


def loop_fenchel_lagrange_dual2(fsamples, csamples, gvals_on_c, L, us, lambdas):
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
    return best


def loop_fenchel_lagrange_dual3(fsamples, csamples, gsamples, L, us, ws, lambdas):
    best = None
    for u in us:
        fstar = max(_dot(u, x) - fx for x, fx in fsamples)
        for w in ws:
            sup_c = max(_dot(w, x) for x in csamples)
            rest = _sub(_sub(L, u), w)
            for lam in lambdas:
                block = max(_dot(rest, x) - _dot(lam, gx) for x, gx in gsamples)
                v = -fstar - sup_c - block
                if best is None or v > best:
                    best = v
    return best


# entries: small fractions with denominators 1-12, and integers past 2**63
number = st.one_of(
    st.fractions(min_value=-6, max_value=6, max_denominator=12),
    st.integers(min_value=-(2**70), max_value=2**70),
)


@st.composite
def scalar_budgets(draw):
    n = draw(st.integers(1, 2))  # dim of x
    k = draw(st.integers(1, 2))  # dim of g(x)
    vec = lambda d: st.tuples(*[number] * d)  # noqa: E731
    many = lambda s: st.lists(s, min_size=1, max_size=4)  # noqa: E731
    xs = draw(many(vec(n)))
    fsamples = [(x, draw(number)) for x in xs]
    csamples = draw(many(vec(n)))
    fvals_on_c = [draw(number) for _ in csamples]
    gvals_on_c = [draw(vec(k)) for _ in csamples]
    gsamples = [(x, draw(vec(k))) for x in draw(many(vec(n)))]
    return {
        "fsamples": fsamples,
        "csamples": csamples,
        "fvals_on_c": fvals_on_c,
        "gvals_on_c": gvals_on_c,
        "gsamples": gsamples,
        "L": draw(vec(n)),
        "us": draw(many(vec(n))),
        "ws": draw(many(vec(n))),
        "lams": draw(many(vec(k))),
    }


# no shrink phase: shrinking these budgets took minutes, so a failure reports
# its first falsifying example instead
@settings(phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(scalar_budgets())
def test_scalar_duals_equal_their_plain_loops(b):
    shifted = [
        (x, fx - _dot(b["L"], x)) for x, fx in zip(b["csamples"], b["fvals_on_c"])
    ]
    args1 = (shifted, b["gvals_on_c"], b["lams"])
    got = scalar_lagrange_dual(*args1)
    assert got == loop_lagrange_dual(*args1)
    assert type(got) is Fraction
    args2 = (b["fsamples"], b["csamples"], b["gvals_on_c"], b["L"], b["us"], b["lams"])
    got = scalar_fenchel_lagrange_dual2(*args2)
    assert got == loop_fenchel_lagrange_dual2(*args2)
    assert type(got) is Fraction
    args3 = (
        b["fsamples"], b["csamples"], b["gsamples"], b["L"], b["us"], b["ws"], b["lams"]
    )
    got = scalar_fenchel_lagrange_dual3(*args3)
    assert got == loop_fenchel_lagrange_dual3(*args3)
    assert type(got) is Fraction


# --- plain-loop reference for the Farkas clouds ----------------------------------


def loop_beta_clouds(i, P, L, T, Lp, Lpp):
    """The raw condition-i value clouds, applied in ``Fraction``s with
    ``mat_vec``; C lies in dom G."""
    F = dict(P.F.samples)
    TG = {x: mat_vec(T.entries, v) for x, v in P.G.samples}
    if i == 1:
        return [
            [
                _sub(mat_vec(L.entries, x), tuple(map(add, F[x], TG[x])))
                for x in P.C
                if x in F
            ]
        ]
    first = [_sub(mat_vec(Lp.entries, x), v) for x, v in F.items()]
    if i == 2:
        rest = L - Lp
        return [first, [_sub(mat_vec(rest.entries, x), TG[x]) for x in P.C]]
    rest = L - Lp - Lpp
    return [
        first,
        [mat_vec(Lpp.entries, x) for x in P.C],
        [_sub(mat_vec(rest.entries, x), v) for x, v in TG.items()],
    ]


def loop_beta(clouds, normals, y):
    """No sum s (one addend per cloud) has s - y strictly inside K."""
    sums = [tuple(0 for _ in y)]
    for cloud in clouds:
        sums = [tuple(map(add, s, c)) for s in sums for c in cloud]
    return not any(all(_dot(a, _sub(s, y)) > 0 for a in normals) for s in sums)


def _partial_instance():
    """dom F, C and dom G all differ: C ∩ dom F is smaller than C, and C
    is smaller than dom G."""
    xs = [(Fraction(k, 2),) for k in range(-2, 4)]
    F = SampledMap((x, (x[0], 1 - x[0])) for x in xs[1:5])
    G = SampledMap((x, (x[0] - 1,)) for x in xs)
    return ProblemInstance(F, G, xs[:3], Cone.orthant(2), Cone.orthant(1))


def _rand_entry(rng, k):
    return Fraction(rng.randint(-k, k), rng.randint(1, 3))


def test_brute_beta_equals_its_plain_loops():
    """brute_beta on random instances (every fifth one with partial maps),
    at every index, several positive T and splitting operators on a
    half-step grid, and y random with denominators 1 to 3 or a sum of the
    clouds moved by such a y of entries at most 1, agrees with the loops,
    both ways."""
    answers = {i: set() for i in (1, 2, 3)}
    for seed in range(30):
        rng = random.Random(seed)
        P = _partial_instance() if seed % 5 == 0 else rand_instance(rng)
        cfg = SearchConfig(l_box=Fraction(1, 2), l_step=Fraction(1, 2))
        Ts = [T.op for T in cfg.posop_budget(P.S, P.K)]
        Ls = list(cfg.linop_budget(P.m, P.n))
        L = rand_linop(rng, P.m, P.n, 1)
        for _ in range(4):
            T, Lp, Lpp = rng.choice(Ts), rng.choice(Ls), rng.choice(Ls)
            for i in (1, 2, 3):
                clouds = loop_beta_clouds(i, P, L, T, Lp, Lpp)
                near = [_rand_entry(rng, 1) for _ in range(P.m)]
                for c in clouds:
                    near = map(add, near, rng.choice(c))
                for y in (tuple(_rand_entry(rng, 9) for _ in range(P.m)), tuple(near)):
                    got = brute_beta(
                        i, P.F.samples, P.G.samples, P.C, L.entries, T.entries,
                        Lp.entries, Lpp.entries, P.K.normals, y,
                    )
                    assert got is loop_beta(clouds, P.K.normals, y)
                    answers[i].add(got)
    assert all(seen == {True, False} for seen in answers.values())


# --- the oracle shares no engine code --------------------------------------------

ORACLE = Path(oracle.__file__)
ALLOWED = {("order_sets", "FiniteVecSet"), ("order_sets", "RegionLabel")}
ENGINE = {"numeric", "cones", "staircase2d", "conjugate", "farkas"}


def test_the_oracle_imports_only_two_names_from_the_package():
    imported = set()
    for node in ast.walk(ast.parse(ORACLE.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] != "weakfront", alias.name
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "weakfront":
                continue
            module = ".".join(parts[1:] if node.level == 0 else parts)
            imported |= {(module, alias.name) for alias in node.names}
    assert imported <= ALLOWED
    assert not {m.split(".")[0] for m, _ in imported} & ENGINE


# --- the oracle sees no value the engine built -----------------------------------

SUITES = ORACLE.with_name("suites.py")
PLAIN = (ast.Name, ast.Constant, ast.Attribute, ast.Subscript)


def _oracle_names(tree):
    """The names a module binds by importing from ``.oracle``."""
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[-1] == "oracle"
        for alias in node.names
    }


def _oracle_calls_fed_a_value(tree):
    """``line: name`` of each call to an oracle name with an argument that
    is not a plain name, constant, attribute or subscript, or that holds a
    call."""
    names = _oracle_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id not in names:
                continue
            args = [*node.args, *(k.value for k in node.keywords)]
            if not all(
                isinstance(a, PLAIN)
                and not any(isinstance(n, ast.Call) for n in ast.walk(a))
                for a in args
            ):
                yield f"{node.lineno}: {node.func.id}"


def _imported(tree):
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }


def test_the_suites_hand_the_oracle_raw_data_only():
    tree = ast.parse(SUITES.read_text())
    assert {"brute_beta", "brute_wsum"} <= _oracle_names(tree)
    assert list(_oracle_calls_fed_a_value(tree)) == []
    assert "compose" not in _imported(tree)


def test_the_rule_sees_an_engine_value_handed_to_the_oracle():
    tree = ast.parse(
        "from .oracle import brute_beta, brute_wsum as bw\n"
        "from .conjugate import compose\n"
        "brute_beta(i, P.F.samples, Ls[0], 3, y)\n"
        "bw(compose(T, G).samples, V, K, grid)\n"
        "brute_beta(i, [v for v in vs])\n"
        "other(compose(T, G))\n"
        "brute_beta(i, clouds=clouds(P))\n"
    )
    assert list(_oracle_calls_fed_a_value(tree)) == [
        "4: bw", "5: brute_beta", "7: brute_beta"
    ]
    assert "compose" in _imported(tree)
