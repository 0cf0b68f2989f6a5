"""The facet-coordinate core, checked against the brute-force oracle, which
shares no geometry with it, on simplicial and non-simplicial cones."""

import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from weakfront import conjugate, numeric, oracle, staircase2d
from weakfront.cones import Cone, DimensionError, PointClass, classify_point
from weakfront.numeric import mat_vec
from weakfront.oracle import brute_region_bulk, region_of_point
from weakfront.order_sets import (
    FiniteVecSet,
    Orient,
    RegionLabel,
    classify_many,
    set_preceq,
    winf_finite,
    wsup_finite,
)
from weakfront.randgen import rand_cone, rand_cone_2d, rand_finite_set, rand_halfplane
from weakfront.staircase2d import RayBasis, canonical_indices_2d, maxima, maximal


def skew_cone():
    return Cone(
        normals=((Fraction(1), Fraction(0)), (Fraction(-1), Fraction(2))),
        generators=((Fraction(0), Fraction(1)), (Fraction(2), Fraction(1))),
        interior_witness=(Fraction(1), Fraction(1)),
    )


def test_for_cone_inverts_pointed_planar_cones():
    assert RayBasis.for_cone(Cone.orthant(2)).inverse is not None
    assert RayBasis.for_cone(Cone.orthant(1)).inverse is not None
    assert RayBasis.for_cone(skew_cone()).inverse is not None


def test_halfplane_basis_has_no_inverse():
    half = Cone(
        ((Fraction(1), Fraction(0)),),
        ((0, 1), (0, -1), (1, 0)),
        (Fraction(1), Fraction(0)),
    )
    basis = RayBasis.for_cone(half)
    assert basis.normals == ((1, 0),) and basis.inverse is None


def sheared_cone_3d():
    return Cone(
        normals=((1, 0, 0), (-1, 2, 0), (1, 1, 3)),
        interior_witness=(1, 1, 1),
    )


def pyramid_3d():
    return Cone(
        normals=((1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)),
        interior_witness=(0, 0, 1),
    )


def test_for_cone_inverts_simplicial_cones_of_any_dimension():
    assert RayBasis.for_cone(Cone.orthant(3)).inverse is not None
    assert RayBasis.for_cone(sheared_cone_3d()).inverse is not None
    pyramid = RayBasis.for_cone(pyramid_3d())
    assert len(pyramid.normals) == 4 and pyramid.inverse is None


def _fraction_inverse(A):
    """A^{-1} by Gauss-Jordan elimination on ``Fraction``s, or None."""
    n = len(A)
    work = [[Fraction(c) for c in row] + [Fraction(i == j) for j in range(n)]
            for i, row in enumerate(A)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        work[col] = [c / work[col][col] for c in work[col]]
        for r in range(n):
            if r != col:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    return [row[n:] for row in work]


def test_the_integer_inverse_is_the_cleared_fraction_inverse():
    """``_inverse`` of random integer matrices up to 4 x 4, many singular,
    is the ``Fraction`` inverse cleared as (δ, δ·A^{-1}), δ the least
    common denominator, or None exactly when that inverse does not
    exist."""
    rng = random.Random(5)
    singular = 0
    for _ in range(3_000):
        n = rng.randint(1, 4)
        A = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n)]
        if rng.random() < 0.1:  # a row repeated or scaled
            A[-1] = tuple(rng.randint(-2, 2) * c for c in A[0])
        want = _fraction_inverse(A)
        got = staircase2d._inverse(A)
        if want is None:
            singular += 1
            assert got is None, A
            continue
        d, flat = numeric.cleared(c for row in want for c in row)
        assert got == (d, tuple(numeric.chunked(flat, n, n))), A
        assert all(type(c) is int for row in got[1] for c in row)
    assert 300 < singular < 2_700


def test_cone_derives_its_basis_once():
    K = skew_cone()
    assert K.basis is K.basis
    assert K.basis.normals == RayBasis.for_cone(K).normals


def from_quad(basis, q):
    """The point N^{-1}·q of facet coordinates q, read from the basis's
    cleared inverse (δ, δ·N^{-1})."""
    delta, inverse = basis.inverse
    return tuple(Fraction(sum(map(mul, row, q)), delta) for row in inverse)


def test_quadrant_coordinates_roundtrip():
    cases = [
        (skew_cone(), [(0, 0), (3, 1), (Fraction(-1, 2), Fraction(7, 2)), (-4, -4)]),
        (sheared_cone_3d(), [(0, 0, 0), (1, -2, 3), (Fraction(1, 3), 5, Fraction(-7, 2))]),
    ]
    for K, ys in cases:
        basis = RayBasis.for_cone(K)
        delta, inverse = basis.inverse
        assert all(type(c) is int for row in inverse for c in row)
        # N·(δ·N^{-1}) = δ·I, with δ the least such scale
        product = [[sum(map(mul, a, col)) for col in zip(*inverse)] for a in basis.normals]
        assert product == [[delta * (i == j) for j in range(K.dim)] for i in range(K.dim)]
        assert math.gcd(delta, *(c for row in inverse for c in row)) == 1
        for y in ys:
            q = mat_vec(basis.normals, y)
            ints = mat_vec(basis.normals, tuple(map(int, y)))
            assert all(isinstance(c, int) for c in ints)
            assert from_quad(basis, q) == tuple(map(Fraction, y))


def test_orthant_coordinates_are_the_cone_order():
    K = sheared_cone_3d()
    basis = RayBasis.for_cone(K)
    for y in [(1, 1, 1), (1, 0, 0), (0, 0, 1), (-1, 1, 1), (2, 1, -1)]:
        q = mat_vec(basis.normals, y)
        inside = classify_point(K, y) is not PointClass.OUTSIDE
        assert inside == all(c >= 0 for c in q)


def test_canonical_indices_drop_dominated_points():
    K = Cone.orthant(2)
    basis = RayBasis.for_cone(K)
    pts = [(0, 0), (2, 1), (1, 2), (1, 1), (2, 1)]
    idx = canonical_indices_2d(basis, pts)
    assert sorted(pts[i] for i in idx) == [(1, 2), (2, 1)]
    assert idx.count(1) + idx.count(4) == 1  # one of two equal points


def test_maxima_in_three_dimensions():
    pts = [(0, 0, 3), (1, 1, 1), (0, 0, 2), (1, 1, 0), (2, 0, 0), (1, 1, 1)]
    assert sorted(pts[i] for i in maxima(pts)) == [(0, 0, 3), (1, 1, 1), (2, 0, 0)]


def _pairwise_maxima(coords):
    """The reference: each vector, in descending order, is tested against
    every vector kept before it."""
    kept = []
    for i in sorted(range(len(coords)), key=coords.__getitem__, reverse=True):
        q = coords[i]
        if not any(all(a >= b for a, b in zip(coords[k], q)) for k in kept):
            kept.append(i)
    return kept


def test_maxima_matches_the_pairwise_loop():
    """Same indices in the same order, on the empty list and on seeded
    integer vectors of 1-4 coordinates drawn from small ranges, so that
    repeats and ties in single coordinates are common."""
    assert maxima([]) == [] == _pairwise_maxima([])
    rng = random.Random(16)
    for _ in range(400):
        d = rng.randint(1, 4)
        hi = rng.choice((1, 3, 10))
        pts = [
            tuple(rng.randint(-hi, hi) for _ in range(d))
            for _ in range(rng.randint(1, 30))
        ]
        pts += rng.choices(pts, k=rng.randint(0, 5))
        rng.shuffle(pts)
        assert maxima(pts) == _pairwise_maxima(pts), pts


def test_maximal_lists_the_vectors_of_the_pairwise_loop():
    """``maximal`` returns the vectors at the indices the pairwise loop
    keeps, in that order, each repeated vector once, on the same seeded
    clouds of 1-4 coordinates, and accepts a lazy cloud."""
    assert maximal([]) == []
    rng = random.Random(17)
    for _ in range(400):
        d = rng.randint(1, 4)
        hi = rng.choice((1, 3, 10))
        pts = [
            tuple(rng.randint(-hi, hi) for _ in range(d))
            for _ in range(rng.randint(1, 30))
        ]
        pts += rng.choices(pts, k=rng.randint(0, 5))
        rng.shuffle(pts)
        want = [pts[i] for i in _pairwise_maxima(pts)]
        assert maximal(pts) == want == maximal(iter(pts)), pts
        assert len(set(want)) == len(want)


# --- the core against the oracle ---------------------------------------------

CORE_CONES = {
    "orthant1": Cone.orthant(1),
    "orthant3": Cone.orthant(3),
    "skew2": skew_cone(),
    "sheared3": sheared_cone_3d(),
    # not simplicial: fewer or more normals than the dimension
    "halfplane": rand_halfplane(random.Random(1)),  # normal (-2, 1)
    "halfspace3": Cone(normals=((1, -1, 2),), interior_witness=(1, 0, 0)),
    "wedge3": Cone(normals=((1, 0, 0), (-1, 2, 1)), interior_witness=(1, 1, 0)),
    "pyramid3": pyramid_3d(),
    "redundant2": Cone(
        normals=((1, 0), (0, 1), (1, 1)),
        generators=((1, 0), (0, 1)),
        interior_witness=(1, 1),
    ),
}
_SWAP = {
    RegionLabel.LOWER: RegionLabel.UPPER,
    RegionLabel.FRONTIER: RegionLabel.FRONTIER,
    RegionLabel.UPPER: RegionLabel.LOWER,
}


def _neg(points):
    return [tuple(-c for c in p) for p in points]


def _oracle_labels(points, K, grid, sup):
    """Sup labels from the oracle; inf labels as the sup labels of the
    negated data with LOWER and UPPER swapped."""
    if sup:
        return brute_region_bulk(points, K.normals, grid)
    return [_SWAP[lab] for lab in brute_region_bulk(_neg(points), K.normals, _neg(grid))]


def _random_sets(dim, count, seed):
    rng = random.Random(seed)
    steps = [Fraction(k, 6) for k in range(-12, 13)]
    return [
        FiniteVecSet(
            tuple(rng.choice(steps) for _ in range(dim))
            for _ in range(rng.randint(1, 12))
        )
        for _ in range(count)
    ]


def _grid(dim, M):
    ticks = [Fraction(k, 2) for k in range(-4, 5)] if dim > 1 else [
        Fraction(k, 3) for k in range(-9, 10)
    ]
    pts = [()]
    for _ in range(dim):
        pts = [p + (t,) for p in pts for t in ticks]
    return pts + list(M.points)  # the set's own points sit on or below it


@pytest.mark.parametrize("name", sorted(CORE_CONES))
@pytest.mark.parametrize("sup", [True, False], ids=["sup", "inf"])
def test_classify_many_on_every_cone_matches_the_oracle(name, sup):
    K = CORE_CONES[name]
    for M in _random_sets(K.dim, 6, seed=name):
        grid = _grid(K.dim, M)
        assert classify_many(M, K, grid, sup=sup) == _oracle_labels(
            M.points, K, grid, sup
        )


# one facet (a half-plane), two, and four (the pyramid; and the quadrant
# with two redundant normals, four in the plane)
_FACET_CONES = {
    "halfplane": CORE_CONES["halfplane"],
    "skew2": CORE_CONES["skew2"],
    "pyramid3": CORE_CONES["pyramid3"],
    "redundant4": Cone(
        normals=((1, 0), (0, 1), (1, 1), (1, 2)),
        generators=((1, 0), (0, 1)),
        interior_witness=(1, 1),
    ),
}


@pytest.mark.parametrize("name", sorted(_FACET_CONES))
@pytest.mark.parametrize("sup", [True, False], ids=["sup", "inf"])
def test_classify_many_hands_back_the_engines_list_of_labels(monkeypatch, name, sup):
    """``classify_many`` returns the very list ``classify_points_2d`` built,
    and its entries are the oracle's ``RegionLabel`` members, all three of
    them over the sets below, under sup and inf."""
    K = _FACET_CONES[name]
    built = []
    real = staircase2d.classify_points_2d

    def spy(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(staircase2d, "classify_points_2d", spy)
    seen = set()
    for M in _random_sets(K.dim, 4, seed=name):
        grid = _grid(K.dim, M)
        labels = classify_many(M, K, grid, sup=sup)
        assert labels is built[-1]
        want = _oracle_labels(M.points, K, grid, sup)
        assert len(labels) == len(want)
        assert all(a is b for a, b in zip(labels, want))
        seen.update(labels)
    assert seen == set(RegionLabel)


@pytest.mark.parametrize("name", sorted(_FACET_CONES))
def test_a_direct_call_labels_with_the_objects_it_is_given(name):
    """``classify_points_2d`` gives each region as its entry of ``labels``
    (LOWER, FRONTIER, UPPER), reversed for an infimum, and its int codes
    by default."""
    K = _FACET_CONES[name]
    M = _random_sets(K.dim, 1, seed=name)[0]
    grid = _grid(K.dim, M)
    for sup in (True, False):
        want = [lab.name for lab in _oracle_labels(M.points, K, grid, sup)]
        named = staircase2d.classify_points_2d(
            K.basis, M.cleared(), grid, sup, ("LOWER", "FRONTIER", "UPPER")
        )
        codes = staircase2d.classify_points_2d(K.basis, M.cleared(), grid, sup)
        assert named == want
        assert [_CODE_LABELS[c].name for c in codes] == want


def _weakly_above(q, p, K):
    """q - p in K, by the oracle."""
    return region_of_point([q], K.normals, p) is not RegionLabel.UPPER


@pytest.mark.parametrize("name", sorted(CORE_CONES))
def test_wsup_finite_on_every_cone_matches_the_oracle(name):
    K = CORE_CONES[name]
    for M in _random_sets(K.dim, 6, seed=7):
        S = wsup_finite(M, K)
        # the generators are the points of M with no other point of M
        # weakly above them, save a lex-larger point it is equivalent to ...
        maximal = [
            p
            for p in M.points
            if not any(
                _weakly_above(q, p, K) and (not _weakly_above(p, q, K) or q < p)
                for q in M.points
                if q != p
            )
        ]
        assert S.generators.points == tuple(maximal)
        # ... and span the same regions as M itself
        grid = _grid(K.dim, M)
        assert S.classify_many(grid) == _oracle_labels(M.points, K, grid, True)
        inf = winf_finite(M, K)
        assert inf.classify_many(grid) == _oracle_labels(M.points, K, grid, False)


def test_redundant_normal_gives_the_orthant_labels():
    twin = Cone.orthant(2)
    redundant = CORE_CONES["redundant2"]
    for M in _random_sets(2, 6, seed=3):
        grid = _grid(2, M)
        for sup in (True, False):
            labels = classify_many(M, twin, grid, sup=sup)
            assert classify_many(M, redundant, grid, sup=sup) == labels
            assert labels == _oracle_labels(M.points, twin, grid, sup)
        assert wsup_finite(M, redundant).generators == wsup_finite(M, twin).generators


def test_halfplane_ties_keep_the_lex_smallest_point():
    # (1, 2) and (1, -1) lie on one line parallel to the boundary of
    # {y : y_1 >= 0}; (0, 5) lies strictly below that line.
    half = Cone(normals=((1, 0),), interior_witness=(1, 0))
    M = FiniteVecSet([(1, 2), (0, 5), (1, -1)])
    assert wsup_finite(M, half).generators.points == ((1, -1),)
    assert winf_finite(M, half).generators.points == ((0, 5),)


def _facet_directions(K):
    """Small integer k in K on a facet (some normal zero on k) and off lin K
    (another normal positive on k)."""
    ticks = range(-3, 4)
    ks = [()]
    for _ in range(K.dim):
        ks = [k + (t,) for k in ks for t in ticks]
    for k in ks:
        prods = [sum(a * c for a, c in zip(n, k)) for n in K.normals]
        if min(prods) == 0 and max(prods) > 0:
            yield k


def _frontier_escape(U, V, K):
    """A point g - t·k of V's SUP frontier outside gu + K (so strictly below
    U's INF frontier), with g in gv, k from :func:`_facet_directions` and
    t <= 1000, checked by the oracle; None when none is found."""
    gu, gv = U.generators.points, V.generators.points
    for k in _facet_directions(K):
        for g in gv:
            for t in (1, 10, 100, 1000):
                w = tuple(c - t * d for c, d in zip(g, k))
                on_v = region_of_point(gv, K.normals, w)
                # -w above -gu - K is w outside gu + K
                off_u = region_of_point(_neg(gu), K.normals, _neg([w])[0])
                if (on_v, off_u) == (RegionLabel.FRONTIER, RegionLabel.UPPER):
                    return w
    return None


def _rank(rows):
    """The rank of a small exact matrix by Gaussian elimination."""
    work = [list(map(Fraction, r)) for r in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        prow = work[rank]
        for r in range(len(work)):
            if r != rank and work[r][col] != 0:
                f = work[r][col] / prow[col]
                work[r] = [a - f * b for a, b in zip(work[r], prow)]
        rank += 1
    return rank


def test_a_cone_has_normals_of_rank_one_exactly_when_it_has_one_normal():
    """``set_preceq`` reads rank(N) == 1 as one normal: a cone's normals are
    primitive, deduplicated and positive on its interior witness, so no two
    are parallel."""
    rng = random.Random(4)
    cones = [*CORE_CONES.values(), skew_cone()]
    cones += [rand_cone(rng, dim) for dim in (1, 2) for _ in range(20)]
    cones += [rand_halfplane(rng) for _ in range(10)]
    cones.append(Cone(normals=((1, 2), (2, 4), (3, 6)), interior_witness=(0, 1)))
    for K in cones:
        assert (_rank(K.normals) == 1) is (len(K.normals) == 1), K.normals


def _preceq_reference(U, V, K):
    """The set order from pairwise cone tests on the raw normals.  INF-vs-SUP
    under a cone of rank(N) >= 2 is False only with an oracle-checked point
    of V's frontier strictly below U (None if no such point is found)."""

    def inside(d, strict=False):
        prods = [sum(a * c for a, c in zip(n, d)) for n in K.normals]
        return all(p > 0 if strict else p >= 0 for p in prods)

    def minus(p, q):
        return tuple(a - b for a, b in zip(p, q))

    gu, gv = U.generators.points, V.generators.points
    if U.orient is Orient.SUP and V.orient is Orient.SUP:
        return all(any(inside(minus(v, u)) for v in gv) for u in gu)
    if U.orient is Orient.SUP:
        return not any(inside(minus(u, v), strict=True) for u in gu for v in gv)
    rank = _rank(K.normals)
    if V.orient is Orient.INF or rank == 1:
        return all(any(inside(minus(v, u)) for u in gu) for v in gv)
    return False if _frontier_escape(U, V, K) is not None else None


@pytest.mark.parametrize("name", sorted(CORE_CONES))
def test_set_preceq_matches_the_pairwise_reference(name):
    K = CORE_CONES[name]
    sets = _random_sets(K.dim, 6, seed=11)
    fronts = [wsup_finite(M, K) for M in sets] + [winf_finite(M, K) for M in sets]
    for U in fronts:
        for V in fronts:
            assert set_preceq(U, V) is _preceq_reference(U, V, K), (U, V)


def _staircase_queries(M, K, rng):
    """Queries on the facet coordinates of wsup(M)'s and winf(M)'s
    generators and one step (1/den at the generators' scale den) off them:
    each generator moved by -1, 0 or +1 step in each coordinate (in facet
    coordinates, through N^-1, when K is simplicial), and, under a
    simplicial K, facet coordinates drawn from different generators (the
    staircase's inner corners); then points with mixed int and Fraction
    entries of denominators 1-12."""
    basis = RayBasis.for_cone(K)
    m = len(basis.normals) if basis.inverse is not None else K.dim
    offsets = [()]
    for _ in range(m):
        offsets = [e + (t,) for e in offsets for t in (-1, 0, 1)]
    queries, corners = [], [set() for _ in range(m)]
    for G in (wsup_finite(M, K).generators, winf_finite(M, K).generators):
        step = Fraction(1, G.cleared()[0])
        for g in G.points:
            q = mat_vec(basis.normals, g) if basis.inverse is not None else g
            for e in offsets:
                shifted = tuple(c + t * step for c, t in zip(q, e))
                for j, c in enumerate(shifted):
                    corners[j].add(c)
                queries.append(shifted)
    if basis.inverse is not None:
        corners = [sorted(c) for c in corners]
        queries += [tuple(rng.choice(c) for c in corners) for _ in range(100)]
        queries = [from_quad(basis, q) for q in queries]
    for _ in range(20):
        queries.append(
            tuple(
                rng.randint(-6, 6)
                if rng.random() < 0.5
                else Fraction(rng.randint(-72, 72), rng.randint(1, 12))
                for _ in range(K.dim)
            )
        )
    return queries


@pytest.mark.parametrize("name", sorted(CORE_CONES))
def test_single_point_queries_agree_with_the_bulk_labels(name):
    K = CORE_CONES[name]
    rng = random.Random(name)
    for M in _random_sets(K.dim, 3, seed=5):
        grid = _grid(K.dim, M)[::7] + _staircase_queries(M, K, rng)
        single = [classify_many(M, K, [y])[0] for y in grid]
        assert single == classify_many(M, K, grid)
        assert single == _oracle_labels(M.points, K, grid, True)
        for S in (wsup_finite(M, K), winf_finite(M, K)):
            bulk = S.classify_many(grid)
            assert [S.classify(y) for y in grid] == bulk
            assert bulk == _oracle_labels(M.points, K, grid, S.orient is Orient.SUP)


@pytest.mark.parametrize("name", sorted(CORE_CONES))
def test_an_empty_batch_has_no_labels(name):
    K = CORE_CONES[name]
    M = _random_sets(K.dim, 1, seed=2)[0]
    assert classify_many(M, K, [], sup=True) == []
    assert classify_many(M, K, [], sup=False) == []
    assert wsup_finite(M, K).classify_many([]) == []
    assert winf_finite(M, K).classify_many([]) == []


def test_the_first_bad_point_decides_the_error():
    """A batch is refused as its points are, one by one: the first bad
    point decides the error, and within a point its dimension is checked
    before its entries."""
    K = Cone.orthant(2)
    M = FiniteVecSet([(0, 0), (1, -1)])
    for sup in (True, False):
        with pytest.raises(ValueError) as err:
            classify_many(M, K, [(0.5, 1), (1, 2, 3)], sup=sup)
        assert type(err.value) is ValueError
        assert str(err.value).startswith("query point (0.5, 1) has the entry 0.5")
        for batch in ([(1, 2, 3), (0.5, 1)], [(0, 0), (0.5, 1, 2)]):
            with pytest.raises(DimensionError):
                classify_many(M, K, batch, sup=sup)
    # a subclass of int is an int, as it is to the point-by-point check
    assert classify_many(M, K, [(True, False)]) == classify_many(M, K, [(1, 0)])


@pytest.mark.parametrize("sup", [True, False], ids=["sup", "inf"])
def test_a_batch_costs_no_call_per_point(monkeypatch, sup):
    """On a 41 x 41 grid, ``dot`` runs only on the set's points (at most
    |M|·|normals| times per call, and at least once, which the benchmark's
    traced run requires), with the cones' bases built before counting.
    Over all four cones the grid is checked and kept (a new
    ``_last_batch``) and cleared (``cleared``) once, and the oracle clears
    it once and keeps one int64 form of it; a rebuilt grid of equal but new
    ``Fraction`` objects is checked and cleared once more on each side.
    ``dot`` and ``cleared`` are wrapped wherever ``staircase2d`` binds
    them."""
    calls = Counter()

    def counting(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)

        return wrapper

    for fn in (numeric.dot, numeric.cleared):
        for attr, val in list(vars(staircase2d).items()):
            if val is fn:
                monkeypatch.setattr(staircase2d, attr, counting(fn))
    real_batch_columns = staircase2d._batch_columns

    def batch_columns(points, dim):
        before = staircase2d._last_batch
        out = real_batch_columns(points, dim)
        calls["checked"] += staircase2d._last_batch is not before
        return out

    monkeypatch.setattr(staircase2d, "_batch_columns", batch_columns)
    real_cleared = oracle._cleared

    def oracle_cleared(vectors, dim=-1):
        calls["oracle grid"] += len(vectors) == len(grid)
        return real_cleared(vectors, dim)

    monkeypatch.setattr(oracle, "_cleared", oracle_cleared)
    rng = random.Random(41)

    def half_grid():
        ticks = [Fraction(k, 2) for k in range(-20, 21)]
        return [(a, b) for a in ticks for b in ticks]

    grid = half_grid()
    cones = [rand_cone_2d(rng) for _ in range(3)] + [CORE_CONES["redundant2"]]
    sets = [rand_finite_set(rng, 2, 20) for _ in cones]
    wants = [_oracle_labels(M.points, K, grid, sup) for M, K in zip(sets, cones)]
    for K in cones:
        K.basis
    brute_region_bulk([], cones[0].normals, [])  # another grid for the oracle's memo
    calls.clear()
    int64_forms = []
    for M, K, want in zip(sets, cones, wants):
        dots = calls["dot"]
        assert classify_many(M, K, grid, sup=sup) == want
        assert 1 <= calls["dot"] - dots <= len(M) * len(K.normals)
        brute_region_bulk(M.points, K.normals, grid)
        int64_forms.append(oracle._last_grid[2][3])
    assert (calls["cleared"], calls["checked"], calls["oracle grid"]) == (1, 1, 1)
    assert all(G64 is int64_forms[0] for G64 in int64_forms)
    rebuilt = half_grid()
    assert rebuilt == grid
    assert classify_many(M, K, rebuilt, sup=sup) == want
    brute_region_bulk(M.points, K.normals, rebuilt)
    assert (calls["cleared"], calls["checked"], calls["oracle grid"]) == (2, 2, 2)


# --- the last query batch's cleared form is reused ---------------------------------


def _labels_match_the_oracle(M, K, batch, sup=True):
    labels = classify_many(M, K, batch, sup=sup)
    assert labels == _oracle_labels(M.points, K, batch, sup)
    return labels


def _third_grid(lo=-6, hi=6):
    ticks = [Fraction(k, 3) for k in range(3 * lo, 3 * hi + 1)]
    return [(a, b) for a in ticks for b in ticks]


def test_a_batch_of_equal_values_in_new_objects_is_labelled_afresh():
    rng = random.Random(5)
    K = rand_cone_2d(rng)
    for M in [rand_finite_set(rng, 2, 12) for _ in range(3)]:
        first = _labels_match_the_oracle(M, K, _third_grid())
        assert _labels_match_the_oracle(M, K, _third_grid()) == first


def test_a_batch_changed_in_place_is_cleared_again():
    """The memo keeps its own copy of the entries: the caller's list, with
    one point replaced between calls, is labelled by its new point."""
    rng = random.Random(6)
    K, M = CORE_CONES["skew2"], rand_finite_set(rng, 2, 12)
    grid = _third_grid(-3, 3)
    codes = staircase2d.classify_points_2d(K.basis, M.cleared(), grid)
    for i in (0, 17, len(grid) - 1):
        grid[i] = (Fraction(7, 5), Fraction(-11, 7))
        again = staircase2d.classify_points_2d(K.basis, M.cleared(), grid)
        want = _oracle_labels(M.points, K, grid, True)
        assert [_CODE_LABELS[c] for c in again] == want
        assert again[:i] == codes[:i]
        codes = again


def test_a_batch_of_lists_changed_in_place_is_cleared_again():
    """A direct call keeps its batch too, as new tuples: a point given as
    a list and changed in place between calls is labelled by its new
    entries."""
    K, M = CORE_CONES["skew2"], rand_finite_set(random.Random(7), 2, 12)
    grid = [list(p) for p in _third_grid(-3, 3)]
    staircase2d.classify_points_2d(K.basis, M.cleared(), grid)
    for i in (0, 17, len(grid) - 1):
        grid[i][0] = Fraction(7, 5)
        again = staircase2d.classify_points_2d(K.basis, M.cleared(), grid)
        want = _oracle_labels(M.points, K, [tuple(p) for p in grid], True)
        assert [_CODE_LABELS[c] for c in again] == want


_CODE_LABELS = {
    staircase2d.LOWER: RegionLabel.LOWER,
    staircase2d.FRONTIER: RegionLabel.FRONTIER,
    staircase2d.UPPER: RegionLabel.UPPER,
}


@pytest.mark.parametrize("name", sorted(CORE_CONES))
def test_empty_batches_around_nonempty_ones(name):
    """An empty batch between and after non-empty ones has no labels, and
    moves no label of the others."""
    K = CORE_CONES[name]
    M, N = _random_sets(K.dim, 2, seed=8)
    grid = [tuple(c * k for c in p) for p in M.points for k in (-1, 1, 2)]
    for _ in range(2):
        assert classify_many(M, K, []) == []
        _labels_match_the_oracle(M, K, grid)
        assert classify_many(N, K, [], sup=False) == []
        _labels_match_the_oracle(N, K, grid, sup=False)
    assert classify_many(M, K, []) == []


_FIRST_QUERIES = """
from fractions import Fraction
from weakfront.cones import Cone
from weakfront.oracle import brute_region_bulk
from weakfront.order_sets import FiniteVecSet, classify_many
K, M = Cone.orthant(2), FiniteVecSet([(Fraction(1, 3), 0)])
grid = [(0, -1), (Fraction(1, 3), 0), (1, 1)]
print(classify_many(M, K, []), brute_region_bulk(M.points, K.normals, []))
print(*(lab.name for lab in classify_many(M, K, grid)))
print(*(lab.name for lab in brute_region_bulk(M.points, K.normals, grid)))
"""


def test_an_empty_batch_is_a_fresh_process_first_query():
    """In a new interpreter, where neither side has cleared a batch yet,
    an empty batch first has no labels and moves none of the next one's."""
    src = str(Path(staircase2d.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", _FIRST_QUERIES], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[] []", *["LOWER FRONTIER UPPER"] * 2]


def test_two_grids_alternating():
    rng = random.Random(9)
    grids = [_third_grid(-4, 4), _grid_of_ints_and_fractions()]
    for k in range(8):
        K = rand_cone_2d(rng) if k % 3 else CORE_CONES["redundant2"]
        M = rand_finite_set(rng, 2, 10)
        _labels_match_the_oracle(M, K, grids[k % 2], sup=k % 4 < 2)


def test_sup_and_inf_on_one_grid():
    rng = random.Random(10)
    grid = _third_grid(-5, 5)
    for K in (rand_cone_2d(rng), CORE_CONES["halfplane"], CORE_CONES["redundant2"]):
        M = rand_finite_set(rng, 2, 12)
        for sup in (True, False, True, False):
            _labels_match_the_oracle(M, K, grid, sup)


def _grid_of_ints_and_fractions():
    """ints and Fractions mixed within points and within coordinates, some
    Fractions whole."""
    ticks = [k if k % 3 else Fraction(k, 3) for k in range(-6, 7)]
    ticks += [Fraction(k, 4) for k in range(-7, 8, 2)]
    return [(a, b) for a in ticks for b in ticks]


def test_a_batch_of_ints_and_fractions():
    """The batch's own scale differs from the sets' scales (whole, halves,
    sevenths), so its integers are rescaled on each reuse."""
    rng = random.Random(11)
    grid = _grid_of_ints_and_fractions()
    whole = FiniteVecSet([(1, -2), (-3, 0), (2, 2)])
    for K in (rand_cone_2d(rng), CORE_CONES["skew2"]):
        for M in (whole, rand_finite_set(rng, 2, 12), _sevenths(rng)):
            _labels_match_the_oracle(M, K, grid)
            _labels_match_the_oracle(M, K, grid, sup=False)


def _sevenths(rng):
    return FiniteVecSet(
        (Fraction(rng.randint(-30, 30), 7), Fraction(rng.randint(-30, 30), 7))
        for _ in range(8)
    )


@pytest.mark.parametrize("sup", [True, False], ids=["sup", "inf"])
def test_a_bad_batch_is_refused_after_a_hit(sup):
    """The dimension and type checks run on every batch that is not the
    kept one: after a reused batch, a batch with one point of the wrong
    dimension, the same entry objects regrouped into 3-d points, and a
    batch with a float entry are each refused."""
    K = Cone.orthant(2)
    M = FiniteVecSet([(0, 0), (1, -1)])
    grid = _third_grid(-1, 1)  # 49 points, 98 entries
    for _ in range(2):
        _labels_match_the_oracle(M, K, grid, sup)
    flat = [c for p in grid[:48] for c in p]
    for batch in (
        [*grid, (1, 2, 3)],
        [tuple(flat[i : i + 3]) for i in range(0, 96, 3)],
        [*grid[:-1], (grid[-1][0], 1.5)],
    ):
        with pytest.raises((DimensionError, ValueError)) as err:
            classify_many(M, K, batch, sup=sup)
        want = ValueError if isinstance(batch[-1][-1], float) else DimensionError
        assert type(err.value) is want
    _labels_match_the_oracle(M, K, grid, sup)


def test_only_a_checked_batch_is_kept():
    """A direct ``classify_points_2d`` call checks its batch as
    ``classify_many`` does: a refused batch is not kept, so the same point
    tuples are refused again by either; a batch kept at one dimension is
    checked again against a cone of another."""
    K, M = Cone.orthant(2), FiniteVecSet([(0, 0), (1, -1)])
    batch = [*_third_grid(-1, 1), (Fraction(1, 3), 1.5)]
    for _ in range(2):
        with pytest.raises(ValueError, match="has the entry 1.5"):
            staircase2d.classify_points_2d(K.basis, M.cleared(), batch)
    with pytest.raises(ValueError, match="has the entry 1.5"):
        classify_many(M, K, batch)
    grid = _third_grid(-1, 1)
    _labels_match_the_oracle(M, K, grid)
    K3 = Cone.orthant(3)
    with pytest.raises(DimensionError):
        classify_many(FiniteVecSet([(0, 0, 0)]), K3, grid)
    _labels_match_the_oracle(M, K, grid)


_SHARED = [_third_grid(-2, 2), _grid_of_ints_and_fractions(), []]


@given(
    st.lists(
        st.tuples(
            st.integers(0, len(_SHARED)),  # a shared grid, or a rebuilt one
            st.sampled_from(["skew2", "halfplane", "redundant2"]),
            st.integers(0, 2**16),
            st.booleans(),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_a_run_of_batches_matches_the_oracle(runs):
    """Any run of calls on shared grids, rebuilt equal grids and empty
    batches, under sup and inf, labels as the oracle does."""
    for which, name, seed, sup in runs:
        grid = _SHARED[which] if which < len(_SHARED) else _third_grid(-2, 2)
        M = rand_finite_set(random.Random(seed), 2, 8)
        _labels_match_the_oracle(M, CORE_CONES[name], grid, sup)


def _matrix_and_vectors(dim):
    """A matrix of 1-4 rows of length ``dim``, some of them zero, and 1-60
    integer vectors of that dimension, repeats allowed."""
    entry = st.integers(-5, 5)
    row = st.one_of(st.just((0,) * dim), st.tuples(*[entry] * dim))
    vec = st.tuples(*[st.integers(-40, 40)] * dim)
    return st.tuples(
        st.lists(row, min_size=1, max_size=4),
        st.lists(vec, min_size=1, max_size=60),
    )


@given(st.integers(1, 3).flatmap(_matrix_and_vectors))
def test_images_by_columns_are_the_per_vector_products(data):
    """``row_products`` over the vectors' coordinate columns, and the
    images and canonical indices formed from it, equal the per-vector
    products ``sum(map(mul, a, v))``, ``mat_vec`` and their maxima: 1-4
    rows, zero rows among them, dimensions 1-3, 1-60 vectors."""
    A, vs = data
    want = [tuple(sum(map(mul, a, v)) for a in A) for v in vs]
    rows = staircase2d.row_products(A, list(zip(*vs)), len(vs))
    assert [len(r) for r in rows] == [len(vs)] * len(A)
    assert list(zip(*rows)) == want
    assert conjugate._int_images(A, vs) == want
    basis = RayBasis(tuple(A), None)
    assert [mat_vec(basis.normals, v) for v in vs] == want
    assert canonical_indices_2d(basis, vs) == maxima(want)
