"""The facet-coordinate core, checked against the brute-force oracle, which
shares no geometry with it, on simplicial and non-simplicial cones."""

import math
import random
from collections import Counter
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, strategies as st

from weakfront import conjugate, numeric, staircase2d
from weakfront.cones import Cone, DimensionError, PointClass, classify_point
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
            q = basis.to_quad(y)
            assert all(isinstance(c, int) for c in basis.to_quad(tuple(map(int, y))))
            assert from_quad(basis, q) == tuple(map(Fraction, y))


def test_orthant_coordinates_are_the_cone_order():
    K = sheared_cone_3d()
    basis = RayBasis.for_cone(K)
    for y in [(1, 1, 1), (1, 0, 0), (0, 0, 1), (-1, 1, 1), (2, 1, -1)]:
        q = basis.to_quad(y)
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
            q = basis.to_quad(g) if basis.inverse is not None else g
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
    |M|·|normals| times, and at least once, which the benchmark's traced
    run requires), and ``cleared`` once, for the whole batch, with the
    cone's basis built before counting.  Each is wrapped wherever
    ``staircase2d`` binds it."""
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
    rng = random.Random(41)
    ticks = [Fraction(k, 2) for k in range(-20, 21)]
    grid = [(a, b) for a in ticks for b in ticks]
    for K in [rand_cone_2d(rng) for _ in range(3)] + [CORE_CONES["redundant2"]]:
        M = rand_finite_set(rng, 2, 20)
        K.basis
        calls.clear()
        labels = classify_many(M, K, grid, sup=sup)
        assert 1 <= calls["dot"] <= len(M) * len(K.normals)
        assert calls["cleared"] == 1
        assert labels == _oracle_labels(M.points, K, grid, sup)


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
    products ``sum(map(mul, a, v))``, ``to_quad`` and their maxima: 1-4
    rows, zero rows among them, dimensions 1-3, 1-60 vectors."""
    A, vs = data
    want = [tuple(sum(map(mul, a, v)) for a in A) for v in vs]
    rows = staircase2d.row_products(A, list(zip(*vs)), len(vs))
    assert [len(r) for r in rows] == [len(vs)] * len(A)
    assert list(zip(*rows)) == want
    assert conjugate._int_images(A, vs) == want
    basis = RayBasis(tuple(A), None)
    assert [basis.to_quad(v) for v in vs] == want
    assert canonical_indices_2d(basis, vs) == maxima(want)
