"""The facet-coordinate core, checked against the brute-force oracle, which
shares no geometry with it."""

import random
from fractions import Fraction

import pytest

from weakfront.cones import Cone, in_cone
from weakfront.oracle import brute_region_bulk, region_of_point
from weakfront.order_sets import (
    FiniteVecSet,
    RegionLabel,
    classify_many,
    winf_finite,
    wsup_finite,
)
from weakfront.staircase2d import RayBasis, canonical_indices_2d, maxima


def skew_cone():
    return Cone(
        normals=((Fraction(1), Fraction(0)), (Fraction(-1), Fraction(2))),
        generators=((Fraction(0), Fraction(1)), (Fraction(2), Fraction(1))),
        interior_witness=(Fraction(1), Fraction(1)),
    )


def test_for_cone_accepts_pointed_planar_cones():
    assert RayBasis.for_cone(Cone.orthant(2)) is not None
    assert RayBasis.for_cone(Cone.orthant(1)) is not None
    assert RayBasis.for_cone(skew_cone()) is not None


def test_for_cone_rejects_halfplanes():
    half = Cone(
        ((Fraction(1), Fraction(0)),),
        ((0, 1), (0, -1), (1, 0)),
        (Fraction(1), Fraction(0)),
    )
    assert RayBasis.for_cone(half) is None


def sheared_cone_3d():
    return Cone(
        normals=((1, 0, 0), (-1, 2, 0), (1, 1, 3)),
        interior_witness=(1, 1, 1),
    )


def test_for_cone_accepts_simplicial_cones_of_any_dimension():
    assert RayBasis.for_cone(Cone.orthant(3)) is not None
    assert RayBasis.for_cone(sheared_cone_3d()) is not None
    pyramid = Cone(
        normals=((1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)),
        interior_witness=(0, 0, 1),
    )
    assert RayBasis.for_cone(pyramid) is None


def test_cone_derives_its_basis_once():
    K = skew_cone()
    assert K.basis is K.basis
    assert K.basis.normals == RayBasis.for_cone(K).normals


def test_quadrant_coordinates_roundtrip():
    cases = [
        (skew_cone(), [(0, 0), (3, 1), (Fraction(-1, 2), Fraction(7, 2)), (-4, -4)]),
        (sheared_cone_3d(), [(0, 0, 0), (1, -2, 3), (Fraction(1, 3), 5, Fraction(-7, 2))]),
    ]
    for K, ys in cases:
        basis = RayBasis.for_cone(K)
        for y in ys:
            q = basis.to_quad(y)
            assert all(isinstance(c, int) for c in basis.to_quad(tuple(map(int, y))))
            back = basis.from_quad(q)
            assert tuple(back) == tuple(map(Fraction, y))


def test_orthant_coordinates_are_the_cone_order():
    K = sheared_cone_3d()
    basis = RayBasis.for_cone(K)
    for y in [(1, 1, 1), (1, 0, 0), (0, 0, 1), (-1, 1, 1), (2, 1, -1)]:
        q = basis.to_quad(y)
        assert in_cone(K, y) == all(c >= 0 for c in q)


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


# --- the core against the oracle ---------------------------------------------

CORE_CONES = {
    "orthant1": Cone.orthant(1),
    "orthant3": Cone.orthant(3),
    "sheared3": sheared_cone_3d(),
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
def test_classify_many_on_simplicial_cones_matches_the_oracle(name, sup):
    K = CORE_CONES[name]
    assert K.basis is not None
    for M in _random_sets(K.dim, 6, seed=name):
        grid = _grid(K.dim, M)
        assert classify_many(M, K, grid, sup=sup) == _oracle_labels(
            M.points, K, grid, sup
        )


@pytest.mark.parametrize("name", sorted(CORE_CONES))
def test_wsup_finite_on_simplicial_cones_matches_the_oracle(name):
    K = CORE_CONES[name]
    for M in _random_sets(K.dim, 6, seed=7):
        S = wsup_finite(M, K)
        # the generators are the points of M with no other point of M
        # weakly above them ...
        maximal = [
            p
            for p in M.points
            if region_of_point([q for q in M.points if q != p], K.normals, p)
            is RegionLabel.UPPER
        ]
        assert S.generators.points == tuple(maximal)
        # ... and span the same regions as M itself
        grid = _grid(K.dim, M)
        assert S.classify_many(grid) == _oracle_labels(M.points, K, grid, True)
        inf = winf_finite(M, K)
        assert inf.classify_many(grid) == _oracle_labels(M.points, K, grid, False)


def test_redundant_normal_takes_the_generic_path_with_the_same_labels():
    twin = Cone.orthant(2)
    redundant = Cone(
        normals=((1, 0), (0, 1), (1, 1)),
        generators=((1, 0), (0, 1)),
        interior_witness=(1, 1),
    )
    assert redundant.basis is None and twin.basis is not None
    for M in _random_sets(2, 6, seed=3):
        grid = _grid(2, M)
        for sup in (True, False):
            labels = classify_many(M, twin, grid, sup=sup)
            assert classify_many(M, redundant, grid, sup=sup) == labels
            assert labels == _oracle_labels(M.points, twin, grid, sup)
        assert wsup_finite(M, redundant).generators == wsup_finite(M, twin).generators
