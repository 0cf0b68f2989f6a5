import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from weakfront.cones import Cone
from weakfront.oracle import region_of_point
from weakfront.order_sets import (
    DimensionError,
    FiniteVecSet,
    GenSet,
    IllegalInfinitySum,
    Orient,
    RegionLabel,
    Tag,
    classify_many,
    neutral_sup,
    set_preceq,
    winf_finite,
    ws_sum,
    wsup_finite,
)

O2 = Cone.orthant(2)

# staircase with corners (2,1) and (1,2); (1,1) and (0,0) sit below it
M = FiniteVecSet([(0, 0), (2, 1), (1, 2), (1, 1)])


def test_finite_vec_set_dedups_and_sorts():
    s = FiniteVecSet([(1, 0), (0, 1), (1, 0)])
    assert s.points == ((0, 1), (1, 0))
    assert s.dim == 2


def test_finite_vec_set_rejects_empty_and_ragged():
    with pytest.raises(ValueError):
        FiniteVecSet([])
    with pytest.raises(DimensionError):
        FiniteVecSet([(1, 0), (1,)])


PYRAMID = Cone(
    normals=((1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)),
    interior_witness=(0, 0, 1),
)


@pytest.mark.parametrize(
    "K", [Cone.orthant(2), PYRAMID], ids=["simplicial", "pyramid"]
)
def test_floats_are_refused_where_points_enter(K):
    zero = (0,) * K.dim
    with pytest.raises(ValueError, match=r"0\.5"):
        FiniteVecSet([zero, (0.5,) + zero[1:]])
    S = FiniteVecSet([zero, (1,) * K.dim])
    with pytest.raises(ValueError, match=r"0\.5"):
        classify_many(S, K, [zero, (0.5,) + zero[1:]])


def test_wsup_keeps_the_undominated_points():
    S = wsup_finite(M, O2)
    assert S.tag is Tag.FINITE and S.orient is Orient.SUP
    assert S.generators.points == ((1, 2), (2, 1))


def test_wsup_region_labels():
    S = wsup_finite(M, O2)
    assert S.classify((0, 0)) is RegionLabel.LOWER
    assert S.classify((2, 1)) is RegionLabel.FRONTIER
    assert S.classify((2, 2)) is RegionLabel.UPPER  # above the staircase
    assert S.classify((3, 0)) is RegionLabel.UPPER
    assert S.classify((Fraction(1, 2), Fraction(5, 2))) is RegionLabel.UPPER


def test_winf_mirrors_wsup():
    S = winf_finite(M, O2)
    assert S.orient is Orient.INF
    assert S.generators.points == ((0, 0),)
    assert S.classify((1, 1)) is RegionLabel.UPPER
    assert S.classify((-1, -1)) is RegionLabel.LOWER
    assert S.classify((0, 5)) is RegionLabel.FRONTIER


def test_partition_is_exclusive_and_exhaustive():
    grid = [
        (Fraction(a, 2), Fraction(b, 2))
        for a in range(-6, 10)
        for b in range(-6, 10)
    ]
    # every grid point is in exactly one of M - int K, the frontier and the
    # rest, with frontier membership decided from the definition
    labels = classify_many(M, O2, grid)
    for y, lab in zip(grid, labels):
        on = region_of_point(M.points, O2.normals, y) is RegionLabel.FRONTIER
        assert (lab is RegionLabel.LOWER) + on + (lab is RegionLabel.UPPER) == 1


def test_genset_is_immutable_and_comparable():
    S = wsup_finite(M, O2)
    with pytest.raises(AttributeError):
        S.tag = Tag.PLUS_INF
    assert S == wsup_finite(FiniteVecSet([(2, 1), (1, 2)]), O2)
    assert S != winf_finite(M, O2)


def test_negate_swaps_orientation_twice():
    S = wsup_finite(M, O2)
    N = S.negate()
    assert N.orient is Orient.INF
    assert N.generators.points == ((-2, -1), (-1, -2))
    assert N.negate() == S


def test_translate_shifts_generators():
    S = wsup_finite(M, O2)
    T = S.translate((1, 1))
    assert T.generators.points == ((2, 3), (3, 2))


def test_ws_sum_neutral_element():
    S = wsup_finite(M, O2)
    assert ws_sum(S, neutral_sup(O2)) == S
    assert neutral_sup(O2).generators.points == ((0, 0),)


def test_ws_sum_commutes_on_fixed_sets():
    A = wsup_finite(FiniteVecSet([(0, 2), (2, 0)]), O2)
    B = wsup_finite(FiniteVecSet([(1, 1), (0, 3)]), O2)
    assert ws_sum(A, B) == ws_sum(B, A)
    # Minkowski cloud {(1,3),(0,5),(3,1),(2,3)}; (1,3) is covered by (2,3)
    assert ws_sum(A, B).generators.points == ((0, 5), (2, 3), (3, 1))


def test_ws_sum_respects_the_set_order():
    A = wsup_finite(FiniteVecSet([(0, 2), (2, 0)]), O2)
    B = A.translate((1, 1))
    W = wsup_finite(FiniteVecSet([(1, 0)]), O2)
    assert set_preceq(A, B)
    assert not set_preceq(B, A)
    assert set_preceq(ws_sum(A, W), ws_sum(B, W))


def test_infinities_absorb_and_clash():
    S = wsup_finite(M, O2)
    plus = GenSet.plus_inf(O2)
    minus = GenSet.minus_inf(O2)
    assert ws_sum(S, plus).tag is Tag.PLUS_INF
    assert ws_sum(minus, S).tag is Tag.MINUS_INF
    with pytest.raises(IllegalInfinitySum):
        ws_sum(plus, minus)


def test_set_preceq_is_reflexive():
    S = wsup_finite(M, O2)
    assert set_preceq(S, S)


coord = st.integers(min_value=-8, max_value=8)
points2 = st.lists(
    st.tuples(coord, coord), min_size=1, max_size=10
).map(lambda pts: [tuple(map(Fraction, p)) for p in pts])


@given(points2)
def test_wsup_canonical_form_is_idempotent(pts):
    S = wsup_finite(FiniteVecSet(pts), O2)
    again = wsup_finite(S.generators, O2)
    assert again == S


@given(points2)
def test_wsup_generators_cover_the_input(pts):
    # every input point sits on or below the frontier, never above
    S = wsup_finite(FiniteVecSet(pts), O2)
    for p in pts:
        assert S.classify(p) is not RegionLabel.UPPER
    for g in S.generators.points:
        assert S.classify(g) is RegionLabel.FRONTIER


HALF_LINE_DOWN = Cone(((-1,),), interior_witness=(-1,))
HALF_PLANE = Cone(((0, 1),), ((0, 1), (1, 0), (-1, 0)), (0, 1))
HALF_SPACE_3D = Cone(((0, 0, 1),), interior_witness=(0, 0, 1))


@pytest.mark.parametrize(
    "K,low,high,expected",
    [
        (Cone.orthant(1), [(2,), (3,)], [(1,), (5,)], True),
        (Cone.orthant(1), [(2,), (3,)], [(1,)], False),
        (HALF_LINE_DOWN, [(2,), (3,)], [(1,)], True),
        (HALF_LINE_DOWN, [(2,), (3,)], [(4,)], False),
        (HALF_PLANE, [(5, 1), (0, 2)], [(-3, 1)], True),
        (HALF_PLANE, [(5, 1), (0, 2)], [(-3, 0)], False),
        (HALF_SPACE_3D, [(5, 0, 1), (0, 9, 2)], [(0, 0, 3)], True),
        (HALF_SPACE_3D, [(5, 0, 1), (0, 9, 2)], [(7, 7, 0)], False),
        (O2, [(0, 0)], [(9, 9)], False),
    ],
)
def test_set_preceq_of_an_infimum_and_a_supremum(K, low, high, expected):
    # under a half-space both frontiers are parallel hyperplanes, ordered by
    # their offsets; under a pointed cone of dimension >= 2 never
    U = winf_finite(FiniteVecSet(low), K)
    V = wsup_finite(FiniteVecSet(high), K)
    assert set_preceq(U, V) is expected


# ints and Fractions whose numerators need not be prime to their
# denominators (1-12), so the reduced denominators are often smaller
entry = st.one_of(
    st.integers(-20, 20),
    st.builds(Fraction, st.integers(-36, 36), st.integers(1, 12)),
)


def _point_lists(dim):
    return st.lists(st.tuples(*[entry] * dim), min_size=1, max_size=8)


two_point_lists = st.integers(1, 3).flatmap(
    lambda dim: st.tuples(_point_lists(dim), _point_lists(dim))
)


def _exact(pts):
    """The distinct exact points of ``pts``, as sorted ``Fraction`` vectors."""
    return tuple(sorted({tuple(map(Fraction, p)) for p in pts}))


def _sums(A, B):
    return [tuple(a + b for a, b in zip(p, q)) for p in A for q in B]


@given(two_point_lists, st.integers(1, 6))
def test_a_set_is_stored_once_as_its_cleared_integers(lists, k):
    pts, other = lists
    S, T = FiniteVecSet(pts), FiniteVecSet(other)
    assert S.points == _exact(pts)
    assert all(type(c) is Fraction for p in S.points for c in p)
    assert len(S) == len(_exact(pts))
    den, vecs = S.cleared()
    assert den == math.lcm(*(Fraction(c).denominator for p in pts for c in p))
    assert vecs == tuple(tuple(c * den for c in p) for p in S.points)
    assert S.negate().points == _exact([tuple(-c for c in p) for p in pts])
    assert S.minkowski(T).points == _exact(_sums(pts, other))
    U = GenSet(Tag.FINITE, Orient.SUP, S, Cone.orthant(S.dim))
    assert U.translate(other[0]).generators.points == _exact(_sums(pts, other[:1]))
    assert FiniteVecSet.from_ints(k * den, [[k * c for c in v] for v in vecs * 2]) == S
    same = FiniteVecSet([*_exact(pts)[::-1], *pts])
    assert same == S and hash(same) == hash(S)
