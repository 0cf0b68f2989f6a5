import itertools
import math
import random
from fractions import Fraction
from operator import add, neg, sub

import pytest
from hypothesis import given, strategies as st

from weakfront import cones
from weakfront.cones import (
    Cone,
    DimensionError,
    LinOp,
    PointClass,
    PosOp,
    PositivityError,
    classify_point,
    grid_values,
    is_positive_operator,
    sample_linops,
    sample_positive_operators,
)
from weakfront.numeric import dot, vec_scale
from weakfront.randgen import rand_cone_2d, rand_halfplane


def skew_cone():
    # normals (1,0) and (-1,2): the cone between rays (0,1) and (2,1)
    return Cone(
        normals=((Fraction(1), Fraction(0)), (Fraction(-1), Fraction(2))),
        generators=((Fraction(0), Fraction(1)), (Fraction(2), Fraction(1))),
        interior_witness=(Fraction(1), Fraction(1)),
    )


def test_orthant_data():
    K = Cone.orthant(2)
    assert K.dim == 2
    assert K.normals == ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
    assert K.interior_witness == (Fraction(1), Fraction(1))


def test_normals_canonicalized_to_primitive_integers():
    K = Cone(((2, 0), (0, 3)), ((5, 0), (0, 7)), (1, 1))
    assert K == Cone.orthant(2)


def test_canonicalization_stays_exact_for_integer_input():
    as_ints = Cone(((-2, 3), (1, 0)), interior_witness=(1, 1))
    as_fractions = Cone(
        ((Fraction(-2, 3), Fraction(1)), (Fraction(5, 2), Fraction(0))),
        interior_witness=(1, 1),
    )
    for K in (as_ints, as_fractions):
        assert K.normals == ((-2, 3), (1, 0))
        assert all(type(c) is int for a in K.normals for c in a)


def pyramid_3d():
    """The four-facet pyramid {|y1| <= y3, |y2| <= y3}: not simplicial."""
    return Cone(
        normals=((1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)),
        generators=((1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1)),
        interior_witness=(0, 0, 1),
    )


CANONICAL_CONES = st.one_of(
    st.sampled_from([Cone.orthant(1), Cone.orthant(2), Cone.orthant(3), pyramid_3d()]),
    st.integers(0, 10**6).map(lambda s: rand_cone_2d(random.Random(s))),
    st.integers(0, 10**6).map(lambda s: rand_halfplane(random.Random(s))),
)
POSITIVE = st.builds(Fraction, st.integers(1, 12), st.integers(1, 12))


@given(K=CANONICAL_CONES, data=st.data())
def test_rescaled_data_rebuild_the_same_primitive_cone(K, data):
    """Rescaling each normal and generator by a positive rational and
    repeating one of them changes nothing that is stored."""

    def rescaled(vecs):
        return [vec_scale(data.draw(POSITIVE), v) for v in vecs]

    normals, gens = rescaled(K.normals), rescaled(K.generators)
    twice = data.draw(st.integers(0, len(normals) + len(gens) - 1))
    if twice < len(normals):
        normals += rescaled([normals[twice]])
    else:
        gens += rescaled([gens[twice - len(normals)]])
    again = Cone(normals, gens, K.interior_witness)
    assert again == K and hash(again) == hash(K)
    assert again.normals == K.normals and again.generators == K.generators
    for v in again.normals + again.generators:
        assert all(type(c) is int for c in v) and math.gcd(*v) == 1
    assert again.basis.normals == again.normals


def test_cone_requires_witness():
    with pytest.raises(ValueError):
        Cone(((1, 0), (0, 1)))


def test_witness_must_be_interior():
    with pytest.raises(ValueError):
        Cone(((1, 0), (0, 1)), interior_witness=(1, 0))


def test_zero_normal_rejected():
    with pytest.raises(ValueError):
        Cone(((0, 0), (1, 0)), interior_witness=(1, 1))


def test_mixed_dimensions_rejected():
    with pytest.raises(DimensionError):
        Cone(((1, 0), (1,)), interior_witness=(1, 1))


def test_generator_outside_cone_rejected():
    with pytest.raises(ValueError):
        Cone(((1, 0), (0, 1)), ((-1, 0),), (1, 1))


@pytest.mark.parametrize(
    "normals,generators,witness",
    [
        (((1, 0), (0.5, 1)), (), (1, 1)),
        (((1, 0), (0, 1)), ((1, 0), (0.5, 1)), (1, 1)),
        (((1, 0), (0, 1)), (), (1, 0.5)),
    ],
    ids=["normal", "generator", "interior_witness"],
)
def test_cone_data_must_be_exact(normals, generators, witness):
    with pytest.raises(ValueError, match=r"0\.5"):
        Cone(normals, generators, witness)


def test_classify_point_orthant():
    K = Cone.orthant(2)
    assert classify_point(K, (1, 1)) is PointClass.INTERIOR
    assert classify_point(K, (0, 1)) is PointClass.BOUNDARY
    assert classify_point(K, (0, 0)) is PointClass.BOUNDARY
    assert classify_point(K, (-1, 0)) is PointClass.OUTSIDE


def test_classify_point_skew():
    K = skew_cone()
    assert classify_point(K, (1, 1)) is PointClass.INTERIOR
    assert classify_point(K, (2, 1)) is PointClass.BOUNDARY
    assert classify_point(K, (3, 1)) is PointClass.OUTSIDE


def test_dot_is_exact_and_rejects_vectors_of_different_lengths():
    assert dot((Fraction(1, 2), 3), (4, Fraction(-1, 3))) == 1
    assert dot((), ()) == 0
    with pytest.raises(ValueError):
        dot((1, 2), (1, 2, 3))
    with pytest.raises(ValueError):
        dot((1, 2, 3), (1,))


def test_linop_apply_and_arithmetic():
    A = LinOp(((1, 2), (0, 1)))
    B = LinOp(((0, 1), (1, 0)))
    assert A.apply((Fraction(1), Fraction(1))) == (Fraction(3), Fraction(1))
    assert (A + B).entries == ((1, 3), (1, 1))
    assert (A - B).entries == ((1, 1), (-1, 1))
    assert LinOp.zero(2, 3).entries == ((0, 0, 0), (0, 0, 0))


# ints and Fractions with denominators 1 to 12, the latter given through
# non-reduced numerator/denominator pairs
MATRIX_ENTRY = st.one_of(
    st.integers(-12, 12),
    st.builds(
        lambda n, d, k: Fraction(k * n, k * d),
        st.integers(-12, 12), st.integers(1, 12), st.integers(1, 3),
    ),
)


def _matrix(rows, cols):
    row = st.lists(MATRIX_ENTRY, min_size=cols, max_size=cols).map(tuple)
    return st.lists(row, min_size=rows, max_size=rows).map(tuple)


def _cleared_form(M):
    """(d, d·M) with d the lcm of the reduced denominators of M's entries."""
    d = math.lcm(*(Fraction(c).denominator for r in M for c in r))
    return d, tuple(tuple(int(c * d) for c in r) for r in M)


def _entrywise(f, *Ms):
    return tuple(tuple(map(f, *rows)) for rows in zip(*Ms))


@given(shape=st.tuples(st.integers(1, 3), st.integers(1, 3)), data=st.data())
def test_a_linop_stores_the_cleared_form_of_its_matrix(shape, data):
    M, N = data.draw(_matrix(*shape)), data.draw(_matrix(*shape))
    A, B = LinOp(M), LinOp(N)
    assert A.entries == M
    assert all(type(c) is Fraction for r in A.entries for c in r)
    assert A.cleared() == _cleared_form(M)
    F, G = _entrywise(Fraction, M), _entrywise(Fraction, N)
    assert (A + B).cleared() == _cleared_form(_entrywise(add, F, G))
    assert (A - B).cleared() == _cleared_form(_entrywise(sub, F, G))
    assert (-A).cleared() == _cleared_form(_entrywise(neg, F))
    same = LinOp(F)
    assert same == A and hash(same) == hash(A)
    assert (A + B) - B == A and hash((A + B) - B) == hash(A)
    assert (A == B) == (M == N)


def test_linop_rejects_bad_matrices():
    with pytest.raises(ValueError):
        LinOp(())
    with pytest.raises(ValueError):
        LinOp(((1, 2), (3,)))
    with pytest.raises(ValueError):
        LinOp(((float("nan"),),))
    with pytest.raises(ValueError, match=r"0\.25"):
        LinOp(((1, 0.25),))


def test_posop_validates_positivity():
    o1 = Cone.orthant(1)
    PosOp(LinOp(((Fraction(1),),)), o1, o1)  # fine
    with pytest.raises(PositivityError):
        PosOp(LinOp(((Fraction(-1),),)), o1, o1)


def test_posop_needs_domain_generators():
    no_gens = Cone(((1,),), (), (1,))
    with pytest.raises(PositivityError, match="no generators"):
        PosOp(LinOp(((1,),)), no_gens, Cone.orthant(1))
    with pytest.raises(PositivityError, match="no generators"):
        list(sample_positive_operators(no_gens, Cone.orthant(1), 1, 1))


def test_is_positive_operator_checks_all_generators():
    K = Cone.orthant(2)
    assert is_positive_operator(LinOp(((1, 0), (0, 1))), K, K)
    # maps (0,1) to (-1,1), outside the orthant
    assert not is_positive_operator(LinOp(((1, -1), (0, 1))), K, K)


def test_sample_positive_operators_scalar_grid():
    o1 = Cone.orthant(1)
    ops = [T.op.entries for T in sample_positive_operators(o1, o1, 1, 1)]
    # grid {-1, 0, 1} filtered to nonnegative multipliers
    assert ops == [((0,),), ((1,),)]


def test_sample_positive_operators_tests_each_matrix_once(monkeypatch):
    """One positivity test per grid matrix, and none again when the PosOp is
    built."""
    calls = []
    real = cones.is_positive_operator

    def counting(T, S, K):
        calls.append(T.entries)
        return real(T, S, K)

    monkeypatch.setattr(cones, "is_positive_operator", counting)
    ops = list(sample_positive_operators(Cone.orthant(2), Cone.orthant(1), 1, 1))
    assert len(ops) == 4  # both entries in {0, 1}
    assert len(calls) == 9  # the 3 x 3 grid matrices, each once
    assert len(set(calls)) == 9


def _fraction_positivity(T, S, K):
    """The reference test: every generator of S lands in K, in Fractions."""
    return all(
        classify_point(K, T.apply(g)) is not PointClass.OUTSIDE
        for g in S.generators
    )


PLANAR = [rand_cone_2d(random.Random(s)) for s in range(3)] + [
    rand_halfplane(random.Random(s)) for s in range(2)
]
POSITIVITY_CONES = [Cone.orthant(1), Cone.orthant(2), skew_cone(), *PLANAR]


def test_some_positivity_cone_has_a_normal_entry_beyond_one():
    # so N_K in the integer positivity test is not trivially made of ±1;
    # rand_cone_2d(Random(0)) has the normal (-3, -1)
    assert any(abs(c) > 1 for K in POSITIVITY_CONES for a in K.normals for c in a)


@pytest.mark.parametrize("step", [1, Fraction(1, 2)])
@pytest.mark.parametrize("S", POSITIVITY_CONES)
@pytest.mark.parametrize("K", POSITIVITY_CONES)
def test_integer_positivity_matches_fractions_on_grids(S, K, step):
    for T in sample_linops(K.dim, S.dim, 1, step):
        assert is_positive_operator(T, S, K) == _fraction_positivity(T, S, K)
    # the positive grid is the grid filtered by the reference test, in order
    assert [T.op for T in sample_positive_operators(S, K, 1, step)] == [
        T for T in sample_linops(K.dim, S.dim, 1, step) if _fraction_positivity(T, S, K)
    ]


def _cone(kind, seed):
    """An orthant of dimension ``kind``, or a random planar cone."""
    if kind == "planar":
        return rand_cone_2d(random.Random(seed))
    if kind == "halfplane":
        return rand_halfplane(random.Random(seed))
    return Cone.orthant(kind)


CONE_KINDS = st.builds(
    _cone, st.sampled_from([1, 2, "planar", "halfplane"]), st.integers(0, 10**6)
)
ENTRY = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5]))


@given(S=CONE_KINDS, K=CONE_KINDS, data=st.data())
def test_integer_positivity_matches_fractions_on_mixed_denominators(S, K, data):
    rows = st.lists(ENTRY, min_size=S.dim, max_size=S.dim).map(tuple)
    T = LinOp(data.draw(st.lists(rows, min_size=K.dim, max_size=K.dim)))
    assert is_positive_operator(T, S, K) == _fraction_positivity(T, S, K)


def test_sample_positive_operators_rejects_bad_grid():
    o1 = Cone.orthant(1)
    with pytest.raises(ValueError):
        list(sample_positive_operators(o1, o1, -1, 1))


@pytest.mark.parametrize("step", [1, Fraction(1, 2), Fraction(2, 3)])
@pytest.mark.parametrize("rows,cols", [(1, 1), (2, 1), (2, 2)])
def test_sample_linops_yields_the_checked_grid_matrices_in_order(rows, cols, step):
    want = [
        LinOp(tuple(flat[i * cols : (i + 1) * cols] for i in range(rows)))
        for flat in itertools.product(grid_values(1, step), repeat=rows * cols)
    ]
    assert list(sample_linops(rows, cols, 1, step)) == want
