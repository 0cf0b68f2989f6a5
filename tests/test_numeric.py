"""The one clearing function, ``cleared``, against a two-pass clear written
here on ``Fraction``s (the lcm of every denominator first, then each entry
times it), and the flat batches it clears read back as vectors, zero-length
ones included."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from weakfront.conjugate import SampledMap
from weakfront.numeric import chunked, cleared, primitive
from weakfront.order_sets import FiniteVecSet


def _two_pass(entries, den):
    d = math.lcm(den, *(Fraction(c).denominator for c in entries))
    return d, [int(Fraction(c) * d) for c in entries]


CASES = {
    "ints": [3, -4, 0, 7],
    "fractions": [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6), Fraction(4)],
    "mixed": [1, Fraction(-3, 4), 0, Fraction(7, 10), -2],
    "bools": [True, False, Fraction(1, 3)],
    "single point": [Fraction(-1, 3), Fraction(1, 2)],
    "empty": [],
}


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("den", [1, 4, 15])
def test_cleared_is_the_two_pass_clear_on(name, den):
    entries = CASES[name]
    assert cleared(iter(entries), den) == _two_pass(entries, den)


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("sign", [1, -1], ids=["sup", "inf"])
@pytest.mark.parametrize("den", [1, 4, 15])
def test_cleared_is_the_two_pass_clear_under_a_sign(name, sign, den):
    """A batch labelled against an infimum is cleared negated: the same
    scale as the batch itself, and the integers negated, whatever the
    set's own scale."""
    entries = CASES[name]
    d, ints = cleared((sign * c for c in entries), den)
    assert (d, ints) == _two_pass([sign * c for c in entries], den)
    assert (d, [sign * c for c in ints]) == cleared(entries, den)
    assert [Fraction(c, sign * d) for c in ints] == entries


entry = st.one_of(
    st.integers(-50, 50), st.fractions(max_denominator=12), st.booleans()
)


@given(st.lists(entry, max_size=12), st.sampled_from([1, 4, 15]))
def test_cleared_is_the_two_pass_clear(entries, den):
    """The same scale and the same integers, whatever the caller's own
    scale ``den``: ints, ``Fraction``s, bools and the empty batch."""
    d, ints = cleared(iter(entries), den)
    assert (d, ints) == _two_pass(entries, den)
    assert all(type(c) is int for c in ints)
    assert [Fraction(c, d) for c in ints] == entries


def test_cleared_values():
    assert cleared([Fraction(1, 2), 3]) == (2, [1, 6])
    assert cleared([Fraction(1, 2), 3], 3) == (6, [3, 18])
    assert cleared([Fraction(-2, 3), Fraction(5, 6)], 4) == (12, [-8, 10])
    assert cleared([], 5) == (5, [])
    assert cleared([True, False]) == (1, [1, 0])


def test_primitive_clears_and_divides_by_the_gcd():
    assert primitive((Fraction(1, 2), Fraction(-3, 4))) == (2, -3)
    assert primitive((0, 6, 4)) == (0, 3, 2)
    assert primitive((Fraction(5),)) == (1,)


def test_chunked_reads_vectors_back_zero_length_ones_included():
    assert chunked([1, 2, 3, 4, 5, 6], 2, 3) == [(1, 2), (3, 4), (5, 6)]
    assert chunked([1, 2, 3, 4], 2, 1) == [(1, 2)]
    assert chunked([], 0, 2) == [(), ()]


def test_zero_length_points_survive_the_flat_clear():
    """A batch of zero-length vectors clears to no entries, and the
    constructors still build one vector per point from it."""
    S = FiniteVecSet([(), ()])
    assert (S.dim, len(S), S.points, S.cleared()) == (0, 1, ((),), (1, ((),)))
    F = SampledMap([((), (Fraction(1, 2),))])
    assert (F.in_dim, F.out_dim, F.pointset.points) == (0, 1, ((),))
    assert F.cleared() == (1, ((),), 2, ((1,),))
    G = SampledMap([((Fraction(1, 3),), ()), ((1,), ())])
    assert (G.in_dim, G.out_dim) == (1, 0)
    assert G.cleared() == (3, ((1,), (3,)), 1, ((), ()))
