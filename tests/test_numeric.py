"""The one-pass clear of a query batch, ``cleared_batch``, against the
two-pass clear it replaces: ``common_denominator``, then ``scaled``."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from weakfront.numeric import cleared_batch, common_denominator, scaled


def _two_pass(entries, den, sign):
    d = math.lcm(den, common_denominator([entries]))
    return d, list(scaled(entries, sign * d))


CASES = {
    "ints": [3, -4, 0, 7],
    "fractions": [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6), Fraction(4)],
    "mixed": [1, Fraction(-3, 4), 0, Fraction(7, 10), -2],
    "single point": [Fraction(-1, 3), Fraction(1, 2)],
    "empty": [],
}


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("sign", [1, -1], ids=["sup", "inf"])
@pytest.mark.parametrize("den", [1, 4, 15])
def test_cleared_batch_is_the_two_pass_clear(name, sign, den):
    """The same scale and the same integers, at d and at -d (the scale of
    a batch labelled against an infimum), whatever the set's own scale."""
    entries = CASES[name]
    d, ints = cleared_batch(iter(entries), den, sign)
    assert (d, ints) == _two_pass(entries, den, sign)
    assert all(type(c) is int for c in ints)
    assert [Fraction(c, sign * d) for c in ints] == entries


def test_cleared_batch_values():
    assert cleared_batch([Fraction(1, 2), 3], 1, 1) == (2, [1, 6])
    assert cleared_batch([Fraction(1, 2), 3], 3, -1) == (6, [-3, -18])
    assert cleared_batch([], 5, -1) == (5, [])
    assert cleared_batch([True, False], 1, 1) == (1, [1, 0])


entry = st.one_of(st.integers(-50, 50), st.fractions(max_denominator=12))


@given(
    st.lists(entry, max_size=12), st.sampled_from([1, 2, 6, 35]), st.sampled_from([1, -1])
)
def test_cleared_batch_matches_the_two_pass_clear(entries, den, sign):
    assert cleared_batch(entries, den, sign) == _two_pass(entries, den, sign)
