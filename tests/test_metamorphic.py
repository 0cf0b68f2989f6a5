"""Metamorphic tests: an instance carried through a change of basis gives
the carried answers.

For an invertible A on the value space Y, the instance (F, G, C, K, S,
hints_T, hints_L) is carried to (A∘F, G, C, A·K, S, A·hints_T,
A·hints_L), with A·K the cone of normals N·A⁻¹, generators A·g and
witness A·w.  Every value set W of a certificate (T, L', L'') is then
carried to A·W, the value set of (A·T, A·L', A·L''), and the order of K to
that of A·K.  An invertible B on the domain X carries the samples x to
B·x, C to B·C, and each operator L on X to L·B⁻¹, and leaves every value
set as it is.  So on hint-only budgets, which A and B carry item for item:

* each dual value VD1-VD3 at A·L·B⁻¹ attains the points A·h, h those
  attained at L (compared as sorted lists: among equal value sets the
  owners may differ);
* the search for (A·L·B⁻¹, A·y) finds a certificate exactly when the one
  for (L, y) does.

The relation is checked on E2, E3 and E4 for four fixed A, and for drawn
unimodular and diagonal A and B on those instances and on random ones,
whose grid budgets are passed on as hints.  Reference: T. Y. Chen, S. C.
Cheung and S. M. Yiu, "Metamorphic testing: a new approach for generating
next test cases", HKUST-CS98-01, 1998.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from weakfront.cones import Cone, LinOp
from weakfront.conjugate import SampledMap, script_A_membership
from weakfront.duality import ProblemInstance, dual_value
from weakfront.instances import shipped_instance
from weakfront.numeric import dot, mat_vec
from weakfront.randgen import rand_instance

NAMES = ("E2", "E3", "E4")  # m = 2, with both kinds of hints
INSTANCES = {name: shipped_instance(name) for name in NAMES}
HINT_ONLY = {"t_box": 0, "l_box": 0}
FIXED_A = {
    "shear": ((1, 1), (0, 1)),
    "cat": ((2, 1), (1, 1)),
    "swap": ((0, 1), (1, 0)),
    "scale": ((3, 0), (0, Fraction(1, 2))),
}


def _identity(k):
    return tuple(tuple(int(i == j) for j in range(k)) for i in range(k))


def _inverse(A):
    """The inverse of a 1 x 1 or 2 x 2 matrix."""
    if len(A) == 1:
        return ((1 / Fraction(A[0][0]),),)
    (a, b), (c, d) = A
    det = Fraction(a * d - b * c)
    assert det != 0
    return ((d / det, -b / det), (-c / det, a / det))


def _product(A, B):
    return tuple(tuple(dot(row, col) for col in zip(*B)) for row in A)


def _carry(A, L: LinOp, B_inv) -> LinOp:
    """The operator A·L·B⁻¹."""
    return LinOp(_product(_product(A, L.entries), B_inv))


def _carried(P, A, B):
    """P carried through A on Y and B on X."""
    B_inv, I_p = _inverse(B), _identity(P.p)
    K = Cone(
        [tuple(dot(a, col) for col in zip(*_inverse(A))) for a in P.K.normals],
        [mat_vec(A, g) for g in P.K.generators],
        mat_vec(A, P.K.interior_witness),
    )
    F = SampledMap((mat_vec(B, x), mat_vec(A, v)) for x, v in P.F.samples)
    G = SampledMap((mat_vec(B, x), v) for x, v in P.G.samples)
    return ProblemInstance(
        F, G, [mat_vec(B, x) for x in P.C], K, P.S,
        [_carry(A, T, I_p) for T in P.hints_T], [_carry(A, L, B_inv) for L in P.hints_L],
    )


def _check_dual_values(P, Q, A, B, L) -> None:
    carried_L = _carry(A, L, _inverse(B))
    for which in ("VD1", "VD2", "VD3"):
        got = dual_value(Q, which, carried_L, Q.search_config(**HINT_ONLY))
        want = dual_value(P, which, L, P.search_config(**HINT_ONLY))
        assert list(got.attained.points) == sorted(
            mat_vec(A, h) for h in want.attained.points
        ), which


def _verdicts(P, Q, A, B, L, ys) -> list:
    """Per index and y, whether the search at (L, y) finds a certificate;
    asserting the carried search at (A·L·B⁻¹, A·y) agrees."""
    cfg, carried_cfg = P.search_config(**HINT_ONLY), Q.search_config(**HINT_ONLY)
    carried_L = _carry(A, L, _inverse(B))
    out = []
    for i, y in itertools.product((1, 2, 3), ys):
        found = script_A_membership(i, P, L, y, cfg) is not None
        carried = script_A_membership(i, Q, carried_L, mat_vec(A, y), carried_cfg)
        assert (carried is not None) == found, (i, y)
        out.append(found)
    return out


@pytest.mark.parametrize("a", sorted(FIXED_A))
@pytest.mark.parametrize("name", NAMES)
def test_dual_values_are_carried_by_a_change_of_basis(name, a):
    P, A, B = INSTANCES[name], FIXED_A[a], _identity(INSTANCES[name].n)
    _check_dual_values(P, _carried(P, A, B), A, B, LinOp.zero(P.m, P.n))


@pytest.mark.parametrize("a", sorted(FIXED_A))
@pytest.mark.parametrize("name", NAMES)
def test_farkas_verdicts_are_carried_by_a_change_of_basis(name, a):
    """At L = 0 and at the L hint, for y on a 5 x 5 grid and i = 1-3."""
    P, A, B = INSTANCES[name], FIXED_A[a], _identity(INSTANCES[name].n)
    Q = _carried(P, A, B)
    ys = list(itertools.product(range(-2, 3), repeat=P.m))
    found = []
    for L in (LinOp.zero(P.m, P.n), P.hints_L[0]):
        found += _verdicts(P, Q, A, B, L, ys)
    assert len(found) == 150 and any(found) and not all(found)


@st.composite
def _unimodular(draw, k):
    """A k x k unimodular matrix: a sign, or for k = 2 a product of one to
    three of the shears by j either way, the swap and a sign flip."""
    if k == 1:
        return ((draw(st.sampled_from([1, -1])),),)
    A = _identity(2)
    for _ in range(draw(st.integers(1, 3))):
        j = draw(st.integers(-2, 2))
        E = draw(st.sampled_from(
            [((1, j), (0, 1)), ((1, 0), (j, 1)), ((0, 1), (1, 0)), ((-1, 0), (0, 1))]
        ))
        A = _product(A, E)
    return A


_NONZERO = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)


def _basis_change(k):
    diagonal = st.lists(_NONZERO, min_size=k, max_size=k).map(
        lambda d: tuple(tuple(d[i] if i == j else 0 for j in range(k)) for i in range(k))
    )
    return st.one_of(_unimodular(k), diagonal)


def _hinted_draw(seed):
    """A random instance with its grid budget (t_box = 1, and l_box = 1
    where L has one entry) passed on as hints."""
    P = rand_instance(random.Random(seed))
    cfg = P.search_config(l_box=1 if P.m * P.n == 1 else 0)
    hints_T = [T.op for T in cfg.posop_budget(P.S, P.K)]
    hints_L = list(cfg.linop_budget(P.m, P.n))
    return ProblemInstance(P.F, P.G, P.C, P.K, P.S, hints_T, hints_L)


@given(st.one_of(st.sampled_from(NAMES), st.integers(0, 2**16)), st.data())
def test_drawn_changes_of_basis_carry_the_answers(source, data):
    """Unimodular and diagonal A and B, on the shipped instances and on
    random ones: the dual values at L = 0 and the searches at the last L
    hint for a few y."""
    P = INSTANCES[source] if isinstance(source, str) else _hinted_draw(source)
    A, B = data.draw(_basis_change(P.m)), data.draw(_basis_change(P.n))
    Q = _carried(P, A, B)
    _check_dual_values(P, Q, A, B, LinOp.zero(P.m, P.n))
    grid = list(itertools.product(range(-2, 3), repeat=P.m))
    ys = data.draw(st.lists(st.sampled_from(grid), min_size=1, max_size=4))
    _verdicts(P, Q, A, B, P.hints_L[-1], ys)
