"""Certificate layer: exhaustive (alpha), searched/verified (beta)."""
from fractions import Fraction

import pytest

from weakfront.cones import Cone, LinOp, PosOp
from weakfront.conjugate import (
    Certificate,
    SearchConfig,
    beta_value_set,
    script_A_membership,
)
from weakfront.farkas import (
    EmptyFeasibleSet,
    FarkasQuery,
    HardFailure,
    alpha_holds,
    convert_certificate,
    feasible_points,
    verify_certificate,
)
from weakfront.instances import ProblemInstance, shipped_instance
from weakfront.conjugate import SampledMap

E1 = shipped_instance("E1")
E2 = shipped_instance("E2")

L1 = LinOp(((Fraction(1),),))  # identity on the line


def test_feasible_points_of_e1():
    assert feasible_points(E1) == (
        (Fraction(1),),
        (Fraction(3, 2),),
        (Fraction(2),),
    )


def test_alpha_holds_frozen_queries():
    # inf F over the feasible set is 1, so L = id gives sup(Lx - F(x)) = 0
    assert alpha_holds(E1, L1, (Fraction(0),))
    assert not alpha_holds(E1, L1, (Fraction(-1),))
    assert alpha_holds(E1, LinOp.zero(1, 1), (Fraction(-1),))
    assert not alpha_holds(E1, LinOp.zero(1, 1), (Fraction(-2),))


def test_query_validation():
    with pytest.raises(ValueError):
        FarkasQuery(L1, (0,), 4)
    q = FarkasQuery(L1, (Fraction(0),), 1)
    with pytest.raises(AttributeError):
        q.index = 2


def test_search_find_verify_roundtrip():
    cfg = E1.search_config()
    for i in (1, 2, 3):
        c = script_A_membership(i, E1, L1, (Fraction(0),), cfg)
        assert c is not None and c.index == i
        assert verify_certificate(E1, FarkasQuery(L1, (Fraction(0),), i), c)


def test_verify_rejects_mismatched_index():
    cfg = E1.search_config()
    c = script_A_membership(1, E1, L1, (Fraction(0),), cfg)
    with pytest.raises(ValueError):
        verify_certificate(E1, FarkasQuery(L1, (Fraction(0),), 2), c)


def test_certificate_search_respects_budget():
    # an empty budget (no hints, no grid) can only try T = 0
    starved = SearchConfig(t_box=0, l_box=0)
    c = script_A_membership(1, E1, L1, (Fraction(0),), starved)
    # T = 0 suffices here: the restriction to C already encodes feasibility
    assert c is not None and c.T.op == LinOp.zero(1, 1)


def test_convert_certificate_downward_chain():
    cfg = E2.search_config()
    L = LinOp(((Fraction(1),), (Fraction(-1),)))
    y = tuple(-c for c in E2.K.interior_witness)
    c3 = script_A_membership(3, E2, L, y, cfg)
    assert c3 is not None
    c2 = convert_certificate(E2, L, c3, 2)
    c1 = convert_certificate(E2, L, c2, 1)
    assert (c2.index, c1.index) == (2, 1)
    assert verify_certificate(E2, FarkasQuery(L, y, 2), c2)
    assert verify_certificate(E2, FarkasQuery(L, y, 1), c1)
    # identical target is a no-op, upward conversion is refused
    assert convert_certificate(E2, L, c2, 2) is c2
    with pytest.raises(ValueError):
        convert_certificate(E2, L, c1, 3)


def test_certificate_constructor_guards():
    cfg = E1.search_config()
    c = script_A_membership(2, E1, L1, (Fraction(0),), cfg)
    assert Certificate(2, c.T, Lp=c.Lp) == c
    with pytest.raises(ValueError, match="index must be 1, 2 or 3"):
        Certificate(4, c.T, Lp=c.Lp)
    with pytest.raises(ValueError, match="L' is present"):
        Certificate(1, c.T, Lp=c.Lp)
    with pytest.raises(ValueError, match="L'' is present"):
        Certificate(3, c.T, Lp=c.Lp)


def test_infeasible_instance_is_rejected_at_construction():
    O1 = Cone.orthant(1)
    dom = [(Fraction(0),), (Fraction(1),)]
    F = SampledMap((x, L1.apply(x)) for x in dom)
    G = SampledMap([(x, (Fraction(1),)) for x in dom])  # G > 0 everywhere
    with pytest.raises(EmptyFeasibleSet):
        ProblemInstance(F=F, G=G, C=dom, K=O1, S=O1)


def test_hard_failure_carries_a_reproducer():
    e = HardFailure("boom", {"y": ["0"]})
    assert e.reproducer == {"y": ["0"]}


def test_beta_value_set_vd3_operators_for_e1():
    # The layered sum for E1 with the canonical multipliers T = 1, L' = L,
    # L'' = 0 lands at -1: one unit below the dual value.
    T = PosOp(LinOp(((Fraction(1),),)), E1.S, E1.K)
    W = beta_value_set(3, E1, LinOp.zero(1, 1), T, Lp=L1, Lpp=LinOp.zero(1, 1))
    assert W.generators.points == ((Fraction(-1),),)
