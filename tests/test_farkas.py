"""Certificate layer: exhaustive (alpha), searched/verified (beta)."""
import random
from fractions import Fraction

import pytest

from weakfront import duality, farkas
from weakfront.cones import Cone, LinOp, PointClass, PosOp, classify_point
from weakfront.conjugate import (
    Certificate,
    SearchConfig,
    beta_value_set,
    script_A_membership,
)
from weakfront.duality import winf_vp
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
from weakfront.conjugate import SampledMap, compose, conjugate
from weakfront.numeric import mat_vec, vec_neg, vec_sub
from weakfront.order_sets import FiniteVecSet, winf_finite, ws_sum
from weakfront.randgen import rand_instance, rand_linop

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


@pytest.mark.parametrize("y", [(0.5,), (-2.0,)])
def test_alpha_holds_refuses_an_inexact_query_point_as_the_search_does(y):
    """(alpha) and the certificate search refuse the same y with the same
    words, rather than one deciding it in float arithmetic."""
    L = LinOp.zero(1, 1)
    message = rf"query point \({y[0]},\) has the entry {y[0]}"
    with pytest.raises(ValueError, match=message):
        alpha_holds(E1, L, y)
    with pytest.raises(ValueError, match=message):
        script_A_membership(1, E1, L, y, E1.search_config())


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
    F = SampledMap((x, mat_vec(L1.entries, x)) for x in dom)
    G = SampledMap([(x, (Fraction(1),)) for x in dom])  # G > 0 everywhere
    with pytest.raises(EmptyFeasibleSet):
        ProblemInstance(F=F, G=G, C=dom, K=O1, S=O1)


def test_feasible_sample_outside_dom_f_is_rejected_at_construction():
    O1 = Cone.orthant(1)
    dom = [(Fraction(0),), (Fraction(1),)]
    F = SampledMap([(dom[1], (Fraction(0),))])
    G = SampledMap([(dom[0], (Fraction(-1),)), (dom[1], (Fraction(1),))])
    with pytest.raises(EmptyFeasibleSet, match="no feasible sample point lies in dom F"):
        ProblemInstance(F=F, G=G, C=dom, K=O1, S=O1)


def test_feasible_f_is_f_on_the_feasible_sample():
    assert E1.feasible_F == E1.F.restrict(feasible_points(E1))
    assert E1.feasible_F.domain() == feasible_points(E1)


# --- (alpha) and (VP_L) against the per-query feasible sample they replaced ---


def _reference_feasible_points(P):
    out = []
    for x in P.C:
        gx = P.G.value(x)
        if gx is None:
            continue
        if classify_point(P.S, vec_neg(gx)) is not PointClass.OUTSIDE:
            out.append(tuple(x))
    return tuple(sorted(out))


def _reference_active(P):
    return [x for x in _reference_feasible_points(P) if P.F.value(x) is not None]


def _reference_alpha_holds(P, L, y):
    for x in _reference_active(P):
        d = vec_sub(vec_sub(mat_vec(L.entries, x), P.F.value(x)), y)
        if classify_point(P.K, d) is PointClass.INTERIOR:
            return False
    return True


def _reference_winf_vp(P, L):
    image = [vec_sub(P.F.value(x), mat_vec(L.entries, x)) for x in _reference_active(P)]
    return winf_finite(FiniteVecSet(image), P.K)


def _partial_instances(count, seed):
    """Random instances whose C holds infeasible points and points outside
    dom F: F loses one point of C, a feasible one when there are two."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        P = rand_instance(rng, domain_points=8)
        feasible = _reference_feasible_points(P)
        if len(feasible) == len(P.C):
            continue
        drop = feasible[-1] if len(feasible) > 1 else next(
            x for x in P.C if x not in feasible
        )
        dom_f = [x for x in P.F.domain() if x != drop]
        out.append(ProblemInstance(P.F.restrict(dom_f), P.G, P.C, P.K, P.S))
    return out


_INSTANCES = {
    name: shipped_instance(name) for name in ("E1", "E2", "E3", "E4", "E5", "gap_toy")
}
_INSTANCES.update(
    (f"partial{k}", P) for k, P in enumerate(_partial_instances(8, seed=18))
)


def test_partial_instances_filter_on_feasibility_and_dom_f():
    for k in range(8):
        P = _INSTANCES[f"partial{k}"]
        assert len(_reference_feasible_points(P)) < len(P.C)
        assert any(P.F.value(x) is None for x in P.C)


@pytest.mark.parametrize("name", sorted(_INSTANCES))
def test_alpha_and_vp_match_the_per_query_feasible_sample(name):
    P = _INSTANCES[name]
    rng = random.Random(name)
    w = P.K.interior_witness
    answers = set()
    for _ in range(4):
        L = rand_linop(rng, P.m, P.n)
        assert winf_vp(P, L) == _reference_winf_vp(P, L), L
        for t in (-100, -1, 0, Fraction(1, 2), 100):
            y = tuple(t * c for c in w)
            answer = alpha_holds(P, L, y)
            assert answer is _reference_alpha_holds(P, L, y), (L, y)
            answers.add(answer)
    assert answers == {True, False}


def test_alpha_and_vp_do_not_rebuild_the_feasible_sample(monkeypatch):
    instances = [E1, rand_instance(random.Random(3))]
    queries = [(P, LinOp.zero(P.m, P.n), (0,) * P.m) for P in instances]
    expected = [
        (_reference_alpha_holds(P, L, y), _reference_winf_vp(P, L))
        for P, L, y in queries
    ]

    def refuse(P):
        raise AssertionError("the feasible sample is derived at construction")

    monkeypatch.setattr(farkas, "feasible_points", refuse)
    monkeypatch.setattr(duality, "feasible_points", refuse)
    assert [(alpha_holds(P, L, y), winf_vp(P, L)) for P, L, y in queries] == expected


def test_verifying_an_index_3_certificate_runs_no_checking_map_constructor(
    monkeypatch,
):
    """C's indicator is built from C's cleared points in the instance
    tables, so verifying an index-3 certificate calls ``SampledMap.__new__``,
    the checking constructor, zero times."""
    L = LinOp(((Fraction(1),), (Fraction(-1),)))
    y = tuple(-c for c in E2.K.interior_witness)
    c3 = script_A_membership(3, E2, L, y, E2.search_config())
    calls = []
    real = SampledMap.__new__

    def counting(cls, *args, **kwargs):
        calls.append(1)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(SampledMap, "__new__", counting)
    assert verify_certificate(E2, FarkasQuery(L, y, 3), c3)
    assert calls == []
    SampledMap([((0,), (0,))])
    assert calls == [1]  # the count sees a checked construction


@pytest.mark.parametrize("seed", range(6))
def test_the_index_3_value_set_matches_a_checked_indicator(seed):
    """On random instances, whose C has fractional points, index 3's W
    with C's indicator read from the tables equals W with the indicator
    built by the checking constructor."""
    rng = random.Random(seed)
    P = rand_instance(rng)
    K = P.K
    T = PosOp(LinOp.zero(K.dim, P.S.dim), P.S, K)
    L, Lp, Lpp = (rand_linop(rng, P.m, P.n) for _ in range(3))
    ind = SampledMap([(x, (0,) * K.dim) for x in P.C])
    want = ws_sum(
        ws_sum(conjugate(P.F, Lp, K), conjugate(ind, Lpp, K)),
        conjugate(compose(T.op, P.G), L - Lp - Lpp, K),
    )
    assert beta_value_set(3, P, L, T, Lp=Lp, Lpp=Lpp) == want


def test_hard_failure_carries_a_reproducer():
    e = HardFailure("boom", {"y": ["0"]})
    assert e.reproducer == {"y": ["0"]}


def test_beta_value_set_vd3_operators_for_e1():
    # The layered sum for E1 with the canonical multipliers T = 1, L' = L,
    # L'' = 0 lands at -1: one unit below the dual value.
    T = PosOp(LinOp(((Fraction(1),),)), E1.S, E1.K)
    W = beta_value_set(3, E1, LinOp.zero(1, 1), T, Lp=L1, Lpp=LinOp.zero(1, 1))
    assert W.generators.points == ((Fraction(-1),),)
