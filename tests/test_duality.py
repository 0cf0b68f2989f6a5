from fractions import Fraction

import pytest

from weakfront.cones import Cone, DimensionError, LinOp
from weakfront.conjugate import SampledMap, SearchConfig
from weakfront.duality import (
    ProblemInstance,
    dual_value,
    stable_strong_duality_sweep,
    strong_duality_check,
    weak_duality_check,
    winf_vp,
)
from weakfront.farkas import (
    FarkasQuery,
    HardFailure,
    feasible_points,
    verify_certificate,
)
from weakfront.instances import shipped_instance
from weakfront.numeric import mat_vec, vec_neg

E1 = shipped_instance("E1")
E2 = shipped_instance("E2")
GAP_TOY = shipped_instance("gap_toy")

L_ZERO = LinOp.zero(1, 1)
L_ID = LinOp(((Fraction(1),),))


def test_instance_validation():
    O1 = Cone.orthant(1)
    dom = [(Fraction(0),), (Fraction(1),)]
    F = SampledMap((x, mat_vec(L_ID.entries, x)) for x in dom)
    G = SampledMap([(x, (Fraction(-1),)) for x in dom])
    ProblemInstance(F=F, G=G, C=dom, K=O1, S=O1)  # fine
    with pytest.raises(ValueError):
        ProblemInstance(F=F, G=G, C=[], K=O1, S=O1)
    with pytest.raises(ValueError):
        ProblemInstance(F=F, G=G, C=[(Fraction(9),)], K=O1, S=O1)
    with pytest.raises(DimensionError):
        ProblemInstance(F=F, G=G, C=dom, K=Cone.orthant(2), S=O1)
    with pytest.raises(DimensionError):
        ProblemInstance(F=F, G=G, C=dom, K=O1, S=Cone.orthant(2))


def test_search_config_carries_instance_hints():
    cfg = E1.search_config(t_box=0)
    assert cfg.hints_T == E1.hints_T and cfg.hints_L == E1.hints_L
    assert E1.hints_T  # the shipped instance does carry hints


def test_declared_structure_of_the_shipped_instances():
    assert E1.slater_holds() is True
    assert E1.theorem_flags() is True
    assert GAP_TOY.theorem_flags() is False


def test_feasible_set_and_primal_frontier():
    assert feasible_points(E1) == (
        (Fraction(1),),
        (Fraction(3, 2),),
        (Fraction(2),),
    )
    assert winf_vp(E1, L_ZERO).generators.points == ((Fraction(1),),)
    assert winf_vp(E2, LinOp.zero(2, 1)).generators.points == (
        (Fraction(0), Fraction(2)),
        (Fraction(1), Fraction(1)),
        (Fraction(2), Fraction(0)),
    )


def test_dual_values_attain_the_primal_optimum_on_e1():
    cfg = E1.search_config()
    for which in ("VD1", "VD2", "VD3"):
        dv = dual_value(E1, which, L_ZERO, cfg)
        assert dv.attained.points == ((Fraction(1),),)
        [(h, c)] = dv.certificates
        assert h == (Fraction(1),)
        q = FarkasQuery(L_ZERO, vec_neg(h), c.index)
        assert verify_certificate(E1, q, c)


PYRAMID = Cone(
    normals=((1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)),
    generators=((1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1)),
    interior_witness=(0, 0, 1),
)


def test_dual_value_rejects_unknown_problem_and_big_cones():
    with pytest.raises(ValueError):
        dual_value(E1, "VD4", L_ZERO, E1.search_config())
    O1, O3 = Cone.orthant(1), Cone.orthant(3)
    dom = [(Fraction(0),)]
    F = SampledMap([(dom[0], (Fraction(0),) * 3)])
    G = SampledMap([(dom[0], (Fraction(-1),))])
    # a four-facet cone in R^3 is not simplicial: no exact merge
    P4 = ProblemInstance(F=F, G=G, C=dom, K=PYRAMID, S=O1)
    with pytest.raises(ValueError, match="simplicial"):
        dual_value(P4, "VD1", LinOp.zero(3, 1), P4.search_config())
    # a simplicial cone of dimension 3 is merged exactly
    P3 = ProblemInstance(F=F, G=G, C=dom, K=O3, S=O1)
    dv = dual_value(P3, "VD1", LinOp.zero(3, 1), P3.search_config())
    assert dv.attained.points == ((0, 0, 0),)


def test_weak_duality_chain_on_shipped_instances():
    assert weak_duality_check(E1, L_ZERO, E1.search_config()) == (
        True,
        True,
        True,
    )
    assert weak_duality_check(E1, L_ID, E1.search_config()) == (
        True,
        True,
        True,
    )


def test_strong_duality_holds_on_e1():
    res = strong_duality_check(E1, L_ZERO, E1.search_config())
    assert res.status == "HOLDS" and res.witness is None
    assert res.primal == res.dual.frontier


def test_gap_instance_reports_the_unattained_generator():
    res = strong_duality_check(GAP_TOY, LinOp.zero(1, 1), GAP_TOY.search_config())
    assert res.status == "GAP"
    assert res.witness == (Fraction(2),)
    assert res.dual.attained.points == ((Fraction(3, 2),),)
    assert res.record == {
        "witness": [2],
        "alpha": True,
        "beta_status": "NOT_FOUND",
    }


def test_convex_instance_with_bare_budget_is_inconclusive():
    res = strong_duality_check(E1, L_ZERO, SearchConfig(t_box=0))
    assert res.status == "INCONCLUSIVE"
    assert res.dual.attained.points == ((Fraction(0),),)


def test_sweep_summary_and_rows():
    grid = [L_ZERO, LinOp(((Fraction(1, 2),),)), L_ID]
    rep = stable_strong_duality_sweep(E1, grid, E1.search_config())
    assert rep["format"] == 1 and rep["which"] == "VD1"
    assert rep["summary"] == {"HOLDS": 3, "GAP": 0, "INCONCLUSIVE": 0}
    assert rep["rows"][0] == {"L": [[0]], "status": "HOLDS"}
    assert [r["status"] for r in rep["rows"]] == ["HOLDS"] * 3


def test_hinted_theorem_instance_with_a_gap_is_a_hard_failure():
    # same data as the shipped convex instance, but the only hint is the
    # zero operator: the budget cannot reach the certificate the declared
    # structure guarantees, which the sweep must flag loudly
    crippled = ProblemInstance(
        F=E1.F,
        G=E1.G,
        C=E1.C,
        K=E1.K,
        S=E1.S,
        hints_T=(LinOp.zero(1, 1),),
        flags=E1.flags,
    )
    with pytest.raises(HardFailure) as exc:
        stable_strong_duality_sweep(
            crippled, [L_ZERO], crippled.search_config(t_box=0)
        )
    assert sorted(exc.value.reproducer) == ["L", "record"]
