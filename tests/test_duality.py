import itertools
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
from weakfront.farkas import FarkasQuery, HardFailure, verify_certificate
from weakfront.instances import shipped_instance
from weakfront.numeric import mat_vec, vec_neg
from weakfront.order_sets import RegionLabel
from weakfront.randgen import rand_instance, rand_linop, trial_rng

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
    outside = [(Fraction(9),), (Fraction(7),)]  # the first sorted one is named
    with pytest.raises(ValueError, match=r"C point \(Fraction\(7, 1\),\) is outside"):
        ProblemInstance(F=F, G=G, C=outside + dom, K=O1, S=O1)
    with pytest.raises(DimensionError):
        ProblemInstance(F=F, G=G, C=dom, K=Cone.orthant(2), S=O1)
    with pytest.raises(DimensionError):
        ProblemInstance(F=F, G=G, C=dom, K=O1, S=Cone.orthant(2))


def test_instance_refuses_an_inexact_c_point():
    """A float C point is refused by name, rather than reaching C and the
    tables' maps on C, and so is an entry that does not sort with numbers."""
    O1 = Cone.orthant(1)
    dom = [(Fraction(0),), (Fraction(1, 2),)]
    F = SampledMap((x, x) for x in dom)
    G = SampledMap([(x, (Fraction(-1),)) for x in dom])
    with pytest.raises(ValueError, match=r"C point \(0\.5,\) has the entry 0\.5"):
        ProblemInstance(F=F, G=G, C=[(0.5,), (0,)], K=O1, S=O1)
    with pytest.raises(ValueError, match=r"C point \('a',\) has the entry 'a'"):
        ProblemInstance(F=F, G=G, C=[(0,), ("a",)], K=O1, S=O1)
    assert ProblemInstance(F=F, G=G, C=[(Fraction(1, 2),), (0,)], K=O1, S=O1).C == (
        (0,), (Fraction(1, 2),),
    )


def test_search_config_carries_instance_hints():
    cfg = E1.search_config(t_box=0)
    assert cfg.hints_T == E1.hints_T and cfg.hints_L == E1.hints_L
    assert E1.hints_T  # the shipped instance does carry hints


def test_declared_structure_of_the_shipped_instances():
    assert E1.slater_holds() is True
    assert E1.theorem_flags() is True
    assert GAP_TOY.theorem_flags() is False


def test_feasible_set_and_primal_frontier():
    assert E1.feasible_F.pointset.points == (
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


def _drawn_case(unit):
    """A random instance of seed 7, a config with one drawn hint L', and
    L = 0 and a drawn L."""
    rng = trial_rng(7, unit)
    P = rand_instance(rng)
    cfg = SearchConfig(hints_L=(rand_linop(rng, P.m, P.n, 1),))
    return P, cfg, (LinOp.zero(P.m, P.n), rand_linop(rng, P.m, P.n, 1))


def test_a_gap_witness_is_attained_exactly_when_its_record_says_found():
    """When every primal generator is attained, the witness is the first
    attained point that is not a primal generator, recorded as FOUND; it is
    an unattained primal generator, NOT_FOUND, otherwise.  On instance 2 of
    seed 7 at L = 0 the dual value attains both primal generators and one
    more point, (-3, 19/2), strictly below the primal frontier."""
    P, cfg, (L, _) = _drawn_case(2)
    res = strong_duality_check(P, L, cfg)
    primal = res.primal.generators.points
    assert res.status == "GAP" and res.witness == (Fraction(-3), Fraction(19, 2))
    assert set(primal) < set(res.dual.attained.points)
    assert res.primal.classify(res.witness) is RegionLabel.LOWER
    assert res.record == {
        "witness": [-3, "19/2"],
        "alpha": True,
        "beta_status": "FOUND",
    }
    seen = set()
    for unit in range(60):
        P, cfg, Ls = _drawn_case(unit)
        for L, which in itertools.product(Ls, ("VD1", "VD2", "VD3")):
            res = strong_duality_check(P, L, cfg, which)
            if res.status == "HOLDS":
                continue
            primal, attained = res.primal.generators.points, res.dual.attained.points
            status = res.record["beta_status"]
            seen.add(status)
            assert (res.witness in attained) == (status == "FOUND")
            missing = [g for g in primal if g not in attained]
            extra = [h for h in attained if h not in primal]
            assert res.witness == (missing or extra)[0]
    assert seen == {"FOUND", "NOT_FOUND"}


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
