"""The memoised certificate enumerator and the pruned dual merge, each
checked against a written-out reference: the budget's three nested loops,
the from-scratch ``beta_value_set``, and a join fold that prunes nothing."""

from fractions import Fraction

import pytest

from weakfront import duality
from weakfront.cones import Cone, LinOp
from weakfront.conjugate import (
    SampledMap,
    beta_value_set,
    certificates,
    script_A_membership,
)
from weakfront.duality import ProblemInstance, dual_value, weak_duality_check
from weakfront.instances import shipped_instance
from weakfront.order_sets import FiniteVecSet, RegionLabel, winf_finite
from weakfront.staircase2d import RayBasis

INSTANCES = {name: shipped_instance(name) for name in ("E1", "E2", "gap_toy")}
BUDGETS = {"default": {}, "l_box=1": {"l_box": 1}}
CASES = [
    (name, budget, index)
    for name in INSTANCES
    for budget in BUDGETS
    for index in (1, 2, 3)
]


def _perturbations(P):
    one = Fraction(1)
    return [LinOp.zero(P.m, P.n), LinOp(tuple((one,) * P.n for _ in range(P.m)))]


def _nested_loops(index, P, cfg):
    """(T, L', L'') in the budget order, one loop nest per condition index."""
    if index == 1:
        return [(T, None, None) for T in cfg.posop_budget(P.S, P.K)]
    if index == 2:
        return [
            (T, Lp, None)
            for Lp in cfg.linop_budget(P.m, P.n)
            for T in cfg.posop_budget(P.S, P.K)
        ]
    return [
        (T, Lp, Lpp)
        for Lp in cfg.linop_budget(P.m, P.n)
        for Lpp in cfg.linop_budget(P.m, P.n)
        for T in cfg.posop_budget(P.S, P.K)
    ]


def _reference(index, P, L, cfg):
    """((T, L', L''), W) for every budget certificate, rebuilt from scratch."""
    return [
        ((T, Lp, Lpp), beta_value_set(index, P, L, T, Lp=Lp, Lpp=Lpp))
        for T, Lp, Lpp in _nested_loops(index, P, cfg)
    ]


def _unpruned_dual(P, L, reference):
    """The dual merge with every piece joined in, and the first owner of
    each attained point in budget order.  The join of u and v is the least
    point K-above both: the componentwise max of their orthant coordinates,
    mapped back."""
    basis = RayBasis.for_cone(P.K)

    def join(u, v):
        return basis.from_quad(tuple(map(max, basis.to_quad(u), basis.to_quad(v))))

    pieces = [W.negate() for _, W in reference]
    current = pieces[0].generators.points
    for piece in pieces[1:]:
        joined = FiniteVecSet(
            join(u, v) for u in current for v in piece.generators.points
        )
        current = winf_finite(joined, P.K).generators.points
    owners = [
        next(
            ops
            for (ops, _), piece in zip(reference, pieces)
            if piece.classify(h) is RegionLabel.FRONTIER
        )
        for h in current
    ]
    return current, owners


@pytest.mark.parametrize("name,budget,index", CASES)
def test_enumerator_matches_the_nested_loops_and_beta_value_set(name, budget, index):
    P = INSTANCES[name]
    cfg = P.search_config(**BUDGETS[budget])
    for L in _perturbations(P):
        reference = _reference(index, P, L, cfg)
        got = list(certificates(index, P, L, cfg))
        assert [(c.T.op, c.Lp, c.Lpp) for c in got] == [
            (T.op, Lp, Lpp) for (T, Lp, Lpp), _ in reference
        ]
        assert all(c.index == index for c in got)
        assert [c.value_set for c in got] == [W for _, W in reference]


@pytest.mark.parametrize("name,budget,index", CASES)
def test_search_returns_the_first_qualifying_certificate(name, budget, index):
    P = INSTANCES[name]
    cfg = P.search_config(**BUDGETS[budget])
    L = _perturbations(P)[1]
    reference = _reference(index, P, L, cfg)
    ys = {g for _, W in reference for g in W.generators.points}
    ys |= {tuple(c - 1 for c in g) for g in list(ys)}
    for y in sorted(ys):
        want = next(
            (ops for ops, W in reference if W.classify(y) is not RegionLabel.LOWER),
            None,
        )
        cert = script_A_membership(index, P, L, y, cfg)
        if want is None:
            assert cert is None
        else:
            assert (cert.T.op, cert.Lp, cert.Lpp) == (want[0].op, want[1], want[2])


def test_dual_value_equals_the_unpruned_fold(monkeypatch):
    merges = []
    real_maxima = duality.maxima

    def counting_maxima(*args, **kwargs):
        merges.append(1)
        return real_maxima(*args, **kwargs)

    monkeypatch.setattr(duality, "maxima", counting_maxima)
    folded = 0
    for name, budget, index in CASES:
        P = INSTANCES[name]
        cfg = P.search_config(**BUDGETS[budget])
        for L in _perturbations(P):
            reference = _reference(index, P, L, cfg)
            points, owners = _unpruned_dual(P, L, reference)
            d = dual_value(P, f"VD{index}", L, cfg)
            assert d.attained.points == points
            assert [(c.T.op, c.Lp, c.Lpp) for _, c in d.certificates] == [
                (T.op, Lp, Lpp) for T, Lp, Lpp in owners
            ]
            folded += len(reference) - 1
    # the skip rule fires: most pieces leave the merged frontier unchanged
    assert len(merges) < folded / 2


def _orthant3_instance():
    """A problem whose values are ordered by the orthant of R^3: four
    sample points, three of them feasible, with values no two of which
    are comparable."""
    dom = [(Fraction(0),), (Fraction(1, 2),), (Fraction(1),), (Fraction(2),)]
    values = [(2, 0, 1), (1, 1, Fraction(1, 2)), (0, 2, 1), (0, 0, 0)]
    F = SampledMap([(x, tuple(map(Fraction, v))) for x, v in zip(dom, values)])
    G = SampledMap([(x, (x[0] - 1,)) for x in dom])
    return ProblemInstance(F=F, G=G, C=dom, K=Cone.orthant(3), S=Cone.orthant(1))


ORTHANT3 = _orthant3_instance()
ORTHANT3_CASES = [
    ("default", 1),
    ("default", 2),
    ("default", 3),
    ("l_box=1", 1),
    ("l_box=1", 2),
]


@pytest.mark.parametrize("budget,index", ORTHANT3_CASES)
def test_dual_value_on_a_3d_orthant_equals_the_unpruned_fold(budget, index):
    P = ORTHANT3
    cfg = P.search_config(**BUDGETS[budget])
    for L in _perturbations(P):
        reference = _reference(index, P, L, cfg)
        points, owners = _unpruned_dual(P, L, reference)
        d = dual_value(P, f"VD{index}", L, cfg)
        assert d.attained.points == points
        assert [(c.T.op, c.Lp, c.Lpp) for _, c in d.certificates] == [
            (T.op, Lp, Lpp) for T, Lp, Lpp in owners
        ]


def test_weak_duality_chain_on_a_3d_orthant():
    cfg = ORTHANT3.search_config()
    for L in _perturbations(ORTHANT3):
        assert weak_duality_check(ORTHANT3, L, cfg) == (True, True, True)
