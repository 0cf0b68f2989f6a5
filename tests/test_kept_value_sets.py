"""Verification keeps each certificate's rebuilt value set: one
``beta_value_set`` call per (instance, L, operators), answers equal to a
fresh rebuild's, positivity checked on every call, and instances told
apart by identity."""
import random
from fractions import Fraction

import pytest

from weakfront import farkas
from weakfront.cones import Cone, LinOp, PositivityError, PosOp
from weakfront.conjugate import Certificate, beta_value_set, certificates
from weakfront.duality import ProblemInstance
from weakfront.farkas import FarkasQuery, kept_value_set, verify_certificate
from weakfront.instances import shipped_instance
from weakfront.order_sets import RegionLabel, Tag
from weakfront.randgen import rand_instance

SHIPPED = ("E1", "E2", "E3", "E4", "E5")


@pytest.fixture
def rebuilds(monkeypatch):
    """The list of keys each later ``beta_value_set`` call of the verifier
    appends to, on an emptied cache."""
    kept_value_set.cache_clear()
    calls = []

    def counting(index, P, L, T, Lp=None, Lpp=None):
        calls.append((index, id(P), L, T.op, Lp, Lpp))
        return beta_value_set(index, P, L, T, Lp=Lp, Lpp=Lpp)

    monkeypatch.setattr(farkas, "beta_value_set", counting)
    yield calls
    kept_value_set.cache_clear()


def _fresh_answer(P, L, c, y) -> bool:
    W = beta_value_set(c.index, P, L, c.T, Lp=c.Lp, Lpp=c.Lpp)
    return W.tag is Tag.FINITE and W.classify(y) is not RegionLabel.LOWER


def _points(P, L, c) -> list:
    """Points on, above and below the certificate's value set, and far off."""
    W = beta_value_set(c.index, P, L, c.T, Lp=c.Lp, Lpp=c.Lpp)
    k0 = P.K.interior_witness
    gens = W.generators.points[:4] if W.tag is Tag.FINITE else ()
    ys = {
        tuple(g + t * w for g, w in zip(h, k0))
        for h in gens for t in (-1, Fraction(-1, 3), 0, Fraction(1, 2))
    }
    ys |= {tuple(t * w for w in k0) for t in (-40, 0, 40)}
    return sorted(ys)


def _cases(P, index, L, count=3) -> list:
    """The first ``count`` certificates at L with l_box=1 that differ in
    their split operators (in T at index 1), so L' and L'' differ in some."""
    seen, out = set(), []
    for ops, _, _ in certificates(index, P, L, P.search_config(l_box=1)):
        key = ops[1:] if index > 1 else ops
        if key not in seen:
            seen.add(key)
            out.append(Certificate(index, *ops))
        if len(out) == count:
            break
    return out


def _check_rebuilt_once(P, index, L, rebuilds):
    cases = _cases(P, index, L)
    assert cases
    for n, c in enumerate(cases, 1):
        ys = _points(P, L, c)
        assert len(ys) > 3
        for y in ys:
            got = verify_certificate(P, FarkasQuery(L, y, index), c)
            assert got == _fresh_answer(P, L, c, y)
        assert len(rebuilds) == n
    assert len(set(rebuilds)) == len(cases)
    info = kept_value_set.cache_info()
    assert info.misses == len(cases) and info.hits > 0


@pytest.mark.parametrize("index", [1, 2, 3])
@pytest.mark.parametrize("name", SHIPPED)
def test_a_certificate_is_rebuilt_once_for_many_points(name, index, rebuilds):
    P = shipped_instance(name)
    for L in (LinOp.zero(P.m, P.n), LinOp(((Fraction(1, 2),) * P.n,) * P.m)):
        rebuilds.clear()
        kept_value_set.cache_clear()
        _check_rebuilt_once(P, index, L, rebuilds)


@pytest.mark.parametrize("seed", range(6))
def test_random_certificates_are_rebuilt_once(seed, rebuilds):
    rng = random.Random(seed)
    P = rand_instance(rng)
    L = LinOp(tuple(
        tuple(Fraction(rng.randint(-2, 2), 2) for _ in range(P.n))
        for _ in range(P.m)
    ))
    for index in (1, 2, 3):
        rebuilds.clear()
        kept_value_set.cache_clear()
        _check_rebuilt_once(P, index, L, rebuilds)


def test_positivity_is_checked_on_every_call(rebuilds):
    """A kept value set does not vouch for T: the same operators on an
    instance whose cones make T non-positive raise before any lookup."""
    P = shipped_instance("E1")
    L = LinOp.zero(P.m, P.n)
    T = PosOp(LinOp(((Fraction(1),),)), P.S, P.K)
    c = Certificate(1, T)
    for y in ((Fraction(-3),), (Fraction(0),), (Fraction(5),)):
        verify_certificate(P, FarkasQuery(L, y, 1), c)
    assert kept_value_set.cache_info().misses == 1 == len(rebuilds)
    negative = Cone([(-1,)], [(-1,)], (Fraction(-1),))
    Q = ProblemInstance(P.F, P.G, P.C, negative, P.S)
    with pytest.raises(PositivityError):
        PosOp(T.op, Q.S, Q.K)
    before = kept_value_set.cache_info()
    for y in ((Fraction(0),), (Fraction(5),)):
        with pytest.raises(PositivityError):
            verify_certificate(Q, FarkasQuery(L, y, 1), c)
    after = kept_value_set.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
    assert len(rebuilds) == 1


def test_instances_with_equal_operators_keep_their_own_value_sets(rebuilds):
    """Two instances with the same cones and hints but other data, and an
    equal twin built apart, each get their own entry: the key holds the
    instance by identity."""
    P = shipped_instance("E2")
    doubled = ProblemInstance(
        P.F.add(P.F), P.G, P.C, P.K, P.S, P.hints_T, P.hints_L
    )
    twin = ProblemInstance(P.F, P.G, P.C, P.K, P.S, P.hints_T, P.hints_L)
    L = LinOp.zero(P.m, P.n)
    (c,) = _cases(P, 2, L, count=1)
    sets = [kept_value_set(R, L, c) for R in (P, doubled, twin)]
    assert sets[0] != sets[1] and sets[0] == sets[2]
    assert len(rebuilds) == 3 and kept_value_set.cache_info().misses == 3
    for R in (P, doubled, twin):
        for y in _points(R, L, c):
            got = verify_certificate(R, FarkasQuery(L, y, 2), c)
            assert got == _fresh_answer(R, L, c, y)
    assert len(rebuilds) == 3


@pytest.mark.parametrize("crash", [False, True], ids=["passes", "crashes"])
def test_a_suite_unit_drops_the_value_sets_it_kept(monkeypatch, crash):
    """A suite unit keeps the value sets it verifies while it runs, and
    none outlives it, whether it ends or crashes."""
    from weakfront import suites

    real = suites._UNIT_FUNCS["farkas-hinted"]
    inside = []

    def unit(col, rng, idx):
        real(col, rng, idx)
        inside.append(kept_value_set.cache_info().currsize)
        if crash:
            raise RuntimeError("stopped")

    monkeypatch.setitem(suites._UNIT_FUNCS, "farkas-hinted", unit)
    kept_value_set.cache_clear()
    result = suites._run_unit(("farkas-hinted", 0, 0))
    assert inside[0] > 0 and kept_value_set.cache_info().currsize == 0
    assert bool(result["failures"]) is crash
