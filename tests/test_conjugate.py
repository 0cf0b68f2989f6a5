import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from weakfront import cones, conjugate as conjugate_module
from weakfront.cones import (
    Cone, DimensionError, LinOp, PointClass, PositivityError, classify_point,
)
from weakfront.conjugate import (
    MAX_GRID_VALUES,
    ExtEpiElement,
    SampledMap,
    SearchConfig,
    boxplus,
    compose,
    conjugate,
    epi_membership,
    exepi_membership,
    psi_contains,
    script_A_membership,
    split_witness,
    witness_translate,
)
from weakfront.duality import ProblemInstance
from weakfront.instances import shipped_instance, shipped_pair
from weakfront.order_sets import (
    GenSet,
    Orient,
    RegionLabel,
    Tag,
    set_preceq,
    ws_sum,
    wsup_finite,
    FiniteVecSet,
)
from weakfront.numeric import mat_vec, vec_scale, vec_sub
from weakfront.randgen import rand_cone, rand_cone_2d, rand_halfplane, rand_sampled_map

from helpers import restricted

O1 = Cone.orthant(1)
O2 = Cone.orthant(2)


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b, strict=True))


def scalar_map(values):
    """f on {0, 1, ..., len-1} with the given values."""
    return SampledMap(
        [((Fraction(i),), (Fraction(v),)) for i, v in enumerate(values)]
    )


def test_sampled_map_basics():
    f = scalar_map([0, 1, 4])
    assert f.in_dim == 1 and f.out_dim == 1
    assert f.value((Fraction(1),)) == (1,)
    assert f.value((Fraction(7),)) is None
    assert f.pointset.points == ((0,), (1,), (2,))


def test_sampled_map_rejects_conflicting_samples():
    with pytest.raises(ValueError):
        SampledMap([((0,), (1,)), ((0,), (2,))])


@pytest.mark.parametrize(
    "samples, message",
    [
        ([((0.5,), (1,)), ((Fraction(1),), (2,))], r"sample point \(0.5,\) has the entry 0.5"),
        ([((0,), (1.0,)), ((Fraction(1),), (2,))], r"sample value \(1.0,\) has the entry 1.0"),
        ([((0, Fraction(1, 2)), (1, "1"))], r"sample value \(1, '1'\) has the entry '1'"),
    ],
)
def test_sampled_map_refuses_inexact_samples(samples, message):
    """A float sample would leave the exact path: it is refused when the
    map is built, not at its first conjugate."""
    with pytest.raises(ValueError, match=message):
        SampledMap(samples)


def test_epi_membership_refuses_an_inexact_query_point():
    f = scalar_map([0, 1, 2])
    with pytest.raises(ValueError, match=r"query point \(0.5,\) has the entry 0.5"):
        epi_membership(f, LinOp.zero(1, 1), (0.5,), O1)


def test_indicator_and_linear_constructors():
    """C's indicator, as an instance's tables keep it, is 0 on C and +inf
    elsewhere, on C's own point set."""
    dom = [(0,), (Fraction(1, 2),)]
    G = SampledMap((x, (-1,)) for x in dom)
    P = ProblemInstance(G, G, dom, O1, O1)
    ind = P.tables.I_c
    assert ind.samples == (((0,), (0,)), ((Fraction(1, 2),), (0,)))
    assert ind.value((0,)) == (0,) and ind.value((2,)) is None
    assert ind.pointset is P.tables.G_c.pointset
    op = LinOp(((2,),))
    lin = SampledMap((x, mat_vec(op.entries, x)) for x in [(0,), (3,)])
    assert lin.value((3,)) == (6,)


def test_add_refuses_unequal_domains_and_restrict_meets_them():
    """``add`` refuses maps on unequal point sets, as a map pair does; the
    sum on the intersection of the domains is the sum of the two maps
    restricted to it."""
    f = scalar_map([0, 1, 4])
    g = SampledMap([((Fraction(1),), (Fraction(10),)), ((Fraction(5),), (Fraction(0),))])
    for a, b in ((f, g), (g, f)):
        with pytest.raises(ValueError, match="must share their domain"):
            a.add(b)
    h = restricted(f, g.pointset.points).add(restricted(g, f.pointset.points))
    assert h.pointset.points == ((1,),)
    assert h.value((1,)) == (11,)
    r = restricted(f, [(0,), (1,)])
    assert r.pointset.points == ((0,), (1,))


def _pointwise_sum(f, g):
    """f + g on the intersection of their domains, from the exact samples,
    through the checking constructor."""
    gv = dict(g.samples)
    return SampledMap((x, vec_add(v, gv[x])) for x, v in f.samples if x in gv)


def _add_cases(rng):
    """(case, f, g): maps on one point set object, on equal but distinct
    point sets, on partly overlapping domains and on disjoint ones."""
    pts = sorted({(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),) for _ in range(6)})
    f = rand_sampled_map(rng, 1, 2, domain=pts)
    same = compose(LinOp(((Fraction(1, 3), 2), (-1, Fraction(5, 2)))), f)
    # fresh Fraction objects: equal points that share no object with f's
    copies = [(Fraction(x.numerator, x.denominator),) for (x,) in f.pointset.points]
    equal = rand_sampled_map(rng, 1, 2, domain=copies)
    part = rand_sampled_map(rng, 1, 2, domain=copies[::2] + [(Fraction(99),)])
    apart = rand_sampled_map(rng, 1, 2, domain=[(Fraction(-99),)])
    return [("same", f, same), ("equal", f, equal), ("part", f, part), ("apart", f, apart)]


@pytest.mark.parametrize("seed", range(8))
def test_add_sums_equal_domains_row_by_row(seed):
    """``add`` equals the pointwise sum of the exact samples on maps that
    share one point set and on equal but distinct point sets, with the same
    equality and hash; a partial overlap and disjoint domains are refused.
    ``compose`` keeps its operand's point set object, and so does ``add``."""
    cases = _add_cases(random.Random(seed))
    kinds = [(f.pointset is g.pointset, f.pointset == g.pointset) for _, f, g in cases]
    assert kinds == [(True, True), (False, True), (False, False), (False, False)]
    for case, f, g in cases:
        if case in ("part", "apart"):
            for a, b in ((f, g), (g, f)):
                with pytest.raises(ValueError, match="must share their domain"):
                    a.add(b)
            continue
        for a, b in ((f, g), (g, f)):
            got, want = a.add(b), _pointwise_sum(a, b)
            assert got.samples == want.samples, case
            assert got == want and hash(got) == hash(want), case
        # the shared domain is kept, not rebuilt
        assert f.add(g).pointset is f.pointset
        assert g.add(f).pointset is g.pointset


def _grid_map(draw, step, lo, hi):
    """A map of one variable to R^2 on a drawn subset of the grid
    step·{lo, ..., hi}, its values in sixths."""
    ks = draw(st.sets(st.integers(lo, hi), min_size=1, max_size=6))
    values = st.tuples(*[st.integers(-12, 12).map(lambda c: Fraction(c, 6))] * 2)
    return SampledMap(((k * step,), draw(values)) for k in sorted(ks))


@given(st.data())
def test_add_refuses_maps_on_grids_of_other_steps(data):
    """``add`` of a map on a 1/2 grid and one on a 1/3 grid is refused, in
    both orders, unless both lie on the same multiples of 1; the sum of
    their restrictions to the points they share is the pointwise sum of
    their exact samples."""
    f = _grid_map(data.draw, Fraction(1, 2), -6, 6)
    g = _grid_map(data.draw, Fraction(1, 3), -9, 9)
    shared = set(f.pointset.points) & set(g.pointset.points)
    for a, b in ((f, g), (g, f)):
        if a.pointset.points != b.pointset.points:
            with pytest.raises(ValueError, match="must share their domain"):
                a.add(b)
        if shared:
            got = restricted(a, shared).add(restricted(b, shared))
            want = _pointwise_sum(a, b)
            assert got.samples == want.samples
            assert got == want and hash(got) == hash(want)


def test_compose_applies_the_operator_pointwise():
    g = scalar_map([1, 0, -1])  # g(x) = 1 - x
    tg = compose(LinOp(((Fraction(2),),)), g)
    assert tg.value((0,)) == (2,)
    assert tg.value((2,)) == (-2,)


@pytest.mark.parametrize("cols", [1, 3])
def test_compose_and_conjugate_refuse_mismatched_shapes(cols):
    """An operator whose width is not the map's dimension is refused up
    front: the integer products would silently drop the extra entries."""
    G = SampledMap([((Fraction(0),), (Fraction(1), Fraction(2)))])
    op = LinOp(((Fraction(1),) * cols,) * 2)
    with pytest.raises(DimensionError):
        compose(op, G)
    F = SampledMap([((Fraction(0), Fraction(1)), (Fraction(1), Fraction(2)))])
    with pytest.raises(DimensionError):
        conjugate(F, op, O2)


def _rand_fraction(rng):
    return Fraction(rng.randint(-24, 24), rng.randint(1, 12))


def _rand_vec(rng, dim):
    return tuple(_rand_fraction(rng) for _ in range(dim))


def _rand_op(rng, rows, cols):
    return LinOp(tuple(_rand_vec(rng, cols) for _ in range(rows)))


HALFPLANE = rand_halfplane(random.Random(1))  # normal (-2, 1), lineality (1, 2)
CLEARED_CONES = {
    "orthant": O2,
    "pointed": rand_cone_2d(random.Random(3)),
    "halfplane": HALFPLANE,
}


def _tied_map(rng, L, count):
    """A map with entries of denominators 1 to 12 whose conjugate cloud at
    L pairs each point p with p - t·(1, 2), t in {0, ±1/7, ±5/3}: equal
    points, or points tied along the half-plane's lineality, on either
    side of p in lexicographic order."""
    n = L.cols
    samples = {}
    for k in range(count):
        x, v = _rand_vec(rng, n), _rand_vec(rng, 2)
        shift = (Fraction(100 + k),) + _rand_vec(rng, n - 1)
        t = rng.choice((0, Fraction(1, 7), -Fraction(1, 7), Fraction(5, 3), -Fraction(5, 3)))
        samples[x] = v
        samples[vec_add(x, shift)] = vec_add(vec_add(v, mat_vec(L.entries, shift)), (t, 2 * t))
    return SampledMap(samples.items())


@pytest.mark.parametrize("cone", sorted(CLEARED_CONES))
@pytest.mark.parametrize("seed", range(6))
def test_cleared_maps_match_the_fraction_formulas(cone, seed):
    """compose, add and conjugate on cleared integers equal the
    ``Fraction`` formulas x -> T(G(x)), the summed samples and
    wsup{L(x) - F(x)}, on data with denominators 1 to 12, also on a
    restriction of F.  Half of each
    cloud is tied to the other half (:func:`_tied_map`), so under the
    half-plane the lex-smallest point of each lineality class must win."""
    rng = random.Random(seed)
    K = CLEARED_CONES[cone]
    n, p = rng.randint(1, 2), rng.randint(1, 2)
    L, T = _rand_op(rng, 2, n), _rand_op(rng, 2, p)
    F = _tied_map(rng, L, 6)
    xs = F.pointset.points
    G = SampledMap((x, _rand_vec(rng, p)) for x in xs[::2] + (_rand_vec(rng, n),))

    def wsup(F, L):
        cloud = (vec_sub(mat_vec(L.entries, x), v) for x, v in F.samples)
        return wsup_finite(FiniteVecSet(cloud), K)

    TG = compose(T, G)
    assert TG == SampledMap((x, mat_vec(T.entries, v)) for x, v in G.samples)
    FC = restricted(F, xs[1::2])
    FG = restricted(F, G.pointset.points).add(restricted(TG, xs))
    assert FG == SampledMap(
        (x, vec_add(v, TG.value(x))) for x, v in F.samples if TG.value(x) is not None
    )
    for M in (F, FC, FG):
        for op in (L, LinOp.zero(2, n), _rand_op(rng, 2, n)):
            assert conjugate(M, op, K) == wsup(M, op)
    # each generator is the lex-smallest cloud point of its facet coordinates
    cloud = [vec_sub(mat_vec(L.entries, x), v) for x, v in F.samples]
    N = K.basis.normals
    for g in conjugate(F, L, K).generators:
        assert g == min(q for q in cloud if mat_vec(N, q) == mat_vec(N, g))
    # the cleared form is the points over one denominator and the values
    # over another, each reduced
    for M in (F, TG, FC, FG):
        Dx, X, Dv, V = M.cleared()
        assert all(type(c) is int for u in (*X, *V) for c in u)
        assert [(vec_scale(Fraction(1, Dx), x), vec_scale(Fraction(1, Dv), v))
                for x, v in zip(X, V)] == list(M.samples)
        assert math.gcd(Dx, *(c for x in X for c in x)) == 1
        assert math.gcd(Dv, *(c for v in V for c in v)) == 1


def test_conjugate_of_the_identity_map():
    f = scalar_map([0, 1, 2])  # f(x) = x
    W = conjugate(f, LinOp(((Fraction(1),),)), O1)
    # sup {x - x} = 0
    assert W.tag is Tag.FINITE and W.orient is Orient.SUP
    assert W.generators.points == ((0,),)
    W0 = conjugate(f, LinOp.zero(1, 1), O1)
    assert W0.generators.points == ((0,),)


def test_conjugate_vector_valued_constant_difference():
    # F(x) = (x, 2 - x); L = (1, -1) makes L(x) - F(x) constant (0, -2)
    F = SampledMap(
        [((Fraction(x),), (Fraction(x), Fraction(2 - x))) for x in range(3)]
    )
    L = LinOp(((Fraction(1),), (Fraction(-1),)))
    W = conjugate(F, L, O2)
    assert W.generators.points == ((0, -2),)


def test_conjugate_needs_samples():
    f = scalar_map([0, 1])
    with pytest.raises(ValueError):
        conjugate(restricted(f, [(9,)]), LinOp.zero(1, 1), O1)


def test_epi_membership_is_the_conjugate_region_test():
    f = scalar_map([0, 1, 2])
    L0 = LinOp.zero(1, 1)
    assert not epi_membership(f, L0, (Fraction(-1),), O1)
    assert epi_membership(f, L0, (Fraction(0),), O1)
    assert epi_membership(f, L0, (Fraction(1),), O1)


SHIPPED = ("E1", "E2", "E3", "E4", "E5", "gap_toy")


def _reference_epi_membership(F, L, y, K):
    """The per-sample ``Fraction`` test that :func:`epi_membership` ran
    before it ran on F's cleared integers."""
    for x, v in F.samples:
        d = vec_sub(vec_sub(mat_vec(L.entries, x), v), y)
        if classify_point(K, d) is PointClass.INTERIOR:
            return False
    return True


def _epi_queries(F, L, K, rng):
    """Points y on the cloud {L(x) - F(x)} (each ties its sample), the same
    points slid up and down the interior witness by thirds and sevenths,
    and random points with denominators 1 to 12."""
    k0 = K.interior_witness
    for x, v in F.samples:
        c = vec_sub(mat_vec(L.entries, x), v)
        yield c
        for t in (Fraction(1, 7), Fraction(-1, 7), Fraction(-4, 3)):
            yield vec_add(c, vec_scale(t, k0))
    for _ in range(4):
        yield _rand_vec(rng, K.dim)


def _check_epi_membership(F, K, rng):
    """epi_membership against the reference at L = 0 and two random L; the
    answers must include both outcomes."""
    seen = set()
    for L in (LinOp.zero(F.out_dim, F.in_dim),
              *(_rand_op(rng, F.out_dim, F.in_dim) for _ in range(2))):
        for y in _epi_queries(F, L, K, rng):
            want = _reference_epi_membership(F, L, y, K)
            assert epi_membership(F, L, y, K) is want, (F.samples, L, y)
            seen.add(want)
    assert seen == {True, False}


@pytest.mark.parametrize("name", SHIPPED)
def test_epi_membership_matches_the_fraction_loop_on_shipped_instances(name):
    P = shipped_instance(name)
    _check_epi_membership(P.feasible_F, P.K, random.Random(name))


@pytest.mark.parametrize("cone", sorted(CLEARED_CONES))
@pytest.mark.parametrize("seed", range(4))
def test_epi_membership_matches_the_fraction_loop_on_random_maps(cone, seed):
    rng = random.Random(seed)
    K = CLEARED_CONES[cone]
    n = rng.randint(1, 2)
    F = SampledMap({_rand_vec(rng, n): _rand_vec(rng, 2) for _ in range(8)}.items())
    _check_epi_membership(F, K, rng)
    _check_epi_membership(restricted(F, F.pointset.points[1::2]), K, rng)


def _maps_under_test():
    """E1-E5's and gap_toy's F and G, and random maps."""
    for name in SHIPPED:
        P = shipped_instance(name)
        yield P.F
        yield P.G
    rng = random.Random(9)
    for _ in range(12):
        yield rand_sampled_map(rng, rng.randint(1, 2), rng.randint(1, 2))


def test_derived_maps_and_conjugates_build_no_fraction(monkeypatch):
    """compose, add and conjugate run on the maps' integers: none of them
    builds a ``Fraction`` in this module (the generators of a weak
    supremum are built in ``order_sets``), also on restrictions built
    beforehand from the samples."""
    calls = []

    def counted(*args):
        calls.append(args)
        return Fraction(*args)

    maps = [(G, restricted(G, G.pointset.points[::2])) for G in _maps_under_test()]
    monkeypatch.setattr(conjugate_module, "Fraction", counted)
    rng = random.Random(2)
    for G, half in maps:
        n, p = G.in_dim, G.out_dim
        K = Cone.orthant(p)
        TG = compose(_rand_op(rng, p, p), G)
        eye = LinOp(tuple(tuple(int(i == j) for j in range(p)) for i in range(p)))
        PT = compose(eye, G)
        summed = TG.add(G).add(PT)
        for M in (G, TG, PT, half, summed, half.add(compose(eye, half))):
            conjugate(M, _rand_op(rng, p, n), K)
    assert calls == []
    samples = summed.samples  # reading the exact values back builds them
    assert len(calls) == len(samples) * summed.out_dim


def test_value_reads_the_samples():
    """value(x) is the samples' value at x on every sample point, None
    below the first point, above the last, between two points and at a
    point of another dimension, and finds int keys equal to ``Fraction``
    points and ``Fraction`` keys equal to int points."""
    rng = random.Random(5)
    ints = SampledMap([((1, 0), (2,)), ((3, -1), (4,)), ((3, 2), (Fraction(1, 3),))])
    maps = [scalar_map([0, 1, 4]), ints, *_maps_under_test()]
    maps += [rand_sampled_map(rng, n, 2) for n in (1, 2) for _ in range(6)]
    for F in maps:
        table = dict(F.samples)
        xs = F.pointset.points
        one = (1,) * F.in_dim
        probes = [*xs, vec_sub(xs[0], one), vec_add(xs[-1], one), xs[0] + (0,)]
        probes += [vec_scale(Fraction(1, 2), vec_add(u, w)) for u, w in zip(xs, xs[1:])]
        for x in probes:
            assert F.value(x) == table.get(x), (F.samples, x)
        for x in xs:
            if all(c == int(c) for c in x):
                assert F.value(tuple(map(int, x))) == table[x]
            assert F.value(tuple(map(Fraction, x))) == table[x]
    assert ints.value((Fraction(3), Fraction(-1))) == (4,)
    assert ints.value((2, 0)) is None


def test_value_refuses_an_inexact_query_point():
    """A float query point is refused by name, not read as the fraction it
    is close to, also when it has another length."""
    f = scalar_map([0, 1, 4])
    for x in ((0.5,), (1.0,), (Fraction(1), 0.5)):
        with pytest.raises(ValueError, match=r"query point \(.*\) has the entry"):
            f.value(x)
    assert f.value((Fraction(1, 2),)) is None and f.value((1,)) == (1,)


def test_ext_epi_elements_need_finite_bounds():
    U = wsup_finite(FiniteVecSet([(Fraction(0),)]), O1)
    ExtEpiElement(LinOp.zero(1, 1), U)  # fine
    with pytest.raises(ValueError):
        ExtEpiElement(LinOp.zero(1, 1), GenSet.plus_inf(O1))


def test_exepi_membership_accepts_valid_bounds_only():
    f = scalar_map([0, 1, 2])
    L0 = LinOp.zero(1, 1)
    exact = conjugate(f, L0, O1)
    assert exepi_membership(f, ExtEpiElement(L0, exact), O1)
    above = exact.translate((Fraction(1),))
    assert exepi_membership(f, ExtEpiElement(L0, above), O1)
    below = exact.translate((Fraction(-1),))
    assert not exepi_membership(f, ExtEpiElement(L0, below), O1)


def test_boxplus_adds_operators_and_ws_sums_bounds():
    f1 = scalar_map([0, 1, 2])
    f2 = scalar_map([2, 1, 0])
    L1 = LinOp(((Fraction(1),),))
    L2 = LinOp.zero(1, 1)
    e = boxplus(
        ExtEpiElement(L1, conjugate(f1, L1, O1)),
        ExtEpiElement(L2, conjugate(f2, L2, O1)),
    )
    assert e.op == L1 + L2
    assert e.bound == ws_sum(conjugate(f1, L1, O1), conjugate(f2, L2, O1))
    # the element certifies a bound for f1 + f2
    assert exepi_membership(f1.add(f2), e, O1)


def test_witness_translate_measures_the_slide():
    U = wsup_finite(FiniteVecSet([(Fraction(0),)]), O1)
    # t is the slide making y a frontier point of U + t*k0; negative means
    # y sits strictly below U
    assert witness_translate(U, (Fraction(-2),)) == -2
    assert witness_translate(U, (Fraction(0),)) == 0
    assert witness_translate(U, (Fraction(3),)) == 3
    with pytest.raises(ValueError):
        witness_translate(GenSet.plus_inf(O1), (Fraction(0),))


def test_witness_translate_guards_its_query_point():
    """A float y is refused by name and a y of the wrong length as a
    dimension error, in witness_translate and through it in split_witness."""
    U = wsup_finite(FiniteVecSet([(Fraction(0),)]), O1)
    with pytest.raises(ValueError, match=r"query point \(0\.5,\) has the entry 0\.5"):
        witness_translate(U, (0.5,))
    with pytest.raises(DimensionError):
        witness_translate(U, (0, 0))
    pair = shipped_pair(1)
    cfg = SearchConfig(l_box=0, hints_L=pair.hints_L)
    L = pair.hints_L[0]
    y = conjugate(pair.summed(), L, pair.K).generators.points[0]
    with pytest.raises(ValueError, match="query point"):
        split_witness(pair.F1, pair.F2, L, tuple(map(float, y)), pair.K, cfg)
    with pytest.raises(DimensionError):
        split_witness(pair.F1, pair.F2, L, y + (0,), pair.K, cfg)


def test_psi_contains_equals_epi_membership():
    F = SampledMap(
        [((Fraction(x),), (Fraction(x), Fraction(x * x))) for x in range(-2, 3)]
    )

    def family(L, U):
        return set_preceq(conjugate(F, L, O2), U)

    for a in (-1, 0, 1):
        L = LinOp(((Fraction(a),), (Fraction(0),)))
        for y in [(0, 0), (2, 2), (-3, 0), (Fraction(1, 2), Fraction(9, 2))]:
            y = tuple(map(Fraction, y))
            assert psi_contains(family, L, y, O2) == epi_membership(F, L, y, O2)


def test_psi_candidates_never_flip_the_answer():
    F = SampledMap(
        [((Fraction(x),), (Fraction(x), Fraction(1 - x))) for x in range(3)]
    )

    def family(L, U):
        return set_preceq(conjugate(F, L, O2), U)

    L = LinOp.zero(2, 1)
    good = conjugate(F, L, O2)
    junk = good.translate((Fraction(-5), Fraction(-5)))  # fails the family test
    for y in [(0, 0), (0, 1), (-1, -1), (3, 3)]:
        y = tuple(map(Fraction, y))
        want = epi_membership(F, L, y, O2)
        assert psi_contains(family, L, y, O2, candidates=(junk, good)) == want


def test_search_config_puts_hints_before_the_grid():
    hint = LinOp(((Fraction(7),),))
    cfg = SearchConfig(t_box=1, t_step=1, hints_T=(hint,))
    ops = [T.op for T in cfg.posop_budget(O1, O1)]
    assert ops[0] == hint
    assert LinOp.zero(1, 1) in ops
    # box 0 keeps only hints and zero
    lean = SearchConfig(t_box=0, hints_T=(hint,))
    assert [T.op for T in lean.posop_budget(O1, O1)] == [hint, LinOp.zero(1, 1)]


def test_a_config_draws_its_posop_budget_once(monkeypatch):
    calls = []
    real = cones.is_positive_operator

    def counting(T, S, K):
        calls.append(T.entries)
        return real(T, S, K)

    monkeypatch.setattr(cones, "is_positive_operator", counting)
    hint = LinOp(((Fraction(7),), (Fraction(1, 2),)))
    cfg = SearchConfig(t_box=1, t_step=Fraction(1, 2), hints_T=(hint, hint))
    first = [T.op for T in cfg.posop_budget(O1, O2)]
    # the hint once, zero once and each of the other 24 of the 5 x 5 grid
    # matrices once
    assert len(calls) == 1 + 1 + 24
    assert first[:2] == [hint, LinOp.zero(2, 1)] and len(first) == 1 + 9
    calls.clear()
    # a later call and a pass nested in another replay the kept budget
    budget = cfg.posop_budget(O1, O2)
    assert [T.op for T in budget] == first
    assert [(T.op, U.op) for T in budget for U in budget] == [
        (a, b) for a in first for b in first
    ]
    assert calls == []


def test_passes_nested_in_one_another_each_read_the_whole_budget():
    """An inner pass that drains a budget's source while an outer pass is
    part-way through it leaves the outer pass to finish from the drawn
    items: each pass yields the whole budget, in order, as do the passes
    after the source is drained, and nested loops at three levels."""
    budget = conjugate_module._Replay(iter(range(5)))
    outer = iter(budget)
    head = [next(outer), next(outer)]
    inner = list(budget)
    assert head + list(outer) == inner == list(range(5)) == list(budget)
    budget = conjugate_module._Replay(iter("abc"))
    assert [a + b + c for a in budget for b in budget for c in budget] == [
        a + b + c for a in "abc" for b in "abc" for c in "abc"
    ]


def test_each_cone_pair_has_its_own_posop_budget():
    cfg = SearchConfig(t_box=1)
    skew = Cone(((1, 0), (-1, 2)), ((0, 1), (2, 1)), (1, 1))
    on_orthant = [T.op for T in cfg.posop_budget(O2, O2)]
    on_skew = [T.op for T in cfg.posop_budget(O2, skew)]
    assert len(on_orthant) == 16 and len(on_skew) == 9
    assert on_orthant == [T.op for T in SearchConfig(t_box=1).posop_budget(O2, O2)]
    assert on_skew == [T.op for T in SearchConfig(t_box=1).posop_budget(O2, skew)]
    assert [T.op for T in cfg.posop_budget(O1, O1)] == [
        LinOp.zero(1, 1), LinOp(((1,),))
    ]
    assert cfg.posop_budget(O2, O2) is cfg.posop_budget(O2, O2)


def test_a_posop_budget_that_raised_raises_again():
    cfg = SearchConfig(hints_T=(LinOp(((-1,),)),))
    for _ in range(2):
        with pytest.raises(PositivityError):
            list(cfg.posop_budget(O1, O1))
    no_gens = Cone(((1,),), (), (1,))
    for _ in range(2):
        with pytest.raises(PositivityError, match="no generators"):
            list(SearchConfig().posop_budget(no_gens, O1))


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("t_box", -1, "t_box must be nonnegative, got -1"),
        ("l_box", Fraction(-1, 2), "l_box must be nonnegative, got -1/2"),
        ("t_step", 0, "t_step must be positive, got 0"),
        ("l_step", -1, "l_step must be positive, got -1"),
        ("t_box", 1.0, r"t_box \(1.0,\) has the entry 1.0, which is not an int"),
        ("t_step", 0.5, r"t_step \(0.5,\) has the entry 0.5, which is not an int"),
        ("l_box", 1.5, r"l_box \(1.5,\) has the entry 1.5, which is not an int"),
        ("l_step", -1.0, r"l_step \(-1.0,\) has the entry -1.0, which is not an int"),
    ],
)
def test_search_config_refuses_malformed_budgets(field, value, message):
    with pytest.raises(ValueError, match=message):
        SearchConfig(**{field: value})


def test_search_config_refuses_a_runaway_grid_before_building_it():
    """A budget grid offers each entry 2·⌊box/step⌋ + 1 values; the count
    is taken exactly, without the grid, and more than MAX_GRID_VALUES is
    refused with the box and step named."""
    assert MAX_GRID_VALUES == 10_001
    with pytest.raises(ValueError, match=r"^t_box 10{400} with t_step 1 makes a grid"):
        SearchConfig(t_box=10**400)
    with pytest.raises(ValueError, match=r"^l_box 1 with l_step 1/10{400} makes a grid"):
        SearchConfig(l_box=1, l_step=Fraction(1, 10**400))
    # 10,001 values are allowed, 10,003 are not; a zero box has one value
    SearchConfig(t_box=5000, l_box=Fraction(5000, 3), l_step=Fraction(1, 3))
    SearchConfig(t_box=0, t_step=Fraction(1, 10**400))
    with pytest.raises(ValueError, match="t_box 5001 with t_step 1 makes"):
        SearchConfig(t_box=5001)
    with pytest.raises(ValueError, match="l_box 2 with l_step 1/2501 makes"):
        SearchConfig(l_box=2, l_step=Fraction(1, 2501))


def test_linop_budget_dedups_hints():
    hint = LinOp.zero(1, 1)
    cfg = SearchConfig(l_box=0, hints_L=(hint, hint))
    assert list(cfg.linop_budget(1, 1)) == [hint]


def test_a_config_draws_its_linop_budget_once(monkeypatch):
    import weakfront.conjugate as mod

    calls = []
    real = mod.sample_linops

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(mod, "sample_linops", counting)
    hint = LinOp(((Fraction(1, 2),),))
    wide = LinOp(((1, 2),))  # of another shape: left out of the 1 x 1 budget
    cfg = SearchConfig(l_box=1, hints_L=(wide, hint, hint))
    budget = cfg.linop_budget(1, 1)
    assert cfg.linop_budget(1, 1) is budget
    first = list(budget)
    assert first == [hint, LinOp.zero(1, 1), LinOp(((-1,),)), LinOp(((1,),))]
    # a nested pass replays the kept budget
    assert [(a, b) for a in budget for b in budget] == [
        (a, b) for a in first for b in first
    ]
    assert calls == [(1, 1, 1, 1)]
    # two index-3 searches on one config draw the splitting grid once
    calls.clear()
    P = shipped_instance("E1")
    shared = P.search_config(l_box=1)
    L = LinOp.zero(P.m, P.n)
    for _ in range(2):
        script_A_membership(3, P, L, (-5,) * P.m, shared)
    assert calls == [(P.m, P.n, 1, 1)]


def test_split_witness_on_a_linear_pair():
    pair = shipped_pair(1)
    K = pair.K
    cfg = SearchConfig(l_box=0, hints_L=pair.hints_L)
    L = pair.hints_L[0]  # the first summand's own matrix: always splittable
    front = conjugate(pair.summed(), L, K)
    y = front.generators.points[0]
    hit = split_witness(pair.F1, pair.F2, L, y, K, cfg)
    assert hit is not None
    l1, l2, u1, u2 = hit
    assert l1 + l2 == L
    assert exepi_membership(pair.F1, ExtEpiElement(l1, u1), K)
    assert exepi_membership(pair.F2, ExtEpiElement(l2, u2), K)
    assert ws_sum(u1, u2).classify(y) is RegionLabel.FRONTIER
    # strictly below the frontier no split can exist
    below = tuple(a - b for a, b in zip(y, K.interior_witness))
    assert split_witness(pair.F1, pair.F2, L, below, K, cfg) is None


def test_weakfront_conjugate_names_the_submodule():
    import types

    import weakfront
    import weakfront.conjugate as mod

    assert isinstance(mod, types.ModuleType)
    assert weakfront.conjugate is mod
    assert mod.conjugate is conjugate
    assert "conjugate" not in weakfront.__all__
