"""The memoised certificate enumerator and the pruned dual merge, each
checked against a written-out reference: the budget's three nested loops,
the from-scratch ``beta_value_set``, and a join fold that prunes nothing."""

import itertools
import math
import random
from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, strategies as st

from weakfront import conjugate, duality
from weakfront.cones import Cone, LinOp, PosOp
from weakfront.conjugate import (
    SampledMap,
    SearchConfig,
    beta_value_set,
    certificates,
    compose,
    frontier_scale,
    script_A_membership,
)
from weakfront.duality import ProblemInstance, dual_value, weak_duality_check
from weakfront.instances import shipped_instance
from weakfront.numeric import dot, mat_vec, vec_sub
from weakfront.order_sets import (
    FiniteVecSet, RegionLabel, winf_finite, ws_sum, wsup_finite,
)
from weakfront.randgen import rand_cone_2d, rand_halfplane, rand_instance, rand_linop
from weakfront.staircase2d import UPPER, RayBasis, maxima, region_sum, region_sup


def _orthant3_instance():
    """A problem whose values are ordered by the orthant of R^3: four
    sample points, three of them feasible, with values no two of which
    are comparable."""
    dom = [(Fraction(0),), (Fraction(1, 2),), (Fraction(1),), (Fraction(2),)]
    values = [(2, 0, 1), (1, 1, Fraction(1, 2)), (0, 2, 1), (0, 0, 0)]
    F = SampledMap([(x, tuple(map(Fraction, v))) for x, v in zip(dom, values)])
    G = SampledMap([(x, (x[0] - 1,)) for x in dom])
    return ProblemInstance(F=F, G=G, C=dom, K=Cone.orthant(3), S=Cone.orthant(1))


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b, strict=True))


HALFPLANE = rand_halfplane(random.Random(1))  # normal (-2, 1), lineality (1, 2)


def _halfplane_instance():
    """A problem ordered by a half-plane.  The first two samples have equal
    G values and F values that differ by the lineality direction (1, 2), so
    their conjugate cloud points at L = 0 share facet coordinates, and the
    lex-smaller one comes from the later sample.  F and G have different
    domains, so C ∩ dom F is smaller than C."""
    xs = [(Fraction(v),) for v in range(6)]
    values = [(0, 0), (1, 2), (0, 1), None, None, (-5, -5)]
    F = SampledMap(
        [(x, tuple(map(Fraction, v))) for x, v in zip(xs, values) if v is not None]
    )
    dom_g = xs[:4]
    G = SampledMap([(x, (Fraction(-1),)) for x in dom_g])
    return ProblemInstance(F=F, G=G, C=dom_g, K=HALFPLANE, S=Cone.orthant(1))


INSTANCES = {
    **{
        name: shipped_instance(name)
        for name in ("E1", "E2", "E3", "E4", "E5", "gap_toy")
    },
    "orthant3": _orthant3_instance(),
    "halfplane": _halfplane_instance(),
}
BUDGETS = {
    "default": {},
    "l_box=1": {"l_box": 1},
    # grid operators in fifths and thirds set the scale: no hint has either
    "fractional": {"t_step": Fraction(1, 5), "l_box": 1, "l_step": Fraction(1, 3)},
}
CASES = [
    (name, budget, index)
    for name in ("E1", "E2", "gap_toy")
    for budget in ("default", "l_box=1")
    for index in (1, 2, 3)
] + [
    (name, "fractional", index)
    for name in ("E1", "gap_toy")
    for index in (1, 2, 3)
]
ENUMERATOR_CASES = CASES + [
    (name, "default", index)
    for name in ("E3", "E4", "E5", "orthant3", "halfplane")
    for index in (1, 2, 3)
] + [
    # under a cone with lineality distinct rests L - L' - L'' can share an
    # image, and so their T-blocks
    ("halfplane", "l_box=1", index)
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
    mapped back through the cleared inverse (δ, δ·N^{-1})."""
    basis = RayBasis.for_cone(P.K)
    delta, inverse = basis.inverse

    def join(u, v):
        q = tuple(map(max, basis.to_quad(u), basis.to_quad(v)))
        return tuple(Fraction(dot(row, q), delta) for row in inverse)

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


def _check_enumerator(index, P, L, cfg):
    reference = _reference(index, P, L, cfg)
    got = list(certificates(index, P, L, cfg))
    assert [(T.op, Lp, Lpp) for (T, Lp, Lpp), _, _ in got] == [
        (T.op, Lp, Lpp) for (T, Lp, Lpp), _ in reference
    ]
    # the ⊎-sum of each item's front and block lists scale·N·g for the
    # rebuilt generators g, at the one scale of the search, as integers,
    # each once, in descending order
    scale = frontier_scale(P, L, cfg)
    for (_, front, block), (_, W) in zip(got, reference):
        coords = P.tables.sum(front, block)
        assert all(type(c) is int for q in coords for c in q)
        want = {
            tuple(scale * c for c in P.K.basis.to_quad(g))
            for g in W.generators.points
        }
        assert coords == sorted(want, reverse=True)


@pytest.mark.parametrize("name,budget,index", ENUMERATOR_CASES)
def test_enumerator_matches_the_nested_loops_and_beta_value_set(name, budget, index):
    P = INSTANCES[name]
    cfg = P.search_config(**BUDGETS[budget])
    for L in _perturbations(P):
        _check_enumerator(index, P, L, cfg)


def _counter(monkeypatch, owner, attr) -> list:
    """The list that each later call of ``owner.attr`` appends to."""
    calls = []
    real = getattr(owner, attr)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counting)
    return calls


def _pass_calls(calls, index, P, L, cfg) -> int:
    """The calls counted in one pass of ``certificates``."""
    calls.clear()
    for _ in certificates(index, P, L, cfg):
        pass
    return len(calls)


def _count_pass(name, monkeypatch, owner, attr):
    """The calls of ``owner.attr`` in one pass of each index at l_box=1 and
    L = 0, each on a fresh config, with the budget sizes: (counts, |Ls|,
    n_T, distinct rests)."""
    P = INSTANCES[name]
    cfg = P.search_config(l_box=1)
    L = LinOp.zero(P.m, P.n)
    Ls = list(cfg.linop_budget(P.m, P.n))
    n_T = len(list(cfg.posop_budget(P.S, P.K)))
    calls = _counter(monkeypatch, owner, attr)
    counts = tuple(
        _pass_calls(calls, index, P, L, P.search_config(l_box=1)) for index in (1, 2, 3)
    )
    rests = {L - Lp - Lpp for Lp in Ls for Lpp in Ls}
    return counts, len(Ls), n_T, len(rests)


# FacetTables.block calls in one pass at l_box=1 and L = 0, indices 1-3
BLOCK_COUNTS = {"E1": (7, 24, 41), "E2": (4, 45, 118), "gap_toy": (5, 18, 31)}


@pytest.mark.parametrize("name", sorted(BLOCK_COUNTS))
def test_a_pass_computes_each_shared_block_once(name, monkeypatch):
    """Index 1 computes one T-block per T; index 2 one F*(L') and one
    T-block per T for each L'; index 3 F*(L') per L', I_C*(L'') per L'' and
    one T-block per T and distinct image of L - L' - L'' (on these
    instances distinct rests have distinct images)."""
    counts, n_L, n_T, n_rests = _count_pass(
        name, monkeypatch, conjugate.FacetTables, "block"
    )
    want = (n_T, n_L * (1 + n_T), 2 * n_L + n_T * n_rests)
    assert counts == want == BLOCK_COUNTS[name]


@pytest.mark.parametrize("name", sorted(BLOCK_COUNTS))
def test_a_pass_builds_each_operator_image_once(name, monkeypatch):
    """The first pass of each index on a fresh config clears each operator
    into facet coordinates once: L, then each splitting operator and each T
    of the budget, however many blocks they enter.  The config keeps the
    budget operators' images: a later pass at another L of the same scale
    clears L alone, and a pass at a new scale clears them all again."""
    counts, n_L, n_T, _ = _count_pass(name, monkeypatch, conjugate, "facet_matrix")
    assert counts == (1 + n_T, 1 + n_L + n_T, 1 + n_L + n_T)
    if name == "E2":
        assert counts[2] == 14  # one facet matrix per block item made 218
    P = INSTANCES[name]
    cfg = P.search_config(l_box=1)
    calls = _counter(monkeypatch, conjugate, "facet_matrix")
    zero, one = _perturbations(P)
    third = LinOp(((Fraction(1, 3),) * P.n,) + one.entries[1:])
    assert frontier_scale(P, one, cfg) == frontier_scale(P, zero, cfg)
    assert frontier_scale(P, third, cfg) != frontier_scale(P, zero, cfg)
    assert _pass_calls(calls, 3, P, zero, cfg) == 1 + n_L + n_T
    assert _pass_calls(calls, 3, P, one, cfg) == 1
    assert _pass_calls(calls, 3, P, third, cfg) == 1 + n_L + n_T


@pytest.mark.parametrize("name", ["E1", "E2", "gap_toy"])
def test_searches_form_a_sum_only_per_split_pair(name, monkeypatch):
    """A search tests each item's ⊎-sum at one point without building it:
    at index 2 it forms no sum, and at index 3 at most one, F*(L') ⊎
    I_C*(L''), per (L', L'') pair it reaches."""
    P = INSTANCES[name]
    cfg = P.search_config(l_box=1)
    Ls = list(cfg.linop_budget(P.m, P.n))
    calls = _counter(monkeypatch, conjugate.FacetTables, "sum")
    exhausted = []
    for L in _perturbations(P):
        for y in itertools.product((-5, -1, 0, Fraction(1, 3)), repeat=P.m):
            calls.clear()
            script_A_membership(2, P, L, y, cfg)
            assert calls == []
            cert = script_A_membership(3, P, L, y, cfg)
            pairs = len(Ls) ** 2
            if cert is not None:
                pairs = Ls.index(cert.Lp) * len(Ls) + Ls.index(cert.Lpp) + 1
            assert 0 < len(calls) <= pairs
            exhausted.append(cert is None)
    assert any(exhausted) and not all(exhausted)


def test_the_dual_merge_sums_only_the_items_that_change_it(monkeypatch):
    """On E3's VD2 at l_box=1 and L = 0 the merge builds W = F*(L') ⊎ block
    for the first item and for each item that changes the merged
    generators, and for no other: the changes come from a fold that
    builds every W and joins every item in."""
    P = INSTANCES["E3"]
    L = LinOp.zero(P.m, P.n)
    items = list(certificates(2, P, L, P.search_config(l_box=1)))
    low, changes = None, 0
    for _, front, block in items:
        W = P.tables.sum(front, block)
        if low is None:
            low = W
            continue
        joined = [tuple(map(min, u, v)) for u in low for v in W]
        new = [joined[i] for i in maxima(joined)]
        changes += new != low
        low = new
    calls = _counter(monkeypatch, conjugate.FacetTables, "sum")
    dual_value(P, "VD2", L, P.search_config(l_box=1))
    assert 0 < len(calls) <= 1 + changes < len(items) / 100


def _reference_tables(P):
    """The fields of ``FacetTables(P)`` as they were built from the maps'
    ``Fraction`` values: looked up point by point and cleared over one
    common denominator of every point and value, and the kept maps as
    restrictions of F and G and a checked indicator."""
    N = P.K.normals
    x = sorted(set(P.F.domain()) | set(P.G.domain()))
    fv = [P.F.value(v) for v in x]
    gv = [P.G.value(v) for v in x]
    entries = (c for col in (x, fv, gv) for v in col if v is not None for c in v)
    den = math.lcm(*(Fraction(c).denominator for c in entries))

    def scaled(v):
        return tuple(int(c * den) for c in v)

    rows = range(len(x))
    in_c = set(P.C)
    c = [i for i in rows if x[i] in in_c]
    return {
        "N": N,
        "xs": [scaled(v) for v in x],
        "nf": [None if v is None else mat_vec(N, scaled(v)) for v in fv],
        "gs": [None if v is None else scaled(v) for v in gv],
        "den": den,
        "dom_f": [i for i in rows if fv[i] is not None],
        "dom_g": [i for i in rows if gv[i] is not None],
        "c": c,
        "c_f": [i for i in c if fv[i] is not None],
        "F_cf": P.F.restrict(P.C),
        "G_cf": P.G.restrict(x[i] for i in c if fv[i] is not None),
        "G_c": P.G.restrict(P.C),
        "I_c": SampledMap([(v, (0,) * P.K.dim) for v in P.C]),
    }


TABLE_INSTANCES = {
    **INSTANCES,
    **{f"rand{k}": rand_instance(random.Random(k)) for k in range(8)},
}


@pytest.mark.parametrize("name", sorted(TABLE_INSTANCES))
def test_tables_are_the_maps_cleared_integers(name):
    """The tables rescale the maps' cleared integers to the lcm of their two
    denominators, which is the one common denominator of all the data, and
    match the construction from ``Fraction`` values field by field."""
    P = TABLE_INSTANCES[name]
    tab = conjugate.FacetTables(P)
    want = _reference_tables(P)
    assert list(want) == list(conjugate.FacetTables.__slots__)
    for field, value in want.items():
        assert getattr(tab, field) == value, field
    assert tab.F_cf.xs is tab.G_cf.xs and tab.I_c.xs is tab.G_c.xs


def test_halfplane_ties_keep_the_lex_smallest_point():
    P = INSTANCES["halfplane"]
    cloud = [tuple(-c for c in v) for _, v in P.F.samples]  # F*(0)'s cloud
    quads = [P.K.basis.to_quad(v) for v in cloud]
    assert quads[0] == quads[1] and cloud[1] < cloud[0]
    zero = LinOp.zero(P.m, P.n)
    cert = script_A_membership(2, P, zero, cloud[0], P.search_config())
    assert cert.Lp == zero and cert.T.op == LinOp.zero(2, 1)
    W = beta_value_set(2, P, zero, cert.T, Lp=cert.Lp)
    assert W.generators.points == (cloud[1],)


def test_frontier_sums_can_keep_every_pairwise_sum():
    """Two staircases of two points each have four maximal sums, so the
    frontier of a WS-sum can have |A|·|B| points: no merge of the two
    staircases in linear time can list it."""
    A, B = [(10, 0), (0, 10)], [(1, 0), (0, 1)]
    got = INSTANCES["E2"].tables.sum(A, B)
    assert got == [(11, 0), (10, 1), (1, 10), (0, 11)]


small = st.integers(-4, 4)


def _frontiers_and_queries(dim):
    cloud = st.lists(st.tuples(*[small] * dim), max_size=6)
    return st.tuples(cloud, cloud, st.lists(st.tuples(*[small] * dim), max_size=4))


@given(st.integers(1, 4).flatmap(_frontiers_and_queries))
def test_region_sum_is_the_region_against_the_built_sum(data):
    """region_sum of q against two frontiers equals region_sup against the
    frontier of their ⊎-sum, on integer clouds with ties in 1-4
    coordinates, at queries on each pairwise sum, one step off it along
    each axis and on the diagonal, and elsewhere.  An empty frontier makes
    an empty sum, and every query is UPPER against it."""
    A, B, queries = data
    front, block = ([c[i] for i in maxima(c)] for c in (A, B))
    W = INSTANCES["E2"].tables.sum(front, block)
    for f in front:
        for b in block:
            g = tuple(map(add, f, b))
            queries += [g, tuple(c - 1 for c in g), tuple(c + 1 for c in g)]
            queries += [
                g[:i] + (g[i] + t,) + g[i + 1:] for i in range(len(g)) for t in (-1, 1)
            ]
    for q in queries:
        assert region_sum(front, block, q) == region_sup(W, q)
        if not W:
            assert region_sum(front, block, q) == UPPER


def test_region_sum_against_an_empty_frontier_is_upper():
    for front, block in (([(0, 0)], []), ([], [(0, 0)]), ([], [])):
        assert region_sum(front, block, (-9, -9)) == UPPER


# --- the column path of the blocks --------------------------------------------

TABLES = INSTANCES["E2"].tables  # block and sum read no field of their tables


def _row_cloud(facets):
    """Pairs of row-form clouds A, B of one length: 1-8 integer rows with
    negative entries and at least one repeated row pair, so that the
    difference A - B repeats rows as a cone with lineality makes it do."""
    pair = st.tuples(*[st.integers(-3, 3)] * (2 * facets))
    pairs = st.lists(pair, min_size=1, max_size=8).flatmap(
        lambda ps: st.lists(st.sampled_from(ps), max_size=3).map(lambda e: ps + e)
    )
    return pairs.map(lambda ps: ([p[:facets] for p in ps], [p[facets:] for p in ps]))


def _columns(rows, facets):
    return tuple(tuple(c[j] for c in rows) for j in range(facets))


@given(st.integers(1, 3).flatmap(lambda k: st.tuples(st.just(k), _row_cloud(k))))
def test_a_block_from_columns_is_the_maxima_of_the_row_cloud(data):
    """block(A, B) on the columns of two images is the maximal rows of
    their rowwise difference, in the order of ``maxima``, each once, and
    block(A) those of A, in 1-3 facets, on a single row, repeated rows and
    negative entries."""
    facets, (A, B) = data
    diff = [tuple(a - b for a, b in zip(u, v)) for u, v in zip(A, B)]
    got = TABLES.block(_columns(A, facets), _columns(B, facets))
    assert got == [diff[i] for i in maxima(diff)]
    assert TABLES.block(_columns(A, facets)) == [A[i] for i in maxima(A)]
    assert got == sorted(set(got), reverse=True)


def test_blocks_from_columns_on_the_edge_cases():
    """A single row, equal rows (kept once) and an empty block."""
    assert TABLES.block(((5,), (-2,)), ((1,), (1,))) == [(4, -3)]
    ties = ((1, 1, 0), (2, 2, 3))  # rows (1, 2), (1, 2), (0, 3)
    assert TABLES.block(ties) == [(1, 2), (0, 3)]
    assert TABLES.block(((), ()), ((), ())) == []
    three = ((0, 1, 0, 1), (0, 1, 0, 1), (3, 1, 2, 1))
    assert TABLES.block(three) == [(1, 1, 1), (0, 0, 3)]


@pytest.mark.parametrize("name", sorted(TABLE_INSTANCES))
def test_image_columns_transpose_to_the_row_images(name):
    """The columns of ``image`` are one tuple per facet normal, and read
    row by row they are the row images N·(d·M)·v, on the rows of ``xs``
    and of ``gs``."""
    P = TABLE_INSTANCES[name]
    tab = P.tables
    rng = random.Random(name)
    xs = tab.xs
    gs = [tab.gs[i] for i in tab.dom_g]
    for M, vs in ((rand_linop(rng, P.m, P.n), xs), (rand_linop(rng, P.m, P.S.dim), gs)):
        for d in (1, 6):
            cols = tab.image(M, d, vs)
            assert len(cols) == len(tab.N)
            assert all(type(col) is tuple and len(col) == len(vs) for col in cols)
            rows = conjugate._int_images(conjugate.facet_matrix(tab.N, M, d), vs)
            assert list(zip(*cols)) == rows


def _fraction_beta(index, P, L, T, Lp, Lpp):
    """W written out in ``Fraction`` arithmetic: the weak suprema of the
    clouds L(x) - F(x) - T(G(x)) on C ∩ dom F (index 1), L'(x) - F(x) and
    (L - L')(x) - T(G(x)) on C (index 2), and L'(x) - F(x), L''(x) on C and
    (L - L' - L'')(x) - T(G(x)) on dom G (index 3), ⊎-summed."""
    TG = {x: mat_vec(T.op.entries, v) for x, v in P.G.samples}

    def wsup(cloud):
        return wsup_finite(FiniteVecSet(cloud), P.K)

    if index == 1:
        return wsup(
            vec_sub(mat_vec(L.entries, x), vec_add(P.F.value(x), TG[x]))
            for x in P.C if P.F.value(x) is not None
        )
    f_star = wsup(vec_sub(mat_vec(Lp.entries, x), v) for x, v in P.F.samples)
    if index == 2:
        rest = L - Lp
        return ws_sum(f_star, wsup(vec_sub(mat_vec(rest.entries, x), TG[x]) for x in P.C))
    ind_star = wsup(mat_vec(Lpp.entries, x) for x in P.C)
    rest = L - Lp - Lpp
    t_star = wsup(vec_sub(mat_vec(rest.entries, x), v) for x, v in TG.items())
    return ws_sum(ws_sum(f_star, ind_star), t_star)


def _fraction_instance(rng, K):
    """A problem ordered by K whose data have denominators 1 to 12; dom F,
    C and dom G differ, and x1 is feasible."""
    def vec(dim):
        return tuple(
            Fraction(rng.randint(-24, 24), rng.randint(1, 12)) for _ in range(dim)
        )

    n, p = rng.randint(1, 2), rng.randint(1, 2)
    xs = sorted({vec(n) for _ in range(6)})
    F = SampledMap((x, vec(K.dim)) for x in xs[1:])
    G = SampledMap((x, (-1,) * p if x == xs[1] else vec(p)) for x in xs)
    return ProblemInstance(F=F, G=G, C=xs[:-1], K=K, S=Cone.orthant(p))


BETA_INSTANCES = [
    (name, None) for name in ("E2", "E5", "orthant3", "halfplane")
] + [(cone, seed) for cone in ("orthant", "pointed", "halfplane") for seed in range(3)]


@pytest.mark.parametrize("name,seed", BETA_INSTANCES)
def test_beta_value_set_matches_the_fraction_formulas(name, seed):
    """beta_value_set, on cleared integers, equals its ``Fraction``
    formulas at every index, for operators in halves and thirds and a
    perturbation with denominators up to 12."""
    rng = random.Random(f"{name}:{seed}")
    if seed is None:
        P = INSTANCES[name]
    else:
        cones = {
            "orthant": Cone.orthant(2), "pointed": rand_cone_2d(rng), "halfplane": HALFPLANE,
        }
        P = _fraction_instance(rng, cones[name])
    cfg = SearchConfig(t_step=Fraction(1, 2), l_box=1, l_step=Fraction(1, 3))
    Ts = rng.sample(list(cfg.posop_budget(P.S, P.K)), 3)
    Ls = rng.sample(list(cfg.linop_budget(P.m, P.n)), 3)
    L = _rand_fraction_linop(rng, P.m, P.n, rng.randint(1, 12))
    for T in Ts:
        items = [(1, None, None)] + [(2, Lp, None) for Lp in Ls]
        items += [(3, Lp, Lpp) for Lp in Ls for Lpp in Ls]
        for index, Lp, Lpp in items:
            got = beta_value_set(index, P, L, T, Lp=Lp, Lpp=Lpp)
            assert got == _fraction_beta(index, P, L, T, Lp, Lpp)


def _restricted_beta(index, P, L, T, Lp, Lpp):
    """W built as it was before the tables kept the restrictions: F and
    T∘G restricted to C on the call, summed on the intersection of their
    domains, and C's indicator from the checking constructor."""
    K = P.K
    TG = compose(T.op, P.G)
    if index == 1:
        return conjugate.conjugate(P.F.restrict(P.C).add(TG.restrict(P.C)), L, K)
    f_star = conjugate.conjugate(P.F, Lp, K)
    if index == 2:
        return ws_sum(f_star, conjugate.conjugate(TG.restrict(P.C), L - Lp, K))
    ind = SampledMap([(x, (0,) * K.dim) for x in P.C])
    first = ws_sum(f_star, conjugate.conjugate(ind, Lpp, K))
    return ws_sum(first, conjugate.conjugate(TG, L - Lp - Lpp, K))


def _cut_instance(rng):
    """A random instance with its domains cut apart: F loses a point of C
    and gains one off dom G, and C loses a point of dom G, so C ∩ dom F,
    C, dom F and dom G all differ.  None when the draw has too few points
    to cut."""
    P = rand_instance(rng, domain_points=8)
    keep = P.feasible_F.xs[0]  # stays in C and dom F, so the cut is feasible
    rest = [x for x in P.C if x != keep]
    if len(rest) < 2:
        return None
    x0, x1 = rng.sample(rest, 2)  # x0 leaves dom F, x1 leaves C
    off = (Fraction(5),) * P.n  # outside the half-integer box of dom G
    F = SampledMap(
        [(x, v) for x, v in P.F.samples if x != x0]
        + [(off, tuple(Fraction(rng.randint(-6, 6), 2) for _ in range(P.m)))]
    )
    return ProblemInstance(F, P.G, [x for x in P.C if x != x1], P.K, P.S)


@given(st.sampled_from(["shipped", "rand", "cut", "fraction"]), st.integers(0, 2**16))
def test_beta_value_set_equals_the_restricted_maps(source, seed):
    """At every index, the value set on the restrictions kept in the tables
    equals the one built by restricting and adding maps on the call, on
    shipped and random instances, some with C ∩ dom F ≠ C and dom F ≠ dom G,
    for operators in halves and a perturbation with denominators up to 6."""
    rng = random.Random(seed)
    if source == "shipped":
        P = INSTANCES[rng.choice(sorted(INSTANCES))]
    elif source == "rand":
        P = rand_instance(rng)
    elif source == "cut":
        P = _cut_instance(rng) or rand_instance(rng)
    else:
        P = _fraction_instance(rng, rng.choice([Cone.orthant(2), rand_cone_2d(rng), HALFPLANE]))
    cfg = SearchConfig(t_step=Fraction(1, 2))
    T = rng.choice(list(itertools.islice(cfg.posop_budget(P.S, P.K), 40)))
    L, Lp, Lpp = (
        _rand_fraction_linop(rng, P.m, P.n, rng.randint(1, 6)) for _ in range(3)
    )
    for index in (1, 2, 3):
        Lp_i, Lpp_i = (Lp if index > 1 else None), (Lpp if index == 3 else None)
        got = beta_value_set(index, P, L, T, Lp=Lp_i, Lpp=Lpp_i)
        assert got == _restricted_beta(index, P, L, T, Lp_i, Lpp_i)


def test_the_cut_instances_cut_the_domains():
    """The cut draws of the property above do have C ∩ dom F ≠ C,
    dom F ≠ dom G and C ≠ dom G."""
    cuts = [P for P in map(_cut_instance, map(random.Random, range(20))) if P]
    assert len(cuts) >= 15
    for P in cuts:
        tab = P.tables
        assert tab.c_f != tab.c and tab.dom_f != tab.dom_g and tab.c != tab.dom_g


def test_beta_value_set_applies_no_operator_to_a_sample(monkeypatch):
    """The value set is built from the maps' cleared integers: no operator
    is read back as ``Fraction`` entries to be applied, at any index."""
    calls = []
    real = LinOp.entries

    def counting(self):
        calls.append(self)
        return real.fget(self)

    monkeypatch.setattr(LinOp, "entries", property(counting))
    P = INSTANCES["E2"]
    L = LinOp(tuple((Fraction(1, 2),) * P.n for _ in range(P.m)))
    T = PosOp(LinOp(((Fraction(1),), (Fraction(2),))), P.S, P.K)
    Lp = LinOp(tuple((Fraction(-1, 3),) * P.n for _ in range(P.m)))
    for index in (1, 2, 3):
        beta_value_set(index, P, L, T, Lp=Lp if index > 1 else None,
                       Lpp=-Lp if index == 3 else None)
    assert calls == []


def test_searches_and_dual_values_rebuild_no_value_set(monkeypatch):
    """The search and the dual merge run on integer fronts and return
    certificates as operators: neither a found nor an exhausted search, nor
    a dual value, rebuilds a value set."""
    calls = []
    real = conjugate.beta_value_set

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(conjugate, "beta_value_set", counting)
    P = INSTANCES["E2"]
    L = LinOp.zero(P.m, P.n)
    cfg = P.search_config()
    cert = script_A_membership(3, P, L, (Fraction(1, 3), Fraction(-1, 2)), cfg)
    assert cert is not None and calls == []
    assert script_A_membership(3, P, L, (-5, -5), cfg) is None
    assert calls == []
    dual_value(P, "VD3", L, P.search_config(l_box=1))
    assert calls == []


def _rand_fraction_linop(rng, rows, cols, den):
    entries = rand_linop(rng, rows, cols).entries
    return LinOp(tuple(tuple(c / den for c in row) for row in entries))


@pytest.mark.parametrize("seed", range(8))
def test_enumerator_on_random_instances(seed):
    """Random instances with a perturbation in halves and split hints H and
    -H in thirds, so the search's one scale holds denominators that some
    blocks' operators lack: at (L', L'') = (H, -H) the T∘G block's operator
    has no third."""
    rng = random.Random(seed)
    P = rand_instance(rng)
    H = _rand_fraction_linop(rng, P.m, P.n, 3)
    cfg = SearchConfig(hints_L=(H, -H))
    L = _rand_fraction_linop(rng, P.m, P.n, 2)
    for index in (1, 2, 3):
        _check_enumerator(index, P, L, cfg)


@pytest.mark.parametrize("name,budget,index", CASES)
def test_search_returns_the_first_qualifying_certificate(name, budget, index):
    P = INSTANCES[name]
    cfg = P.search_config(**BUDGETS[budget])
    L = _perturbations(P)[1]
    reference = _reference(index, P, L, cfg)
    gens = {g for _, W in reference for g in W.generators.points}
    # shifts in thirds and sevenths give query points off the search's scale
    shifts = (-1, Fraction(-1, 7), Fraction(1, 7), Fraction(1, 3))
    ys = gens | {tuple(c + t for c in g) for g in gens for t in shifts}
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


def test_searches_sharing_a_config_match_searches_on_fresh_configs():
    """The T budget one config keeps for E3 serves indices 1-3 in any order
    and gives each search the certificate a fresh config gives."""
    P = INSTANCES["E3"]
    shared = P.search_config()
    found = []
    for index in (1, 2, 3):
        for L in _perturbations(P):
            for y in itertools.product(range(-3, 4, 2), repeat=P.m):
                cert = script_A_membership(index, P, L, y, shared)
                assert cert == script_A_membership(index, P, L, y, P.search_config())
                found.append(cert is not None)
    assert any(found) and not all(found)


def _twin(P):
    """P with G doubled: the same (S, K), C, feasible sample and hints, and
    other tables."""
    G = SampledMap((x, tuple(2 * c for c in v)) for x, v in P.G.samples)
    return ProblemInstance(P.F, G, P.C, P.K, P.S, P.hints_T, P.hints_L)


def _mixed_perturbations(P):
    """L's whose denominators run 1, 2, 3, 1, 2, 3, so that each scale of
    a search is left and met again."""
    return [
        LinOp(tuple(
            tuple(
                Fraction(sign, den) if (r, c) == (0, 0) else Fraction((r + c + k) % 3 - 1)
                for c in range(P.n)
            )
            for r in range(P.m)
        ))
        for k, (sign, den) in enumerate(
            [(1, 1), (1, 2), (1, 3), (-1, 1), (-1, 2), (-1, 3)]
        )
    ]


def _answers(index, P, L, cfg, ys):
    """The certificates the searches find for ``ys`` at index ``index`` and
    the attained points of VD``index``, each with its certificate."""
    searches = [script_A_membership(index, P, L, y, cfg) for y in ys]
    return searches, dual_value(P, f"VD{index}", L, cfg).certificates


REUSE_CASES = {
    name: [TABLE_INSTANCES[name]]
    for name in ("E1", "E2", "E3", "E4", "E5", "gap_toy", *(f"rand{k}" for k in range(8)))
}
REUSE_CASES["E1+twin"] = [INSTANCES["E1"], _twin(INSTANCES["E1"])]
# dom F, C and dom G differ, so each index has its own rows of T-images
REUSE_CASES["fraction"] = [_fraction_instance(random.Random(0), Cone.orthant(2))]


@pytest.mark.parametrize("name", sorted(REUSE_CASES))
def test_a_reused_config_changes_no_answer(name):
    """Searches at indices 1-3 and the dual values VD1-VD3, run through one
    config at perturbations whose scales come and go, with the indices in
    either order, give what each gives on a fresh config; so do two
    instances with equal (S, K) but different G that share the config.
    The queries y lie on, below and above the fresh dual value's frontier,
    negated."""
    Ps = REUSE_CASES[name]
    # the 81 splitting operators of a 2 x 2 grid make index 3 too long here
    budget = {"l_box": 1} if Ps[0].m * Ps[0].n < 4 else {}
    fresh = {}
    for order in ((1, 2, 3), (3, 2, 1)):
        shared = Ps[0].search_config(**budget)
        for k, L in enumerate(_mixed_perturbations(Ps[0])):
            for p, P in enumerate(Ps):
                for index in order:
                    if (k, p, index) not in fresh:
                        d = dual_value(P, f"VD{index}", L, P.search_config(**budget))
                        k0 = P.K.interior_witness
                        ys = sorted({
                            tuple(t * w - c for c, w in zip(h, k0))
                            for h, _ in d.certificates[:3]
                            for t in (-16, -1, 0, Fraction(1, 2))
                        })
                        cfg = P.search_config(**budget)
                        fresh[k, p, index] = ys, _answers(index, P, L, cfg, ys)
                    ys, want = fresh[k, p, index]
                    assert _answers(index, P, L, shared, ys) == want
    found = [c is not None for _, (certs, _) in fresh.values() for c in certs]
    assert any(found) and not all(found)


def test_the_kept_images_are_bounded_by_the_drawn_budget():
    """After fifty calls at one scale, searches that stop early and whole
    passes, no list a config keeps is longer than the part of its budget
    drawn so far; each new scale adds one set of lists per instance."""
    P, Q = INSTANCES["E1"], _twin(INSTANCES["E1"])
    cfg = P.search_config(l_box=1)
    zero, one = _perturbations(P)
    calls = 0
    for L, y, index in itertools.product(
        (zero, one, -one), ((-3,), (0,), (3,)), (1, 2, 3)
    ):
        for R in (P, Q):
            script_A_membership(index, R, L, y, cfg)
            calls += 1
    for index in (3, 1):
        for R in (P, Q):
            for _ in certificates(index, R, zero, cfg):
                break
            calls += 1
    assert calls >= 50 and len(cfg._images) == 2
    n_L = len(cfg._budgets[P.m, P.n]._drawn)
    n_T = len(cfg._budgets[P.S, P.K]._drawn)
    for images, f_stars, ind_stars, *t_kept in cfg._images.values():
        assert max(map(len, (images, f_stars, ind_stars))) <= n_L
        assert max(map(len, t_kept)) <= n_T
    third = LinOp(((Fraction(1, 3),),))
    assert frontier_scale(P, third, cfg) != frontier_scale(P, zero, cfg)
    for R in (P, Q):
        for index in (1, 2, 3):
            script_A_membership(index, R, third, (0,), cfg)
    assert len(cfg._images) == 4


def _check_owners(d, index, P, L):
    """Each attained point h is owned by its stored certificate: -h lies on
    the frontier of the certificate's rebuilt value set."""
    for h, c in d.certificates:
        W = beta_value_set(index, P, L, c.T, Lp=c.Lp, Lpp=c.Lpp)
        assert W.classify(tuple(-v for v in h)) is RegionLabel.FRONTIER


def test_dual_value_equals_the_unpruned_fold(monkeypatch):
    merges = []
    real_maximal = duality.maximal

    def counting_maximal(*args, **kwargs):
        merges.append(1)
        return real_maximal(*args, **kwargs)

    monkeypatch.setattr(duality, "maximal", counting_maximal)
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
            _check_owners(d, index, P, L)
            folded += len(reference) - 1
    # the skip rule fires: most pieces leave the merged frontier unchanged
    assert len(merges) < folded / 2


def test_dual_merge_negates_only_the_result(monkeypatch):
    """The merge runs in W's own orientation: on E2's VD2 at l_box=1, whose
    merge joins, vec_neg is called at most twice per attained point and
    never once per piece or per joined pair."""
    calls = []
    real_neg = duality.vec_neg

    def counting_neg(a):
        calls.append(1)
        return real_neg(a)

    P = INSTANCES["E2"]
    cfg = P.search_config(**BUDGETS["l_box=1"])
    L = LinOp.zero(P.m, P.n)
    pieces = len(_reference(2, P, L, cfg))
    monkeypatch.setattr(duality, "vec_neg", counting_neg)
    d = dual_value(P, "VD2", L, cfg)
    assert pieces > len(d.attained.points)
    assert 0 < len(calls) <= 2 * len(d.attained.points)


ORTHANT3 = INSTANCES["orthant3"]
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
        _check_owners(d, index, P, L)


def test_weak_duality_chain_on_a_3d_orthant():
    cfg = ORTHANT3.search_config()
    for L in _perturbations(ORTHANT3):
        assert weak_duality_check(ORTHANT3, L, cfg) == (True, True, True)


def _winf_vp_in_fractions(P, L):
    """winf(VP_L) from its definition, in ``Fraction`` arithmetic."""
    image = (vec_sub(v, mat_vec(L.entries, x)) for x, v in P.feasible_F.samples)
    return winf_finite(FiniteVecSet(image), P.K)


@pytest.mark.parametrize(
    "name", ["E1", "E2", "E3", "E4", "E5", "gap_toy", "halfplane"]
)
def test_winf_vp_matches_the_fraction_formula(name):
    P = INSTANCES[name]
    fractional = LinOp(
        tuple(
            tuple(Fraction((-1) ** (i + j), 2 + i + j) for j in range(P.n))
            for i in range(P.m)
        )
    )
    for L in (LinOp.zero(P.m, P.n), fractional):
        assert duality.winf_vp(P, L) == _winf_vp_in_fractions(P, L)
