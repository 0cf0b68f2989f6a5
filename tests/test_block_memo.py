"""The T-block memo a search config keeps across searches, and the skipping
of items that repeat an earlier item's value set.

The memo is checked against fresh configs (the same answers, also across
a forced reset and on instances whose indices run on different rows), for
its bound (every search starts with at most ``MEMO_CAP`` objects kept) and
for its use (a second search at the same L builds no T-block, and an index
whose rows another index has run on reuses its T-images and T-blocks).  The
skipping is checked by counting ``region_sum`` and ``region_sums`` calls per
distinct value set, and against consumers that skip nothing, written out
here."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from weakfront import conjugate, duality
from weakfront.cones import LinOp
from weakfront.conjugate import (
    Certificate,
    SampledMap,
    SearchConfig,
    certificates,
    frontier_scale,
    script_A_membership,
)
from weakfront.duality import ProblemInstance, dual_value
from weakfront.instances import shipped_instance
from weakfront.numeric import cleared, mat_vec, vec_neg
from weakfront.order_sets import FiniteVecSet
from weakfront.randgen import rand_instance
from weakfront.staircase2d import FRONTIER, LOWER, UPPER, maximal, region_sum

from helpers import cut_instance

E1, E3 = shipped_instance("E1"), shipped_instance("E3")


def _twin(P):
    """P with G doubled: the same cones, C and hints, and other tables."""
    G = SampledMap((x, tuple(2 * c for c in v)) for x, v in P.G.samples)
    return ProblemInstance(P.F, G, P.C, P.K, P.S, P.hints_T, P.hints_L)


def _perturbations(P):
    """L = 0, L = 1 (one scale) and L = 1/3 (another)."""
    one, third = Fraction(1), Fraction(1, 3)
    return [
        LinOp.zero(P.m, P.n),
        LinOp(((one,) * P.n,) * P.m),
        LinOp(((third,) * P.n,) * P.m),
    ]


def _answers(index, P, L, cfg, ys):
    """The certificates found for ``ys`` and VD``index``'s attained points
    with their certificates."""
    searches = [script_A_membership(index, P, L, y, cfg) for y in ys]
    return searches, dual_value(P, f"VD{index}", L, cfg).certificates


def _memo_entries(monkeypatch) -> list:
    """The memo each later search or dual value starts with, and its size
    then, as (memo, size) in call order."""
    entries = []
    real = SearchConfig._memo_for_call

    def recording(cfg):
        memo = real(cfg)
        entries.append((memo, len(memo)))
        return memo

    monkeypatch.setattr(SearchConfig, "_memo_for_call", recording)
    return entries


@pytest.mark.parametrize("cap", [None, 40])
def test_a_shared_memo_gives_the_answers_of_fresh_configs(cap, monkeypatch):
    """E1 and its twin share one config at two scales, with indices 1-3
    interleaved; every search and dual value equals a fresh config's.  The
    kept memo serves later searches, and with a small cap it is reset many
    times, between searches only."""
    Ps = [E1, _twin(E1)]
    ys = [(Fraction(k, 2),) for k in range(-9, 10, 3)]
    fresh = {
        (p, k, index): _answers(index, P, L, P.search_config(l_box=1), ys)
        for p, P in enumerate(Ps)
        for k, L in enumerate(_perturbations(P))
        for index in (1, 2, 3)
    }
    if cap is not None:
        monkeypatch.setattr(conjugate, "MEMO_CAP", cap)
    entries = _memo_entries(monkeypatch)
    shared = Ps[0].search_config(l_box=1)
    for order in ((1, 2, 3), (3, 1, 2)):
        for k in (0, 2, 1, 2, 0):
            for index in order:
                for p, P in enumerate(Ps):
                    L = _perturbations(P)[k]
                    assert _answers(index, P, L, shared, ys) == fresh[p, k, index]
    found = [c is not None for certs, _ in fresh.values() for c in certs]
    assert any(found) and not all(found)
    memos = {id(memo) for memo, _ in entries}
    kept = sum(size > 0 for _, size in entries)
    if cap is None:
        assert len(memos) == 1 and kept == len(entries) - 1
    else:
        assert 10 < len(memos) and 0 < kept < len(entries)


def test_every_search_starts_within_the_cap(monkeypatch):
    """At the module's cap and at a small one, over searches and dual
    values on two instances and two scales, each search and each dual
    value takes the memo once and starts with at most the cap of objects
    kept; the real cap is never reached here, the small one is, and a
    reset gives an empty memo."""
    assert conjugate.MEMO_CAP == 2_048
    for cap in (conjugate.MEMO_CAP, 24):
        monkeypatch.setattr(conjugate, "MEMO_CAP", cap)
        entries = _memo_entries(monkeypatch)
        cfg = E1.search_config(l_box=1)
        for P, index in itertools.product((E1, _twin(E1)), (3, 1, 2)):
            for L in _perturbations(P):
                for y in ((-4,), (0,), (Fraction(5, 2),)):
                    script_A_membership(index, P, L, y, cfg)
                dual_value(P, f"VD{index}", L, cfg)
        sizes = [size for _, size in entries]
        assert len(sizes) == 2 * 3 * 3 * (3 + 1)
        assert max(sizes) <= cap
        resets = sum(a is not b for (a, _), (b, _) in zip(entries, entries[1:]))
        assert resets == sizes.count(0) - 1
        assert (resets > 20) == (cap == 24)
        monkeypatch.undo()


def _block_calls(monkeypatch) -> list:
    """The list that each later ``FacetTables.block`` call appends to."""
    calls = []
    real = conjugate.FacetTables.block

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(conjugate.FacetTables, "block", counting)
    return calls


@pytest.mark.parametrize("name", ["E1", "E2"])
@pytest.mark.parametrize("which", ["VD2", "VD3"])
def test_the_owner_pass_keeps_the_memo_its_first_pass_built(name, which, monkeypatch):
    """With a cap that the merge pass alone overruns, a dual value's owner
    pass still reads the memo the merge pass built, and builds no T-block;
    the dual value is the one the real cap gives."""
    P = shipped_instance(name)
    L = LinOp.zero(P.m, P.n)
    want = dual_value(P, which, L, P.search_config(l_box=1)).certificates
    monkeypatch.setattr(conjugate, "MEMO_CAP", 24)
    calls, starts = _block_calls(monkeypatch), []
    real = duality.certificates

    def recording(*args):
        starts.append(len(calls))
        return real(*args)

    monkeypatch.setattr(duality, "certificates", recording)
    cfg = P.search_config(l_box=1)
    assert dual_value(P, which, L, cfg).certificates == want
    assert len(starts) == 2 and 0 < starts[1] == len(calls)
    assert len(cfg._memo) > 24


NOT_FOUND_Y = {"E1": (-40,), "E2": (-40, -40), "E3": (-40, -40), "E4": (-40, -40)}
# l_box=1 where a whole index-3 pass keeps no more than MEMO_CAP objects
SPLIT_BOX = {"E1": 1, "E2": 1, "E3": 0, "E4": 0}


@pytest.mark.parametrize("name", sorted(NOT_FOUND_Y))
@pytest.mark.parametrize("index", [1, 2, 3])
def test_a_second_search_at_the_same_L_builds_no_block(name, index, monkeypatch):
    """After a search that exhausts the budget, searches at the same L with
    other y, found or not, build no T-block and no split block: each reads
    the config's memo and images."""
    P = shipped_instance(name)
    cfg = P.search_config(l_box=SPLIT_BOX[name])
    calls = _block_calls(monkeypatch)
    for L in _perturbations(P)[::2]:
        assert script_A_membership(index, P, L, NOT_FOUND_Y[name], cfg) is None
        assert 0 < len(calls) and len(cfg._memo) <= conjugate.MEMO_CAP
        calls.clear()
        for y in itertools.product((-3, 0, 3, -41), repeat=P.m):
            script_A_membership(index, P, L, y, cfg)
        assert calls == []


@pytest.mark.parametrize("name", ["E1", "E2", "E3", "E4", "E5", "gap_toy"])
def test_searches_at_interleaved_indices_keep_their_blocks_apart(name):
    """Searches at indices 1-3 in turn on one config, at L = 0 and L = 1,
    index 1 for y from high (found early in the budget) to low (found late
    or not at all) and indices 2 and 3 the other way, give the
    certificates fresh configs give.  An index-1 rest, which carries F's
    term, equals an index-2 rest, which carries L' instead, when L' is F's
    slope, as the shipped hints are; the T-blocks that index 1 built in
    part for that rest must not be extended by index 2."""
    P = shipped_instance(name)
    shared = P.search_config()
    ys = sorted(itertools.product((-40, -3, 0, Fraction(1, 2)), repeat=P.m))
    found = []
    for L in _perturbations(P)[:2]:
        for high, low in zip(reversed(ys), ys):
            for index, y in ((1, high), (2, low), (3, low)):
                cert = script_A_membership(index, P, L, y, shared)
                assert cert == script_A_membership(index, P, L, y, P.search_config())
                found.append(cert is not None)
    assert any(found) and not all(found)


def test_a_search_asks_once_per_distinct_value_set(monkeypatch):
    """E3's index-2 budget at l_box=1 and L = 0 has 4,941 items, and the
    enumerator yields the 2,327 of them with distinct (front, block), by
    content.  A search for a y below every value set calls ``region_sum``
    once per yielded item; the dual value VD2 calls ``region_sums`` once per
    yielded item after the first in its merge, and once per item of a
    prefix of them in its owner pass."""
    P, L = E3, LinOp.zero(E3.m, E3.n)
    cfg = P.search_config(l_box=1)
    items = list(certificates(2, P, L, cfg))
    order = [(tuple(f), tuple(b)) for _, f, b in items]
    budget = len(list(cfg.linop_budget(P.m, P.n))) * len(list(cfg.posop_budget(P.S, P.K)))
    assert (budget, len(order), len(set(order))) == (4_941, 2_327, 2_327)
    calls = []

    def recording(real):
        def call(front, block, q):
            calls.append((tuple(front), tuple(block)))
            return real(front, block, q)
        return call

    monkeypatch.setattr(conjugate, "region_sum", recording(conjugate.region_sum))
    assert script_A_membership(2, P, L, (-40, -40), P.search_config(l_box=1)) is None
    assert calls == order
    calls.clear()
    monkeypatch.setattr(duality, "region_sums", recording(duality.region_sums))
    dual_value(P, "VD2", L, P.search_config(l_box=1))
    merge, owners = calls[: len(order) - 1], calls[len(order) - 1 :]
    assert merge == order[1:] and 0 < len(owners) and owners == order[: len(owners)]


def _search_all(index, P, L, y, cfg):
    """The first item of the whole budget that qualifies y, or None."""
    e, Y = cleared(tuple(y))
    s = frontier_scale(P, L, cfg)
    q = tuple([s * c // e for c in mat_vec(P.K.basis.normals, Y)])
    for ops, front, block in certificates(index, P, L, cfg):
        if region_sum(front, block, q) != LOWER:
            return Certificate(index, *ops)
    return None


def _dual_all(index, P, L, cfg):
    """The attained points, as integer vectors at the merge's scale, and
    their owners, from a merge and an owner search over every item."""
    pieces = list(certificates(index, P, L, cfg))
    low = None
    for _, front, block in pieces:
        W = P.tables.sum(front, block)
        if low is None:
            low = W
        elif any(region_sum(front, block, u) == UPPER for u in low):
            low = maximal([tuple(map(min, u, v)) for u in low for v in W])
    _, inverse = P.K.basis.inverse
    points = sorted((vec_neg(mat_vec(inverse, u)), u) for u in low)
    owners = [
        next(
            Certificate(index, *ops)
            for ops, front, block in pieces
            if region_sum(front, block, u) == FRONTIER
        )
        for _, u in points
    ]
    return [h for h, _ in points], owners


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_skipping_repeats_changes_no_answer_on_random_instances(seed):
    """On random instances, at indices 1-3, two budgets and two L's, the
    searches and dual values that skip repeated items give the answers of
    the consumers above, which test every item."""
    P = rand_instance(random.Random(seed))
    for budget, L, index in itertools.product(
        ({}, {"l_box": 1}), _perturbations(P)[:2], (1, 2, 3)
    ):
        cfg = P.search_config(**budget)
        d = dual_value(P, f"VD{index}", L, cfg)
        points, owners = _dual_all(index, P, L, P.search_config(**budget))
        scale = P.K.basis.inverse[0] * frontier_scale(P, L, cfg)
        assert d.attained == FiniteVecSet.from_ints(scale, points)
        assert [c for _, c in d.certificates] == owners
        ys = [tuple(-c for c in h) for h, _ in d.certificates]
        ys += [tuple(c + t for c in y) for y in ys for t in (-1, Fraction(1, 3))]
        for y in ys:
            want = _search_all(index, P, L, y, P.search_config(**budget))
            assert script_A_membership(index, P, L, y, cfg) == want


@pytest.mark.parametrize("name", ["E1", "E2", "E3", "E4", "E5", "gap_toy"])
def test_indices_on_equal_rows_share_their_t_images_and_blocks(name, monkeypatch):
    """On the shipped instances C ∩ dom F = C = dom G, so after a whole
    index-3 pass at L = 0 on a fresh config, index 2 and then index 1 at
    the same L clear one facet matrix each, L's, and index 2 builds no
    block: its rest at L' is index 3's at (L', 0)."""
    P = shipped_instance(name)
    tab = P.tables
    assert tab.c_f == tab.c == tab.dom_g
    cfg, L = P.search_config(), LinOp.zero(P.m, P.n)
    matrices, blocks = [], _block_calls(monkeypatch)
    real = conjugate.facet_matrix

    def counting(*args):
        matrices.append(1)
        return real(*args)

    monkeypatch.setattr(conjugate, "facet_matrix", counting)
    for index in (3, 2, 1):
        matrices.clear()
        blocks.clear()
        for _ in certificates(index, P, L, cfg):
            pass
        if index == 3:
            assert len(matrices) > 1 and blocks
        else:
            assert len(matrices) == 1
        if index == 2:
            assert blocks == []
    assert len(cfg._memo) <= conjugate.MEMO_CAP


CUTS = [P for P in map(cut_instance, map(random.Random, range(12))) if P][:8]


@pytest.mark.parametrize("k", range(len(CUTS)))
def test_a_shared_config_on_cut_domains_gives_the_answers_of_fresh_configs(k):
    """On instances where C ∩ dom F, C and dom G all differ, each index
    runs on its own rows; one config that interleaves indices 1-3 at two
    L's of different scales gives the certificates and dual values fresh
    configs give."""
    P = CUTS[k]
    tab = P.tables
    assert len({tuple(tab.c_f), tuple(tab.c), tuple(tab.dom_g)}) == 3
    budget = {"l_box": 1} if P.m * P.n < 4 else {}
    ys = sorted(itertools.product((-6, -1, 0, Fraction(1, 2), 3), repeat=P.m))
    shared, found = P.search_config(**budget), []
    for L in _perturbations(P)[::2] * 2:
        for index in (1, 3, 2, 1, 2, 3):
            got = _answers(index, P, L, shared, ys)
            assert got == _answers(index, P, L, P.search_config(**budget), ys)
            found += [c is not None for c in got[0]]
    assert any(found)

