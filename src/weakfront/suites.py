"""Verification suites: bulk property and oracle checks behind the CLI.

Each suite is a list of independent work units, declared in one table
(``_SUITES``); a unit is addressed purely by (kind, seed, index) so it can
be shipped to a worker process as plain primitives and rebuilt there from
the seed.  Results merge in unit order, which makes reports byte-identical
for a given (suite, seed, trials) no matter how many workers ran them.

A failed check never raises out of a unit: it becomes a failure row with
enough detail to reproduce (suite, seed, unit index, offending data), and
the suite report carries every row.
"""

from __future__ import annotations

import json
import multiprocessing
import traceback
from fractions import Fraction
from functools import cache
from pathlib import Path
from random import Random
from typing import List, Optional

from .cones import LinOp
from .conjugate import (
    ExtEpiElement,
    SearchConfig,
    beta_value_set,
    boxplus,
    conjugate,
    epi_membership,
    exepi_membership,
    psi_contains,
    script_A_membership,
    split_witness,
)
from .duality import (
    dual_value,
    stable_strong_duality_sweep,
    strong_duality_check,
    weak_duality_check,
    winf_vp,
)
from .farkas import (
    FarkasQuery,
    HardFailure,
    alpha_holds,
    convert_certificate,
    kept_value_set,
    verify_certificate,
)
from .instances import CONVEX_SHIPPED, shipped_instance, shipped_pair
from .numeric import encode_mat, encode_number, encode_vec, vec_sub
from .oracle import (
    brute_beta,
    brute_region_bulk,
    brute_wsum,
    scalar_fenchel_lagrange_dual2,
    scalar_fenchel_lagrange_dual3,
    scalar_lagrange_dual,
)
from .order_sets import (
    GenSet,
    IllegalInfinitySum,
    RegionLabel,
    Tag,
    classify_many,
    neutral_sup,
    set_preceq,
    ws_sum,
    wsup_finite,
)
from .randgen import (
    rand_cone,
    rand_cone_2d,
    rand_finite_set,
    rand_instance,
    rand_linop,
    rand_sampled_map,
    trial_rng,
)


class _Collector:
    """Per-unit check counter and failure accumulator."""

    __slots__ = ("unit", "index", "checks", "failures")

    def __init__(self, unit: str, index: int):
        self.unit = unit
        self.index = index
        self.checks = 0
        self.failures: List[dict] = []

    def ok(self, cond: bool, detail: str) -> bool:
        self.checks += 1
        if not cond:
            self.fail(detail)
        return bool(cond)

    def fail(self, detail: str) -> None:
        self.failures.append(
            {"unit": self.unit, "index": self.index, "detail": detail}
        )

    def result(self) -> dict:
        return {
            "unit": self.unit,
            "index": self.index,
            "checks": self.checks,
            "failures": self.failures,
        }


_instance = cache(shipped_instance)  # one load per shipped instance and process


@cache
def _decomp_grid() -> list:
    vals = [Fraction(k, 2) for k in range(-20, 21)]  # 41 x 41 over [-10, 10]
    return [(a, b) for a in vals for b in vals]


@cache
def _wsum_grid(dim: int) -> list:
    if dim == 1:
        return [(Fraction(k),) for k in range(-12, 13)]
    vals = [Fraction(k) for k in range(-12, 13, 2)]
    return [(a, b) for a in vals for b in vals]


# --- decomposition: engine region labels == first-principles oracle ------------------


def _u_decomposition(col: _Collector, rng: Random, idx: int) -> None:
    M = rand_finite_set(rng, 2, 20)
    points = M.points
    grid = _decomp_grid()
    for _ in range(3):
        K = rand_cone_2d(rng)
        engine = classify_many(M, K, grid, sup=True)
        oracle = brute_region_bulk(points, K.normals, grid)
        col.checks += len(grid)
        bad = [
            (y, a, b) for y, a, b in zip(grid, engine, oracle) if a is not b
        ]
        for y, a, b in bad[:3]:
            col.fail(
                f"label mismatch at {encode_vec(y)} under cone normals "
                f"{encode_mat(K.normals)} over M={[encode_vec(p) for p in points]}: "
                f"engine {a.name}, oracle {b.name}"
            )
        if len(bad) > 3:
            col.fail(f"...and {len(bad) - 3} more mismatches in this unit")


# --- wsum: algebra of the WS-sum plus oracle labels ----------------------------------


def _u_wsum(col: _Collector, rng: Random, idx: int) -> None:
    dim = 1 if rng.random() < 0.25 else 2
    K = rand_cone(rng, dim)
    raw = [rand_finite_set(rng, dim, 6, -5, 5) for _ in range(3)]
    U, V, W = (wsup_finite(r, K) for r in raw)
    col.ok(ws_sum(U, V) == ws_sum(V, U), f"ws_sum not commutative (unit {idx})")
    col.ok(
        ws_sum(ws_sum(U, V), W) == ws_sum(U, ws_sum(V, W)),
        f"ws_sum not associative (unit {idx})",
    )
    col.ok(
        ws_sum(U, neutral_sup(K)) == U,
        f"neutral element failed (unit {idx})",
    )
    k0 = K.interior_witness
    V2 = U.translate(k0)
    col.ok(set_preceq(U, V2), f"U does not precede its cone-translate (unit {idx})")
    col.ok(
        set_preceq(ws_sum(U, W), ws_sum(V2, W)),
        f"ws_sum not precede-monotone (unit {idx})",
    )
    S = ws_sum(U, V)
    grid = _wsum_grid(dim)
    engine = S.classify_many(grid)
    oracle = brute_wsum(raw[0].points, raw[1].points, K, grid)
    col.checks += len(grid)
    mismatches = [
        (y, a, b) for y, a, b in zip(grid, engine, oracle) if a is not b
    ]
    for y, a, b in mismatches[:3]:
        col.fail(
            f"ws_sum label mismatch at {encode_vec(y)}: engine {a.name}, "
            f"oracle {b.name} (unit {idx})"
        )
    gens = S.generators.points
    for g, label in zip(gens, brute_wsum(raw[0].points, raw[1].points, K, gens)):
        col.ok(
            label is RegionLabel.FRONTIER,
            f"kept generator {encode_vec(g)} is off the raw-cloud frontier "
            f"(unit {idx})",
        )
    plus, minus = GenSet.plus_inf(K), GenSet.minus_inf(K)
    col.ok(ws_sum(U, plus).tag is Tag.PLUS_INF, "plus-infinity not absorbing")
    col.ok(ws_sum(minus, U).tag is Tag.MINUS_INF, "minus-infinity not absorbing")
    try:
        ws_sum(plus, minus)
        col.ok(False, "(+inf) + (-inf) did not raise")
    except IllegalInfinitySum:
        col.ok(True, "")


# --- psi: collapsed extended epigraph == ordinary epigraph ---------------------------


def _u_psi(col: _Collector, rng: Random, idx: int) -> None:
    n = rng.randint(1, 2)
    F = rand_sampled_map(rng, n, 2, 15)
    K = rand_cone(rng, 2)

    def family(L, U):
        return set_preceq(conjugate(F, L, K), U)

    for q in range(25):
        L = rand_linop(rng, 2, n, 2)
        y = tuple(Fraction(rng.randint(-16, 16), 2) for _ in range(2))
        candidates = ()
        if q % 3 == 0:
            exact = conjugate(F, L, K)
            candidates = (exact, exact.translate(K.interior_witness))
        got = psi_contains(family, L, y, K, candidates=candidates)
        want = epi_membership(F, L, y, K)
        col.ok(
            got == want,
            f"psi/epi mismatch: L={encode_mat(L.entries)} y={encode_vec(y)} "
            f"psi={got} epi={want} (unit {idx})",
        )


# --- basic-lemmas: boxplus inclusion (random) and exact splits (shipped pairs) -------


def _u_basic_rand(col: _Collector, rng: Random, idx: int) -> None:
    n = rng.randint(1, 2)
    dom = sorted(
        {
            tuple(Fraction(rng.randint(-4, 4), 2) for _ in range(n))
            for _ in range(rng.randint(2, 8))
        }
    )
    F1 = rand_sampled_map(rng, n, 2, domain=dom)
    F2 = rand_sampled_map(rng, n, 2, domain=dom)
    K = rand_cone(rng, 2)
    Fsum = F1.add(F2)
    for _ in range(3):
        L1 = rand_linop(rng, 2, n, 2)
        L2 = rand_linop(rng, 2, n, 2)
        e = boxplus(
            ExtEpiElement(L1, conjugate(F1, L1, K)),
            ExtEpiElement(L2, conjugate(F2, L2, K)),
        )
        col.ok(
            exepi_membership(Fsum, e, K),
            f"boxplus of conjugate bounds left the summed extended epigraph: "
            f"L1={encode_mat(L1.entries)} L2={encode_mat(L2.entries)} (unit {idx})",
        )


def _u_basic_pair(col: _Collector, rng: Random, idx: int) -> None:
    pair = shipped_pair(idx)
    K = pair.K
    Fsum = pair.summed()
    A1 = pair.hints_L[0]
    cfg = SearchConfig(l_box=0, hints_L=pair.hints_L)
    k0 = K.interior_witness
    zero = LinOp.zero(pair.F1.out_dim, pair.F1.in_dim)
    for L in (zero, A1, A1 + A1):
        front = conjugate(Fsum, L, K)
        for y in front.generators.points:
            hit = split_witness(pair.F1, pair.F2, L, y, K, cfg)
            if not col.ok(
                hit is not None,
                f"{pair.name}: no split at L={encode_mat(L.entries)} "
                f"y={encode_vec(y)}",
            ):
                continue
            l1, l2, u1, u2 = hit
            col.ok(l1 + l2 == L, f"{pair.name}: split operators do not sum to L")
            col.ok(
                exepi_membership(pair.F1, ExtEpiElement(l1, u1), K),
                f"{pair.name}: left split bound invalid",
            )
            col.ok(
                exepi_membership(pair.F2, ExtEpiElement(l2, u2), K),
                f"{pair.name}: right split bound invalid",
            )
            col.ok(
                ws_sum(u1, u2).contains(y),
                f"{pair.name}: summed bound misses the query point",
            )
            below = vec_sub(y, k0)
            col.ok(
                split_witness(pair.F1, pair.F2, L, below, K, cfg) is None,
                f"{pair.name}: split found strictly below the frontier at "
                f"{encode_vec(below)}",
            )


# --- representation: certificate membership == epigraph membership ------------------

def _frac_pairs(us, vs) -> list:
    return [(Fraction(u), Fraction(v)) for u in us for v in vs]


_HALVES = [Fraction(k, 2) for k in range(-4, 5)]
_TRITS = _frac_pairs((-1, 0, 1), (-1, 0, 1))

# Per shipped convex instance: its 9 perturbations (as matrices) and its 9
# query points; unit idx reads instance idx // 9 at perturbation idx % 9.
_REP_QUERIES = {
    "E1": ([((v,),) for v in _HALVES], [(Fraction(k, 2),) for k in range(-6, 3)]),
    "E2": ([((a,), (b,)) for a, b in _TRITS], _frac_pairs((-1, 0, 1), (-3, -2, -1))),
    "E3": ([((a, 0), (0, b)) for a, b in _TRITS], _frac_pairs((-2, -1, 0), (-2, -1, 0))),
    "E4": (
        [((a,), (b,)) for a, b in _frac_pairs((0, 1, 2), (0, 1, 2))],
        _frac_pairs((-2, 0, 1), (-2, 0, 1)),
    ),
    "E5": ([((v,),) for v in _HALVES], [(Fraction(k),) for k in range(-4, 5)]),
}
_REP_UNITS = range(9 * len(CONVEX_SHIPPED))


def _rep_case(idx: int) -> tuple:
    """(name, instance, perturbation, query points, hinted budget) of unit
    ``idx`` of the representation and farkas-hinted kinds."""
    name = CONVEX_SHIPPED[idx // 9]
    P = _instance(name)
    Ls, ys = _REP_QUERIES[name]
    return name, P, LinOp(Ls[idx % 9]), ys, P.search_config(t_box=0)


def _u_representation(col: _Collector, rng: Random, idx: int) -> None:
    name, P, L, ys, cfg = _rep_case(idx)
    if idx % 9 == 0:
        col.ok(
            P.slater_holds() is True,
            f"{name}: declared interior-feasible point fails the exact check",
        )
    for y in ys:
        a = alpha_holds(P, L, y)
        c1 = script_A_membership(1, P, L, y, cfg)
        col.ok(
            (c1 is not None) == a,
            f"{name}: condition-1 certificate existence differs from epigraph "
            f"membership at L={encode_mat(L.entries)} y={encode_vec(y)} "
            f"(alpha={a}, certificate={'found' if c1 else 'none'})",
        )
        if c1 is not None:
            col.ok(
                verify_certificate(P, FarkasQuery(L, y, 1), c1),
                f"{name}: found condition-1 certificate fails re-verification",
            )
        if not a:
            continue
        certs = [(i, script_A_membership(i, P, L, y, cfg)) for i in (2, 3)]
        where = f" at L={encode_mat(L.entries)} y={encode_vec(y)}"
        for i, cert in certs:
            if cert is None:
                continue
            col.ok(
                verify_certificate(P, FarkasQuery(L, y, i), cert),
                f"{name}: condition-{i} certificate fails re-verification",
            )
            for j in range(i - 1, 0, -1):  # only a 2->1 failure names its query
                down = convert_certificate(P, L, cert, j)
                col.ok(
                    verify_certificate(P, FarkasQuery(L, y, j), down),
                    f"{name}: {i}->{j} conversion fails{where if i == 2 else ''}",
                )


# --- farkas: soundness on random data, completeness on hinted instances -------------


def _u_farkas_rand(col: _Collector, rng: Random, idx: int) -> None:
    P = rand_instance(rng)
    i = rng.randint(1, 3)
    L = rand_linop(rng, P.m, P.n, 1)
    y = tuple(Fraction(rng.randint(-12, 12), 2) for _ in range(P.m))
    cfg = SearchConfig(
        t_box=1, t_step=1, l_box=0, hints_L=(rand_linop(rng, P.m, P.n, 1),)
    )
    cert = script_A_membership(i, P, L, y, cfg)
    if cert is not None:
        col.ok(
            alpha_holds(P, L, y),
            f"soundness breach: certificate at i={i} "
            f"L={encode_mat(L.entries)} y={encode_vec(y)} while the "
            f"exhaustive condition fails",
        )
        col.ok(
            verify_certificate(P, FarkasQuery(L, y, i), cert),
            f"found certificate fails re-verification (i={i}, unit {idx})",
        )
    # engine qualification == brute product-sum test, on explicit combos
    T_list = list(cfg.posop_budget(P.S, P.K))
    Lp_list = list(cfg.linop_budget(P.m, P.n))
    F_samples, G_samples = P.F.samples, P.G.samples  # each read builds Fractions
    for T in T_list[:2]:
        for Lp in Lp_list[:2]:
            Lpp = Lp_list[0]
            W = beta_value_set(
                i, P, L, T, Lp=Lp if i >= 2 else None, Lpp=Lpp if i == 3 else None
            )
            engine = W.classify(y) is not RegionLabel.LOWER
            oracle = brute_beta(
                i, F_samples, G_samples, P.C, L.entries, T.op.entries,
                Lp.entries, Lpp.entries, P.K.normals, y,
            )
            col.ok(
                engine == oracle,
                f"value-set qualification differs from brute sum test "
                f"(i={i}, T={encode_mat(T.op.entries)}, unit {idx})",
            )


def _u_farkas_hinted(col: _Collector, rng: Random, idx: int) -> None:
    name, P, L, ys, cfg = _rep_case(idx)
    for y in ys:
        if not alpha_holds(P, L, y):
            continue
        cert = script_A_membership(1, P, L, y, cfg)
        if col.ok(
            cert is not None,
            f"{name}: no certificate for a valid query at "
            f"L={encode_mat(L.entries)} y={encode_vec(y)}",
        ):
            col.ok(
                verify_certificate(P, FarkasQuery(L, y, 1), cert),
                f"{name}: hinted certificate fails re-verification",
            )


# --- weak-duality: the three dual frontiers are ordered, any budget ------------------


# what a broken link of weak_duality_check's chain means, link by link
_CHAIN_LINKS = (
    "third dual exceeds second",
    "second dual exceeds first",
    "first dual exceeds the primal frontier",
)


def _u_weak_duality(col: _Collector, rng: Random, idx: int) -> None:
    P = rand_instance(rng, p=1)
    cfg = SearchConfig(
        t_box=1, t_step=1, l_box=0, hints_L=(rand_linop(rng, P.m, P.n, 1),)
    )
    perturbations = [LinOp.zero(P.m, P.n)] + [
        rand_linop(rng, P.m, P.n, 1) for _ in range(4)
    ]
    for L in perturbations:
        for holds, what in zip(weak_duality_check(P, L, cfg), _CHAIN_LINKS):
            col.ok(holds, f"{what} at L={encode_mat(L.entries)} (unit {idx})")


# --- strong-duality: shipped instances hit their exact dual values -------------------

_SD_KINDS = ("E1-values", "E1-sweep", "E2-perturbations", "E3", "E4", "E5", "gap-toy")
_SD_UNITS = range(len(_SD_KINDS))


def _u_strong_duality(col: _Collector, rng: Random, idx: int) -> None:
    kind = _SD_KINDS[idx]
    P = _instance("gap_toy" if kind == "gap-toy" else kind[:2])
    cfg = P.search_config(t_box=0)
    L0 = LinOp.zero(P.m, P.n)
    if kind == "E1-values":
        for which in ("VD1", "VD2", "VD3"):
            d = dual_value(P, which, L0, cfg)
            col.ok(
                d.attained.points == ((Fraction(1),),),
                f"E1 {which} at L=0 is "
                f"{[encode_vec(p) for p in d.attained.points]}, expected [[1]]",
            )
    elif kind == "E1-sweep":
        sweep = stable_strong_duality_sweep(P, [LinOp(((v,),)) for v in (-1, 0, 1)], cfg)
        col.ok(
            sweep["summary"] == {"HOLDS": 3, "GAP": 0, "INCONCLUSIVE": 0},
            f"E1 sweep summary {sweep['summary']}",
        )
    elif kind == "E2-perturbations":
        for L in (L0, LinOp(((1,), (0,))), LinOp(((0,), (-1,))), LinOp(((2,), (0,)))):
            res = strong_duality_check(P, L, cfg, "VD1")
            col.ok(
                res.status == "HOLDS",
                f"E2 at L={encode_mat(L.entries)}: {res.status}",
            )
    elif kind == "gap-toy":
        res = strong_duality_check(P, L0, cfg)
        col.ok(
            res.status == "GAP" and res.witness == (Fraction(2),),
            f"gap instance: status {res.status}, witness {res.witness}",
        )
        d = dual_value(P, "VD1", L0, cfg)
        col.ok(
            d.attained.points == ((Fraction(3, 2),),),
            f"gap instance dual value {[encode_vec(p) for p in d.attained.points]}",
        )
        vp = winf_vp(P, L0)
        col.ok(
            vp.generators.points == ((Fraction(2),),),
            "gap instance primal frontier moved",
        )
    else:  # E3, E4, E5
        res = strong_duality_check(P, L0, cfg)
        col.ok(res.status == "HOLDS", f"{kind} at L=0: {res.status}")
        col.ok(
            all(weak_duality_check(P, L0, cfg)),
            f"{kind}: weak-duality chain broken at L=0",
        )


# --- scalar-regression: engine duals == classical scalar evaluators ------------------


def _u_scalar(col: _Collector, rng: Random, idx: int) -> None:
    P = rand_instance(rng, m=1)
    cfg = SearchConfig(
        t_box=1, t_step=1, l_box=0, hints_L=(rand_linop(rng, 1, P.n, 1),)
    )
    active = [
        x
        for x in P.C
        if P.F.value(x) is not None and P.G.value(x) is not None
    ]
    fsamples = [(x, v[0]) for x, v in P.F.samples]
    gsamples = list(P.G.samples)
    gvals_on_c = [P.G.value(x) for x in active]
    lams = [T.op.entries[0] for T in cfg.posop_budget(P.S, P.K)]
    us = [M.entries[0] for M in cfg.linop_budget(1, P.n)]
    for L in (LinOp.zero(1, P.n), rand_linop(rng, 1, P.n, 1)):
        row = L.entries[0]
        shifted = [
            (x, P.F.value(x)[0] - sum(a * b for a, b in zip(row, x)))
            for x in active
        ]
        wants = (
            scalar_lagrange_dual(shifted, gvals_on_c, lams),
            scalar_fenchel_lagrange_dual2(fsamples, active, gvals_on_c, row, us, lams),
            scalar_fenchel_lagrange_dual3(fsamples, active, gsamples, row, us, us, lams),
        )
        for i, (what, want) in enumerate(zip(("first", "second", "third"), wants), 1):
            got = dual_value(P, f"VD{i}", L, cfg).attained.points[0][0]
            col.ok(
                got == want,
                f"{what} dual differs from classical value: engine "
                f"{encode_number(got)}, scalar {encode_number(want)} (unit {idx})",
            )


# --- orchestration -------------------------------------------------------------------

# Each suite's default trial count, the unit it runs once per trial (of the
# suite's own kind; None for none), and its fixed units as (kind, unit,
# indices).  Suites made of fixed units alone ignore --trials.
_SUITES = {
    "decomposition": (200, _u_decomposition, ()),
    "wsum": (200, _u_wsum, ()),
    "psi": (100, _u_psi, ()),
    "basic-lemmas": (
        100, _u_basic_rand, (("basic-lemmas-pair", _u_basic_pair, range(1, 11)),)
    ),
    "representation": (0, None, (("representation", _u_representation, _REP_UNITS),)),
    "farkas": (1000, _u_farkas_rand, (("farkas-hinted", _u_farkas_hinted, _REP_UNITS),)),
    "weak-duality": (50, _u_weak_duality, ()),
    "strong-duality": (0, None, (("strong-duality", _u_strong_duality, _SD_UNITS),)),
    "scalar-regression": (20, _u_scalar, ()),
}
_UNIT_FUNCS = {name: unit for name, (_, unit, _) in _SUITES.items() if unit} | {
    kind: unit for _, _, fixed in _SUITES.values() for kind, unit, _ in fixed
}

_CRASH_FRAMES = 3  # innermost traceback frames a crash row names


def _run_unit(args) -> dict:
    """Run one unit, and drop the value sets its verifications kept when it
    ends: a random unit's instances serve no later unit, and the kept
    entries would hold them alive."""
    kind, seed, idx = args
    col = _Collector(kind, idx)
    try:
        _UNIT_FUNCS[kind](col, trial_rng(seed, idx), idx)
        return col.result()
    except HardFailure as e:
        reproducer = json.dumps(e.reproducer, sort_keys=True)
        detail = f"hard failure: {e}; reproducer={reproducer}"
    except Exception as e:
        # file names without their directories, so reports are the same on
        # every machine and for every worker count
        where = " > ".join(
            f"{Path(f.filename).stem}:{f.lineno} {f.name}"
            for f in traceback.extract_tb(e.__traceback__)[-_CRASH_FRAMES:]
        )
        detail = f"unit crashed: {type(e).__name__}: {e} at {where}"
    finally:
        kept_value_set.cache_clear()
    col = _Collector(kind, idx)  # the unit stopped: one failed check
    col.ok(False, detail)
    return col.result()


def run_suite(
    name: str,
    seed: int = 0,
    trials: Optional[int] = None,
    jobs: int = 1,
) -> dict:
    """Run one verification suite; the report is a stable JSON-ready dict.

    Reports depend only on (name, seed, trials): worker count changes
    nothing but wall time.  No more workers start than there are units.
    """
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r} (choose from {tuple(_SUITES)})")
    if trials is not None and trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    default, unit, fixed = _SUITES[name]
    if trials is None:
        trials = default
    units = [(name, seed, i) for i in range(trials if unit else 0)]
    units += [(kind, seed, i) for kind, _, indices in fixed for i in indices]
    if jobs > 1 and len(units) > 1:
        with multiprocessing.Pool(processes=min(jobs, len(units))) as pool:
            results = pool.map(_run_unit, units, chunksize=1)
    else:
        results = [_run_unit(u) for u in units]
    failures = [f for r in results for f in r["failures"]]
    return {
        "format": 1,
        "suite": name,
        "seed": seed,
        "trials": trials,
        "units": len(units),
        "checks": sum(r["checks"] for r in results),
        "failures": failures,
        "passed": not failures,
    }


def report_text(report: dict) -> str:
    """Single-line summary plus one line per failure; deterministic."""
    status = "PASS" if report["passed"] else "FAIL"
    lines = [
        f"suite {report['suite']}: {status} seed={report['seed']} "
        f"units={report['units']} checks={report['checks']} "
        f"failures={len(report['failures'])}"
    ]
    for f in report["failures"]:
        lines.append(f"  FAIL {f['unit']}#{f['index']}: {f['detail']}")
    return "\n".join(lines) + "\n"
