"""Seeded workloads of the weakfront benchmark.

A workload turns a seed into a list of cycles of ops.  Each op is one engine
computation plus the cross-check the matching verify suite makes of it.
Everything an op needs is built here, before timing starts; an op only calls
the engine's public functions and the oracle.

The seed picks the inputs, never the op mix: every cycle holds the same
cells (instance, condition index, dual problem, budget ...) and the seed
only picks the data inside each cell.  Ops are distinct within a run: each
cell draws its inputs without replacement, so a cache that only answers a
repeated op sees no repeats.
"""

from __future__ import annotations

import importlib
import random
from fractions import Fraction

from weakfront import cones, duality, farkas, instances, oracle, order_sets, randgen

# The package's ``conjugate`` attribute is the function of that name, which
# hides the submodule; take the module itself.
conjugate = importlib.import_module("weakfront.conjugate")

WORKLOADS = ("grid-label", "certify", "dual")


class Op:
    """One op.  ``run()`` makes the engine call and its cross-check and
    returns (ok, detail, outputs); ``detail`` says why a check failed.
    ``encode(outputs)``, called outside the timed region, gives the canonical
    JSON-ready form of the engine's outputs that the run digest hashes.
    """

    __slots__ = ("key", "run", "encode")

    def __init__(self, key, run, encode):
        self.key = key
        self.run = run
        self.encode = encode


class Plan:
    """The generated inputs of one run.

    ``cycles`` is every cycle the seed allows (runs stop at a cycle boundary,
    so the op mix is exact); ``min_cycles`` cycles always run, so the digest
    covers them; ``trace_cycles`` is the fixed op list of a traced run.
    ``info`` describes the op mix, for the run's info lines.
    """

    def __init__(self, cycles, min_cycles, trace_cycles, info=None):
        self.cycles = cycles
        self.min_cycles = min_cycles
        self.trace_cycles = trace_cycles
        self.info = info or {}


def _rng(*parts) -> random.Random:
    # str seeds hash through sha512, so this is stable across processes.
    return random.Random(":".join(str(p) for p in parts))


def _enc(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _enc_vec(v) -> list:
    return [_enc(c) for c in v]


def _enc_mat(m) -> list:
    return [_enc_vec(r) for r in m]


def _enc_cert(c) -> dict:
    doc = {"index": c.index, "T": _enc_mat(c.T.op.entries)}
    if c.Lp is not None:
        doc["Lp"] = _enc_mat(c.Lp.entries)
    if c.Lpp is not None:
        doc["Lpp"] = _enc_mat(c.Lpp.entries)
    return doc


def _linop(rows) -> cones.LinOp:
    return cones.LinOp(tuple(tuple(Fraction(c) for c in r) for r in rows))


def _steps(lo, hi, step) -> list:
    """lo, lo + step, ..., hi as Fractions."""
    lo, hi, step = Fraction(lo), Fraction(hi), Fraction(step)
    n = int((hi - lo) / step)
    return [lo + k * step for k in range(n + 1)]


def load_shipped(names) -> dict:
    """The shipped instances, loaded from their JSON files."""
    return {
        n: instances.load_instance(instances.data_dir() / f"{n}.json")
        for n in names
    }


# --- grid-label ------------------------------------------------------------------
#
# The decomposition suite's unit: one staircase build and 1681 queries.

GRID = [(a, b) for a in _steps(-10, 10, Fraction(1, 2)) for b in _steps(-10, 10, Fraction(1, 2))]
_LABEL_CHAR = {"LOWER": "L", "FRONTIER": "F", "UPPER": "U"}


def _grid_label_op(M, K) -> Op:
    def run():
        labels = order_sets.classify_many(M, K, GRID)
        want = oracle.brute_region_bulk(M.points, K.normals, GRID)
        bad = sum(a is not b for a, b in zip(labels, want))
        ok = len(labels) == len(want) and bad == 0
        return ok, f"{bad} labels differ from the oracle", labels

    def encode(labels):
        return "".join(_LABEL_CHAR[lab.name] for lab in labels)

    return Op(f"M={_enc_mat(M.points)} K={_enc_mat(K.normals)}", run, encode)


def _plan_grid_label(seed: int) -> Plan:
    per_cycle, max_cycles = 10, 300
    seen = set()
    cycles = []
    k = 0
    for _ in range(max_cycles):
        cycle = []
        while len(cycle) < per_cycle:
            rng = _rng("grid-label", seed, k)
            k += 1
            M = randgen.rand_finite_set(rng, 2, 20)
            K = randgen.rand_cone_2d(rng)
            if (M.points, K.normals) not in seen:
                seen.add((M.points, K.normals))
                cycle.append(_grid_label_op(M, K))
        cycles.append(cycle)
    return Plan(cycles, 10, 10)


# --- certify ---------------------------------------------------------------------
#
# One Farkas query per op.  L and y come from each instance's representation
# grid: the representation suite's grid with the y step halved, and the L step
# halved where the shipped hints still certify every query whose (alpha)
# holds (E2-E4), so every cell has enough distinct queries.  Each cycle holds,
# per instance and index, one query whose (alpha) fails -- it must come back
# NOT_FOUND after exhausting the budget -- and two whose (alpha) holds.  That
# fixed third is close to the grids' overall (alpha)-false share (0.30), but
# not to each instance's; the plan reports each instance's share.  A mix
# rounded to each instance's share put p90 in a gap between cost levels,
# where it spread 0.27 across seeds.

CERTIFY_INSTANCES = ("E1", "E2", "E3", "E4", "E5")
_HALF, _QUARTER = Fraction(1, 2), Fraction(1, 4)


def _rep_grid(name: str):
    if name in ("E1", "E5"):
        Ls = [_linop([[v]]) for v in _steps(-2, 2, _HALF)]
        ys = (
            [(v,) for v in _steps(-3, 1, _QUARTER)]
            if name == "E1"
            else [(v,) for v in _steps(-4, 4, _HALF)]
        )
        return Ls, ys
    if name == "E2":
        Ls = [_linop([[a], [b]]) for a in _steps(-1, 1, _HALF) for b in _steps(-1, 1, _HALF)]
        ys = [(u, v) for u in _steps(-1, 1, _HALF) for v in _steps(-3, -1, _HALF)]
        return Ls, ys
    if name == "E3":
        Ls = [
            _linop([[a, 0], [0, b]])
            for a in _steps(-1, 1, _HALF)
            for b in _steps(-1, 1, _HALF)
        ]
        ys = [(u, v) for u in _steps(-2, 0, _HALF) for v in _steps(-2, 0, _HALF)]
        return Ls, ys
    if name == "E4":
        Ls = [_linop([[a], [b]]) for a in _steps(0, 2, _HALF) for b in _steps(0, 2, _HALF)]
        ys = [(u, v) for u in _steps(-2, 1, _HALF) for v in _steps(-2, 1, _HALF)]
        return Ls, ys
    raise ValueError(name)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def expected_alpha(P, L, y) -> bool:
    """(alpha) from its definition: no feasible sample x has
    L(x) - F(x) - y strictly inside K.  Written against the raw instance
    data, sharing no code with ``farkas.alpha_holds``."""
    for x in P.C:
        gx = P.G.value(x)
        fx = P.F.value(x)
        if gx is None or fx is None:
            continue
        if any(_dot(a, gx) > 0 for a in P.S.normals):
            continue  # G(x) is outside -S: x is infeasible
        d = [_dot(row, x) - f - c for row, f, c in zip(L.entries, fx, y)]
        if all(_dot(a, d) > 0 for a in P.K.normals):
            return False
    return True


def _certify_op(name, P, cfg, L, y, i, alpha) -> Op:
    def run():
        cert = conjugate.script_A_membership(i, P, L, y, cfg)
        a = farkas.alpha_holds(P, L, y)
        if a != alpha:
            return False, f"alpha_holds says {a}, definition says {alpha}", cert
        if cert is None:
            if i == 1 and a:
                return False, "no condition-1 certificate while (alpha) holds", cert
            return True, "", cert
        if not a:
            return False, "certificate found while (alpha) fails", cert
        if not farkas.verify_certificate(P, farkas.FarkasQuery(L, y, i), cert):
            return False, "certificate fails re-verification", cert
        for target in range(i - 1, 0, -1):
            down = farkas.convert_certificate(P, L, cert, target)
            if not farkas.verify_certificate(P, farkas.FarkasQuery(L, y, target), down):
                return False, f"{i}->{target} conversion fails re-verification", cert
        return True, "", cert

    def encode(cert):
        if cert is None:
            return {"found": False}
        return {"found": True, "certificate": _enc_cert(cert)}

    key = f"{name} i={i} L={_enc_mat(L.entries)} y={_enc_vec(y)}"
    return Op(key, run, encode)


def _plan_certify(seed: int) -> Plan:
    Ps = load_shipped(CERTIFY_INSTANCES)
    cells = []  # (name, P, cfg, i, false_pool, true_pool)
    info = {}
    for name in CERTIFY_INSTANCES:
        P = Ps[name]
        cfg = P.search_config()
        Ls, ys = _rep_grid(name)
        combos = [(L, y, expected_alpha(P, L, y)) for L in Ls for y in ys]
        info[f"certify.{name}.grid_alpha_false_share"] = (
            sum(not c[2] for c in combos) / len(combos)
        )
        for i in (1, 2, 3):
            rng = _rng("certify", seed, name, i)
            false_pool = [c for c in combos if not c[2]]
            true_pool = [c for c in combos if c[2]]
            rng.shuffle(false_pool)
            rng.shuffle(true_pool)
            cells.append((name, P, cfg, i, false_pool, true_pool))
    n_cycles = min(min(len(f), len(t) // 2) for *_, f, t in cells)
    cycles = []
    for c in range(n_cycles):
        cycle = []
        for name, P, cfg, i, false_pool, true_pool in cells:
            picks = [false_pool[c]] + true_pool[2 * c : 2 * c + 2]
            for L, y, alpha in picks:
                cycle.append(_certify_op(name, P, cfg, L, y, i, alpha))
        cycles.append(cycle)
    info["certify.alpha_false_per_cell"] = "1/3"
    return Plan(cycles, 3, 1, info)


# --- dual ------------------------------------------------------------------------
#
# One dual_value per op, over every shipped instance, dual problem and budget.
# VD1 has no split operators, so the split grid would repeat its default
# budget; the split grid is left out where it costs over ~2 s per op.

DUAL_INSTANCES = ("E1", "E2", "E3", "E4", "E5", "gap_toy")
_SPLIT_SKIPPED = {("E3", "VD2"), ("E3", "VD3"), ("E4", "VD3")}


def _dual_perturbations(P) -> list:
    if (P.m, P.n) == (1, 1):
        return [_linop([[v]]) for v in _steps(-4, 4, _QUARTER)]
    if P.n == 1:
        vals = _steps(-2, 2, _HALF)
        return [_linop([[a], [b]]) for a in vals for b in vals]
    vals = (-1, 0, 1)
    return [_linop([[a, b], [c, d]]) for a in vals for b in vals for c in vals for d in vals]


def _scalar_data(P, cfg):
    """Inputs of the classical scalar duals over the same budget, built the
    way the scalar-regression suite builds them."""
    active = [x for x in P.C if P.F.value(x) is not None and P.G.value(x) is not None]
    return {
        "active": active,
        "fsamples": [(x, v[0]) for x, v in P.F.samples],
        "gsamples": list(P.G.samples),
        "gvals_on_c": [P.G.value(x) for x in active],
        "lams": [T.op.entries[0] for T in cfg.posop_budget(P.S, P.K)],
        "us": [M.entries[0] for M in cfg.linop_budget(1, P.n)],
    }


def _scalar_dual(P, which, L, sd):
    row = L.entries[0]
    if which == "VD1":
        shifted = [(x, P.F.value(x)[0] - _dot(row, x)) for x in sd["active"]]
        return oracle.scalar_lagrange_dual(shifted, sd["gvals_on_c"], sd["lams"])
    if which == "VD2":
        return oracle.scalar_fenchel_lagrange_dual2(
            sd["fsamples"], sd["active"], sd["gvals_on_c"], row, sd["us"], sd["lams"]
        )
    return oracle.scalar_fenchel_lagrange_dual3(
        sd["fsamples"], sd["active"], sd["gsamples"], row, sd["us"], sd["us"], sd["lams"]
    )


def _dual_op(name, P, which, budget, cfg, L, sd) -> Op:
    index = int(which[-1])

    def run():
        d = duality.dual_value(P, which, L, cfg)
        if not order_sets.set_preceq(d.frontier, duality.winf_vp(P, L)):
            return False, "dual frontier exceeds the primal frontier", d
        attained = [tuple(p) for p in d.attained.points]
        if [tuple(h) for h, _ in d.certificates] != attained:
            return False, "certificates do not match the attained points", d
        for h, c in d.certificates:
            q = farkas.FarkasQuery(L, tuple(-v for v in h), index)
            if not farkas.verify_certificate(P, q, c):
                return False, f"certificate of {_enc_vec(h)} fails re-verification", d
        if sd is not None:
            want = _scalar_dual(P, which, L, sd)
            if attained != [(want,)]:
                return False, f"scalar dual is {_enc(want)}", d
        return True, "", d

    def encode(d):
        return {
            "attained": [_enc_vec(p) for p in d.attained.points],
            "certificates": [_enc_cert(c) for _, c in d.certificates],
        }

    key = f"{name} {which} {budget} L={_enc_mat(L.entries)}"
    return Op(key, run, encode)


def _plan_dual(seed: int) -> Plan:
    Ps = load_shipped(DUAL_INSTANCES)
    cells = []
    for name in DUAL_INSTANCES:
        P = Ps[name]
        budgets = {"default": P.search_config(), "l_box=1": P.search_config(l_box=1)}
        for which in ("VD1", "VD2", "VD3"):
            for budget, cfg in budgets.items():
                if budget == "l_box=1" and (which == "VD1" or (name, which) in _SPLIT_SKIPPED):
                    continue
                sd = _scalar_data(P, cfg) if P.m == 1 else None
                Ls = _dual_perturbations(P)
                _rng("dual", seed, name, which, budget).shuffle(Ls)
                cells.append((name, P, which, budget, cfg, Ls, sd))
    n_cycles = min(len(c[5]) for c in cells)
    cycles = [
        [
            _dual_op(name, P, which, budget, cfg, Ls[k], sd)
            for name, P, which, budget, cfg, Ls, sd in cells
        ]
        for k in range(n_cycles)
    ]
    return Plan(cycles, 4, 1)


INSTANCES = {
    "grid-label": (),
    "certify": CERTIFY_INSTANCES,
    "dual": DUAL_INSTANCES,
}

_PLANNERS = {
    "grid-label": _plan_grid_label,
    "certify": _plan_certify,
    "dual": _plan_dual,
}


def plan(name: str, seed: int) -> Plan:
    return _PLANNERS[name](seed)
