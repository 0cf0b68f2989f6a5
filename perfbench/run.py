"""Outside-in benchmark of the weakfront engine.

    python3 perfbench/run.py --workload grid-label --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the engine is imported from
``src/``.  The benchmark is a single-process closed loop: one op in flight,
the next op sent when the previous one finishes, as ``weakfront verify
--jobs 1`` runs its units.  Every input is generated from the seed before
timing starts; each op (an engine computation plus the matching suite's
cross-check) is timed from outside and checked.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` measures the
per-layer metrics on a fixed op list instead, in three fresh interpreters:
untraced, with span wrappers, and with count-only wrappers on the hot leaves.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit, the environment, the work digest and any
failures.  A record of the run is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from calibration import REFERENCE_IMPORTS, REFERENCE_S, calibrate, normalise

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PAIRS = 11
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 170
# In-process kernel time over an idle interpreter's: outside these limits the
# program under test slows the kernel itself, and the rescaled op times hide it.
CAL_DRIFT_LIMITS = (2 / 3, 1.5)
IDLE_EVERY_S = 5  # at most one idle-interpreter kernel sample per this time

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Functions the traced run must see called on each workload.  A zero count
# means a binding was missed (or the program changed under the benchmark).
REQUIRED_CALLS = {
    "grid-label": (
        "order_sets.classify_many",
        "staircase2d.classify_points_2d",
        "staircase2d.RayBasis.for_cone",
        "oracle.brute_region_bulk",
        "numeric.dot",
    ),
    "certify": (
        "conjugate.script_A_membership",
        "conjugate.beta_value_set",
        "conjugate.conjugate",
        "conjugate.compose",
        "order_sets.wsup_finite",
        "order_sets.ws_sum",
        "order_sets.GenSet.classify",
        "staircase2d.canonical_indices_2d",
        "staircase2d.RayBasis.for_cone",
        "cones.sample_positive_operators",
        "cones.is_positive_operator",
        "farkas.alpha_holds",
        "farkas.verify_certificate",
        "farkas.convert_certificate",
        "instances.load_instance",
        "numeric.dot",
        "numeric.mat_vec",
        "cones.classify_point",
    ),
    "dual": (
        "duality.dual_value",
        "duality.winf_vp",
        "conjugate.beta_value_set",
        "conjugate.conjugate",
        "conjugate.compose",
        "order_sets.wsup_finite",
        "order_sets.winf_finite",
        "order_sets.ws_sum",
        "order_sets.GenSet.classify",
        "order_sets.set_preceq",
        "staircase2d.canonical_indices_2d",
        "staircase2d.RayBasis.for_cone",
        "cones.sample_positive_operators",
        "cones.sample_linops",
        "cones.is_positive_operator",
        "farkas.verify_certificate",
        "oracle.scalar_duals",
        "instances.load_instance",
        "numeric.dot",
        "numeric.mat_vec",
        "cones.classify_point",
    ),
}

LAYERS = (
    "cones",
    "staircase2d",
    "order_sets",
    "conjugate",
    "farkas",
    "duality",
    "oracle",
    "instances",
)


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (exit code 1, no JSON line)."""


def _engine_env() -> dict:
    """Environment of child interpreters: the engine on the path, and
    bytecode cached inside the checkout, as an installed CLI would have it."""
    OUT.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    return env


def _import_engine():
    if not (SRC / "weakfront" / "__init__.py").is_file():
        raise BenchError(f"no engine sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))


# --- environment -------------------------------------------------------------------


def _git_sha():
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, ops: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": ops,
    }


# --- set-up and import timing -------------------------------------------------------


def _run_child(cmd) -> subprocess.CompletedProcess:
    """Run a child interpreter to completion (it is killed on time-out)."""
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=_engine_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"child {cmd[1:3]} ran over {CHILD_TIMEOUT_S} s") from e
    if proc.returncode != 0:
        raise BenchError(
            f"child {cmd[1:3]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return proc


def _child_wall_s(cmd) -> float:
    t0 = perf_counter()
    _run_child(cmd)
    return perf_counter() - t0


def measure_setup(names) -> tuple:
    """Set-up time: the wall time of a fresh interpreter that imports the CLI
    and loads the workload's shipped instances -- what every CLI call pays.

    Its runs alternate with those of a reference interpreter that imports the
    engine's dependencies and not the engine (``REFERENCE_IMPORTS``).  The
    median set-up time is reported at the reference speed, at which the
    reference interpreter takes ``REFERENCE_S``: most of the host's drift in
    start-up time is numpy's, and the reference sees it too.  The engine
    cannot change the reference.  Returns (setup_s, raw medians)."""
    code = (
        "import weakfront.cli\n"
        "from weakfront import instances\n"
        f"for n in {list(names)!r}:\n"
        "    instances.load_instance(instances.data_dir() / (n + '.json'))\n"
    )
    setup = [sys.executable, "-c", code]
    reference = [sys.executable, "-c", REFERENCE_IMPORTS]
    _run_child(setup)  # warm-up: caches the bytecode once
    _run_child(reference)
    setup_times, reference_times = [], []
    for _ in range(SETUP_PAIRS):
        setup_times.append(_child_wall_s(setup))
        reference_times.append(_child_wall_s(reference))
    raw = statistics.median(setup_times)
    ref = statistics.median(reference_times)
    return raw * REFERENCE_S / ref, {"raw_setup_s": raw, "setup_reference_s": ref}


def idle_kernel_s() -> float:
    """Median calibration-kernel time of a fresh interpreter without the
    engine."""
    cmd = [sys.executable, str((HERE / "calibration.py").relative_to(ROOT))]
    return float(_run_child(cmd).stdout.strip().splitlines()[-1])


_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s*(\S+)\s*$")


def measure_import() -> dict:
    """Median cumulative import times of weakfront.cli and of numpy, from
    ``-X importtime`` in fresh interpreters."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import weakfront.cli"]
    _run_child(cmd)
    cli, numpy = [], []
    for _ in range(IMPORT_REPEATS):
        found = {}
        for line in _run_child(cmd).stderr.splitlines():
            m = _IMPORTTIME.match(line)
            if m and m.group(3) in ("weakfront.cli", "numpy"):
                found[m.group(3)] = int(m.group(2)) / 1e6
        cli.append(found.get("weakfront.cli", 0.0))
        numpy.append(found.get("numpy", 0.0))
    return {
        "cli.import_s": statistics.median(cli),
        "cli.import_numpy_s": statistics.median(numpy),
    }


# --- the closed loop --------------------------------------------------------------


class LoopResult:
    def __init__(self):
        self.latencies: list = []  # raw wall seconds
        self.cals: list = []  # calibration samples around the ops
        self.idle_cals: list = []  # idle-interpreter kernel medians
        self.failures: list = []
        self.cycles = 0
        self.digest = hashlib.sha256()
        self.prefix_digest = None  # digest over the cycles every run makes
        self.prefix_ops = 0

    @property
    def ops(self) -> int:
        return len(self.latencies)

    def normalised(self) -> list:
        return normalise(self.latencies, self.cals)


def _failure(k, op, detail, exc=None) -> dict:
    rec = {"op": k, "key": str(op.key)[:400], "detail": detail}
    if exc is not None:
        frames = traceback.extract_tb(exc.__traceback__)[-4:]
        rec["frames"] = [f"{f.filename}:{f.lineno} in {f.name}" for f in frames]
    return rec


def run_loop(plan, cycles, seconds=None, ops_limit=None, rec=None, idle=False) -> LoopResult:
    """Run the ``cycles`` in order.  With ``seconds``, stop at the first cycle
    boundary after which one more cycle would pass it (never before
    ``plan.min_cycles``); with ``ops_limit``, stop after that many ops.
    ``rec`` is told which op is in flight.  With ``idle``, an idle
    interpreter's kernel time is sampled before the first cycle, after the
    last, and at cycle boundaries at most every ``IDLE_EVERY_S``."""
    res = LoopResult()
    gc.collect()
    if idle:
        res.idle_cals.append(idle_kernel_s())
    t_idle = perf_counter()
    res.cals.append(calibrate())
    t_start = perf_counter()
    k = 0
    for cycle in cycles:
        for op in cycle[: None if ops_limit is None else ops_limit - k]:
            if rec is not None:
                rec.op = k
                rec.active = True
            t0 = perf_counter()
            exc = None
            try:
                ok, detail, out = op.run()
            except Exception as e:  # a crashed op is a failed op
                ok, detail, out, exc = False, f"raised {type(e).__name__}: {e}", None, e
            t1 = perf_counter()
            if rec is not None:
                rec.active = False
                rec.op = -1
            res.cals.append(calibrate())
            res.latencies.append(t1 - t0)
            if exc is None:
                try:
                    payload = op.encode(out)
                except Exception as e:
                    ok, detail, exc = False, f"outputs unreadable: {type(e).__name__}: {e}", e
            if exc is not None:
                payload = {"raised": type(exc).__name__}
            if not ok:
                res.failures.append(_failure(k, op, detail, exc))
            blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            res.digest.update(hashlib.sha256(blob.encode()).digest())
            k += 1
        res.cycles += 1
        if res.cycles == plan.min_cycles:
            res.prefix_digest = res.digest.hexdigest()
            res.prefix_ops = k
        if ops_limit is not None and k >= ops_limit:
            break
        if seconds is not None and res.cycles >= plan.min_cycles:
            elapsed = perf_counter() - t_start
            if elapsed * (res.cycles + 1) / res.cycles > seconds:
                break
        if idle and perf_counter() - t_idle >= IDLE_EVERY_S:
            res.idle_cals.append(idle_kernel_s())
            t_idle = perf_counter()
    if idle:
        res.idle_cals.append(idle_kernel_s())
    if res.prefix_digest is None:
        res.prefix_digest = res.digest.hexdigest()
        res.prefix_ops = res.ops
    return res


def _p90(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[-1]


# --- modes --------------------------------------------------------------------------


def timed_run(args) -> tuple:
    from workloads import INSTANCES, plan as make_plan

    setup_s, setup_info = measure_setup(INSTANCES[args.workload])
    plan = make_plan(args.workload, args.seed)
    res = run_loop(plan, plan.cycles, seconds=args.seconds, ops_limit=args.ops, idle=True)
    lat = res.normalised()
    cal_over_idle = statistics.median(res.cals) / statistics.median(res.idle_cals)
    lo, hi = CAL_DRIFT_LIMITS
    if not lo <= cal_over_idle <= hi:
        print(
            f"warning: the calibration kernel ran {cal_over_idle:.2f}x as long in the "
            "run as in an idle interpreter; the op times are rescaled by a "
            "kernel the program under test slowed or sped up, so read the raw_* lines",
            file=sys.stderr,
        )
    raw = res.latencies
    metrics = {
        "ops_per_s": res.ops / sum(lat),
        "op_ms.p50": statistics.median(lat) * 1e3,
        "op_ms.p90": _p90(lat) * 1e3,
        "ok_ratio": (res.ops - len(res.failures)) / res.ops,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "cycles": res.cycles,
        "fail_ratio": len(res.failures) / res.ops,
        "samples_beyond_p90": sum(x * 1e3 > metrics["op_ms.p90"] for x in lat),
        "digest": res.prefix_digest,
        "digest_ops": res.prefix_ops,
        "digest_all": res.digest.hexdigest(),
        "calibration_ms.p50": statistics.median(res.cals) * 1e3,
        "calibration_idle_ms.p50": statistics.median(res.idle_cals) * 1e3,
        "calibration_idle_samples": len(res.idle_cals),
        "calibration_over_idle": cal_over_idle,
        **setup_info,
        **plan.info,
        "raw_timed_s": sum(raw),
        "raw_ops_per_s": res.ops / sum(raw),
        "raw_op_ms.p50": statistics.median(raw) * 1e3,
        "raw_op_ms.p90": _p90(raw) * 1e3,
        "latencies_ms": [round(x * 1e3, 4) for x in raw],
        "calibration_ms": [round(x * 1e3, 4) for x in res.cals],
    }
    units = dict(END_TO_END_UNITS)
    return res.ops, res.failures, metrics, units, info


def trace_pass(args) -> dict:
    """One traced pass in this (fresh) interpreter; prints its result."""
    import tracing
    from workloads import INSTANCES, load_shipped, plan as make_plan

    rec = tracing.Recorder()
    bound = {}
    if args.pass_kind == "spans":
        bound = tracing.install_spans(rec)
    elif args.pass_kind == "counts":
        bound = tracing.install_counts(rec)
    rec.active = True
    load_shipped(INSTANCES[args.workload])  # times load_instance once
    rec.active = False
    plan = make_plan(args.workload, args.seed)
    res = run_loop(plan, plan.cycles[: plan.trace_cycles], ops_limit=args.ops, rec=rec)
    out = {
        "ops": res.ops,
        "wall_s": sum(res.latencies),
        "normalised_wall_s": sum(res.normalised()),
        "failures": res.failures,
        "digest": res.digest.hexdigest(),
        "bound": bound,
    }
    if args.pass_kind == "spans":
        out["covered_s"] = rec.covered_s
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.json.gz"
        out["spans"] = rec.dump(path)
        out["spans_file"] = str(path.relative_to(ROOT))
    if args.pass_kind != "plain":
        out["summary"] = tracing.summary(rec)
    return out


def _pass_in_child(args, kind: str) -> dict:
    cmd = [
        sys.executable,
        str(Path(__file__).relative_to(ROOT)),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--pass", kind,
    ]
    if args.ops is not None:
        cmd += ["--ops", str(args.ops)]
    lines = _run_child(cmd).stdout.strip().splitlines()
    return json.loads(lines[-1])


def traced_run(args) -> tuple:
    metrics = measure_import()
    units = {"cli.import_s": "s", "cli.import_numpy_s": "s"}
    plain = _pass_in_child(args, "plain")
    spans = _pass_in_child(args, "spans")
    counts = _pass_in_child(args, "counts")
    for p in (spans, counts):
        if p["ops"] != plain["ops"]:
            raise BenchError("traced passes ran different op lists")
    summary = dict(spans["summary"])
    for name in ("numeric.dot", "numeric.mat_vec", "cones.classify_point"):
        summary[name + ".calls"] = counts["summary"][name + ".calls"]
    missed = [n for n in REQUIRED_CALLS[args.workload] if summary.get(n + ".calls", 0) == 0]
    if missed:
        raise BenchError(
            f"traced run saw no calls of {', '.join(missed)} on {args.workload}: "
            "a wrapper missed a binding, or the function is no longer called"
        )
    failures = plain["failures"] + spans["failures"] + counts["failures"]
    if len({plain["digest"], spans["digest"], counts["digest"]}) != 1:
        failures.append({"op": -1, "key": "", "detail": "traced passes disagree on outputs"})

    for key, value in sorted(summary.items()):
        stat = key.rsplit(".", 1)[1]
        if stat in ("self_s", "s"):
            units[key] = "s"
        else:
            units[key] = "count"
        metrics[key] = value
    calls = summary["conjugate.beta_value_set.calls"]
    metrics["conjugate.beta_value_set.distinct_ratio"] = (
        summary.get("conjugate.beta_value_set.distinct", 0) / calls if calls else 0.0
    )
    units["conjugate.beta_value_set.distinct_ratio"] = "ratio"
    for layer in LAYERS:
        metrics[layer + ".self_s"] = sum(
            v for k, v in summary.items() if k.startswith(layer + ".") and k.endswith(".self_s")
        )
        units[layer + ".self_s"] = "s"
    metrics["trace.uncovered_share"] = 1 - spans["covered_s"] / spans["wall_s"]
    metrics["trace.overhead_ratio"] = spans["normalised_wall_s"] / plain["normalised_wall_s"]
    metrics["trace.count_overhead_ratio"] = (
        counts["normalised_wall_s"] / plain["normalised_wall_s"]
    )
    units.update({
        "trace.uncovered_share": "ratio",
        "trace.overhead_ratio": "ratio",
        "trace.count_overhead_ratio": "ratio",
    })
    for name in ("order_sets.classify_many", "oracle.brute_region_bulk",
                 "conjugate.beta_value_set", "duality.dual_value"):
        metrics[name + ".share"] = summary[name + ".s"] / spans["wall_s"]
        units[name + ".share"] = "ratio"
    info = {
        "digest": plain["digest"],
        "digest_ops": plain["ops"],
        "spans_file": spans["spans_file"],
        "trace.spans": spans["spans"],
        "trace.op_wall_s": spans["wall_s"],
        "trace.untraced_wall_s": plain["wall_s"],
        "bindings": spans["bound"] | counts["bound"],
    }
    return plain["ops"], failures, metrics, units, info


def _declared_metrics(trace: int) -> dict:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("grid-label", "certify", "dual"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=36)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ops", type=int, default=None,
                   help="run exactly the first N ops (self-test)")
    p.add_argument("--pass", dest="pass_kind", choices=("plain", "spans", "counts"),
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    try:
        _import_engine()
        if args.pass_kind:
            print(json.dumps(trace_pass(args)))
            return 0
        run = traced_run if args.trace else timed_run
        attempted, failures, metrics, units, info = run(args)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1

    env = environment(args, attempted)
    record = {"env": env, "metrics": metrics, "units": units, "info": info,
              "failures": failures}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True))

    print("env " + json.dumps(env, sort_keys=True))
    for key, value in sorted(info.items()):
        if key not in ("latencies_ms", "calibration_ms", "bindings"):
            print(f"info {key} {value}")
    for name in sorted(metrics):
        print(f"metric {name} {metrics[name]!r} {units[name]}")
    for f in failures[:10]:
        print("failure " + json.dumps(f, sort_keys=True))
    print(f"record {path.relative_to(ROOT)}")
    declared = _declared_metrics(args.trace)
    for name, unit in declared.items():
        if units.get(name, unit) != unit:
            print(f"benchmark error: {name} is measured in {units[name]}, declared in {unit}",
                  file=sys.stderr)
            return 1
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len({f["op"] for f in failures}),
        # A count no call ever touched is an exact 0.
        "metrics": {n: {"value": metrics.get(n, 0), "unit": u} for n, u in declared.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
