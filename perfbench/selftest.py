"""Fast self-test of the benchmark at tiny op counts.

    python3 perfbench/selftest.py

For each workload it makes two timed runs and two traced runs of the first
few ops of one seed, and checks that no op fails, that the work digest is
the same in every run, and that every per-layer count repeats exactly.
Exits 0 when all of that holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
# Enough ops to reach every function the traced run requires.
SMALL_OPS = {"grid-label": 5, "certify": 24, "dual": 10}


def bench(workload: str, trace: int) -> tuple:
    """(result, digest) of one run of perfbench/run.py."""
    cmd = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", str(SEED), "--seconds", "1",
        "--trace", str(trace), "--ops", str(SMALL_OPS[workload]),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[2] for line in lines if line.startswith("info digest "))
    return json.loads(lines[-1]), digest


def main() -> int:
    problems = []
    for workload in SMALL_OPS:
        runs = [bench(workload, 0), bench(workload, 0), bench(workload, 1), bench(workload, 1)]
        for result, _ in runs:
            if result["failed"] or not result["correct"]:
                problems.append(f"{workload}: {result['failed']} ops failed")
        digests = {digest for _, digest in runs}
        if len(digests) != 1:
            problems.append(f"{workload}: work digests differ: {sorted(digests)}")
        counts = [
            {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}
            for result, _ in runs[2:]
        ]
        if counts[0] != counts[1]:
            diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
            problems.append(f"{workload}: traced counts differ: {diff}")
        print(f"{workload}: {len(runs)} runs, digest {runs[0][1][:16]}, "
              f"{len(counts[0])} counts", flush=True)
    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
