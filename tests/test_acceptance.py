"""Acceptance gate: the nine verification suites at full strength.

Each test runs one suite (or a small bundle) at its default trial count in
exact rational mode, prints a single pass/fail line, and asserts the suite
reported no failures, with the units and checks pinned below: a change that
drops or adds a check fails here.  The lines print with capture disabled so
they stay visible in normal pytest runs.
"""
import time

import pytest

from weakfront import suites
from weakfront.suites import report_text, run_suite

JOBS = 4

# (units, checks) of each suite's passing report at seed 0, default trials
EXPECTED = {
    "decomposition": (200, 1_008_600),
    "wsum": (200, 28_002),
    "psi": (100, 2_500),
    "basic-lemmas": (110, 1_080),
    "representation": (45, 2_138),
    "farkas": (1_045, 4_927),
    "weak-duality": (50, 750),
    "strong-duality": (7, 17),
    "scalar-regression": (20, 120),
}


@pytest.fixture(autouse=True)
def _live_output(capfd):
    global _CAPFD
    _CAPFD = capfd
    yield
    _CAPFD = None


def _announce(line: str) -> None:
    with _CAPFD.disabled():
        print(line, flush=True)
    print(line)  # captured copy, shown in failure reports


def _run(name: str, tag: str = "", jobs: int = JOBS, **kw):
    t0 = time.perf_counter()
    report = run_suite(name, jobs=jobs, **kw)
    elapsed = time.perf_counter() - t0
    status = "PASS" if report["passed"] else "FAIL"
    _announce(
        f"[{status}] {tag or name + ' suite'}: {report['checks']} checks, "
        f"{len(report['failures'])} failures, {report['units']} units "
        f"({elapsed:.1f}s)"
    )
    for f in report["failures"][:5]:
        _announce(f"    {f}")
    return report, elapsed


def _passed(report) -> None:
    assert report["passed"], report["failures"][:3]
    assert (report["units"], report["checks"]) == EXPECTED[report["suite"]]


def test_0_every_suite_is_pinned():
    """In the table's order, which ``test_cli.py`` holds to the CLI's."""
    assert tuple(EXPECTED) == tuple(suites._SUITES)


def test_1_decomposition_suite_engine_equals_oracle():
    # 200 random sets x 3 random planar cones, 41x41 grid, exact arithmetic
    report, elapsed = _run("decomposition")
    _passed(report)
    assert elapsed < 30.0, f"decomposition took {elapsed:.1f}s"


def test_2_wsum_suite_monoid_laws_and_oracle_equality():
    _passed(_run("wsum")[0])


def test_3_psi_suite_collapse_matches_epigraph_membership():
    _passed(_run("psi")[0])


def test_4_basic_lemmas_suite_sum_bounds_and_split_certificates():
    _passed(_run("basic-lemmas")[0])


def test_5_representation_suite_membership_and_conversions():
    _passed(_run("representation")[0])  # 5 shipped convex instances x 9 queries


def test_6_farkas_suite_soundness_and_hinted_completeness():
    _passed(_run("farkas")[0])


def test_7_weak_duality_suite_chain_holds_on_random_instances():
    _passed(_run("weak-duality")[0])


def test_8_strong_duality_and_scalar_regression():
    _passed(_run("strong-duality")[0])
    _passed(_run("scalar-regression", tag="scalar-regression suite")[0])


def test_9_reports_are_byte_identical_across_worker_counts():
    t0 = time.perf_counter()
    for name, kw in (("farkas", {"seed": 3, "trials": 40}), ("wsum", {"trials": 25})):
        texts = {
            jobs: report_text(run_suite(name, jobs=jobs, **kw))
            for jobs in (1, 2, 3)
        }
        assert texts[1] == texts[2] == texts[3], f"{name} diverged across jobs"
    _announce(
        f"[PASS] determinism: identical reports for jobs 1/2/3 "
        f"({time.perf_counter() - t0:.1f}s)"
    )
