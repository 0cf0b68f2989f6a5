"""A unit that raises becomes a failure row that says where it crashed, and
the row, like every suite's report, is the same for every worker count."""

import pytest

from weakfront import suites
from weakfront.cones import Cone
from weakfront.order_sets import FiniteVecSet, wsup_finite


def _crashing_unit(col, rng, idx):
    col.ok(True, "a check before the crash is not reported")
    wsup_finite(FiniteVecSet([(idx,)]), Cone.orthant(2))


def test_a_crashed_unit_reports_its_last_frames(monkeypatch):
    monkeypatch.setitem(suites._UNIT_FUNCS, "wsum", _crashing_unit)
    reports = {jobs: suites.run_suite("wsum", trials=2, jobs=jobs) for jobs in (1, 2)}
    assert reports[1] == reports[2]
    assert reports[1]["checks"] == 2  # one failed check per unit
    failures = reports[1]["failures"]
    assert [f["index"] for f in failures] == [0, 1]
    detail = failures[1]["detail"]
    assert detail.startswith(
        "unit crashed: DimensionError: set/cone dimensions disagree at suites:"
    )
    where = detail.split(" at ", 1)[1]
    assert "/" not in where and "\\" not in where  # no directories
    frames = where.split(" > ")
    assert len(frames) == 3
    assert frames[1].startswith("test_suites:") and frames[1].endswith(" _crashing_unit")
    assert frames[2].startswith("order_sets:") and frames[2].endswith(" wsup_finite")


class _SerialPool:
    """A stand-in for ``multiprocessing.Pool`` that starts no process: it
    records the worker count it was asked for and maps in this process."""

    def __init__(self, processes, started):
        started.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, func, items, chunksize=1):
        return [func(item) for item in items]


def test_no_more_workers_start_than_there_are_units(monkeypatch):
    started = []
    monkeypatch.setattr(
        suites.multiprocessing,
        "Pool",
        lambda processes: _SerialPool(processes, started),
    )
    few = suites.run_suite("wsum", trials=3, jobs=8)
    many = suites.run_suite("wsum", trials=5, jobs=2)
    assert started == [3, 2]
    assert few == suites.run_suite("wsum", trials=3, jobs=1)
    assert many == suites.run_suite("wsum", trials=5, jobs=1)
    assert few["units"] == 3 and few["passed"]


def test_decomposition_reports_are_byte_identical_across_worker_counts():
    """Each worker process keeps its own last cleared grid on each side of
    the check, so each sees a different run of hits and misses; the report
    is the same."""
    texts = {
        jobs: suites.report_text(
            suites.run_suite("decomposition", trials=20, jobs=jobs)
        )
        for jobs in (1, 2, 3)
    }
    assert texts[1] == texts[2] == texts[3]
    assert texts[1].startswith("suite decomposition: PASS seed=0 units=20 ")


@pytest.mark.parametrize(
    "name, trials",
    [
        ("psi", 4),
        ("basic-lemmas", 4),
        ("representation", None),
        ("weak-duality", 4),
        ("strong-duality", None),
        ("scalar-regression", 4),
    ],
)
def test_every_suite_reports_the_same_for_one_and_two_workers(name, trials):
    """The suites that ``test_acceptance.py::test_9`` and the test above
    leave out, at a few random units; the fixed units run in full."""
    texts = {
        jobs: suites.report_text(suites.run_suite(name, trials=trials, jobs=jobs))
        for jobs in (1, 2)
    }
    assert texts[1] == texts[2]
    assert texts[1].startswith(f"suite {name}: PASS seed=0 ")
