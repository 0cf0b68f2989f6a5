"""A unit that raises becomes a failure row that says where it crashed, and
the row is the same for every worker count."""

from weakfront import suites
from weakfront.cones import Cone
from weakfront.order_sets import FiniteVecSet, wsup_finite


def _crashing_unit(seed, idx):
    return wsup_finite(FiniteVecSet([(idx,)]), Cone.orthant(2))


def test_a_crashed_unit_reports_its_last_frames(monkeypatch):
    monkeypatch.setitem(suites._UNIT_FUNCS, "wsum", _crashing_unit)
    reports = {jobs: suites.run_suite("wsum", trials=2, jobs=jobs) for jobs in (1, 2)}
    assert reports[1] == reports[2]
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
