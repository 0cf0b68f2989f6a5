"""End-to-end checks of the command-line interface: frozen outputs, exit
codes, and byte-identical reports across worker counts."""
import json
import subprocess
import sys

import pytest

from weakfront.cli import main
from weakfront.instances import data_dir, dump_json


def run(capsys, argv):
    try:
        rc = main(argv)
    except SystemExit as e:  # argparse's own exit for unknown choices
        rc = e.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture(scope="module")
def e1():
    return str(data_dir() / "E1.json")


@pytest.fixture(scope="module")
def e2():
    return str(data_dir() / "E2.json")


def test_dual_subcommand_all_three_problems(capsys, e1):
    for which in ("VD1", "VD2", "VD3"):
        rc, out, err = run(capsys, ["dual", e1, "--which", which, "--L", "zero"])
        assert rc == 0, err
        doc = json.loads(out)
        assert doc["format"] == 1 and doc["kind"] == "dual"
        assert doc["which"] == which
        assert doc["frontier"]["generators"] == [[1]]
        assert doc["attained"][0]["point"] == [1]
        assert "T" in doc["attained"][0]["certificate"]


def test_dual_fractional_frontier(capsys):
    gap = str(data_dir() / "gap_toy.json")
    rc, out, _ = run(
        capsys, ["dual", gap, "--L", "zero", "--box", "2", "--step", "1/2"]
    )
    assert rc == 0
    assert json.loads(out)["frontier"]["generators"] == [["3/2"]]


def test_dual_output_is_canonical_json(capsys, e1):
    rc, out, _ = run(capsys, ["dual", e1, "--L", "zero"])
    assert rc == 0
    assert out == dump_json(json.loads(out))  # sorted keys, 2-space indent


def test_conjugate_subcommand(capsys, e1):
    rc, out, _ = run(capsys, ["conjugate", e1, "--L", "[[1]]"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["kind"] == "conjugate"
    assert doc["value"] == {"tag": "FINITE", "orient": "SUP", "generators": [[0]]}


def test_farkas_found_and_not_found_both_exit_zero(capsys, e2):
    rc, out, _ = run(
        capsys, ["farkas", e2, "--index", "1", "--L", "zero", "--y", "[0,0]"]
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["found"] is True and doc["certificate"]["index"] == 1
    rc, out, _ = run(
        capsys, ["farkas", e2, "--index", "1", "--L", "zero", "--y", "[-9,-9]"]
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["found"] is False and doc["status"] == "NOT_FOUND"


def test_farkas_index_three_carries_both_splits(capsys, e2):
    rc, out, _ = run(
        capsys, ["farkas", e2, "--index", "3", "--L", "zero", "--y", "[0,0]"]
    )
    assert rc == 0
    cert = json.loads(out)["certificate"]
    assert "Lp" in cert and "Lpp" in cert


def test_wsup_csv_labels(capsys, tmp_path):
    setdoc = {
        "format": 1,
        "kind": "set",
        "points": [[0, 0], [2, 1], [1, 2]],
        "K": {
            "normals": [[1, 0], [0, 1]],
            "generators": [[1, 0], [0, 1]],
            "interior_witness": [1, 1],
        },
    }
    qdoc = {
        "format": 1,
        "kind": "set",
        "points": [[0, 0], [2, 1], [3, 3], [-1, "1/2"], [2, 2]],
    }
    mpath, qpath = tmp_path / "m.json", tmp_path / "q.json"
    mpath.write_text(json.dumps(setdoc))
    qpath.write_text(json.dumps(qdoc))
    rc, out, _ = run(capsys, ["wsup", str(mpath), str(qpath)])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "format,1"
    assert lines[1] == "y1,y2,label"
    table = {}
    for row in lines[2:]:
        *coords, lab = row.split(",")
        table[tuple(coords)] = lab
    assert table[("0", "0")] == "LOWER"
    assert table[("2", "1")] == "FRONTIER"
    assert table[("3", "3")] == "UPPER"
    assert table[("-1", "1/2")] == "LOWER"
    assert table[("2", "2")] == "UPPER"  # above neither generator


def test_wsup_requires_a_cone_on_the_set_file(capsys, tmp_path):
    nocone = tmp_path / "nocone.json"
    nocone.write_text(json.dumps({"format": 1, "kind": "set", "points": [[0]]}))
    q = tmp_path / "q.json"
    q.write_text(json.dumps({"format": 1, "kind": "set", "points": [[0]]}))
    rc, _, err = run(capsys, ["wsup", str(nocone), str(q)])
    assert rc == 2 and "cone" in err


def test_verify_reports_identically_across_workers(capsys):
    rc, out, err = run(capsys, ["verify", "wsum", "--trials", "5"])
    assert rc == 0, err
    assert out.startswith("suite wsum: PASS")
    rc2, out2, _ = run(capsys, ["verify", "wsum", "--trials", "5", "--jobs", "2"])
    assert rc2 == 0 and out2 == out
    rc3, out3, _ = run(
        capsys, ["verify", "wsum", "--trials", "5", "--seed", "3"]
    )
    assert rc3 == 0 and out3 != out  # the seed is part of the work


def test_error_paths_are_distinct_and_exit_two(capsys, tmp_path, e1):
    rc, _, err = run(capsys, ["dual", str(tmp_path / "missing.json")])
    assert rc == 2 and "input error" in err and "cannot read" in err

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    rc, _, err = run(capsys, ["dual", str(broken)])
    assert rc == 2 and "not valid JSON" in err

    rc, _, err = run(capsys, ["dual", e1, "--L", "[[1,2],[3,4]]"])
    assert rc == 2 and "dimension mismatch" in err

    infeasible = {
        "format": 1,
        "kind": "instance",
        "dims": {"n": 1, "m": 1, "p": 1},
        "domain": [[0]],
        "F": [[0]],
        "G": [[1]],
        "C": [0],
        "K": {"normals": [[1]], "generators": [[1]], "interior_witness": [1]},
        "S": {"normals": [[1]], "generators": [[1]], "interior_witness": [1]},
    }
    ipath = tmp_path / "infeasible.json"
    ipath.write_text(json.dumps(infeasible))
    rc, _, err = run(capsys, ["dual", str(ipath)])
    assert rc == 2 and "infeasible instance" in err

    rc, _, _ = run(capsys, ["verify", "not-a-suite"])
    assert rc == 2



def _with(doc, path, value):
    """A copy of ``doc`` with the field at ``path`` (keys and indices)
    replaced by ``value``."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


# E2 has n=1, m=2, p=1: T hints are 2x1, L hints 2x1.
_E2_MUTATIONS = [
    (("hints", "T", 0), [[1, 0], [0, 1]], "hints['T'][0] is 2x2, expected 2x1 (m x p)"),
    (("hints", "L", 0), [[1]], "hints['L'][0] is 1x1, expected 2x1 (m x n)"),
    (("C", 0), True, "C index true is a boolean, not a domain index"),
    (("dims", "n"), True, "dims.n is the boolean true, not an integer"),
    (("flags", "slater_point"), [1, 1], "slater_point has 2 entries, expected n=1"),
]


@pytest.mark.parametrize(
    "path,value,message", _E2_MUTATIONS, ids=[m[2].split()[0] for m in _E2_MUTATIONS]
)
def test_malformed_e2_is_refused_with_its_own_message(capsys, tmp_path, e2, path, value, message):
    bad = tmp_path / "E2_bad.json"
    bad.write_text(json.dumps(_with(json.loads(open(e2).read()), path, value)))
    for argv in (["dual", str(bad)], ["farkas", str(bad), "--y", "[0,0]"]):
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (2, "")
        assert err == f"input error: {message}\n"

def test_console_entry_point_runs_in_a_subprocess():
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "weakfront.cli",
            "dual",
            str(data_dir() / "E1.json"),
            "--L",
            "zero",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["frontier"]["generators"] == [[1]]
