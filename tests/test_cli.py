"""End-to-end checks of the command-line interface: frozen outputs, exit
codes, and byte-identical reports across worker counts."""
import contextlib
import io
import json
import math
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from weakfront.cli import main
from weakfront.instances import data_dir, dump_json, load_instance


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


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--trials", "-3"], "trials must be nonnegative, got -3"),
        (["--jobs", "0"], "jobs must be at least 1, got 0"),
        (["--jobs", "-4"], "jobs must be at least 1, got -4"),
    ],
    ids=["trials-3", "jobs0", "jobs-4"],
)
def test_verify_refuses_negative_trials_and_fewer_than_one_job(capsys, flags, message):
    rc, out, err = run(capsys, ["verify", "wsum", *flags])
    assert (rc, out) == (2, "")
    assert err == f"input error: {message}\n"


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

def test_simplicial_cone_missing_an_extreme_ray_is_refused(capsys, tmp_path):
    # S is the quadrant; listing only (0, 1) would certify T = [[-1, 0]] as
    # positive and put the dual frontier above the primal one.
    doc = json.loads((data_dir() / "E5.json").read_text())
    bad = tmp_path / "E5_bad.json"
    bad.write_text(json.dumps(_with(doc, ("S", "generators"), [[0, 1]])))
    for argv in (
        ["farkas", str(bad), "--L", '[["3/2"]]', "--y", "[1]"],
        ["dual", str(bad), "--L", '[["3/2"]]'],
    ):
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (2, "")
        assert err == "input error: 'S' generators miss the extreme ray [1, 0]\n"


# Values that compare equal to the expected ones in Python but are the
# wrong JSON type.
_E1_MUTATIONS = [
    (("format",), True, "'format' must be the integer 1, got true"),
    (("format",), 1.0, "'format' must be the integer 1, got 1.0"),
    (("flags", "is_convex_C"), "no", "flag 'is_convex_C' must be true or false, got \"no\""),
    (("flags", "is_linear_F"), 0, "flag 'is_linear_F' must be true or false, got 0"),
    (("flags", "is_linear_G"), None, "flag 'is_linear_G' must be true or false, got null"),
]


@pytest.mark.parametrize(
    "path,value,message",
    _E1_MUTATIONS,
    ids=[f"{m[0][-1]}={json.dumps(m[1])}" for m in _E1_MUTATIONS],
)
def test_malformed_e1_is_refused_with_its_own_message(capsys, tmp_path, e1, path, value, message):
    bad = tmp_path / "E1_bad.json"
    bad.write_text(json.dumps(_with(json.loads(open(e1).read()), path, value)))
    for argv in (["conjugate", str(bad)], ["dual", str(bad)]):
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (2, "")
        assert err == f"input error: {message}\n"


@pytest.mark.parametrize("name", ["E1", "E2", "gap_toy"])
@pytest.mark.parametrize(
    "value", [-1, True, 1e308, False, 0, "", None], ids=lambda v: json.dumps(v)
)
def test_cone_generators_of_the_wrong_type_are_refused(capsys, tmp_path, name, value):
    doc = json.loads((data_dir() / f"{name}.json").read_text())
    bad = tmp_path / f"{name}_bad.json"
    bad.write_text(json.dumps(_with(doc, ("S", "generators"), value)))
    rc, out, err = run(capsys, ["conjugate", str(bad)])
    assert (rc, out) == (2, "")
    assert err == (
        "input error: 'S' generators must be an array of vectors, "
        f"got {json.dumps(value)}\n"
    )


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


def test_json_decimals_are_the_fractions_they_spell(capsys, tmp_path, e1):
    doc = json.loads(open(e1).read())
    doc["F"][0] = [0.1]
    path = tmp_path / "E1_decimal.json"
    path.write_text(json.dumps(doc))
    P = load_instance(path)
    assert P.F.value(P.F.domain()[0]) == (Fraction(1, 10),)
    rc, out, err = run(capsys, ["farkas", e1, "--L", "[[1]]", "--y", "[0.1]"])
    assert rc == 0, err
    assert json.loads(out)["y"] == ["1/10"]


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_json_numbers_exit_two(capsys, tmp_path, e1, literal):
    doc = json.loads(open(e1).read())
    doc["F"][0] = [float(literal)]
    path = tmp_path / "E1_nonfinite.json"
    path.write_text(json.dumps(doc))
    assert literal in path.read_text()
    for argv in (["conjugate", str(path)], ["farkas", e1, "--y", f"[{literal}]"]):
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (2, "")
        assert "non-finite number" in err


def test_tol_option_is_gone(capsys, e1):
    rc, out, err = run(capsys, ["conjugate", e1, "--tol", "0"])
    assert (rc, out) == (2, "")
    assert "unrecognized arguments: --tol 0" in err


# --- mutation fuzz of the shipped documents -----------------------------------

_REPLACEMENTS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.just(math.nan),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.lists(st.one_of(st.integers(-2, 2), st.floats(-2, 2)), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2),
)


def _paths(node, prefix):
    """Every value position below ``node`` as a key/index path."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


@pytest.mark.parametrize("name", ["E1", "E2", "E3", "E4", "E5", "gap_toy"])
@given(data=st.data())
def test_mutated_shipped_documents_exit_0_or_2(tmp_path_factory, name, data):
    """Replace one value of a shipped document (a leaf or a whole subtree,
    drawn field by field so the small fields such as the cones are hit as
    often as the long sample arrays) with a value of the wrong kind: the
    CLI answers (exit 0) or refuses with a message (exit 2), never with a
    traceback."""
    doc = json.loads((data_dir() / f"{name}.json").read_text())
    field = data.draw(st.sampled_from(sorted(doc)), label="field")
    path = data.draw(
        st.sampled_from([(field,)] + list(_paths(doc[field], (field,))))
        if isinstance(doc[field], (dict, list))
        else st.just((field,)),
        label="path",
    )
    bad = tmp_path_factory.mktemp("fuzz") / f"{name}.json"
    bad.write_text(json.dumps(_with(doc, path, data.draw(_REPLACEMENTS, label="value"))))
    y = json.dumps([0] * doc["dims"]["m"])
    for argv in (["conjugate", str(bad)], ["farkas", str(bad), "--index", "1", "--y", y]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        assert rc in (0, 2), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if rc == 2:
            assert out.getvalue() == "" and err.getvalue().strip()
