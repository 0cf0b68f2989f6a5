"""End-to-end checks of the command-line interface: frozen outputs, exit
codes, and byte-identical reports across worker counts."""
import contextlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import weakfront
import weakfront.cli as cli
from weakfront.cli import main
from weakfront.cones import LinOp
from weakfront.instances import cone_from_literal, data_dir, dump_json, load_instance

# A child interpreter imports the package under test, installed or not.
_SRC = str(Path(weakfront.__file__).resolve().parents[1])
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH")))),
}


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


BAD_BUDGETS = [
    (["--box", "-1"], "argument --box: must be nonnegative, got -1"),
    (["--step", "0"], "argument --step: must be positive, got 0"),
    (["--l-box", "-1"], "argument --l-box: must be nonnegative, got -1"),
    (["--l-box", "1", "--l-step", "0"], "argument --l-step: must be positive, got 0"),
    # a negative fraction is a value, not an option
    (["--step", "-1/2"], "argument --step: must be positive, got -1/2"),
    (["--step=-1/2"], "argument --step: must be positive, got -1/2"),
    (["--l-box", "-3/4"], "argument --l-box: must be nonnegative, got -3/4"),
    # decode_number's own message, under the flag's name
    (["--box", "abc"], "argument --box: bad rational literal 'abc'"),
    (["--l-step", "1/0"], "argument --l-step: bad rational literal '1/0'"),
    (["--box", "nan"], "argument --box: bad rational literal 'nan'"),
    (["--step", "-inf"], "argument --step: bad rational literal '-inf'"),
    (["--l-s", "-1/2"], "argument --l-step: must be positive, got -1/2"),
]
BAD_BUDGET_IDS = [
    "box-1", "step0", "l-box-1", "l-step0", "step-1/2", "step=-1/2",
    "l-box-3/4", "box-abc", "l-step-1/0", "box-nan", "step-inf", "l-s-1/2",
]


@pytest.mark.parametrize("flags,message", BAD_BUDGETS, ids=BAD_BUDGET_IDS)
@pytest.mark.parametrize(
    "query",
    [
        ["farkas", "--index", "3", "--y", "[100]"],  # found: a hint qualifies
        ["farkas", "--index", "3", "--y", "[-100]"],  # not found
        ["dual"],
    ],
    ids=["farkas-found", "farkas-not-found", "dual"],
)
def test_malformed_budgets_are_refused_naming_the_flag(
    capsys, e1, query, flags, message
):
    rc, out, err = run(capsys, [query[0], e1, *query[1:], *flags])
    assert (rc, out) == (2, "")
    assert err.endswith(f"error: {message}\n")


@pytest.mark.parametrize(
    "flags,box,step",
    [(["--box", "5001"], "t_box 5001", "t_step 1"),
     (["--l-box", "1", "--l-step", "1/20000"], "l_box 1", "l_step 1/20000")],
    ids=["box5001", "l-step-1/20000"],
)
def test_a_runaway_budget_grid_is_refused_before_it_is_built(capsys, e1, flags, box, step):
    rc, out, err = run(capsys, ["dual", e1, *flags])
    assert (rc, out) == (2, "")
    assert err == (
        f"input error: {box} with {step} makes a grid of more than 10001 "
        "values per entry\n"
    )


_RUNAWAY = [
    (["dual", "--which", "VD3", "--l-box", "2"], "49,218,750", 2, "126 * 625^2"),
    (["farkas", "--index", "3", "--y", "[0,0]", "--l-box", "2"], "49,218,750", 2, "126 * 625^2"),
    (["dual", "--which", "VD2", "--l-box", "6"], "3,598,686", 1, "126 * 28,561^1"),
    (["farkas", "--y", "[0,0]", "--box", "30"], "13,845,874", 0, "13,845,874 * 2^0"),
]


@pytest.mark.parametrize(
    "argv, items, power, product", _RUNAWAY, ids=["VD3", "farkas-3", "VD2", "farkas-1"]
)
def test_a_runaway_certificate_budget_is_refused_before_any_search(
    capsys, monkeypatch, argv, items, power, product
):
    """A budget of more than ``MAX_CERTIFICATES`` items at the condition's
    index is refused with its size, and no search starts.  E3's T budget
    counts the grid's 3^4 matrices and the 45 hints off it (at --box 30,
    61^4 and the 33 hints with a half entry); its L budget counts
    (2·l_box + 1)^4 matrices, its hint and zero among them, or at l_box 0
    its hint and zero."""
    monkeypatch.setattr(cli, "dual_value", _no_search)
    monkeypatch.setattr(cli, "script_A_membership", _no_search)
    rc, out, err = run(capsys, [argv[0], str(data_dir() / "E3.json"), *argv[1:]])
    assert (rc, out) == (2, "")
    assert err == (
        f"input error: the certificate budget offers up to {items} items "
        f"(|T| * |L|^{power} <= {product}), more than 2,000,000; "
        "lower --box or --l-box\n"
    )


def _no_search(*args):
    raise AssertionError("a search started")


class _Searched(Exception):
    pass


def _searched(*args):
    raise _Searched


@pytest.mark.parametrize("cap, searched", [(826_686, True), (826_685, False)])
def test_the_heaviest_pinned_call_sits_at_its_count(capsys, monkeypatch, cap, searched):
    """``dual E3.json --which VD3 --l-box 1`` counts 126 * 81^2 = 826,686
    items: a cap of that many lets its search start, one fewer refuses it."""
    monkeypatch.setattr(cli, "MAX_CERTIFICATES", cap)
    monkeypatch.setattr(cli, "dual_value", _searched)
    argv = ["dual", str(data_dir() / "E3.json"), "--which", "VD3", "--l-box", "1"]
    if searched:
        with pytest.raises(_Searched):
            main(argv)
    else:
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (2, "") and "826,686 items" in err


@pytest.mark.parametrize("name", ["E1", "E2", "E3", "E4", "E5", "gap_toy"])
def test_budget_sizes_count_without_drawing(name):
    """``_budget_size`` is the length of a split-operator budget and at
    least that of a positive-operator budget, on every shipped instance,
    at boxes 0 and 1 with steps 1 and 1/2, and at box 2/3 with step 1/3,
    whose grid leaves off every hint with an entry 1/2 or 1."""
    P = load_instance(data_dir() / f"{name}.json")
    for box, step in ((0, 1), (1, 1), (1, Fraction(1, 2)), (Fraction(2, 3), Fraction(1, 3))):
        cfg = P.search_config(t_box=box, t_step=step, l_box=box, l_step=step)
        n_L = len(list(cfg.linop_budget(P.m, P.n)))
        n_T = len(list(cfg.posop_budget(P.S, P.K)))
        assert cli._budget_size(P.hints_L, LinOp.zero(P.m, P.n), box, step) == n_L
        assert cli._budget_size(P.hints_T, LinOp.zero(P.m, P.p), box, step) >= n_T


def test_the_command_line_reads_a_negative_fraction_as_a_value(e1):
    argv = ["farkas", e1, "--y", "[1]", "--step", "-1/2"]
    proc = subprocess.run(
        [sys.executable, "-m", "weakfront.cli", *argv],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.endswith(
        "error: argument --step: must be positive, got -1/2\n"
    )


def test_the_package_runs_as_a_module():
    proc = subprocess.run(
        [sys.executable, "-m", "weakfront", "--help"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: ")


def test_importing_the_cli_does_not_load_numpy():
    code = "import sys, weakfront.cli; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_verify_keeps_its_suite_choices(capsys):
    from weakfront.cli import SUITE_NAMES
    from weakfront.suites import _SUITES

    assert SUITE_NAMES == tuple(_SUITES)
    rc, out, err = run(capsys, ["verify", "nope"])
    assert (rc, out) == (2, "")
    assert err.endswith(
        "error: argument suite: invalid choice: 'nope' (choose from "
        + ", ".join(repr(n) for n in SUITE_NAMES)
        + ")\n"
    )


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


def _renamed(doc, path, new):
    """A copy of ``doc`` with the key at ``path`` renamed to ``new``, or
    with ``new`` added under ``path[:-1]`` when ``path[-1]`` is None."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[new] = node.pop(path[-1]) if path[-1] is not None else 1
    return doc


_DOC = ("an instance document", "C, F, G, K, S, dims, domain, flags, format, hints, kind")
# A lost key would drop its data unnoticed: without hints the budget is
# bare, which changes the strong-duality verdict.
_E2_MISSPELLINGS = [
    (("hints",), "hint", *_DOC),
    (("flags",), "flag", *_DOC),
    (("K", "generators"), "generator", "'K'", "generators, interior_witness, normals"),
    ((None,), "note", *_DOC),
    (("dims", None), "q", "'dims'", "n, m, p"),
]


@pytest.mark.parametrize(
    "path,new,where,keys", _E2_MISSPELLINGS, ids=[m[1] for m in _E2_MISSPELLINGS]
)
def test_unknown_document_keys_are_refused_naming_the_key(
    capsys, tmp_path, e2, path, new, where, keys
):
    bad = tmp_path / "E2_bad.json"
    bad.write_text(json.dumps(_renamed(json.loads(open(e2).read()), path, new)))
    rc, out, err = run(capsys, ["dual", str(bad), "--which", "VD2"])
    assert (rc, out) == (2, "")
    assert err == f"input error: unknown key {new!r} in {where} (expected one of {keys})\n"


def test_a_repeated_c_index_is_refused(capsys, tmp_path, e2):
    bad = tmp_path / "E2_bad.json"
    bad.write_text(json.dumps(_with(json.loads(open(e2).read()), ("C",), [0, 0, 1, 2])))
    rc, out, err = run(capsys, ["dual", str(bad), "--which", "VD2"])
    assert (rc, out) == (2, "")
    assert err == "input error: C index 0 is repeated\n"

def test_an_s_without_generators_and_an_empty_feasible_set_name_their_keys(
    capsys, tmp_path, e1
):
    """An S that lists no generators is refused naming S, and an instance
    whose G is positive everywhere names the keys of the feasible set."""
    doc = json.loads(open(e1).read())
    nogen = _with(doc, ("S",), {"normals": [[1]], "interior_witness": [1]})
    infeasible = _with(doc, ("G",), [[1]] * len(doc["G"]))
    for bad_doc, want in (
        (nogen, "input error: domain cone 'S' has no generators to certify on\n"),
        (infeasible, "infeasible instance: instance violates the standing "
         "assumption: no feasible sample point lies in dom F (no point x of "
         "'C' with -'G'(x) in 'S' is a sample point of 'F')\n"),
    ):
        bad = tmp_path / "E1_bad.json"
        bad.write_text(json.dumps(bad_doc))
        for argv in (["dual", str(bad)], ["farkas", str(bad), "--y", "[0]"]):
            rc, out, err = run(capsys, argv)
            assert (rc, out, err) == (2, "", want)


_QUADRANT = {"normals": [[1, 0], [0, 1]], "interior_witness": [1, 1]}
_SKEWED = {"normals": [[1, 0], [-1, 2]], "interior_witness": [1, 1]}


@pytest.mark.parametrize(
    "S, ray", [(_QUADRANT, "[1, 0]"), (_SKEWED, "[2, 1]")], ids=["quadrant", "skewed"]
)
def test_simplicial_cone_missing_an_extreme_ray_is_refused(capsys, tmp_path, S, ray):
    # Listing only (0, 1) for the quadrant would certify T = [[-1, 0]] as
    # positive and put the dual frontier above the primal one.  The missing
    # ray is printed as the primitive integer vector the cone stores.
    doc = json.loads((data_dir() / "E5.json").read_text())
    bad = tmp_path / "E5_bad.json"
    bad.write_text(json.dumps(_with(doc, ("S",), dict(S, generators=[[0, 1]]))))
    for argv in (
        ["farkas", str(bad), "--L", '[["3/2"]]', "--y", "[1]"],
        ["dual", str(bad), "--L", '[["3/2"]]'],
    ):
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (2, "")
        assert err == f"input error: 'S' generators miss the extreme ray {ray}\n"


# The quadrant given with the redundant normal (1, 1), so its normals are
# not a square matrix.
_REDUNDANT = {"normals": [[0, 1], [1, 0], [1, 1]], "interior_witness": [1, 1]}


@pytest.mark.parametrize("key", ["S", "K"])
@pytest.mark.parametrize(
    "gens, ray", [([[1, 0]], "[0, 1]"), ([[0, 1], [1, 1]], "[1, 0]")], ids=["x", "y"]
)
def test_a_planar_cone_with_a_redundant_normal_missing_a_ray_is_refused(
    capsys, tmp_path, key, gens, ray
):
    """E3 with S (or K) given as the quadrant plus a redundant normal: with
    a generator list that misses a ray, every command that loads it exits 2
    naming that ray (at S, listing only (1, 0) had let T = [[0, -1], [0, 1]]
    pass as positive, though it maps (0, 1) out of K); with both rays, and
    a generator that is not extreme beside them, the instance answers as E3
    does (the dual merge, which needs a simplicial K, only at S)."""
    doc = json.loads((data_dir() / "E3.json").read_text())
    bad = tmp_path / "E3_bad.json"
    bad.write_text(json.dumps(_with(doc, (key,), dict(_REDUNDANT, generators=gens))))
    for argv in (
        ["dual", str(bad), "--which", "VD1"],
        ["farkas", str(bad), "--y", "[0, 0]"],
        ["conjugate", str(bad)],
    ):
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (2, "")
        assert err == f"input error: {key!r} generators miss the extreme ray {ray}\n"
    good = tmp_path / "E3_redundant.json"
    full = dict(_REDUNDANT, generators=[[1, 1], [0, 1], [1, 0]])
    good.write_text(json.dumps(_with(doc, (key,), full)))
    queries = [["farkas", "--index", "2", "--y", "[0, 0]"], ["conjugate"]]
    if key == "S":
        queries += [["dual", "--which", "VD1"], ["dual", "--which", "VD2"]]
    for cmd, *flags in queries:
        want = run(capsys, [cmd, str(data_dir() / "E3.json"), *flags])
        assert run(capsys, [cmd, str(good), *flags]) == want
        assert want[0] == 0


def test_a_half_plane_keeps_its_generator_list():
    """A half-plane is not pointed: it has no extreme ray to check, so its
    generator list is taken as given."""
    K = cone_from_literal(
        {"normals": [[1, 1]], "generators": [[1, -1]], "interior_witness": [1, 0]}
    )
    assert K.generators == ((1, -1),)


# Values that compare equal to the expected ones in Python but are the
# wrong JSON type.
_E1_MUTATIONS = [
    (("format",), True, "'format' must be the integer 1, got true"),
    (("format",), 1.0, "'format' must be the integer 1, got 1.0"),
    (("flags", "is_convex_C"), "no", "flag 'is_convex_C' must be true or false, got \"no\""),
    (("flags", "is_linear_F"), 0, "flag 'is_linear_F' must be true or false, got 0"),
    (("flags", "is_linear_G"), None, "flag 'is_linear_G' must be true or false, got null"),
    (
        ("flags", "is_convex_c"),
        True,
        "unknown flag 'is_convex_c' (expected one of is_linear_F, is_linear_G, "
        "is_convex_C, slater_point)",
    ),
    (("hints",), {"t": [[[1]]]}, "unknown hints key 't' (expected 'T' or 'L')"),
    (("hints",), {"T": [[[-1]]]}, "hints['T'][0] = [[-1]] maps a generator of S outside K"),
    *(
        (("hints",), {"T": value}, "hints['T'] must be an array of matrices")
        for value in (False, 0, "", {}, None)
    ),
]


@pytest.mark.parametrize(
    "path,value,message",
    _E1_MUTATIONS,
    ids=[f"{m[0][-1]}={json.dumps(m[1])}" for m in _E1_MUTATIONS],
)
def test_malformed_e1_is_refused_with_its_own_message(capsys, tmp_path, e1, path, value, message):
    bad = tmp_path / "E1_bad.json"
    bad.write_text(json.dumps(_with(json.loads(open(e1).read()), path, value)))
    for argv in (
        ["conjugate", str(bad)],
        ["farkas", str(bad), "--y", "[0]"],
        ["dual", str(bad)],
    ):
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
        env=CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["frontier"]["generators"] == [[1]]


def test_json_decimals_are_the_fractions_they_spell(capsys, tmp_path, e1):
    doc = json.loads(open(e1).read())
    doc["F"][0] = [0.1]
    path = tmp_path / "E1_decimal.json"
    path.write_text(json.dumps(doc))
    P = load_instance(path)
    assert P.F.value(P.F.pointset.points[0]) == (Fraction(1, 10),)
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
