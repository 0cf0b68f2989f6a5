"""Byte-for-byte CLI outputs on the shipped instances.

Each case runs one ``weakfront`` subcommand in-process and compares its
stdout with the file of the same name under ``tests/golden/``.  The files
pin the behaviour of the certificate search, the dual merge (also on the
split-operator grid ``--l-box 1``, and with a fractional perturbation on
half-step grids), the conjugate and the weak-supremum labeller: a refactor
of any of them must reproduce them exactly.  The ``wsup`` cases read their
set and query documents from ``tests/golden/inputs/``: a skewed planar cone
(a simplicial cone), a four-facet cone in R^3 (a non-simplicial cone), and a
half-plane, whose set in thirds has lineality ties and whose queries in
halves include points on the frontier.  Two ``dual`` cases read an instance
from there too: E4's data under a skewed cone, whose normal matrix has a
nontrivial inverse, and two more under a sheared cone, whose normal matrix
is not symmetric.
Regenerate them (only when a change of output is intended) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from weakfront.cli import main
from weakfront.instances import data_dir

GOLDEN = Path(__file__).parent / "golden"

# (instance, L, y, indices): one certified and one NOT_FOUND query where the
# instance has both; gap_toy's L=[[1]], y=[0] certifies at index 1 only.
_FARKAS = (
    ("E1", "[[1]]", "[0]", (1, 2, 3)),
    ("E1", "[[1]]", "[-2]", (1, 2, 3)),
    ("E2", "[[1],[-1]]", "[1,-3]", (1, 2, 3)),
    ("E3", "[[1,0],[0,1]]", "[0,0]", (1, 2, 3)),
    ("E3", "[[1,0],[0,1]]", "[-1,-1]", (2,)),
    ("E4", "[[1],[1]]", "[0,0]", (1, 2, 3)),
    ("E4", "[[1],[1]]", "[-2,-2]", (1, 2, 3)),
    ("E5", "[[1]]", "[0]", (1, 2, 3)),
    ("gap_toy", "[[1]]", "[0]", (1, 2, 3)),
)
_DUAL_INSTANCES = ("E1", "E2", "E3", "E4", "E5", "gap_toy")
# (instance, dual) run on the split-operator grid --l-box 1, where the merge
# joins many certificates' frontiers; E3's VD3 is the heaviest budget
# (400,221 items).
_DUAL_SPLIT = (("E4", "VD3"), ("E3", "VD2"), ("E3", "VD3"))
# (instance, nonzero L); each instance also runs at --L zero.  E5's L is a
# JSON float, read through its decimal form.
_CONJUGATE = (
    ("E1", "[[1]]"),
    ("E2", "[[1],[-1]]"),
    ("E3", "[[1,2],[0,-1]]"),
    ("E4", "[[1],[2]]"),
    ("E5", "[[0.5]]"),
    ("gap_toy", "[[2]]"),
)
_WSUP = ("skew2d", "pyramid3d", "halfplane")
# (golden file stem, flags) run on E4's data under the skewed cone with
# normals [[2,-1],[-1,2]] (tests/golden/inputs/dual_skew_instance.json):
# its N^-1 is not the identity, so these pin the mapping of the merged
# generators back to points, each with three attained points.
_DUAL_SKEW = (
    ("dual_skew_VD3", ("--which", "VD3", "--L", '[["1/2"],[2]]')),
    (
        "dual_skew_VD2_lbox1",
        ("--which", "VD2", "--L", '[[2],["-1/2"]]', "--l-box", "1"),
    ),
)
# The same flags also run, as dual_shear_*, on E4's data under the sheared
# cone with normals [[1,0],[-1,2]] (tests/golden/inputs/dual_shear_instance.json),
# whose N is not symmetric: a transpose of N^-1 in the mapping back changes them.
# (golden file stem, command, instance, flags) run with a fractional --L on
# half-step grids for T and the split operators: they pin L - L' - L''
# across mixed denominators, the frontier scale and the printing of
# fractional certificate entries.
_HALF_STEP = ("--step", "1/2", "--l-box", "1", "--l-step", "1/2")
_FRACTIONAL_L = '[["1/2"],["-1/3"]]'
_FRACTIONAL = (
    ("farkas_E2_i3_frac", "farkas", "E2", ("--index", "3", "--y", "[1,-3]")),
    ("farkas_E4_i3_frac", "farkas", "E4", ("--index", "3", "--y", '[-4,"1/2"]')),
    ("dual_E2_VD3_frac", "dual", "E2", ("--which", "VD3")),
    ("dual_E4_VD3_frac", "dual", "E4", ("--which", "VD3")),
)


def _slug(text: str) -> str:
    return text.replace("[", "").replace("]", "").replace(",", "_")


def cases() -> list:
    """(golden file name, argv) for every pinned CLI call."""
    out = []
    for name, L, y, indices in _FARKAS:
        path = str(data_dir() / f"{name}.json")
        for i in indices:
            out.append(
                (
                    f"farkas_{name}_i{i}_L{_slug(L)}_y{_slug(y)}.json",
                    ["farkas", path, "--index", str(i), "--L", L, "--y", y],
                )
            )
    for name in _DUAL_INSTANCES:
        path = str(data_dir() / f"{name}.json")
        for which in ("VD1", "VD2", "VD3"):
            out.append(
                (f"dual_{name}_{which}.json", ["dual", path, "--which", which, "--L", "zero"])
            )
    for name, which in _DUAL_SPLIT:
        path = str(data_dir() / f"{name}.json")
        out.append(
            (
                f"dual_{name}_{which}_lbox1.json",
                ["dual", path, "--which", which, "--l-box", "1", "--L", "zero"],
            )
        )
    for name, L in _CONJUGATE:
        path = str(data_dir() / f"{name}.json")
        for op in ("zero", L):
            out.append(
                (f"conjugate_{name}_L{_slug(op)}.json", ["conjugate", path, "--L", op])
            )
    for stem, command, name, flags in _FRACTIONAL:
        path = str(data_dir() / f"{name}.json")
        out.append(
            (
                f"{stem}.json",
                [command, path, *flags, "--L", _FRACTIONAL_L, *_HALF_STEP],
            )
        )
    for cone in ("skew", "shear"):
        path = str(GOLDEN / "inputs" / f"dual_{cone}_instance.json")
        for stem, flags in _DUAL_SKEW:
            out.append((f"{stem.replace('skew', cone)}.json", ["dual", path, *flags]))
    for name in _WSUP:
        out.append(
            (
                f"wsup_{name}.csv",
                [
                    "wsup",
                    str(GOLDEN / "inputs" / f"wsup_{name}_set.json"),
                    str(GOLDEN / "inputs" / f"wsup_{name}_queries.json"),
                ],
            )
        )
    return out


def run_cli(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, f"weakfront {' '.join(argv)} exited {code}"
    return buf.getvalue()


@pytest.mark.parametrize(
    "fname,argv", cases(), ids=[c[0].rsplit(".", 1)[0] for c in cases()]
)
def test_cli_output_matches_golden(fname, argv):
    assert run_cli(argv) == (GOLDEN / fname).read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for fname, argv in cases():
        (GOLDEN / fname).write_text(run_cli(argv))
        sys.stdout.write(f"wrote {fname}\n")
