"""Command-line front end.

Loads JSON problem data, runs one computation or one verification suite,
and emits a canonical report: JSON documents carry ``"format": 1`` and are
printed with sorted keys, CSV tables open with a ``format,1`` row.  Output
depends only on the inputs, the seed and the flags, never on timing or
worker count.

Exit codes: 0 when the value was computed or every suite check passed
(a NOT_FOUND certificate search is still a computed answer), 1 when a
verified property failed (the reproducer goes to stderr), 2 for input
errors -- unreadable or malformed files, dimension mismatches, and
infeasible instances each carry their own message.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Optional, Sequence

from .cones import DimensionError, LinOp
from .conjugate import conjugate, script_A_membership
from .duality import dual_value
from .farkas import EmptyFeasibleSet, HardFailure, encode_certificate, kept_value_set
from .instances import (
    InstanceFormatError,
    dump_json,
    load_instance,
    load_points,
)
from .numeric import decode_mat, decode_number, decode_vec, encode_mat, encode_vec
from .order_sets import Tag, wsup_finite

# The verify suites, named here so that parsing the command line does not
# import weakfront.suites, which loads numpy.
SUITE_NAMES = (
    "decomposition",
    "wsum",
    "psi",
    "basic-lemmas",
    "representation",
    "farkas",
    "weak-duality",
    "strong-duality",
    "scalar-regression",
)


def _parse_operator(text: str, rows: int, cols: int, what: str) -> LinOp:
    """An operator flag: the literal ``zero`` or a JSON matrix."""
    if text == "zero":
        return LinOp.zero(rows, cols)
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(
            f"{what} must be 'zero' or a JSON matrix, got {text!r}"
        ) from e
    op = LinOp(decode_mat(raw))
    if (op.rows, op.cols) != (rows, cols):
        raise DimensionError(
            f"{what} must be {rows}x{cols}, got {op.rows}x{op.cols}"
        )
    return op


def _parse_point(text: str, dim: int, what: str) -> tuple:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"{what} must be a JSON vector, got {text!r}") from e
    y = decode_vec(raw)
    if len(y) != dim:
        raise DimensionError(f"{what} must have {dim} entries, got {len(y)}")
    return y


# The most certificate items a farkas or dual search may offer, as counted
# by _search_config; the heaviest pinned call (dual E3.json --which VD3
# --l-box 1) counts 126 * 81^2 = 826,686, of which its search draws 400,221.
MAX_CERTIFICATES = 2_000_000


def _search_config(P, args, index: int):
    """The search config of the budget flags, after refusing a budget of
    more than ``MAX_CERTIFICATES`` items at condition ``index``: at most
    |T budget| · |L budget|^(index - 1), counted without drawing either."""
    cfg = P.search_config(
        t_box=args.box, t_step=args.step, l_box=args.l_box, l_step=args.l_step
    )
    t = _budget_size(P.hints_T, LinOp.zero(P.m, P.p), args.box, args.step)
    ell = _budget_size(P.hints_L, LinOp.zero(P.m, P.n), args.l_box, args.l_step)
    items = t * ell ** (index - 1)
    if items > MAX_CERTIFICATES:
        raise ValueError(
            f"the certificate budget offers up to {items:,} items "
            f"(|T| * |L|^{index - 1} <= {t:,} * {ell:,}^{index - 1}), "
            f"more than {MAX_CERTIFICATES:,}; lower --box or --l-box"
        )
    return cfg


def _budget_size(hints, zero: LinOp, box, step) -> int:
    """How many operators a budget of ``zero``'s shape offers at most: its
    distinct hints and zero, then, when box > 0, the (2·⌊box/step⌋ + 1)^k
    matrices of the grid (k entries each) less those of the hints and zero
    that lie on it.  Exact for a split-operator budget; the
    positive-operator budget keeps only the grid's positive matrices."""
    head = {*hints, zero}
    if not box:
        return len(head)
    on_grid = sum(
        all(abs(e) <= box and e / step % 1 == 0 for row in h.entries for e in row)
        for h in head
    )
    return (2 * (box // step) + 1) ** (zero.rows * zero.cols) + len(head) - on_grid


def _encode_genset(W) -> dict:
    doc = {"tag": W.tag.name, "orient": W.orient.name}
    if W.tag is Tag.FINITE:
        doc["generators"] = [encode_vec(p) for p in W.generators.points]
    return doc


def _encode_certificate(P, L, c) -> dict:
    """A certificate's operators and its value set W, rebuilt from P and the
    perturbation L once per certificate (:func:`kept_value_set`)."""
    W = kept_value_set(P, L, c)
    return {**encode_certificate(c), "value_set": _encode_genset(W)}


def _cmd_wsup(args) -> int:
    M, K = load_points(args.set_file)
    if K is None:
        raise InstanceFormatError(
            f"{args.set_file} carries no cone 'K'; the weak supremum needs one"
        )
    queries, _ = load_points(args.query_file)
    if queries.dim != M.dim:
        raise DimensionError(
            f"query points have dimension {queries.dim}, set has {M.dim}"
        )
    S = wsup_finite(M, K)
    ys = queries.points
    labels = S.classify_many(ys)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["format", "1"])
    writer.writerow([f"y{i + 1}" for i in range(M.dim)] + ["label"])
    for y, lab in zip(ys, labels):
        writer.writerow(encode_vec(y) + [lab.name])
    sys.stdout.write(out.getvalue())
    return 0


def _cmd_conjugate(args) -> int:
    P = load_instance(args.instance)
    L = _parse_operator(args.L, P.m, P.n, "--L")
    W = conjugate(P.F, L, P.K)
    doc = {
        "format": 1,
        "kind": "conjugate",
        "L": encode_mat(L.entries),
        "value": _encode_genset(W),
    }
    sys.stdout.write(dump_json(doc))
    return 0


def _cmd_farkas(args) -> int:
    P = load_instance(args.instance)
    L = _parse_operator(args.L, P.m, P.n, "--L")
    y = _parse_point(args.y, P.m, "--y")
    cfg = _search_config(P, args, args.index)
    cert = script_A_membership(args.index, P, L, y, cfg)
    doc = {
        "format": 1,
        "kind": "farkas",
        "index": args.index,
        "L": encode_mat(L.entries),
        "y": encode_vec(y),
        "found": cert is not None,
    }
    if cert is not None:
        doc["certificate"] = _encode_certificate(P, L, cert)
    else:
        doc["status"] = "NOT_FOUND"
    sys.stdout.write(dump_json(doc))
    return 0


def _cmd_dual(args) -> int:
    P = load_instance(args.instance)
    L = _parse_operator(args.L, P.m, P.n, "--L")
    cfg = _search_config(P, args, int(args.which[-1]))
    d = dual_value(P, args.which, L, cfg)
    doc = {
        "format": 1,
        "kind": "dual",
        "which": d.which,
        "L": encode_mat(L.entries),
        "frontier": _encode_genset(d.frontier),
        "attained": [
            {"point": encode_vec(p), "certificate": _encode_certificate(P, L, c)}
            for p, c in d.certificates
        ],
    }
    sys.stdout.write(dump_json(doc))
    return 0


def _cmd_verify(args) -> int:
    from .suites import report_text, run_suite  # loads numpy: verify only

    report = run_suite(
        args.suite, seed=args.seed, trials=args.trials, jobs=args.jobs
    )
    sys.stdout.write(report_text(report))
    if report["passed"]:
        return 0
    sys.stderr.write(dump_json(report))
    return 1


def _budget_number(text: str):
    try:
        return decode_number(text)
    except ValueError as e:  # argparse would name the type function instead
        raise argparse.ArgumentTypeError(str(e)) from e


def _box(text: str):
    """A grid half-width flag: a nonnegative number."""
    box = _budget_number(text)
    if box < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text}")
    return box


def _step(text: str):
    """A grid spacing flag: a positive number."""
    step = _budget_number(text)
    if step <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return step


_BUDGET_FLAGS = ("--box", "--step", "--l-box", "--l-step")


def _attach_negative_budgets(argv: Sequence[str]) -> list:
    """argparse reads a token such as ``-1/2`` as an option rather than a
    value, so a budget flag (or an abbreviation of one) followed by a token
    with one leading dash is passed on as ``--step=-1/2``, which reaches
    the flag's own check."""
    out: list = []
    for arg in argv:
        flag = out[-1] if out else ""
        budget = len(flag) > 2 and any(f.startswith(flag) for f in _BUDGET_FLAGS)
        if budget and arg.startswith("-") and not arg.startswith("--"):
            out[-1] = f"{flag}={arg}"
        else:
            out.append(arg)
    return out


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="weakfront",
        description="Exact set-valued duality toolkit: weak suprema, "
        "conjugates, certificates, dual values, verification suites.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_budget(p):
        p.add_argument(
            "--box",
            type=_box,
            default=1,
            metavar="B",
            help="half-width of the positive-operator entry grid (default 1)",
        )
        p.add_argument(
            "--step",
            type=_step,
            default=1,
            metavar="S",
            help="spacing of the positive-operator entry grid (default 1)",
        )
        p.add_argument(
            "--l-box",
            type=_box,
            default=0,
            metavar="B",
            help="half-width of the split-operator entry grid "
            "(default 0: hints and zero only)",
        )
        p.add_argument(
            "--l-step",
            type=_step,
            default=1,
            metavar="S",
            help="spacing of the split-operator entry grid (default 1)",
        )

    p = sub.add_parser(
        "wsup",
        help="label query points against the weak supremum of a point set",
    )
    p.add_argument("set_file", help="JSON set document with a cone 'K'")
    p.add_argument("query_file", help="JSON set document of query points")
    p.set_defaults(func=_cmd_wsup)

    p = sub.add_parser(
        "conjugate", help="conjugate of the objective at a perturbation"
    )
    p.add_argument("instance", help="JSON instance file")
    p.add_argument(
        "--L", default="zero", help="perturbation: 'zero' or a JSON matrix"
    )
    p.set_defaults(func=_cmd_conjugate)

    p = sub.add_parser(
        "farkas",
        help="search a certificate for one of the layered conditions",
    )
    p.add_argument("instance", help="JSON instance file")
    p.add_argument(
        "--index", type=int, choices=(1, 2, 3), default=1, help="condition"
    )
    p.add_argument(
        "--L", default="zero", help="perturbation: 'zero' or a JSON matrix"
    )
    p.add_argument("--y", required=True, help="query point: JSON vector")
    add_budget(p)
    p.set_defaults(func=_cmd_farkas)

    p = sub.add_parser("dual", help="exact dual frontier of an instance")
    p.add_argument("instance", help="JSON instance file")
    p.add_argument(
        "--which", choices=("VD1", "VD2", "VD3"), default="VD1", help="dual"
    )
    p.add_argument(
        "--L", default="zero", help="perturbation: 'zero' or a JSON matrix"
    )
    add_budget(p)
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("verify", help="run one verification suite")
    p.add_argument("suite", choices=SUITE_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--trials",
        type=int,
        default=None,
        help="randomized-unit count (suites of fixed units ignore this)",
    )
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.set_defaults(func=_cmd_verify)

    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parser().parse_args(_attach_negative_budgets(argv))
    try:
        return args.func(args)
    except HardFailure as e:
        sys.stderr.write(f"property violated: {e}\n")
        sys.stderr.write(
            dump_json({"format": 1, "reproducer": e.reproducer})
        )
        return 1
    except InstanceFormatError as e:
        sys.stderr.write(f"input error: {e}\n")
        return 2
    except EmptyFeasibleSet as e:
        sys.stderr.write(f"infeasible instance: {e}\n")
        return 2
    except DimensionError as e:
        sys.stderr.write(f"dimension mismatch: {e}\n")
        return 2
    except (ValueError, OSError) as e:
        sys.stderr.write(f"input error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
