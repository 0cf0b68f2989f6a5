"""Shipped problem instances: the JSON schema and its loaders.

Instance documents are versioned JSON ("format": 1).  Three kinds exist:

* ``instance`` — full problem data (dims, cones K and S, a sampled domain,
  parallel F/G value arrays with null for off-domain points, the constraint
  index list C, operator hints, structural flags).
* ``pair`` — two maps F1/F2 on a shared domain under one cone, with split
  hints; used by the conjugate-of-a-sum checks.
* ``set`` — a point set, optionally with a cone K; the input of ``wsup``.

Numbers are exact: integers as JSON ints, non-integers as "p/q" strings; a
plain JSON decimal such as 0.1 is read as the fraction it spells (1/10).
The shipped documents under ``data/`` are the one source of the shipped
instances; ``data/README.md`` is their spec.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Sequence, Tuple

from .cones import Cone, LinOp, is_positive_operator
from .conjugate import SampledMap
from .duality import ProblemInstance
from .numeric import decode_mat, decode_vec, encode_mat, encode_vec, primitive
from .order_sets import FiniteVecSet


class InstanceFormatError(ValueError):
    """The document does not conform to the instance-file schema."""


# --- low-level helpers ---------------------------------------------------------------


def _require(doc: dict, key: str):
    if key not in doc:
        raise InstanceFormatError(f"missing required field {key!r}")
    return doc[key]


def _check_format(doc) -> dict:
    if not isinstance(doc, dict):
        raise InstanceFormatError("document must be a JSON object")
    fmt = _require(doc, "format")
    if isinstance(fmt, (bool, float)):  # true == 1.0 == 1 in Python
        raise InstanceFormatError(
            f"'format' must be the integer 1, got {json.dumps(fmt)}"
        )
    if fmt != 1:
        raise InstanceFormatError(f"unsupported format {fmt!r} (expected 1)")
    return doc


def _decode_points(raw, what: str) -> Tuple[tuple, ...]:
    if not isinstance(raw, list) or not raw:
        raise InstanceFormatError(f"{what!r} must be a nonempty array of points")
    try:
        return tuple(decode_vec(p) for p in raw)
    except ValueError as e:
        raise InstanceFormatError(f"bad point in {what!r}: {e}") from e


def cone_from_literal(raw, what: str = "cone") -> Cone:
    if not isinstance(raw, dict):
        raise InstanceFormatError(f"{what!r} must be an object")
    if "normals" not in raw:
        raise InstanceFormatError(f"{what!r} has no 'normals'")
    if "interior_witness" not in raw:
        raise InstanceFormatError(f"{what!r} has no 'interior_witness'")
    gens_raw = raw.get("generators", [])
    if not isinstance(gens_raw, list):
        raise InstanceFormatError(
            f"{what!r} generators must be an array of vectors, got "
            f"{json.dumps(gens_raw)}"
        )
    try:
        normals = decode_mat(raw["normals"])
        generators = tuple(decode_vec(g) for g in gens_raw)
        witness = decode_vec(raw["interior_witness"])
        K = Cone(normals, generators, witness)
    except InstanceFormatError:
        raise
    except ValueError as e:
        raise InstanceFormatError(f"bad cone literal for {what!r}: {e}") from e
    _check_extreme_rays(K, what)
    return K


def _check_extreme_rays(K: Cone, what: str) -> None:
    """Positive operators are certified on the listed generators only, so
    the generators of a simplicial cone must include each extreme ray (the
    columns of N^{-1}, read from its cleared form δ·N^{-1}).  Other
    generator lists are trusted as given."""
    if not K.generators or K.basis.inverse is None:
        return
    for column in zip(*K.basis.inverse[1]):
        ray = primitive(column)
        if ray not in K.generators:
            raise InstanceFormatError(
                f"{what!r} generators miss the extreme ray "
                f"{json.dumps(encode_vec(ray))}"
            )


def _decode_hints(raw) -> Tuple[Tuple[LinOp, ...], Tuple[LinOp, ...]]:
    if raw is None:
        return (), ()
    if not isinstance(raw, dict):
        raise InstanceFormatError("'hints' must be an object")
    for key in raw:
        if key not in ("T", "L"):
            raise InstanceFormatError(f"unknown hints key {key!r} (expected 'T' or 'L')")
    out = []
    for key in ("T", "L"):
        mats = raw.get(key, [])
        if not isinstance(mats, list):
            raise InstanceFormatError(f"hints[{key!r}] must be an array of matrices")
        try:
            out.append(tuple(LinOp(decode_mat(m)) for m in mats))
        except ValueError as e:
            raise InstanceFormatError(f"bad hint matrix under {key!r}: {e}") from e
    return out[0], out[1]


def _check_hint_shapes(hints, key: str, rows: int, cols: int, shape: str) -> None:
    """Hints of the wrong shape would drop out of every budget unnoticed."""
    for k, h in enumerate(hints):
        if (h.rows, h.cols) != (rows, cols):
            raise InstanceFormatError(
                f"hints[{key!r}][{k}] is {h.rows}x{h.cols}, expected "
                f"{rows}x{cols} ({shape})"
            )


# Every flag an instance may declare; all but slater_point are booleans.
_FLAGS = ("is_linear_F", "is_linear_G", "is_convex_C", "slater_point")


def _decode_flags(raw) -> dict:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise InstanceFormatError("'flags' must be an object")
    flags = dict(raw)
    for name in flags:
        if name not in _FLAGS:
            raise InstanceFormatError(
                f"unknown flag {name!r} (expected one of {', '.join(_FLAGS)})"
            )
    for name in _FLAGS[:-1]:
        if name in flags and not isinstance(flags[name], bool):
            raise InstanceFormatError(
                f"flag {name!r} must be true or false, got "
                f"{json.dumps(flags[name])}"
            )
    if flags.get("slater_point") is not None:
        try:
            flags["slater_point"] = decode_vec(flags["slater_point"])
        except ValueError as e:
            raise InstanceFormatError(f"bad slater_point: {e}") from e
    return flags


# --- instance documents --------------------------------------------------------------


def instance_from_json(doc) -> ProblemInstance:
    """Parse and validate an instance document into a ProblemInstance.

    Schema errors raise InstanceFormatError; dimensional inconsistencies and
    an empty feasible set surface as the engine's own exceptions.
    """
    doc = _check_format(doc)
    if doc.get("kind", "instance") != "instance":
        raise InstanceFormatError(
            f"expected an 'instance' document, got kind {doc.get('kind')!r}"
        )
    dims = _require(doc, "dims")
    if isinstance(dims, dict):
        for k in "nmp":
            if isinstance(dims.get(k), bool):
                raise InstanceFormatError(
                    f"dims.{k} is the boolean {json.dumps(dims[k])}, not an integer"
                )
    if (
        not isinstance(dims, dict)
        or not all(isinstance(dims.get(k), int) and dims[k] > 0 for k in "nmp")
    ):
        raise InstanceFormatError("'dims' must give positive integers n, m, p")
    K = cone_from_literal(_require(doc, "K"), "K")
    S = cone_from_literal(_require(doc, "S"), "S")
    domain = _decode_points(_require(doc, "domain"), "domain")
    raw_F = _require(doc, "F")
    raw_G = _require(doc, "G")
    for name, arr in (("F", raw_F), ("G", raw_G)):
        if not isinstance(arr, list) or len(arr) != len(domain):
            raise InstanceFormatError(f"{name!r} must parallel 'domain'")
    fsamples = [
        (x, decode_vec(v)) for x, v in zip(domain, raw_F) if v is not None
    ]
    gsamples = [
        (x, decode_vec(v)) for x, v in zip(domain, raw_G) if v is not None
    ]
    if not fsamples:
        raise InstanceFormatError("'F' has no finite samples")
    if not gsamples:
        raise InstanceFormatError("'G' has no finite samples")
    raw_C = _require(doc, "C")
    if not isinstance(raw_C, list) or not raw_C:
        raise InstanceFormatError("'C' must be a nonempty array of domain indices")
    C = []
    for i in raw_C:
        if isinstance(i, bool):
            raise InstanceFormatError(
                f"C index {json.dumps(i)} is a boolean, not a domain index"
            )
        if not isinstance(i, int) or not 0 <= i < len(domain):
            raise InstanceFormatError(f"C index {i!r} out of range")
        C.append(domain[i])
    hints_T, hints_L = _decode_hints(doc.get("hints"))
    flags = _decode_flags(doc.get("flags"))
    if dims["n"] != len(domain[0]):
        raise InstanceFormatError("dims.n disagrees with domain points")
    if dims["m"] != len(fsamples[0][1]) or dims["p"] != len(gsamples[0][1]):
        raise InstanceFormatError("dims.m/dims.p disagree with value arrays")
    _check_hint_shapes(hints_T, "T", dims["m"], dims["p"], "m x p")
    _check_hint_shapes(hints_L, "L", dims["m"], dims["n"], "m x n")
    for k, h in enumerate(hints_T):
        # a T hint outside L+(S, K) would fail every certificate search
        if not is_positive_operator(h, S, K):
            raise InstanceFormatError(
                f"hints['T'][{k}] = {json.dumps(encode_mat(h.entries))} maps "
                "a generator of S outside K"
            )
    slater = flags.get("slater_point")
    if slater is not None and len(slater) != dims["n"]:
        raise InstanceFormatError(
            f"slater_point has {len(slater)} entries, expected n={dims['n']}"
        )
    return ProblemInstance(
        SampledMap(fsamples),
        SampledMap(gsamples),
        C,
        K,
        S,
        hints_T=hints_T,
        hints_L=hints_L,
        flags=flags,
    )


# --- pair documents (two maps under one cone, with split hints) ----------------------


class MapPair:
    """Two sampled maps on a shared domain under one cone, plus the split
    hints that make the conjugate-of-a-sum search exact."""

    __slots__ = ("F1", "F2", "K", "hints_L", "name")

    def __init__(self, F1: SampledMap, F2: SampledMap, K: Cone,
                 hints_L: Sequence[LinOp] = (), name: str = ""):
        if F1.domain() != F2.domain():
            raise ValueError("pair maps must share their domain")
        if F1.out_dim != F2.out_dim or F1.out_dim != K.dim:
            raise ValueError("pair maps/cone dimensions disagree")
        object.__setattr__(self, "F1", F1)
        object.__setattr__(self, "F2", F2)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "hints_L", tuple(hints_L))
        object.__setattr__(self, "name", name)

    def __setattr__(self, name, value):
        raise AttributeError("MapPair is immutable")

    def summed(self) -> SampledMap:
        return self.F1.add(self.F2)


def pair_from_json(doc) -> MapPair:
    doc = _check_format(doc)
    if doc.get("kind") != "pair":
        raise InstanceFormatError(
            f"expected a 'pair' document, got kind {doc.get('kind')!r}"
        )
    K = cone_from_literal(_require(doc, "K"), "K")
    domain = _decode_points(_require(doc, "domain"), "domain")
    raw1, raw2 = _require(doc, "F1"), _require(doc, "F2")
    for name, arr in (("F1", raw1), ("F2", raw2)):
        if not isinstance(arr, list) or len(arr) != len(domain):
            raise InstanceFormatError(f"{name!r} must parallel 'domain'")
    F1 = SampledMap((x, decode_vec(v)) for x, v in zip(domain, raw1))
    F2 = SampledMap((x, decode_vec(v)) for x, v in zip(domain, raw2))
    _, hints_L = _decode_hints(doc.get("hints"))
    if "T" in (doc.get("hints") or {}):
        raise InstanceFormatError("pair documents take no hints['T']")
    _check_hint_shapes(hints_L, "L", F1.out_dim, F1.in_dim, "m x n")
    return MapPair(F1, F2, K, hints_L, str(doc.get("name", "")))


# --- point-set documents (inputs for the frontier subcommand) ------------------------


def points_from_json(doc) -> Tuple[FiniteVecSet, Optional[Cone]]:
    doc = _check_format(doc)
    if doc.get("kind", "set") != "set":
        raise InstanceFormatError(
            f"expected a 'set' document, got kind {doc.get('kind')!r}"
        )
    pts = _decode_points(_require(doc, "points"), "points")
    K = cone_from_literal(doc["K"], "K") if "K" in doc else None
    return FiniteVecSet(pts), K


# --- file I/O ------------------------------------------------------------------------


def _load_doc(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise InstanceFormatError(f"cannot read {path}: {e}") from e
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise InstanceFormatError(f"{path} is not valid JSON: {e}") from e


def load_instance(path) -> ProblemInstance:
    return instance_from_json(_load_doc(path))


def load_pair(path) -> MapPair:
    return pair_from_json(_load_doc(path))


def load_points(path) -> Tuple[FiniteVecSet, Optional[Cone]]:
    return points_from_json(_load_doc(path))


def dump_json(doc: dict) -> str:
    """Canonical text form: sorted keys, two-space indent, trailing newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def data_dir() -> Path:
    """Directory of the shipped instance files."""
    return Path(__file__).resolve().parent / "data"


# --- shipped documents ---------------------------------------------------------------

CONVEX_SHIPPED = ("E1", "E2", "E3", "E4", "E5")


def shipped_instance(name: str) -> ProblemInstance:
    """Load a shipped instance by name (E1..E5 or gap_toy)."""
    if name not in CONVEX_SHIPPED + ("gap_toy",):
        raise KeyError(f"no shipped instance named {name!r}")
    return load_instance(data_dir() / f"{name}.json")


def shipped_pair(index: int) -> MapPair:
    """Load the index-th shipped linear pair (1..10)."""
    if not 1 <= index <= 10:
        raise ValueError("pair index must be 1..10")
    return load_pair(data_dir() / "pairs" / f"pair{index:02d}.json")
