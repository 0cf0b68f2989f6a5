"""Shipped problem instances: JSON schema, loaders, and analytic builders.

Instance documents are versioned JSON ("format": 1).  Two kinds exist:

* ``instance`` — full problem data (dims, cones K and S, a sampled domain,
  parallel F/G value arrays with null for off-domain points, the constraint
  index list C, operator hints, structural flags).
* ``pair`` — two maps F1/F2 on a shared domain under one cone, with split
  hints; used by the conjugate-of-a-sum checks.

Numbers serialize exactly: integers as JSON ints, non-integers as "p/q"
strings; a plain JSON decimal such as 0.1 is read as the fraction it spells
(1/10).  The builders at the bottom construct the shipped instances from
closed-form data, each with the operator hints that make its certificate
searches complete; ``write_shipped_data`` regenerates the JSON files under
``data/`` from the builders, so file and builder can be cross-checked.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence, Tuple

from .cones import Cone, LinOp
from .conjugate import SampledMap
from .duality import ProblemInstance
from .numeric import decode_mat, decode_vec, encode_mat, encode_vec
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


def cone_to_literal(K: Cone) -> dict:
    return {
        "normals": encode_mat(K.normals),
        "generators": encode_mat(K.generators) if K.generators else [],
        "interior_witness": encode_vec(K.interior_witness),
    }


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
        return Cone(normals, generators, witness)
    except InstanceFormatError:
        raise
    except ValueError as e:
        raise InstanceFormatError(f"bad cone literal for {what!r}: {e}") from e


def _decode_hints(raw) -> Tuple[Tuple[LinOp, ...], Tuple[LinOp, ...]]:
    if raw is None:
        return (), ()
    if not isinstance(raw, dict):
        raise InstanceFormatError("'hints' must be an object")
    out = []
    for key in ("T", "L"):
        mats = raw.get(key) or []
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


def _decode_flags(raw) -> dict:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise InstanceFormatError("'flags' must be an object")
    flags = dict(raw)
    if flags.get("slater_point") is not None:
        try:
            flags["slater_point"] = decode_vec(flags["slater_point"])
        except ValueError as e:
            raise InstanceFormatError(f"bad slater_point: {e}") from e
    return flags


# --- instance documents --------------------------------------------------------------


def instance_to_json(P: ProblemInstance) -> dict:
    """Serialize a problem instance to the versioned document form."""
    domain = sorted(set(P.F.domain()) | set(P.G.domain()) | set(P.C))
    fvals = [P.F.value(x) for x in domain]
    gvals = [P.G.value(x) for x in domain]
    index = {x: i for i, x in enumerate(domain)}
    flags = dict(P.flags)
    if flags.get("slater_point") is not None:
        flags["slater_point"] = encode_vec(tuple(flags["slater_point"]))
    return {
        "format": 1,
        "kind": "instance",
        "dims": {"n": P.n, "m": P.m, "p": P.p},
        "K": cone_to_literal(P.K),
        "S": cone_to_literal(P.S),
        "domain": [encode_vec(x) for x in domain],
        "F": [None if v is None else encode_vec(v) for v in fvals],
        "G": [None if v is None else encode_vec(v) for v in gvals],
        "C": [index[x] for x in P.C],
        "hints": {
            "T": [encode_mat(h.entries) for h in P.hints_T],
            "L": [encode_mat(h.entries) for h in P.hints_L],
        },
        "flags": flags,
    }


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


def pair_to_json(pair: MapPair) -> dict:
    domain = pair.F1.domain()
    return {
        "format": 1,
        "kind": "pair",
        "dims": {"n": pair.F1.in_dim, "m": pair.F1.out_dim},
        "K": cone_to_literal(pair.K),
        "domain": [encode_vec(x) for x in domain],
        "F1": [encode_vec(pair.F1.value(x)) for x in domain],
        "F2": [encode_vec(pair.F2.value(x)) for x in domain],
        "hints": {"L": [encode_mat(h.entries) for h in pair.hints_L]},
        "name": pair.name,
    }


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
    _check_hint_shapes(hints_L, "L", F1.out_dim, F1.in_dim, "m x n")
    return MapPair(F1, F2, K, hints_L, str(doc.get("name", "")))


# --- point-set documents (inputs for the frontier subcommand) ------------------------


def points_to_json(M: FiniteVecSet, K: Optional[Cone] = None) -> dict:
    doc = {"format": 1, "kind": "set", "points": [encode_vec(p) for p in M.points]}
    if K is not None:
        doc["K"] = cone_to_literal(K)
    return doc


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


def save_instance(P: ProblemInstance, path) -> None:
    Path(path).write_text(dump_json(instance_to_json(P)))


def save_pair(pair: MapPair, path) -> None:
    Path(path).write_text(dump_json(pair_to_json(pair)))


def data_dir() -> Path:
    """Directory of the shipped instance files."""
    return Path(__file__).resolve().parent / "data"


def shipped_path(name: str) -> Path:
    """Path of a shipped document: E1..E5, gap_toy, or pairs/pairNN."""
    return data_dir() / f"{name}.json"


# --- shipped builders ----------------------------------------------------------------


def _half_grid(lo: int, hi: int) -> list:
    """Half-integer steps from lo to hi inclusive (endpoints integers)."""
    return [Fraction(k, 2) for k in range(2 * lo, 2 * hi + 1)]


def _scalar_domain(lo: int, hi: int) -> list:
    return [(t,) for t in _half_grid(lo, hi)]


def build_e1() -> ProblemInstance:
    """Scalar warm-up: minimize x subject to 1 - x <= 0 on [0, 2].

    Optimal value 1 at x = 1; the multiplier max(1 - l, 0) certifies every
    perturbation l, so the shipped multiplier hints make all searches and
    all three dual problems exact on perturbations down to -2.
    """
    dom = _scalar_domain(0, 2)
    F = SampledMap((x, x) for x in dom)
    G = SampledMap((x, (1 - x[0],)) for x in dom)
    K = Cone.orthant(1)
    hints_T = tuple(LinOp(((t,),)) for t in _half_grid(0, 3))
    hints_L = (LinOp(((Fraction(1),),)),)
    return ProblemInstance(
        F, G, dom, K, K,
        hints_T=hints_T, hints_L=hints_L,
        flags={
            "is_linear_F": True,
            "is_linear_G": True,
            "is_convex_C": True,
            "slater_point": (Fraction(2),),
        },
    )


def build_e2() -> ProblemInstance:
    """Bi-objective with an inactive constraint: minimize (x, 2 - x) under
    the orthant order subject to -x <= 0 on {0, 1, 2}.

    Every feasible point is weakly minimal, the zero operator already
    certifies the whole frontier, and strong duality holds at every
    perturbation — the sanity instance for the vector duals.
    """
    dom = [(Fraction(k),) for k in (0, 1, 2)]
    F = SampledMap((x, (x[0], 2 - x[0])) for x in dom)
    G = SampledMap((x, (-x[0],)) for x in dom)
    hints_T = (
        LinOp(((Fraction(0),), (Fraction(0),))),
        LinOp(((Fraction(1),), (Fraction(0),))),
        LinOp(((Fraction(0),), (Fraction(1),))),
    )
    hints_L = (LinOp(((Fraction(1),), (Fraction(-1),))),)
    return ProblemInstance(
        F, G, dom, Cone.orthant(2), Cone.orthant(1),
        hints_T=hints_T, hints_L=hints_L,
        flags={
            "is_linear_F": False,  # affine: F(0) != 0
            "is_linear_G": True,
            "is_convex_C": True,
            "slater_point": (Fraction(1),),
        },
    )


def build_e3() -> ProblemInstance:
    """Two independent scalar problems stacked: minimize (x1, x2) subject to
    (1 - x1, 1 - x2) <= 0 on the [0, 2]^2 half-integer grid.

    Separable, so diagonal multipliers diag(max(1-a, 0), max(1-b, 0))
    certify every diagonal perturbation diag(a, b); the shipped hints are
    that diagonal family.
    """
    grid = _half_grid(0, 2)
    dom = [(a, b) for a in grid for b in grid]
    F = SampledMap((x, x) for x in dom)
    G = SampledMap((x, (1 - x[0], 1 - x[1])) for x in dom)
    K = Cone.orthant(2)
    lam = _half_grid(0, 3)
    hints_T = tuple(
        LinOp(((u, Fraction(0)), (Fraction(0), v))) for u in lam for v in lam
    )
    eye = LinOp(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))))
    return ProblemInstance(
        F, G, dom, K, K,
        hints_T=hints_T, hints_L=(eye,),
        flags={
            "is_linear_F": True,
            "is_linear_G": True,
            "is_convex_C": True,
            "slater_point": (Fraction(2), Fraction(2)),
        },
    )


def build_e4() -> ProblemInstance:
    """One variable, two identical objectives: minimize (x, x) subject to
    1 - x <= 0 on [0, 2].

    The frontier is the single point (1, 1); componentwise multipliers
    (max(1-l1, 0), max(1-l2, 0)) certify every perturbation (l1; l2).
    """
    dom = _scalar_domain(0, 2)
    F = SampledMap((x, (x[0], x[0])) for x in dom)
    G = SampledMap((x, (1 - x[0],)) for x in dom)
    lam = _half_grid(0, 3)
    hints_T = tuple(LinOp(((u,), (v,))) for u in lam for v in lam)
    hints_L = (LinOp(((Fraction(1),), (Fraction(1),))),)
    return ProblemInstance(
        F, G, dom, Cone.orthant(2), Cone.orthant(1),
        hints_T=hints_T, hints_L=hints_L,
        flags={
            "is_linear_F": True,
            "is_linear_G": True,
            "is_convex_C": True,
            "slater_point": (Fraction(2),),
        },
    )


def build_e5() -> ProblemInstance:
    """Scalar objective, two-sided constraint: minimize x subject to
    1 - x <= 0 and x - 3 <= 0 on [0, 4].

    Feasible interval [1, 3]; the active multiplier switches sides with the
    perturbation — (max(1-l, 0), 0) below l = 1 and (0, l-1) above — so the
    hints span both constraint rows.
    """
    dom = _scalar_domain(0, 4)
    F = SampledMap((x, x) for x in dom)
    G = SampledMap((x, (1 - x[0], x[0] - 3)) for x in dom)
    lam = _half_grid(0, 3)
    hints_T = tuple(LinOp(((u, v),)) for u in lam for v in lam)
    hints_L = (LinOp(((Fraction(1),),)),)
    return ProblemInstance(
        F, G, dom, Cone.orthant(1), Cone.orthant(2),
        hints_T=hints_T, hints_L=hints_L,
        flags={
            "is_linear_F": True,
            "is_linear_G": True,
            "is_convex_C": True,
            "slater_point": (Fraction(2),),
        },
    )


def build_gap_toy() -> ProblemInstance:
    """Integer-feasible toy with a genuine duality gap: minimize x subject
    to 3/2 - x <= 0 on the integers {0, 1, 2, 3}.

    The primal value is 2 (the first feasible integer) but every multiplier
    bounds only 3/2, so the dual sticks at 3/2.  The gap is honest — the
    underlying index set is not convex, and the flags say so.
    """
    dom = [(Fraction(k),) for k in range(4)]
    F = SampledMap((x, x) for x in dom)
    G = SampledMap((x, (Fraction(3, 2) - x[0],)) for x in dom)
    K = Cone.orthant(1)
    hints_T = tuple(LinOp(((t,),)) for t in _half_grid(0, 2))
    return ProblemInstance(
        F, G, dom, K, K,
        hints_T=hints_T,
        flags={
            "is_linear_F": True,
            "is_linear_G": True,
            "is_convex_C": False,
        },
    )


_SHIPPED_BUILDERS = {
    "E1": build_e1,
    "E2": build_e2,
    "E3": build_e3,
    "E4": build_e4,
    "E5": build_e5,
    "gap_toy": build_gap_toy,
}

CONVEX_SHIPPED = ("E1", "E2", "E3", "E4", "E5")


def shipped_instance(name: str) -> ProblemInstance:
    """Build a shipped instance by name (E1..E5 or gap_toy)."""
    try:
        return _SHIPPED_BUILDERS[name]()
    except KeyError:
        raise KeyError(f"no shipped instance named {name!r}") from None


def _skew_cone() -> Cone:
    """A non-orthant solid pointed cone in the plane, with its rays."""
    return Cone(
        normals=((Fraction(1), Fraction(0)), (Fraction(-1), Fraction(2))),
        generators=((Fraction(0), Fraction(1)), (Fraction(2), Fraction(1))),
        interior_witness=(Fraction(1), Fraction(1)),
    )


def build_linear_pair(index: int) -> MapPair:
    """The index-th shipped linear pair (1..10): two affine maps on a shared
    grid, under the orthant for odd indices and a skewed planar cone for
    even ones.

    The shipped split hint is F1's own linear part A1: the first conjugate
    collapses to a translate of the cone frontier, so the summed bound is
    exactly the conjugate of F1 + F2 — the split search succeeds on every
    epigraph point.
    """
    if not 1 <= index <= 10:
        raise ValueError("pair index must be 1..10")
    rng = random.Random(977 * index + 11)
    n = 1 if index <= 5 else 2
    m = 2
    K = Cone.orthant(2) if index % 2 == 1 else _skew_cone()
    A1 = tuple(
        tuple(Fraction(rng.randint(-2, 2)) for _ in range(n)) for _ in range(m)
    )
    A2 = tuple(
        tuple(Fraction(rng.randint(-2, 2)) for _ in range(n)) for _ in range(m)
    )
    b1 = tuple(Fraction(rng.randint(-2, 2)) for _ in range(m))
    b2 = tuple(Fraction(rng.randint(-2, 2)) for _ in range(m))
    op1, op2 = LinOp(A1), LinOp(A2)
    if n == 1:
        dom = _scalar_domain(-2, 2)
    else:
        grid = [Fraction(k) for k in range(-2, 3)]
        dom = [(a, b) for a in grid for b in grid]
    F1 = SampledMap(
        (x, tuple(v + c for v, c in zip(op1.apply(x), b1))) for x in dom
    )
    F2 = SampledMap(
        (x, tuple(v + c for v, c in zip(op2.apply(x), b2))) for x in dom
    )
    return MapPair(F1, F2, K, hints_L=(op1,), name=f"pair{index:02d}")


def write_shipped_data(root=None) -> list:
    """(Re)write every shipped document under the data directory; returns
    the written paths.  Output is canonical, so reruns are idempotent."""
    base = Path(root) if root is not None else data_dir()
    (base / "pairs").mkdir(parents=True, exist_ok=True)
    written = []
    for name, builder in _SHIPPED_BUILDERS.items():
        path = base / f"{name}.json"
        save_instance(builder(), path)
        written.append(path)
    for i in range(1, 11):
        pair = build_linear_pair(i)
        path = base / "pairs" / f"{pair.name}.json"
        save_pair(pair, path)
        written.append(path)
    return written


if __name__ == "__main__":  # pragma: no cover
    for p in write_shipped_data():
        print(p)
