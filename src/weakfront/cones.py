"""Polyhedral cone geometry: membership classification, the weak order, and
positive operators.

A cone is given by facet normals (H-representation, ``K = {y : a_i.y >= 0}``)
plus generators and a strict interior witness.  Cones must be solid (nonempty
interior, certified by the witness) and proper (not the whole space).  All
data is exact (ints and Fractions), and all classification against a cone
reduces to exact signs of normal products.
"""

from __future__ import annotations

import enum
import itertools
from fractions import Fraction
from typing import Iterator, Sequence

from weakfront.numeric import (
    Mat,
    Number,
    Vec,
    dot,
    mat_add,
    mat_neg,
    mat_sub,
    mat_vec,
    require_exact,
    vec_sub,
    zero_mat,
)
from weakfront.staircase2d import RayBasis


class DimensionError(ValueError):
    """Operands whose dimensions do not agree."""


class PositivityError(ValueError):
    """An operator claimed positive maps some generator of S outside K."""


class PointClass(enum.Enum):
    INTERIOR = "INTERIOR"
    BOUNDARY = "BOUNDARY"
    OUTSIDE = "OUTSIDE"


def _unit_scale(v: Vec) -> Vec:
    """Scale a nonzero vector so its largest absolute entry is 1."""
    big = max(abs(c) for c in v)
    if big == 0:
        raise ValueError("zero vector cannot be scaled")
    return tuple(Fraction(c) / big for c in v)


class Cone:
    """Solid closed convex polyhedral cone in R^dim.

    Normals and generators are canonicalized at construction (scaled to unit
    max-entry, sorted, deduplicated) so that equal cones compare equal and
    serialize identically.
    """

    __slots__ = ("dim", "normals", "generators", "interior_witness", "_basis")

    def __init__(
        self,
        normals: Sequence[Vec],
        generators: Sequence[Vec] = (),
        interior_witness: Vec | None = None,
    ):
        if not normals:
            raise ValueError("cone needs at least one normal")
        dims = {len(a) for a in normals} | {len(g) for g in generators}
        if interior_witness is not None:
            dims.add(len(interior_witness))
        if len(dims) != 1:
            raise DimensionError("cone data of mixed dimensions")
        self.dim = dims.pop()
        if self.dim < 1:
            raise ValueError("cone dimension must be positive")
        for a in normals:
            require_exact(a, "cone normal")
            if all(c == 0 for c in a):
                raise ValueError("zero normal")
        self.normals = tuple(sorted(set(_unit_scale(tuple(a)) for a in normals)))
        if interior_witness is None:
            raise ValueError("cone needs an interior witness (solid cones only)")
        self.interior_witness = tuple(interior_witness)
        require_exact(self.interior_witness, "interior witness")
        for a in self.normals:
            if not dot(a, self.interior_witness) > 0:
                raise ValueError(
                    "interior witness is not strictly inside the cone"
                )
        gens = []
        for g in generators:
            require_exact(g, "cone generator")
            if all(c == 0 for c in g):
                continue
            gens.append(_unit_scale(tuple(g)))
        for g in gens:
            for a in self.normals:
                if dot(a, g) < 0:
                    raise ValueError(
                        f"generator {g} violates normal {a} (H/V inconsistency)"
                    )
        self.generators = tuple(sorted(set(gens)))

    @classmethod
    def orthant(cls, dim: int) -> "Cone":
        """The nonnegative orthant of R^dim."""
        eye = [
            tuple(Fraction(1 if i == j else 0) for j in range(dim))
            for i in range(dim)
        ]
        return cls(eye, eye, (Fraction(1),) * dim)

    @property
    def basis(self) -> RayBasis:
        """The facet coordinates of the cone, derived on first use and kept;
        they carry an inverse only when the cone is simplicial."""
        try:
            return self._basis
        except AttributeError:
            self._basis = RayBasis.for_cone(self)
            return self._basis

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cone)
            and self.dim == other.dim
            and self.normals == other.normals
            and self.generators == other.generators
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.normals, self.generators))

    def __repr__(self) -> str:
        return f"Cone(dim={self.dim}, normals={len(self.normals)})"


def classify_point(K: Cone, y: Vec) -> PointClass:
    """Place y relative to K: strictly inside, on the boundary, or outside.

    Exactly one label: INTERIOR iff every normal product is positive,
    OUTSIDE iff some normal product is negative, BOUNDARY otherwise.
    """
    if len(y) != K.dim:
        raise DimensionError(f"point of dim {len(y)} vs cone of dim {K.dim}")
    all_strict = True
    for a in K.normals:
        d = dot(a, y)
        if d < 0:
            return PointClass.OUTSIDE
        if not d > 0:
            all_strict = False
    return PointClass.INTERIOR if all_strict else PointClass.BOUNDARY


def in_cone(K: Cone, y: Vec) -> bool:
    return classify_point(K, y) is not PointClass.OUTSIDE


def weak_less(K: Cone, y1: Vec, y2: Vec) -> bool:
    """The weak order: y1 <_K y2 iff y1 - y2 lies in -int K."""
    return classify_point(K, vec_sub(y2, y1)) is PointClass.INTERIOR


class LinOp:
    """Dense linear map R^cols -> R^rows as an immutable exact matrix."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Mat):
        rows = tuple(tuple(r) for r in entries)
        if not rows or not rows[0]:
            raise ValueError("empty matrix")
        if len({len(r) for r in rows}) != 1:
            raise ValueError("ragged matrix")
        for r in rows:
            require_exact(r, "matrix entry")
        self.entries = rows
        self.rows = len(rows)
        self.cols = len(rows[0])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "LinOp":
        return cls(zero_mat(rows, cols))

    def apply(self, x: Vec) -> Vec:
        if len(x) != self.cols:
            raise DimensionError(
                f"operator expects dim {self.cols}, got {len(x)}"
            )
        return mat_vec(self.entries, x)

    def __call__(self, x: Vec) -> Vec:
        return self.apply(x)

    def _same_shape(self, other: "LinOp") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError("operator shapes differ")

    def __add__(self, other: "LinOp") -> "LinOp":
        self._same_shape(other)
        return LinOp(mat_add(self.entries, other.entries))

    def __sub__(self, other: "LinOp") -> "LinOp":
        self._same_shape(other)
        return LinOp(mat_sub(self.entries, other.entries))

    def __neg__(self) -> "LinOp":
        return LinOp(mat_neg(self.entries))

    def __eq__(self, other) -> bool:
        return isinstance(other, LinOp) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"LinOp({[list(r) for r in self.entries]})"


class PosOp:
    """A LinOp certified to map the cone S into the cone K.

    The certificate is checked on construction: every generator of S must land
    inside K (sound and complete since S is the conic hull of its generators
    and K is convex).
    """

    __slots__ = ("op", "domain_cone", "range_cone")

    def __init__(self, op: LinOp, domain_cone: Cone, range_cone: Cone):
        if op.cols != domain_cone.dim or op.rows != range_cone.dim:
            raise DimensionError(
                f"operator {op.rows}x{op.cols} does not map "
                f"dim {domain_cone.dim} to dim {range_cone.dim}"
            )
        if not domain_cone.generators:
            raise PositivityError("domain cone has no generators to certify on")
        for g in domain_cone.generators:
            if classify_point(range_cone, op.apply(g)) is PointClass.OUTSIDE:
                raise PositivityError(
                    f"image of generator {g} falls outside the range cone"
                )
        self.op = op
        self.domain_cone = domain_cone
        self.range_cone = range_cone

    def apply(self, z: Vec) -> Vec:
        return self.op.apply(z)

    def __call__(self, z: Vec) -> Vec:
        return self.op.apply(z)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PosOp)
            and self.op == other.op
            and self.domain_cone == other.domain_cone
            and self.range_cone == other.range_cone
        )

    def __hash__(self) -> int:
        return hash((self.op, self.domain_cone, self.range_cone))

    def __repr__(self) -> str:
        return f"PosOp({self.op!r})"


def is_positive_operator(T: LinOp, S: Cone, K: Cone) -> bool:
    """True iff T maps every generator of S into K."""
    if T.cols != S.dim or T.rows != K.dim:
        raise DimensionError(
            f"operator {T.rows}x{T.cols} does not map dim {S.dim} to dim {K.dim}"
        )
    if not S.generators:
        raise ValueError("cone S has no generators")
    return all(
        classify_point(K, T.apply(g)) is not PointClass.OUTSIDE
        for g in S.generators
    )


def grid_values(box: Number, step: Number) -> tuple:
    """Symmetric grid {-box, ..., -step, 0, step, ...} clipped to [-box, box].

    Built from the nonnegative side and mirrored, so 0 is always present.
    """
    if box <= 0 or step <= 0:
        raise ValueError("box and step must be positive")
    pos = []
    v = step
    while v <= box:
        pos.append(v)
        v = v + step
    return tuple([-x for x in reversed(pos)] + [0] + pos)


def sample_positive_operators(
    S: Cone, K: Cone, box: Number, step: Number
) -> Iterator[PosOp]:
    """All grid matrices in L+(S,K) with entries in the symmetric grid.

    Deterministic ascending (lexicographic over flattened entries); the zero
    operator always appears.
    """
    vals = grid_values(box, step)
    shape = (K.dim, S.dim)
    for flat in itertools.product(vals, repeat=shape[0] * shape[1]):
        entries = tuple(
            flat[i * shape[1] : (i + 1) * shape[1]] for i in range(shape[0])
        )
        T = LinOp(entries)
        if is_positive_operator(T, S, K):
            yield PosOp(T, S, K)


def sample_linops(rows: int, cols: int, box: Number, step: Number) -> Iterator[LinOp]:
    """All grid matrices of the given shape, ascending; includes zero."""
    vals = grid_values(box, step)
    for flat in itertools.product(vals, repeat=rows * cols):
        yield LinOp(tuple(flat[i * cols : (i + 1) * cols] for i in range(rows)))
