"""Polyhedral cone geometry: membership classification, the weak order, and
positive operators.

A cone is given by facet normals (H-representation, ``K = {y : a_i.y >= 0}``)
plus generators and a strict interior witness.  Cones must be solid (nonempty
interior, certified by the witness) and proper (not the whole space).  Both
lists are stored once, as primitive integer vectors, so every test against a
cone is an exact sign of an integer product, and equal cones compare equal.
An operator is stored once too, cleared as (d, d·M) (:class:`LinOp`).
"""

from __future__ import annotations

import enum
import itertools
import math
from fractions import Fraction
from operator import mul
from typing import Container, Iterator, Sequence

from weakfront.numeric import (
    DimensionError, Mat, Number, Vec, chunked, cleared, dot, primitive, require_exact,
)
from weakfront.staircase2d import RayBasis


class PositivityError(ValueError):
    """An operator claimed positive maps some generator of S outside K."""


class PointClass(enum.Enum):
    INTERIOR = "INTERIOR"
    BOUNDARY = "BOUNDARY"
    OUTSIDE = "OUTSIDE"


class Cone:
    """Solid closed convex polyhedral cone in R^dim.

    Normals and generators are canonicalized at construction to their
    primitive integer multiples, sorted and deduplicated, so that equal
    cones compare equal and every sign test against them runs on integers.
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
        self.normals = tuple(sorted(set(primitive(a) for a in normals)))
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
            gens.append(primitive(g))
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
        eye = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
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


class LinOp:
    """Dense linear map R^cols -> R^rows, stored once as its cleared form.

    The form is (d, d·M): d the lcm of the denominators of the entries of
    the exact matrix M, and d·M an integer matrix.  It is unique for each
    matrix, so equality and hashing follow it; ``+``, ``-`` and unary ``-``
    combine forms in integers, and :attr:`entries` reads M back on demand.
    """

    __slots__ = ("rows", "cols", "_cleared")

    def __init__(self, entries: Mat):
        rows = tuple(tuple(r) for r in entries)
        if not rows or not rows[0]:
            raise ValueError("empty matrix")
        if len({len(r) for r in rows}) != 1:
            raise ValueError("ragged matrix")
        for r in rows:
            require_exact(r, "matrix entry")
        self.rows, self.cols = len(rows), len(rows[0])
        d, flat = cleared(itertools.chain.from_iterable(rows))
        self._cleared = (d, tuple(chunked(flat, self.cols, self.rows)))

    @classmethod
    def _from_ints(cls, d: int, M: list) -> "LinOp":
        """M/d for an integer matrix M, reduced by one gcd to its cleared form."""
        g = math.gcd(d, *itertools.chain(*M))
        op = object.__new__(cls)
        op.rows, op.cols = len(M), len(M[0])
        op._cleared = (d // g, tuple(tuple([c // g for c in r]) for r in M))
        return op

    @classmethod
    def zero(cls, rows: int, cols: int) -> "LinOp":
        return cls._from_ints(1, [[0] * cols] * rows)

    def cleared(self) -> tuple:
        """(d, d·M), d the lcm of the denominators of M's entries."""
        return self._cleared

    @property
    def entries(self) -> Mat:
        """The exact matrix M, as ``Fraction`` rows."""
        d, M = self._cleared
        return tuple(tuple([Fraction(c, d) for c in r]) for r in M)

    def __add__(self, other: "LinOp") -> "LinOp":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("operator shapes differ")
        (d1, A), (d2, B) = self._cleared, other._cleared
        d = math.lcm(d1, d2)
        a, b = d // d1, d // d2
        M = [[a * p + b * q for p, q in zip(r, s)] for r, s in zip(A, B)]
        return LinOp._from_ints(d, M)

    def __sub__(self, other: "LinOp") -> "LinOp":
        return self + -other

    def __neg__(self) -> "LinOp":
        d, M = self._cleared
        return LinOp._from_ints(d, [[-c for c in r] for r in M])

    def __eq__(self, other) -> bool:
        return isinstance(other, LinOp) and self._cleared == other._cleared

    def __hash__(self) -> int:
        return hash(self._cleared)

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
        if not is_positive_operator(op, domain_cone, range_cone):
            raise PositivityError(
                "operator maps a generator of the domain cone outside the "
                "range cone"
            )
        self.op = op
        self.domain_cone = domain_cone
        self.range_cone = range_cone

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
    """True iff T maps every generator of S into K, tested in integers as
    N_K·(d·T)·R_S >= 0 entrywise: N_K is ``K.normals``, d the common
    denominator of T and R_S is ``S.generators``.  A cone S without
    generators has nothing to certify on and raises PositivityError."""
    if T.cols != S.dim or T.rows != K.dim:
        raise DimensionError(
            f"operator {T.rows}x{T.cols} does not map dim {S.dim} to dim {K.dim}"
        )
    if not S.generators:
        raise PositivityError("domain cone 'S' has no generators to certify on")
    NT = facet_matrix(K.normals, T, T.cleared()[0])
    return all(sum(map(mul, row, r)) >= 0 for r in S.generators for row in NT)


def facet_matrix(N: Sequence[tuple], T: LinOp, d: int) -> tuple:
    """The integer matrix N·(d·T) = (d/e)·N·(e·T), T cleared as (e, e·T), e | d."""
    e, M = T.cleared()
    s, cols = d // e, list(zip(*M))
    return tuple(tuple(s * sum(map(mul, a, col)) for col in cols) for a in N)


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
    S: Cone, K: Cone, box: Number, step: Number, skip: Container = ()
) -> Iterator[PosOp]:
    """The grid matrices of :func:`sample_linops` that lie in L+(S,K), in
    its ascending order, each tested once; the matrices in ``skip`` are
    passed over untested, and the zero operator appears unless skipped.
    A cone S without generators raises at once, rather than failing every
    matrix's test."""
    if not S.generators:
        raise PositivityError("domain cone 'S' has no generators to certify on")
    for op in sample_linops(K.dim, S.dim, box, step):
        if op in skip:
            continue
        try:
            T = PosOp(op, S, K)
        except PositivityError:
            continue
        yield T


def sample_linops(rows: int, cols: int, box: Number, step: Number) -> Iterator[LinOp]:
    """All grid matrices of the given shape, ascending; includes zero.  The
    grid is cleared once, and each matrix is built from its integers."""
    d, vals = cleared(grid_values(box, step))
    for flat in itertools.product(vals, repeat=rows * cols):
        yield LinOp._from_ints(d, [flat[i * cols : (i + 1) * cols] for i in range(rows)])
