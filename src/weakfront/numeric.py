"""Exact vector/matrix helpers on plain tuples of ints and Fractions.

All engine data lives in immutable tuples of exact numbers.  The JSON codec
at the bottom is the only place other number types are read: it decodes
every document number to a ``Fraction``.  Past it, :func:`require_exact`
guards the places where a caller's numbers enter the engine.  The engine
turns exact numbers into integers in one way only, :func:`cleared`, which
reads each entry once and returns the scale and the integers at it (and,
through it, :func:`primitive`).  Cones, operators, point sets and the
inverses of normal matrices are cleared by it once, when built, and keep
that form; a sampled map is cleared once too, its points as one point set
and its values apart, each at its own scale.  One query point is cleared
once per call that reads it; a batch of query points is cleared as
:mod:`weakfront.staircase2d` describes.  Past that boundary the
certificate search and the dual merge run on integers up to their output.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence, Union

Number = Union[int, Fraction]
Vec = tuple
Mat = tuple  # tuple of row tuples


class DimensionError(ValueError):
    """Operands whose dimensions do not agree."""


def require_exact(v: Sequence, what: str) -> None:
    """Refuse a vector with an entry that is not an int or a Fraction."""
    for x in v:
        if not isinstance(x, (int, Fraction)):
            raise ValueError(
                f"{what} {tuple(v)!r} has the entry {x!r}, "
                "which is not an int or a Fraction"
            )


def vec_sub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vec_neg(a: Vec) -> Vec:
    return tuple(-x for x in a)


def vec_scale(t: Number, a: Vec) -> Vec:
    return tuple(t * x for x in a)


def dot(a: Vec, b: Vec) -> Number:
    if len(a) != len(b):
        raise ValueError(f"dot of vectors of lengths {len(a)} and {len(b)}")
    return sum(map(mul, a, b))


def mat_vec(m: Mat, v: Vec) -> Vec:
    return tuple(dot(row, v) for row in m)


# --- clearing denominators --------------------------------------------------

def cleared(entries: Iterable[Number], den: int = 1) -> tuple:
    """(d, [d·c for each entry c]): d the lcm of ``den`` and the reduced
    denominators of the entries, each entry read once (``as_integer_ratio``)."""
    ratios = [c.as_integer_ratio() for c in entries]
    d = math.lcm(den, *{q for _, q in ratios})
    return d, [p * (d // q) for p, q in ratios]


def chunked(flat: Sequence, n: int, count: int) -> list:
    """The first ``count`` consecutive n-tuples of ``flat`` (n may be 0):
    vectors of one length cleared as one flat batch, read back."""
    return [tuple(flat[i * n : i * n + n]) for i in range(count)]


def primitive(v: Sequence[Number]) -> tuple:
    """The primitive integer multiple of a nonzero exact vector: its
    positive multiple with integer entries of gcd 1."""
    ints = cleared(v)[1]
    g = math.gcd(*ints)
    return tuple([c // g for c in ints])


# --- JSON number codec ------------------------------------------------------
#
# Numbers serialize as int (when integral) or "p/q" strings.  This keeps
# instance files readable and round-trip exact.

def encode_number(x: Number):
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, int):
        return x
    raise TypeError(f"cannot encode {x!r}")


def decode_number(raw) -> Fraction:
    """A document number as a Fraction: ints, "p/q" strings, and JSON floats
    through their decimal form, so a JSON ``0.1`` means 1/10 rather than
    the binary float it parses to."""
    if isinstance(raw, bool):
        raise ValueError(f"not a number: {raw!r}")
    if isinstance(raw, str):
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError) as e:
            raise ValueError(f"bad rational literal {raw!r}") from e
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, float):
        if not math.isfinite(raw):
            raise ValueError(f"non-finite number: {raw!r}")
        return Fraction(str(raw))
    raise ValueError(f"not a number: {raw!r}")


def encode_vec(v: Vec) -> list:
    return [encode_number(x) for x in v]


def decode_vec(raw) -> Vec:
    if not isinstance(raw, (list, tuple)):
        raise ValueError(f"vector expected, got {raw!r}")
    return tuple(decode_number(x) for x in raw)


def encode_mat(m: Mat) -> list:
    return [encode_vec(r) for r in m]


def decode_mat(raw) -> Mat:
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ValueError(f"matrix expected, got {raw!r}")
    rows = tuple(decode_vec(r) for r in raw)
    if len({len(r) for r in rows}) != 1:
        raise ValueError("ragged matrix")
    return rows
