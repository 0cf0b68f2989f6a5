"""Exact vector/matrix helpers on plain tuples of ints and Fractions.

All engine data lives in immutable tuples of exact numbers.  The JSON codec
at the bottom is the only place other number types are read: it decodes
every document number to a ``Fraction``.  Past it, :func:`require_exact`
guards the places where a caller's numbers enter the engine.  The engine's
integer paths clear denominators only through :func:`common_denominator`,
:func:`scaled` and :func:`primitive`; cones, sampled maps, operators and
point sets are cleared through them once, when built, and keep that form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence, Union

Number = Union[int, Fraction]
Vec = tuple
Mat = tuple  # tuple of row tuples


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

def common_denominator(vecs: Iterable[Sequence[Number]]) -> int:
    """The lcm of the denominators of every entry of ``vecs``."""
    return math.lcm(*{c.denominator for v in vecs for c in v})


def scaled(v: Sequence[Number], den: int) -> tuple:
    """The integer vector den·v (den a multiple of every denominator)."""
    return tuple([c.numerator * (den // c.denominator) for c in v])


def primitive(v: Sequence[Number]) -> tuple:
    """The primitive integer multiple of a nonzero exact vector: its
    positive multiple with integer entries of gcd 1."""
    ints = scaled(v, common_denominator([v]))
    g = math.gcd(*ints)
    return tuple(c // g for c in ints)


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
