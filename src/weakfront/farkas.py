"""The vector inequality (alpha) and the verification and conversion of
certificates for its three layered certificate conditions.

(alpha) says: every feasible sample point x (x in C with G(x) in -S) has
F(x) - L(x) + y outside -int K.  A certificate for condition i is a set of
operators whose recomputed value set W leaves y outside W - int K; finding
one proves (alpha), and a verified certificate together with a false
(alpha) would falsify the implementation, not the data — that combination
aborts with a reproducer.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .cones import DimensionError, LinOp, PosOp
from .numeric import Number, encode_mat
from .order_sets import GenSet, RegionLabel, Tag
from .conjugate import Certificate, EmptyFeasibleSet, beta_value_set, epi_membership

__all__ = [
    "Certificate",
    "EmptyFeasibleSet",
    "FarkasQuery",
    "HardFailure",
    "alpha_holds",
    "convert_certificate",
    "encode_certificate",
    "kept_value_set",
    "verify_certificate",
]

KEPT_VALUE_SETS = 1_024  # the most certificate value sets kept_value_set keeps


class HardFailure(RuntimeError):
    """A verified certificate coexists with a false (alpha): the
    implementation contradicts weak duality.  Carries a reproducer dict."""

    def __init__(self, message: str, reproducer: dict):
        super().__init__(message)
        self.reproducer = reproducer


class FarkasQuery:
    """One (L, y) query against condition ``index``."""

    __slots__ = ("L", "y", "index")

    def __init__(self, L: LinOp, y: Sequence[Number], index: int):
        if index not in (1, 2, 3):
            raise ValueError("query index must be 1, 2 or 3")
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "y", tuple(y))
        object.__setattr__(self, "index", index)

    def __setattr__(self, name, value):
        raise AttributeError("FarkasQuery is immutable")

    def __repr__(self) -> str:
        return f"FarkasQuery(index={self.index}, y={self.y!r})"


def alpha_holds(P, L: LinOp, y: Sequence[Number]) -> bool:
    """Exhaustively decide (alpha), i.e. (L, y) in epi (F + I_A)*: no x in
    A ∩ dom F has F(x) - L(x) + y strictly inside -K.  Off-sample points of
    F are +inf and never violate, so this is the epigraph test on
    ``P.feasible_F``, F on the feasible rows that the instance tables kept
    at construction.
    """
    y = tuple(y)
    K = P.K
    if L.rows != K.dim or L.cols != P.F.in_dim or len(y) != K.dim:
        raise DimensionError("alpha_holds: dimensions disagree")
    return epi_membership(P.feasible_F, L, y, K)


@lru_cache(maxsize=KEPT_VALUE_SETS)
def kept_value_set(P, L: LinOp, c: Certificate) -> GenSet:
    """The certificate's value set W at the perturbation L, rebuilt from the
    instance data by :func:`beta_value_set` once per distinct key and kept
    in one LRU cache of ``KEPT_VALUE_SETS`` entries.

    W depends on the instance, L and the operators (index, T, L', L'') alone,
    which is the key: P by identity (an instance is immutable, and the
    cache's own reference keeps its identity from being reused), L and c by
    value (certificates are equal when their operators are).  So a
    certificate checked against many points y is rebuilt once.  It does not
    check T's positivity; :func:`verify_certificate` does, on every call.
    ``beta_value_set`` itself keeps nothing.
    """
    return beta_value_set(c.index, P, L, c.T, Lp=c.Lp, Lpp=c.Lpp)


def verify_certificate(P, q: FarkasQuery, c: Certificate) -> bool:
    """Check both clauses of the certificate against the instance data: its
    value set is FINITE and y is not strictly below it.

    The positivity of T is re-established against the instance's cones on
    every call, so a forged operator raises at reconstruction, before the
    value set is looked up.  The value set is rebuilt from the instance data
    once per (P, L, operators) and kept (:func:`kept_value_set`); y is
    classified against it on every call.
    """
    if c.index != q.index:
        raise ValueError(
            f"certificate index {c.index} does not match query index {q.index}"
        )
    PosOp(c.T.op, P.S, P.K)  # re-validates positivity
    W = kept_value_set(P, q.L, c)
    if W.tag is not Tag.FINITE:
        return False
    return W.classify(q.y) is not RegionLabel.LOWER


def convert_certificate(
    P, L: LinOp, c: Certificate, target: int
) -> Certificate:
    """Convert a certificate toward a smaller index (3 -> 2 -> 1) by dropping
    split operators: 3 -> 2 drops L'', merging I_C into the T∘G block, and
    2 -> 1 drops L', merging F in as well.  The converted certificate
    qualifies every point the original did, because merging splits tightens
    the value set.  Conversion needs neither P nor L; they are kept for the
    callers, which pass the whole query.
    """
    if target not in (1, 2, 3):
        raise ValueError("target index must be 1, 2 or 3")
    if target > c.index:
        raise ValueError("certificates only convert toward smaller indices")
    if target == c.index:
        return c
    return Certificate(target, c.T, c.Lp if target >= 2 else None)


def encode_certificate(c: Certificate) -> dict:
    """A certificate's operators as a JSON object: ``index``, ``T``, and the
    split operators ``Lp`` / ``Lpp`` where its index has them."""
    doc = {"index": c.index, "T": encode_mat(c.T.op.entries)}
    if c.Lp is not None:
        doc["Lp"] = encode_mat(c.Lp.entries)
    if c.Lpp is not None:
        doc["Lpp"] = encode_mat(c.Lpp.entries)
    return doc
