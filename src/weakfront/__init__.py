"""weakfront: exact calculus of weak suprema/infima under polyhedral cone orders.

The package computes weak suprema and infima of finite vector sets, conjugates
of sampled vector-valued maps, WS-sums of frontier sets, Farkas-type
certificates for vector inequalities over sampled feasible sets, and the
Lagrange / Fenchel-Lagrange dual values of small vector optimization problems.
Everything runs in exact rational arithmetic (ints and Fractions only); every
engine result can be cross-checked against an independent brute-force oracle
(`weakfront.oracle`) or through the verification suites (`weakfront suites` /
the ``weakfront verify`` command).  The conjugate itself is
``weakfront.conjugate.conjugate``: the package attribute ``conjugate`` is the
submodule.
"""

from weakfront.cones import (
    Cone,
    LinOp,
    PosOp,
    PointClass,
    PositivityError,
    classify_point,
    is_positive_operator,
    sample_positive_operators,
)
from weakfront.order_sets import (
    FiniteVecSet,
    GenSet,
    IllegalInfinitySum,
    Orient,
    RegionLabel,
    Tag,
    set_preceq,
    winf_finite,
    ws_sum,
    wsup_finite,
)
from weakfront.conjugate import (
    ExtEpiElement,
    SampledMap,
    SearchConfig,
    boxplus,
    epi_membership,
    exepi_membership,
    psi_contains,
    script_A_membership,
)
from weakfront.farkas import (
    Certificate,
    EmptyFeasibleSet,
    FarkasQuery,
    HardFailure,
    alpha_holds,
    convert_certificate,
    verify_certificate,
)
from weakfront.duality import (
    DualValue,
    ProblemInstance,
    dual_value,
    stable_strong_duality_sweep,
    strong_duality_check,
    weak_duality_check,
    winf_vp,
)

__version__ = "0.1.0"

__all__ = [
    "Cone",
    "LinOp",
    "PosOp",
    "PointClass",
    "PositivityError",
    "classify_point",
    "is_positive_operator",
    "sample_positive_operators",
    "FiniteVecSet",
    "GenSet",
    "IllegalInfinitySum",
    "Orient",
    "RegionLabel",
    "Tag",
    "set_preceq",
    "winf_finite",
    "ws_sum",
    "wsup_finite",
    "ExtEpiElement",
    "SampledMap",
    "SearchConfig",
    "boxplus",
    "epi_membership",
    "exepi_membership",
    "psi_contains",
    "script_A_membership",
    "Certificate",
    "EmptyFeasibleSet",
    "FarkasQuery",
    "HardFailure",
    "alpha_holds",
    "convert_certificate",
    "verify_certificate",
    "DualValue",
    "ProblemInstance",
    "dual_value",
    "stable_strong_duality_sweep",
    "strong_duality_check",
    "weak_duality_check",
    "winf_vp",
    "__version__",
]
