"""Exact-arithmetic determinant/Pfaffian identities, Schur functions and
Littlewood-Richardson coefficients over big rationals."""

from .poly import (
    ExactDivisionError,
    ExponentCapError,
    Polynomial,
    VariableTable,
    random_rational,
)
from .linalg import (
    AlternatingTensor,
    RingMatrix,
    SkewMatrix,
    blocked_tensor,
    congruence_pfaffian,
    det,
    hyperpfaffian,
    pfaffian,
    sub_pfaffian,
)
from .symfunc import Partition, SkewShape, h_complete, index_set, schur
from .vandermonde import build_DBC, build_U, build_V, build_V_shifted, build_W, fgh_sum, partition_family
from .lr import (
    lr_bruteforce,
    lr_rectangle_theorem,
    lr_via_pfaffian,
)
from .harness import (
    VerificationReport,
    default_campaign_config,
    parse_campaign_config,
    reports_to_json,
    run_campaign,
    verify,
)
from .identities import registry

__version__ = "0.1.0"

__all__ = [
    "AlternatingTensor",
    "ExactDivisionError",
    "ExponentCapError",
    "Partition",
    "Polynomial",
    "RingMatrix",
    "SkewMatrix",
    "SkewShape",
    "VariableTable",
    "VerificationReport",
    "blocked_tensor",
    "build_DBC",
    "build_U",
    "build_V",
    "build_V_shifted",
    "build_W",
    "congruence_pfaffian",
    "default_campaign_config",
    "det",
    "fgh_sum",
    "h_complete",
    "hyperpfaffian",
    "index_set",
    "lr_bruteforce",
    "lr_rectangle_theorem",
    "lr_via_pfaffian",
    "parse_campaign_config",
    "partition_family",
    "pfaffian",
    "random_rational",
    "registry",
    "reports_to_json",
    "run_campaign",
    "schur",
    "sub_pfaffian",
    "verify",
]
