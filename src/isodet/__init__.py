"""Exact decision of whether every isometry of a bilinear form has
determinant one, over Q or F_p (p odd), with a brute-force finite-field
oracle for ground truth."""

from .blocks import (
    ZeroConstantTermError,
    direct_sum,
    frobenius,
    gamma,
    jordan,
    kronecker_pair_blocks,
    reciprocal,
    skew_sum,
    symplectic_unit,
)
from .decide import (
    DecisionReport,
    Method,
    NoOddBlockError,
    certificate_singular,
    decide,
    decide_gamma_shift,
    odd_unipotent_counts,
    skew_fast_path,
    verify_certificate,
)
from .exactmat import (
    GF,
    QQ,
    Field,
    FieldError,
    Matrix,
    Poly,
    SingularMatrixError,
    det,
    det_poly,
    inverse,
    nullspace,
    power_rank_sequence,
    rank,
    solve,
)
from .oracle import (
    BudgetExceededError,
    IsometrySummary,
    enumerate_isometries,
    random_congruence,
)
from .regularize import RegularizationResult, regularize, verify_congruence

__all__ = [
    "GF", "QQ", "Field", "FieldError", "Matrix", "Poly", "SingularMatrixError",
    "det", "det_poly", "inverse", "nullspace", "power_rank_sequence", "rank", "solve",
    "ZeroConstantTermError", "direct_sum", "frobenius", "gamma", "jordan",
    "kronecker_pair_blocks", "reciprocal", "skew_sum", "symplectic_unit",
    "RegularizationResult", "regularize", "verify_congruence",
    "DecisionReport", "Method", "NoOddBlockError",
    "certificate_singular", "decide", "decide_gamma_shift", "odd_unipotent_counts",
    "skew_fast_path", "verify_certificate",
    "BudgetExceededError", "IsometrySummary",
    "enumerate_isometries", "random_congruence",
]
