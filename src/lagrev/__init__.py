"""Series reversion, modular special functions and integral identities.

The package solves w/f(w) = q by Lagrange reversion, connects the
reverted series to theta/eta/beta special functions, evaluates
quadratic-power integrals against closed forms, carries the whole
chain over to a real-nome analog, and ships a tiered verification
suite with machine-readable reports.
"""

__version__ = "1.0.0"

from .errors import (
    AccuracyLoss,
    BranchError,
    CompositionDomain,
    ConvergenceDomain,
    DegenerateSeries,
    DomainError,
    LagrevError,
    NoBracket,
    NoConvergence,
    NonIntegrable,
    NonMonotone,
    ParseError,
    PoleError,
    ZeroAtOrigin,
)
from .expr import eval_expr, parse_expr, print_expr
from .inversion import (
    F1_forward,
    F1_inverse,
    FuncSpec,
    InversionContext,
    build_context,
    solve_w_direct,
    to_funcspec,
)
from .quadint import (
    B_alpha,
    BetaPoint,
    QuadraticPowerIntegral,
    beta_endpoint,
    beta_r,
    closed_integral_thm13_1,
    closed_integral_thm18,
)
from .quadrature import quad_oracle
from .realanalog import RealPoint, build_real_context
from .series import TruncSeries, defining_residual, lagrange_revert, revert_exact
from .verify import CheckResult, VerificationReport, emit_report, run_suite

__all__ = [
    "AccuracyLoss",
    "B_alpha",
    "BetaPoint",
    "BranchError",
    "CheckResult",
    "CompositionDomain",
    "ConvergenceDomain",
    "DegenerateSeries",
    "DomainError",
    "F1_forward",
    "F1_inverse",
    "FuncSpec",
    "InversionContext",
    "LagrevError",
    "NoBracket",
    "NoConvergence",
    "NonIntegrable",
    "NonMonotone",
    "ParseError",
    "PoleError",
    "QuadraticPowerIntegral",
    "RealPoint",
    "TruncSeries",
    "VerificationReport",
    "ZeroAtOrigin",
    "beta_endpoint",
    "beta_r",
    "build_context",
    "build_real_context",
    "closed_integral_thm13_1",
    "closed_integral_thm18",
    "defining_residual",
    "emit_report",
    "eval_expr",
    "lagrange_revert",
    "parse_expr",
    "print_expr",
    "quad_oracle",
    "revert_exact",
    "run_suite",
    "solve_w_direct",
    "to_funcspec",
]
