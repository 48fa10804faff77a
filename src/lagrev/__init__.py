"""Series reversion, modular special functions and integral identities.

The package solves w/f(w) = q by Lagrange reversion, connects the
reverted series to theta/eta/beta special functions, evaluates
quadratic-power integrals against closed forms, carries the whole
chain over to a real-nome analog, and ships a tiered verification
suite with machine-readable reports.

`import lagrev` loads none of the modules: a public name, or a module
as `lagrev.<module>`, resolves on first use.
"""

import importlib

__version__ = "1.0.0"

# every module of the package, with the public names the package exports
_PUBLIC = {
    "cli": (),
    "errors": (
        "AccuracyLoss", "BranchError", "CompositionDomain", "ConvergenceDomain",
        "DegenerateSeries", "DomainError", "LagrevError", "NoBracket", "NoConvergence",
        "NonIntegrable", "NonMonotone", "ParseError", "PoleError", "ZeroAtOrigin",
    ),
    "expr": ("eval_expr", "parse_expr", "print_expr"),
    "inversion": (
        "F1_forward", "F1_inverse", "FuncSpec", "InversionContext", "build_context",
        "solve_w_direct", "to_funcspec",
    ),
    "quadint": (
        "B_alpha", "BetaPoint", "QuadraticPowerIntegral", "beta_endpoint", "beta_r",
        "closed_integral_thm13_1", "closed_integral_thm18",
    ),
    "quadrature": ("quad_oracle",),
    "realanalog": ("build_real_context",),
    "series": ("TruncSeries", "defining_residual", "lagrange_revert", "revert_exact"),
    "specfun": (),
    "verify": ("CheckResult", "VerificationReport", "emit_report", "run_suite"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    # Looked up on every access and never bound here, so a name always
    # resolves to its home module's current binding.
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _PUBLIC:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
