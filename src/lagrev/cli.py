"""Batch command-line surface.

Subcommands cover each part of the library: series reversion, special
function evaluation, the quintic-kernel inverse pair, quadratic-power
integrals with their closed forms and quadrature oracles, the real
chain, and the verification suite.  All numeric output uses 17
significant digits so values round-trip through text; complex numbers
read and print as "RE,IM" pairs.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys
from fractions import Fraction
from typing import Optional

from .errors import BranchError, DomainError, LagrevError, ParseError
from .expr import eval_expr, parse_expr
from .inversion import (
    F1_forward,
    F1_inverse,
    build_context,
    eval_series,
    solve_w_direct,
    to_funcspec,
)
from .quadint import (
    QuadraticPowerIntegral,
    beta_endpoint,
    closed_integral_thm13_1,
    closed_integral_thm18,
    f1_integrand,
    omega,
)
from .quadrature import quad_oracle
from .realanalog import (
    L_of,
    S_residual,
    f1_real_cross,
    hi_of,
    thm19_oracle,
    thm19_value,
    thm20_fit,
    thm20_residual,
)
from .series import TruncSeries
from . import specfun
from .verify import emit_report, run_suite


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt_real(x: float) -> str:
    return f"{float(x):.17g}"


def _fmt(value) -> str:
    z = complex(value)
    if z.imag == 0.0:
        return _fmt_real(z.real)
    return f"{_fmt_real(z.real)},{_fmt_real(z.imag)}"


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise ValueError(f"expected RE or RE,IM, got {text!r}")


def _quadratic(args) -> QuadraticPowerIntegral:
    return QuadraticPowerIntegral(args.a1, args.b1, args.c1, args.m)


def _cmd_revert(args) -> int:
    f = to_funcspec(parse_expr(args.f), order=args.order)
    ctx = build_context(f, args.order)
    coeffs = [ctx.w_series[n] for n in range(1, args.order + 1)]
    print("c = " + ", ".join(_fmt(c) for c in coeffs))
    print("a = " + ", ".join(_fmt(a) for a in ctx.a))
    if args.q is not None:
        value, _ = eval_series(ctx.w_series, args.q)
        newton = solve_w_direct(f, args.q)
        print(f"w(q) = {_fmt(value)}")
        print(f"newton = {_fmt(newton)}")
        print(f"abs_err = {_fmt_real(abs(value - newton))}")
    return 0


_SPECIAL = {  # one letter per argument: c complex, r real
    "theta2": (specfun.theta2, "c"),
    "theta3": (specfun.theta3, "c"),
    "eta": (specfun.eta, "c"),
    "mstar": (specfun.mstar, "c"),
    "k_r": (specfun.k_r, "r"),
    "gamma": (specfun.gamma_fn, "c"),
    "lambert_w": (specfun.lambert_w, "c"),
    "rr": (specfun.rogers_ramanujan, "c"),
    "hyp2f1": (specfun.hyp2f1, "rrrc"),
    "inc_beta": (specfun.inc_beta, "crr"),
    "appell_f1": (specfun.appell_f1, "rrrrcc"),
}


def _cmd_special(args) -> int:
    fn, kinds = _SPECIAL[args.fn]
    values = [_parse_complex(a) for a in args.arg]
    if len(values) != len(kinds):
        raise ParseError(f"{args.fn} takes {len(kinds)} argument(s), got {len(values)}")
    for i, (kind, v) in enumerate(zip(kinds, values), 1):
        if kind == "r" and v.imag != 0.0:
            raise DomainError(f"{args.fn} takes a real argument {i}, got {v}")
    # pass reals as floats so parameter-typed positions accept them
    args_out = [v.real if v.imag == 0.0 else v for v in values]
    print(_fmt(fn(*args_out)))
    return 0


def _cmd_f1(args) -> int:
    if args.mode == "inverse":
        print(_fmt(F1_inverse(args.x)))
    else:
        print(_fmt(F1_forward(args.x)))
    return 0


def _continued_log(f, u1: complex, u: complex) -> complex:
    """log f(u), continued from its principal value at u1 along the segment
    to u.  Steps start at 2^-10 of it, so that the first turn of arg f does
    not alias by 2 pi, double after each step and halve while arg f turns
    by more than pi/4.  BranchError at a zero of f or a step below 2^-60."""
    t, h, prev = 0.0, 2.0**-10, f(u1)
    value = cmath.log(prev) if prev else 0j
    while t < 1:
        s = min(t + h, 1.0)
        if not prev or h < 2.0**-60 or s == t:
            raise BranchError(f"log f does not continue past {u1 + t * (u - u1)}")
        now = f(u1 + s * (u - u1))
        if now and abs(cmath.phase(now / prev)) <= math.pi / 4:
            value, t, h, prev = value + cmath.log(now / prev), s, 2 * h, now
        else:
            h /= 2
    return value


def _cmd_integral(args) -> int:
    q = _quadratic(args)
    payload = {}
    if args.f1 is None:
        value = closed_integral_thm18(q, args.r1, args.r2)
    else:
        tree = parse_expr(args.f1)
        z1 = 1j * math.sqrt(args.r1)
        z2 = 1j * math.sqrt(args.r2)
        u1 = args.c - 2j * math.pi * omega(q, z1)
        log_f = functools.partial(_continued_log, lambda u: eval_expr(tree, u), u1)
        value = closed_integral_thm13_1(q, args.c, z1, z2, log_f=log_f)
    payload["value_re"] = value.real
    payload["value_im"] = value.imag
    if args.oracle:
        a1 = beta_endpoint(q, args.r1)
        a2 = beta_endpoint(q, args.r2)
        span = a2 - a1
        kwargs = {}
        if math.isinf(args.r1):
            kwargs["from_left"] = q.root_form(a1, span)
        if math.isinf(args.r2):
            kwargs["from_right"] = q.root_form(a2, -span)
        if args.f1 is None:
            integrand = q.evaluate
        else:
            def p0(u: complex) -> complex:
                fu, fprime = eval_expr(tree, TruncSeries((u, 1))).coeffs
                return fprime / fu

            integrand = f1_integrand(q, args.c, p0)
        oracle, _ = quad_oracle(integrand, a1, a2, **kwargs)
        payload["oracle_re"] = oracle.real
        payload["oracle_im"] = oracle.imag
        payload["abs_err"] = abs(value - oracle)
    else:
        payload["oracle_re"] = None
        payload["oracle_im"] = None
        payload["abs_err"] = None
    payload["branch_phase"] = q.branch_phase.real
    print(json.dumps(payload))
    return 0


def _cmd_real(args) -> int:
    ctx = build_context(to_funcspec(parse_expr(args.f), order=args.order), args.order)
    if args.op == "hi":
        print(_fmt_real(hi_of(ctx, args.x)))
    elif args.op == "L":
        print(_fmt_real(L_of(ctx, args.x, args.lo, args.hi)))
    elif args.op == "S":
        print(_fmt_real(S_residual(ctx, args.x, args.lo, args.hi)))
    elif args.op == "thm19":
        q = _quadratic(args)
        value = thm19_value(ctx, q, args.r1, args.r2, args.lo, args.hi)
        print(f"value = {_fmt_real(value)}")
        if args.oracle:
            oracle = thm19_oracle(ctx, q, args.r1, args.r2, args.lo, args.hi)
            print(f"oracle = {_fmt_real(oracle)}")
            print(f"abs_err = {_fmt_real(abs(value - oracle))}")
    elif args.op == "thm20":
        l1, sign = thm20_fit(ctx, [args.x], args.lo, args.hi)
        print(f"l1 = {_fmt_real(l1)}")
        print(f"sign = {sign:+d}")
        print(f"residual = {_fmt_real(thm20_residual(ctx, args.x, l1, args.lo, args.hi))}")
    else:  # f1cross
        direct, modular = f1_real_cross(args.x)
        print(f"direct = {_fmt_real(direct)}")
        print(f"modular = {_fmt_real(modular)}")
        print(f"abs_err = {_fmt_real(abs(direct - modular))}")
    return 0


def _cmd_verify(args) -> int:
    report = run_suite(args.suite, args.tol)
    for check in report.checks:
        print(
            f"{check.status.upper():8s} {check.id}  "
            f"max_abs_error={_fmt_real(check.max_abs_error)}  "
            f"tolerance={_fmt_real(check.tolerance)}"
        )
    if args.json is not None:
        emit_report(report, args.json)
    failed_tiers = {c.tier for c in report.checks if c.status == "fail"}
    return 2 if "A" in failed_tiers else 3 if "B" in failed_tiers else 0


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="lagrev")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("revert", help="series reversion of w/f(w) = q")
    p.add_argument("--f", required=True, help="expression for f(A)")
    p.add_argument("--order", type=int, default=24)
    p.add_argument("--q", type=_parse_complex, default=None, help="evaluate w at q (RE,IM)")
    p.set_defaults(handler=_cmd_revert)

    p = sub.add_parser("special", help="evaluate a special function")
    p.add_argument("--fn", required=True, choices=sorted(_SPECIAL))
    p.add_argument("--arg", action="append", default=[], help="argument (repeatable, RE,IM)")
    p.set_defaults(handler=_cmd_special)

    p = sub.add_parser("f1", help="the quintic-kernel inverse pair")
    p.add_argument("--mode", required=True, choices=("forward", "inverse"))
    p.add_argument("--x", type=_parse_complex, required=True)
    p.set_defaults(handler=_cmd_f1)

    p = sub.add_parser("integral", help="quadratic-power integrals and closed forms")
    p.add_argument("--a1", type=_parse_complex, required=True)
    p.add_argument("--b1", type=_parse_complex, required=True)
    p.add_argument("--c1", type=_parse_complex, required=True)
    p.add_argument("--m", type=Fraction, required=True, help="exponent P/Q in (0,1)")
    p.add_argument("--r1", type=float, required=True, help="positive real or inf")
    p.add_argument("--r2", type=float, required=True)
    p.add_argument("--f1", default=None, help="expression for f; enables the log-bracket form")
    p.add_argument("--c", type=_parse_complex, default=1.5 + 0j)
    p.add_argument("--oracle", action="store_true", help="cross-check by quadrature")
    p.set_defaults(handler=_cmd_integral)

    p = sub.add_parser("real", help="the real chain")
    p.add_argument("--op", required=True, choices=("hi", "L", "S", "thm19", "thm20", "f1cross"))
    p.add_argument("--f", default="1", help="expression for f(A)")
    p.add_argument("--order", type=int, default=24)
    p.add_argument("--x", type=float, default=1.0)
    p.add_argument("--lo", type=float, default=0.05)
    p.add_argument("--hi", type=float, default=60.0)
    p.add_argument("--a1", type=_parse_complex, default=-1 + 0j)
    p.add_argument("--b1", type=_parse_complex, default=0j)
    p.add_argument("--c1", type=_parse_complex, default=1 + 0j)
    p.add_argument("--m", type=Fraction, default=Fraction(1, 2))
    p.add_argument("--r1", type=float, default=35.0)
    p.add_argument("--r2", type=float, default=45.0)
    p.add_argument("--oracle", action="store_true")
    p.set_defaults(handler=_cmd_real)

    p = sub.add_parser("verify", help="run the identity-verification suite")
    p.add_argument("--suite", required=True, choices=("classical", "paper", "all"))
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--json", default=None, help="write the JSON report here")
    p.set_defaults(handler=_cmd_verify)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (LagrevError, ValueError) as exc:
        print(f"lagrev: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
