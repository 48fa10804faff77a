"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every criterion is checked at its stated tolerance against the stated
oracle; the printed line carries the measured error so a failing run
documents how far off it was.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction

import pytest

from lagrev import series as qs
from lagrev.cli import main as cli_main
from lagrev.errors import NoBracket
from lagrev.expr import parse_expr
from lagrev.inversion import (
    F1_inverse,
    F1_inverse_deriv,
    build_context,
    eval_series,
    solve_w_direct,
    to_funcspec,
)
from lagrev.quadint import (
    B_alpha,
    QuadraticPowerIntegral,
    beta_endpoint,
    beta_r,
    closed_integral_thm13_1,
    closed_integral_thm18,
    f1_integrand,
)
from lagrev.quadrature import quad_oracle
from lagrev.realanalog import (
    S_residual,
    build_real_context,
    f1_real_cross,
    hi_of,
    hi_prime,
    thm19_oracle,
    thm19_value,
    thm20_fit,
    thm20_residual,
)
from lagrev.specfun import (
    eta,
    gamma_fn,
    inc_beta,
    k_r,
    lambert_w,
    mstar,
    rogers_ramanujan,
    theta3,
)
from lagrev.verify import run_suite

INF = float("inf")


def gate(number: int, description: str, measured: float, tolerance: float) -> None:
    status = "PASS" if measured < tolerance else "FAIL"
    print(f"[{status}] criterion {number:2d}: {description} "
          f"(measured {measured:.3e}, tolerance {tolerance:.0e})")
    assert measured < tolerance, f"criterion {number}: {measured:.3e} >= {tolerance:.0e}"


def test_criterion_01_reversion_defining_property():
    exact_inputs = {
        "e^A": [Fraction(1, math.factorial(k)) for k in range(25)],
        "1/(1-A)": [Fraction(1)] * 25,
        "1+A": [Fraction(1), Fraction(1)] + [Fraction(0)] * 23,
        "1/(1-A)^2": [Fraction(k + 1) for k in range(25)],
    }
    worst = 0.0
    for coeffs in exact_inputs.values():
        w = qs.revert_exact(coeffs, 24)
        worst = max(worst, float(qs.defining_residual_exact(coeffs, w)))
    for text in ("exp(A)", "1/(1-A)", "1+A", "1/(1-A)^2"):
        f = to_funcspec(parse_expr(text), order=24)
        ctx = build_context(f, 24)
        for q in (0.05, -0.05, 0.03 + 0.04j):
            via_series, _ = eval_series(ctx.w_series, q)
            worst = max(worst, abs(via_series - solve_w_direct(f, q)) * 1e-2 / 1e-2)
    gate(1, "defining property and Newton cross-check", worst, 1e-10)


def test_criterion_02_catalan_tree_calibrations():
    w = qs.lagrange_revert(qs.TruncSeries((1.0 + 0j,) * 9), 8)
    worst = max(abs(w[n] - c) for n, c in enumerate((1, 1, 2, 5, 14), start=1))
    wt = qs.lagrange_revert(
        qs.TruncSeries(tuple(1 / math.factorial(k) + 0j for k in range(9))), 8
    )
    for n in range(1, 9):
        expected = n ** (n - 1) / math.factorial(n)
        worst = max(worst, abs(wt[n] - expected) / expected)
    gate(2, "Catalan and rooted-tree coefficient oracles", worst, 1e-12)


def test_criterion_03_product_form():
    ctx = build_context(to_funcspec(parse_expr("exp(A)"), order=16), 16)
    exponents = qs.product_exponents(ctx.a)
    worst = 0.0
    for q in (0.02, 0.05):
        w, _ = eval_series(ctx.w_series, q)
        worst = max(worst, abs(qs.eval_product(exponents, q) - cmath.exp(w)))
    gate(3, "product form equals exp of the reverted series", worst, 1e-10)


def test_criterion_04_coefficient_factor_finding():
    worst = 0
    for n in range(1, 7):
        literal = math.comb(2 * n - 2, n - 1)  # the (n-1)-derivative bracket
        c_n = literal // n
        worst = max(worst, abs(literal - n * c_n))
    report = run_suite("paper")
    by_id = {c.id: c for c in report.checks}
    finding = by_id["coefficient_prefactor"]
    recorded_ok = 0 if (finding.status == "recorded" and finding.notes) else 1
    gate(4, "literal coefficient bracket equals n*c_n, recorded finding", worst + recorded_ok, 1)


def test_criterion_05_special_function_anchors():
    phi = (1 + math.sqrt(5)) / 2
    checks = [
        (abs(theta3(0.1) - 1.200200002), 1e-9),
        (abs(k_r(1.0) - 2**-0.5), 1e-10),
        (abs(k_r(4.0) - (3 - 2 * math.sqrt(2))), 1e-10),
        (abs(eta(1j) - gamma_fn(0.25).real / (2 * math.pi**0.75)), 1e-10),
        (abs(rogers_ramanujan(math.exp(-2 * math.pi)) - (math.sqrt(phi * math.sqrt(5)) - phi)), 1e-8),
        (abs(lambert_w(math.e) - 1.0), 1e-13),
    ]
    worst = max(measured / tol for measured, tol in checks)
    gate(5, "special-function anchors at stated tolerances", worst, 1.0)


def test_criterion_06_f1_bridge():
    def kernel(t: complex) -> complex:
        return 5.0 / (t * (t**-5 - 11 - t**5) ** (1 / 6))

    worst = 0.0
    for a in (0.2, 0.5):
        # kernel(t) = 5 t^(-1/6) (1 - 11 t^5 - t^10)^(-1/6), whose t^-5 does
        # not overflow at the distances tanh-sinh reaches
        direct, _ = quad_oracle(
            kernel, 0.0, a,
            from_left=lambda d: 5.0 * (a * d) ** (-1 / 6)
            * (1 - 11 * (a * d) ** 5 - (a * d) ** 10) ** (-1 / 6),
        )
        worst = max(worst, abs(direct - F1_inverse(a)) / 1e-9)
    y, h = 0.3, 1e-6
    fd = (F1_inverse(y + h) - F1_inverse(y - h)) / (2 * h)
    worst = max(worst, abs(fd - F1_inverse_deriv(y)) / 1e-6)
    for a in (2.5, 2.9, 3.4):
        direct, modular = f1_real_cross(a)
        worst = max(worst, abs(direct - modular) / 1e-7)
    gate(6, "quintic-kernel bridge: quadrature, derivative, modular cross", worst, 1.0)


def test_criterion_07_paired_sum_constant():
    cbrt2 = 2 ** (1 / 3)
    values = []
    for z in (0.8j, 1j, 1.25j):
        total = sum(
            inc_beta(mstar(p) ** 2, 1 / 6, 2 / 3).real for p in (2 * z, -2 / z)
        )
        values.append(-cbrt2 * total)
    spread = max(values) - min(values)
    closed = -math.sqrt(3) * gamma_fn(1 / 3).real ** 3 / (math.pi * cbrt2)
    worst = max(spread, abs(values[1] - closed))
    gate(7, "paired-abscissa sum is the cubed-gamma constant", worst, 1e-8)


def test_criterion_08_eta_quartic_derivative():
    cbrt4 = 2 ** (2 / 3)

    def bracket(z: complex) -> complex:
        return inc_beta(mstar(2 * z) ** 2, 1 / 6, 2 / 3) / cbrt4

    worst = 0.0
    for z in (0.9j, 1.1j):
        target = 2j * math.pi * eta(z) ** 4
        h = 1e-4
        err_h = abs((bracket(z + h) - bracket(z - h)) / (2 * h) - target)
        err_h2 = abs((bracket(z + h / 2) - bracket(z - h / 2)) / h - target)
        worst = max(worst, err_h2 / abs(target) / 1e-6)
        order_ok = err_h / max(err_h2, 1e-300)
        worst = max(worst, 0.0 if order_ok > 2.0 else 2.0)
    gate(8, "finite difference matches the eta quartic with order-consistent halving", worst, 1.0)


def test_criterion_09_quadratic_integrals():
    q = QuadraticPowerIntegral(-1.0, 0.0, 1.0, Fraction(1, 2))
    worst = abs(closed_integral_thm18(q, INF, 3.0) - math.pi / 4) / 1e-8
    worst = max(worst, abs(closed_integral_thm18(q, INF, 1.0) - math.pi / 2) / 1e-8)
    for r2, target in ((3.0, math.pi / 4), (1.0, math.pi / 2)):
        a1, a2 = beta_endpoint(q, INF), beta_endpoint(q, r2)
        v, _ = quad_oracle(q.evaluate, a1, a2, from_left=q.root_form(a1, a2 - a1))
        worst = max(worst, abs(v - target) / 1e-8)
    b = beta_r(Fraction(1, 2), 3.0).beta
    worst = max(worst, abs(b - (2 - math.sqrt(2)) / 4) / 1e-10)
    for m, r in ((Fraction(1, 2), 3.0), (Fraction(1, 6), 5.0)):
        alpha = float(1 - m)
        bp = beta_r(m, r).beta
        closed = gamma_fn(alpha).real ** 2 / (gamma_fn(2 * alpha).real * (r + 1))
        worst = max(worst, abs(B_alpha(bp, alpha) ** 2 - closed) / 1e-10)
    lhs = B_alpha(beta_r(Fraction(1, 2), 8.0).beta, 0.5)
    rhs = math.sqrt(3.0 / 9.0) * B_alpha(beta_r(Fraction(1, 2), 2.0).beta, 0.5)
    worst = max(worst, abs(lhs - rhs) / 1e-10)
    gate(9, "closed forms, quadrature and balance-point identities", worst, 1.0)


def test_criterion_10_log_bracket_and_involution():
    q = QuadraticPowerIntegral(-1.0, 0.0, 1.0, Fraction(1, 2))
    c = 1.5 + 0j
    r1, r2 = 2.56, 6.25
    closed = closed_integral_thm13_1(
        q, c, 1j * math.sqrt(r1), 1j * math.sqrt(r2), log_f=lambda u: u
    )
    direct, _ = quad_oracle(
        f1_integrand(q, c, lambda u: 1.0 + 0j),
        beta_endpoint(q, r1),
        beta_endpoint(q, r2),
    )
    worst = abs(closed - direct) / 1e-8

    c11 = 0.3

    def h0(a: complex) -> complex:
        w = lambert_w(-a)
        return cmath.exp(-c11 - w) * (c11 + w)

    for a in (0.01, 0.02, 0.03, 0.04, 0.05):
        worst = max(worst, abs(h0(h0(a)) - a) / 1e-10)
        worst = max(worst, abs(-lambert_w(-a) - lambert_w(-h0(a)) - c11) / 1e-10)
    gate(10, "log-bracket closed form and the involution pairing", worst, 1.0)


def test_criterion_11_real_analog():
    exp_ctx = build_real_context(to_funcspec(parse_expr("exp(A)"), order=48), 48)
    worst = 0.0
    for a1, a2 in ((1.0, 2.0), (2.0, 4.0)):
        v, _ = quad_oracle(lambda t: complex(hi_prime(exp_ctx, t.real)), a1, a2)
        worst = max(worst, abs(v.real - (hi_of(exp_ctx, a2) - hi_of(exp_ctx, a1))) / 1e-9)

    unit_ctx = build_real_context(to_funcspec(parse_expr("1"), order=8), 8)
    q = QuadraticPowerIntegral(-1.0, 0.0, 1.0, Fraction(1, 2))
    closed = thm19_value(unit_ctx, q, 35.0, 45.0, 1e-4, 10.0)
    direct = thm19_oracle(unit_ctx, q, 35.0, 45.0, 1e-4, 10.0)
    worst = max(worst, abs(closed - direct) / 1e-7)

    for a in (1.0, 3.0):
        worst = max(worst, abs(S_residual(exp_ctx, hi_of(exp_ctx, a), 0.2, 60.0)) / 1e-5)

    l1, _sign = thm20_fit(unit_ctx, [0.02, 0.04])
    worst = max(worst, thm20_residual(unit_ctx, 0.06, l1) / 1e-6)  # held out
    gate(11, "real-analog consistency, level difference, residuals", worst, 1.0)


def test_criterion_12_verify_cli(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = cli_main(["verify", "--suite", "classical", "--json", str(path)])
    capsys.readouterr()
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    schema_ok = (
        list(payload) == ["suite", "tolerance_default", "versions", "checks"]
        and list(payload["versions"]) == ["engine"]
        and all(
            list(c) == ["id", "tier", "status", "max_abs_error", "tolerance", "samples", "notes"]
            for c in payload["checks"]
        )
    )
    passing = sum(1 for c in payload["checks"] if c["status"] == "pass" and c["tier"] == "A")
    measured = (0 if code == 0 else 1) + (0 if schema_ok else 1) + (0 if passing >= 15 else 1)
    gate(12, "verify CLI exits 0 with >= 15 tier-A passes and exact schema", measured, 1)


def test_unreachable_band_is_diagnosed():
    # companion to criterion 11: small ratios cannot be bracketed and must
    # say so rather than return garbage
    unit_ctx = build_real_context(to_funcspec(parse_expr("1"), order=8), 8)
    q = QuadraticPowerIntegral(-1.0, 0.0, 1.0, Fraction(1, 2))
    with pytest.raises(NoBracket):
        thm19_value(unit_ctx, q, 1.0, 3.0, 1e-4, 10.0)
