"""Identity-verification harness.

A registry of named checks, each comparing two independent computation
paths for the same quantity.  Tier A checks are classical identities
whose failure can only mean an implementation bug; Tier B checks probe
the novel chains this package implements, and their statuses are
findings: pass, fail with measured error, or recorded observations
(sign conventions, fitted constants, constants that differ from a
displayed value).  Grids are fixed so reports are reproducible.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Optional

from . import __version__
from . import series as qs
from .errors import DomainError, NoBracket
from .expr import parse_expr
from .inversion import (
    G_from_P0,
    F1_forward,
    F1_inverse,
    InversionContext,
    build_context,
    eval_series,
    p_of_z,
    solve_w_direct,
    to_funcspec,
    y_of,
)
from .quadint import (
    B_alpha,
    QuadraticPowerIntegral,
    beta_endpoint,
    beta_r,
    closed_integral_thm13_1,
    closed_integral_thm18,
    f1_integrand,
)
from .quadrature import quad_oracle
from .realanalog import (
    f1_real_cross,
    hi_inverse,
    hi_of,
    hi_prime,
    S_residual,
    thm19_oracle,
    thm19_value,
    thm20_fit,
    thm20_residual,
)
from .specfun import (
    appell_f1,
    e_map,
    eta,
    gamma_fn,
    hyp2f1,
    inc_beta,
    k_r,
    lambert_w,
    mstar,
    rogers_ramanujan,
    theta2,
    theta3,
)

_TWO_PI_I = 2j * math.pi
_INF = float("inf")


@functools.cache
def _context(text: str, order: int) -> InversionContext:
    """The inversion context of f = text at the given order, built once
    per process and shared by every check (it is frozen and holds only
    tuples)."""
    return build_context(to_funcspec(parse_expr(text), order=order), order)


def _cauchy_slope(fn: Callable[[complex], complex], z: complex) -> complex:
    """fn'(z) by the trapezoid rule on the circle of radius 0.05 about z,
    16 nodes: sum_j fn(z + r e^{i theta_j}) e^{-i theta_j} / (16 r)."""
    acc = 0j
    for j in range(16):
        theta = 2.0 * math.pi * j / 16
        acc += fn(z + 0.05 * cmath.exp(1j * theta)) * cmath.exp(-1j * theta)
    return acc / (16 * 0.05)


@dataclass(frozen=True)
class CheckResult:
    id: str
    tier: str  # "A" | "B"
    status: str  # "pass" | "fail" | "recorded" | "skipped"
    max_abs_error: float
    tolerance: float
    samples: int
    notes: str


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    tolerance_default: float
    versions: dict
    checks: tuple[CheckResult, ...]


@dataclass(frozen=True)
class _Outcome:
    """What a check body reports back to the runner."""

    max_abs_error: float
    samples: int
    notes: str = ""
    status: Optional[str] = None  # None -> derive from error vs tolerance


# ---------------------------------------------------------------------------
# Tier A: classical identities.  Failure here means an implementation bug.
# ---------------------------------------------------------------------------


def _check_reversion_defining_exact() -> _Outcome:
    order = 16
    f = [Fraction(1, math.factorial(k)) for k in range(order + 1)]
    w = qs.revert_exact(f, order)
    residual = qs.defining_residual_exact(f, w)
    coeff_err = Fraction(0)
    for n in range(1, order + 1):
        coeff_err = max(coeff_err, abs(w[n] - Fraction(n ** (n - 1), math.factorial(n))))
    return _Outcome(
        float(residual + coeff_err),
        order,
        "exact-rational reversion: defining residual and the rooted-tree "
        "coefficient law n^(n-1)/n! both hold identically",
    )


def _check_reversion_catalan() -> _Outcome:
    order = 10
    f = qs.TruncSeries(tuple(1.0 + 0j for _ in range(order + 1)))
    w = qs.lagrange_revert(f, order)
    err = 0.0
    for n in range(1, order + 1):
        catalan = math.comb(2 * n - 2, n - 1) // n
        err = max(err, abs(w[n] - catalan))
    return _Outcome(err, order, "reversion of the geometric series counts binary trees")


def _check_reversion_vs_newton() -> _Outcome:
    ctx = _context("exp(A)", 40)
    err = 0.0
    grid = [0.05 + 0.02j, -0.08 + 0.03j, 0.1j, 0.12]
    for q in grid:
        via_series, _ = eval_series(ctx.w_series, q)
        via_newton = solve_w_direct(ctx.f, q)
        err = max(err, abs(via_series - via_newton))
    return _Outcome(err, len(grid), "series evaluation against the Newton oracle")


def _check_mobius_roundtrip() -> _Outcome:
    mu_expected = (1, -1, -1, 0, -1, 1, -1, 0, 0, 1)
    err = 0.0
    for n, mu in enumerate(mu_expected, start=1):
        err = max(err, abs(qs.mobius(n) - mu))
    a = tuple(complex(n, 0.3 * n) for n in range(1, 13))
    back = qs.invert_exponents(qs.product_exponents(a))
    for x, y in zip(a, back):
        err = max(err, abs(x - y))
    return _Outcome(err, 22, "coefficients -> product exponents -> coefficients")


def _check_theta_anchor() -> _Outcome:
    q1 = math.exp(-math.pi)
    anchor = abs(theta3(q1) - math.pi ** 0.25 / gamma_fn(0.75))
    err = anchor
    for q in (q1, math.exp(-2 * math.pi)):
        t2, t3, t4 = theta2(q), theta3(q), theta3(-q)
        err = max(err, abs(t3**4 - t2**4 - t4**4))
    return _Outcome(err, 3, "theta3 closed form at the lemniscatic nome; quartic sum rule")


def _check_singular_modulus() -> _Outcome:
    err = abs(k_r(1.0) - 1.0 / math.sqrt(2.0))
    err = max(err, abs(k_r(4.0) - (3.0 - 2.0 * math.sqrt(2.0))))
    for r in (2.0, 3.0):
        err = max(err, abs(k_r(r) ** 2 + k_r(1.0 / r) ** 2 - 1.0))
    return _Outcome(
        err,
        4,
        "singular values and the complementary-modulus relation, which the "
        "reduction of i/sqrt(r) to i sqrt(r) makes Jacobi's quartic identity",
    )


def _check_eta_anchor() -> _Outcome:
    g14 = gamma_fn(0.25).real
    err = abs(eta(1j) - g14 / (2.0 * math.pi**0.75))
    err = max(err, abs(eta(2j) - g14 / (2.0 ** (11.0 / 8.0) * math.pi**0.75)))
    return _Outcome(err, 2, "eta at i and 2i against gamma closed forms")


# |q| = 0.9 at four angles, off Re tau in {0, 1/2}: each reduction takes
# S steps and T steps with k != 0, and every theta value there is at least
# a fifth of theta3(|q|), the sum of its terms' moduli, so the direct sums
# are good to about 1e-15 relative
_NOME_POINTS = tuple(0.9 * cmath.exp(1j * math.radians(d)) for d in (55, -75, 105, -125))


def _theta_direct(q: complex, shift: float) -> complex:
    """sum over |n| <= 40 of q^{(n+shift)^2}, principal powers; the terms
    left out are below 1e-70 at |q| = 0.9."""
    log_q = cmath.log(q)
    return sum(cmath.exp((n + shift) ** 2 * log_q) for n in range(-40, 41))


def _product_direct(q: complex, chi: tuple) -> complex:
    """prod over 1 <= n <= 400 of (1 - q^n)^chi[n mod 5]; the factors left
    out differ from 1 by under 1e-18 at |q| = 0.9."""
    total, power = 1.0 + 0j, 1.0 + 0j
    for n in range(1, 401):
        power *= q
        total *= (1 - power) ** chi[n % 5]
    return total


def _check_nome_reduction() -> _Outcome:
    err = 0.0
    for q in _NOME_POINTS:
        z = cmath.log(q) / _TWO_PI_I  # e(z) = q
        pairs = (
            (theta2(q), _theta_direct(q, 0.5)),
            (theta3(q), _theta_direct(q, 0.0)),
            (theta3(-q), _theta_direct(-q, 0.0)),
            (eta(z), cmath.exp(_TWO_PI_I * z / 24) * _product_direct(q, (1, 1, 1, 1, 1))),
            (rogers_ramanujan(q), q ** 0.2 * _product_direct(q, (0, 1, -1, -1, 1))),
        )
        for value, direct in pairs:
            err = max(err, abs(value - direct) / abs(direct))
    return _Outcome(
        err,
        5 * len(_NOME_POINTS),
        "theta2, theta3, theta4, eta and R by modular reduction against the "
        "direct sums and products at |q| = 0.9 (relative error)",
    )


def _check_gamma_classics() -> _Outcome:
    err = abs(gamma_fn(0.5) - math.sqrt(math.pi))
    err = max(err, abs(gamma_fn(5.0) - 24.0))
    err = max(err, abs(gamma_fn(0.3) * gamma_fn(0.7) - math.pi / math.sin(0.3 * math.pi)))
    z = 0.4
    dup = gamma_fn(z) * gamma_fn(z + 0.5) - 2.0 ** (1.0 - 2.0 * z) * math.sqrt(
        math.pi
    ) * gamma_fn(2.0 * z)
    return _Outcome(max(err, abs(dup)), 4, "half-integer value, reflection, duplication")


def _check_incomplete_beta_complete() -> _Outcome:
    err = 0.0
    for a, b in ((1.0 / 6.0, 2.0 / 3.0), (0.5, 0.5), (2.0, 3.0)):
        closed = gamma_fn(a) * gamma_fn(b) / gamma_fn(a + b)
        err = max(err, abs(inc_beta(1.0, a, b) - closed))
    return _Outcome(err, 3, "complete incomplete-beta against the gamma product")


def _check_hyp2f1_identities() -> _Outcome:
    # 0.3 and -0.5 take the Maclaurin series, -0.9 Pfaff's map, 0.9 and
    # 0.9999 the logarithmic case DLMF 15.8.10; Euler at 0.95 takes 15.8.4
    err = 0.0
    for z in (0.3, -0.5, -0.9, 0.9, 0.9999):
        err = max(err, abs(hyp2f1(1.0, 1.0, 2.0, z) + cmath.log(1.0 - z) / z))
    a, b, c = 1.0 / 6.0, 1.0 / 3.0, 7.0 / 6.0
    for x in (0.4, 0.95):
        euler = (1.0 - x) ** (c - a - b) * hyp2f1(c - a, c - b, c, x)
        err = max(err, abs(hyp2f1(a, b, c, x) - euler))
    return _Outcome(err, 7, "logarithmic case and the Euler transformation, in all four regions")


def _check_appell_reduction() -> _Outcome:
    a, b1, b2, c, x, y = 0.25, 0.5, 0.75, 1.5, 0.3, -0.5
    # c = b1 + b2: F1 = (1-y)^(-a) 2F1(a, b1; b1+b2; (x-y)/(1-y))
    reduced = (1 - y) ** -a * hyp2f1(a, b1, b1 + b2, (x - y) / (1 - y))
    err = abs(appell_f1(a, b1, b2, b1 + b2, x, y) - reduced)
    err = max(err, abs(appell_f1(a, b1, b2, c, x, x) - hyp2f1(a, b1 + b2, c, x)))
    return _Outcome(err, 2, "F1 collapses to Gauss at c = b1 + b2 and on the diagonal")


def _check_lambert_w_defining() -> _Outcome:
    grid = [0.5, -0.2, 3.0, 1.0 + 1.0j, -0.3 + 0.1j]
    err = 0.0
    for x in grid:
        w = lambert_w(x)
        err = max(err, abs(w * cmath.exp(w) - x))
    w1 = lambert_w(-0.1, branch=-1)
    err = max(err, abs(w1 * cmath.exp(w1) + 0.1))
    return _Outcome(err, len(grid) + 1, "w e^w = x on both real branches and off-axis")


def _check_rogers_ramanujan_anchor() -> _Outcome:
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    closed = math.sqrt(phi * math.sqrt(5.0)) - phi
    err = abs(rogers_ramanujan(math.exp(-2.0 * math.pi)) - closed)
    return _Outcome(err, 1, "continued-fraction value at the classical nome")


def _check_quadrature_calibration() -> _Outcome:
    v, _ = quad_oracle(lambda t: t**-0.5, 0.0, 1.0, from_left=lambda d: d**-0.5)
    err = abs(v - 2.0)
    v, _ = quad_oracle(
        lambda t: (1.0 - t * t) ** -0.5,
        0.0,
        1.0,
        from_right=lambda d: (d * (2.0 - d)) ** -0.5,
    )
    err = max(err, abs(v - math.pi / 2.0))
    v, _ = quad_oracle(
        lambda t: t ** (-5.0 / 6.0) * (1.0 - t) ** (-1.0 / 3.0),
        0.0,
        1.0,
        from_left=lambda d: d ** (-5.0 / 6.0) * (1.0 - d) ** (-1.0 / 3.0),
        from_right=lambda d: (1.0 - d) ** (-5.0 / 6.0) * d ** (-1.0 / 3.0),
    )
    beta = gamma_fn(1.0 / 6.0) * gamma_fn(2.0 / 3.0) / gamma_fn(5.0 / 6.0)
    err = max(err, abs(v - beta))
    return _Outcome(err, 3, "endpoint-singular integrals with known closed forms")


def _check_f1_inverse_pair() -> _Outcome:
    frozen = {
        0.2: 1.56932424422317538692601316093,
        0.5: 3.39862308863694797496339826298,
    }
    err = 0.0
    for a, anchor in frozen.items():
        v = F1_inverse(a)
        err = max(err, abs(v - anchor))
        err = max(err, abs(F1_forward(v) - a))
    return _Outcome(err, 4, "round trip through the quintic-kernel antiderivative")


def _check_beta_balance() -> _Outcome:
    b = beta_r(Fraction(1, 2), 3.0).beta
    err = abs(b - (2.0 - math.sqrt(2.0)) / 4.0)
    for m, r in ((Fraction(1, 2), 3.0), (Fraction(1, 3), 2.0), (Fraction(1, 6), 5.0)):
        alpha = float(1 - m)
        bp = beta_r(m, r).beta
        closed = gamma_fn(alpha).real ** 2 / (gamma_fn(2.0 * alpha).real * (r + 1.0))
        err = max(err, abs(B_alpha(bp, alpha) ** 2 - closed))
    alpha, r, n = 0.5, 2.0, 2
    lhs = B_alpha(beta_r(Fraction(1, 2), n * n * r).beta, alpha)
    rhs = math.sqrt((r + 1.0) / (n * n * r + 1.0)) * B_alpha(beta_r(Fraction(1, 2), r).beta, alpha)
    return _Outcome(max(err, abs(lhs - rhs)), 5, "balance points and their scaling law")


def _check_thm18_calibration() -> _Outcome:
    q = QuadraticPowerIntegral(-1.0, 0.0, 1.0, Fraction(1, 2))
    err = abs(closed_integral_thm18(q, _INF, 3.0) - math.pi / 4.0)
    err = max(err, abs(closed_integral_thm18(q, _INF, 1.0) - math.pi / 2.0))
    a1 = beta_endpoint(q, _INF)
    a2 = beta_endpoint(q, 3.0)
    v, _ = quad_oracle(q.evaluate, a1, a2, from_left=q.root_form(a1, a2 - a1))
    return _Outcome(
        max(err, abs(v - math.pi / 4.0)),
        3,
        "closed form at the arcsine calibration, cross-checked by quadrature",
    )


def _check_series_primitives() -> _Outcome:
    x = qs.identity(20)
    one_plus = qs.constant(1.0, 20) + x
    err = max(abs(c) for c in (qs.s_exp(qs.s_log(one_plus)) - one_plus).coeffs)
    pyth = qs.s_sin(x) * qs.s_sin(x) + qs.s_cos(x) * qs.s_cos(x) - qs.constant(1.0, 20)
    err = max(err, max(abs(c) for c in pyth.truncated(20).coeffs))
    root = qs.s_pow(one_plus, Fraction(1, 2))
    err = max(err, max(abs(c) for c in (root * root - one_plus).truncated(20).coeffs))
    return _Outcome(err, 3, "exp/log, sin/cos and square-root series round trips")


# ---------------------------------------------------------------------------
# Tier B: the novel identity chains.  Statuses are findings, not assumptions.
# ---------------------------------------------------------------------------


def _check_product_form() -> _Outcome:
    err = 0.0
    for text in ("exp(A)", "1/(1-A)"):
        ctx = _context(text, 40)
        exponents = qs.product_exponents(ctx.a)
        for q in (0.04, 0.08, 0.05 + 0.03j):
            w, _ = eval_series(ctx.w_series, q)
            err = max(err, abs(cmath.exp(w) - qs.eval_product(exponents, q)))
    return _Outcome(err, 6, "exp of the reverted series against the product form")


def _check_coefficient_prefactor() -> _Outcome:
    # literal (n-1)-th derivative bracket of f(h)^n at 0, over Gamma(n),
    # for f = 1/(1-h) is the central binomial; the finding holds while it
    # equals n*c_n with c_n from the exact reversion of the same f
    c = qs.revert_exact([Fraction(1)] * 7, 6)
    err = max(abs(math.comb(2 * n - 2, n - 1) - n * c[n]) for n in range(2, 7))
    return _Outcome(
        float(err),
        5,
        "the displayed coefficient formula overcounts by a factor n: the "
        "derivative bracket equals n!*c_n, not (n-1)!*c_n; verified exactly "
        "on the binary-tree family for n = 2..6 (ratio always n); the "
        "reversion engine uses the corrected 1/n normalization",
        status="recorded" if err == 0 else "fail",
    )


# -sqrt(3) Gamma(1/3)^3 / (pi 2^(1/3)), the closed form of both paired sums
_CBRT2 = 2.0 ** (1.0 / 3.0)
_G13 = gamma_fn(1.0 / 3.0).real
_CUBED_GAMMA = -math.sqrt(3.0) * _G13**3 / (math.pi * _CBRT2)


def _constant_status(spread: float, difference: float) -> str:
    """The paired sums are constant and equal the cubed-gamma closed form."""
    return "recorded" if spread < 1e-12 and difference < 1e-12 else "fail"


def _check_eq16_body() -> _Outcome:
    """Constancy of the paired-abscissa sum of the modular beta map."""
    values = []
    for z in (0.8j, 1j, 1.25j):
        total = 0.0
        for point in (2.0 * z, -2.0 / z):
            total += inc_beta(mstar(point) ** 2, 1.0 / 6.0, 2.0 / 3.0).real
        values.append(-_CBRT2 * total)
    spread = max(values) - min(values)
    difference = abs(values[1] - _CUBED_GAMMA)
    uncubed = -math.sqrt(3.0) * _G13 / (math.pi * _CBRT2)
    return _Outcome(
        spread,
        3,
        f"constant {values[1]:.12f}; matches the cubed-gamma closed form "
        f"{_CUBED_GAMMA:.12f} (difference {difference:.2e}); the "
        f"uncubed variant {uncubed:.6f} does not match",
        status=_constant_status(spread, difference),
    )


def _check_eq18_body() -> _Outcome:
    """Derivative of the modular beta map against the eta quartic."""
    cbrt4 = 2.0 ** (2.0 / 3.0)

    def bracket(z: complex) -> complex:
        return inc_beta(mstar(2.0 * z) ** 2, 1.0 / 6.0, 2.0 / 3.0) / cbrt4

    err = 0.0
    for z in (0.9j, 1.1j):
        target = _TWO_PI_I * eta(z) ** 4
        slope = _cauchy_slope(bracket, z)
        err = max(err, abs(slope - target) / abs(target))
    return _Outcome(
        err, 2, "Cauchy derivative of the beta/theta chain matches 2 pi i eta^4"
    )


def _check_g_chain() -> _Outcome:
    ctx = _context("exp(A)", 48)
    g = G_from_P0(lambda u: 1.0 + 0j, 0j)
    err = 0.0
    grid = [0.1 + 0.5j, -0.2 + 0.6j, 0.4j]
    for z in grid:
        err = max(err, abs(g(y_of(ctx, z)) + p_of_z(ctx, z)))
    return _Outcome(err, len(grid), "the pole-shape function cancels the reciprocal series")


def _check_pole_sign() -> _Outcome:
    ctx = _context("exp(A)", 48)
    g = G_from_P0(lambda u: 1.0 + 0j, 0j)
    z = 0.1 + 0.5j
    gy = g(y_of(ctx, z))
    p = p_of_z(ctx, z)
    return _Outcome(
        abs(gy + p),
        1,
        "the cancellation holds with the reciprocal-series convention "
        "P = +1/(q w'(q)); the variant display that defines P with a "
        f"leading minus is off by sign (|G(y)-P| = {abs(gy - p):.3e} here)",
        status="recorded" if abs(gy + p) < 1e-9 < abs(gy - p) else "fail",
    )


def _check_analytic_completion() -> _Outcome:
    cases = [
        ("exp(A)", lambda w: w),
        ("exp(sin(A))", cmath.sin),
    ]
    err = 0.0
    notes = []
    for text, antideriv in cases:
        f = to_funcspec(parse_expr(text), order=48)
        vals = []
        for q in (0.02, 0.04, 0.06, 0.08, 0.1):
            w = solve_w_direct(f, q)
            vals.append(cmath.log(w) - antideriv(w) - math.log(q))
        fitted = vals[0]
        err = max(err, max(abs(v - fitted) for v in vals[1:]))
        notes.append(f"{text}: fitted constant {fitted.real:.3e}")
    return _Outcome(err, 10, "log-derivative chain; " + "; ".join(notes))


def _check_thm13_1() -> _Outcome:
    q = QuadraticPowerIntegral(-1.0, 0.0, 1.0, Fraction(1, 2))
    c = 1.5 + 0j
    # purely imaginary z = i sqrt(r) makes the balance point real: the
    # integration runs between the beta abscissae while the log bracket
    # is taken at the corresponding omega values
    r1, r2 = 2.56, 6.25
    z1, z2 = 1j * math.sqrt(r1), 1j * math.sqrt(r2)
    closed = closed_integral_thm13_1(q, c, z1, z2, log_f=lambda u: u)
    integrand = f1_integrand(q, c, lambda u: 1.0 + 0j)
    direct, _ = quad_oracle(integrand, beta_endpoint(q, r1), beta_endpoint(q, r2))
    return _Outcome(
        abs(closed - direct),
        1,
        "log-bracket closed form against direct quadrature of the weighted pole",
    )


_C11 = 0.3  # fitted pairing constant for the exponential instance


def _h0(a: complex) -> complex:
    w = lambert_w(-a)
    return cmath.exp(-_C11 - w) * (_C11 + w)


def _check_lambert_involution() -> _Outcome:
    err = 0.0
    grid = [0.01, 0.02, 0.03, 0.04, 0.05]
    for a in grid:
        err = max(err, abs(_h0(_h0(a)) - a))
        pair = -lambert_w(-a) - lambert_w(-_h0(a))
        err = max(err, abs(pair - _C11))
    return _Outcome(
        err,
        len(grid),
        f"involution and the constant pairing sum, fitted constant {_C11}",
    )


def _check_lambda_derivative() -> _Outcome:
    def lam(a: complex) -> complex:
        return cmath.log(_h0(e_map(a))) / _TWO_PI_I

    def p_closed(a: complex) -> complex:
        w = lambert_w(-e_map(a))
        return -(1.0 + w) / w

    err = 0.0
    grid = [0.1 + 0.8j, -0.15 + 0.9j]
    for a in grid:
        slope = _cauchy_slope(lam, a)
        err = max(err, abs(slope + p_closed(lam(a)) / p_closed(a)))
    return _Outcome(
        err,
        len(grid),
        f"conjugated-map derivative law in the exponential instance, constant {_C11}",
    )


def _check_real_bridge() -> _Outcome:
    err = 0.0
    grid = [2.5, 2.9, 3.4]
    for a in grid:
        direct, modular = f1_real_cross(a)
        err = max(err, abs(direct - modular))
    return _Outcome(
        err,
        len(grid),
        "quintic-kernel inverse against the continued fraction at the modular abscissa",
    )


def _check_hi_consistency() -> _Outcome:
    err = 0.0
    for text in ("exp(A)", "1+A"):
        ctx = _context(text, 40)
        for a1, a2 in ((1.0, 2.0), (2.0, 4.0)):
            v, _ = quad_oracle(lambda t: complex(hi_prime(ctx, t.real)), a1, a2)
            err = max(err, abs(v.real - (hi_of(ctx, a2) - hi_of(ctx, a1))))
    return _Outcome(err, 4, "level-map increments against quadrature of its derivative")


def _check_thm17_residual() -> _Outcome:
    ctx = _context("exp(A)", 48)
    lo, hi = 0.2, 60.0
    err = 0.0
    for a in (1.0, 3.0):
        x = hi_of(ctx, a)
        err = max(err, abs(S_residual(ctx, x, lo, hi)))
    return _Outcome(err, 2, "curvature form of the pole-plus-analytic decomposition")


def _check_thm19() -> _Outcome:
    ctx = _context("1", 8)
    q = QuadraticPowerIntegral(-1.0, 0.0, 1.0, Fraction(1, 2))
    lo, hi = 1e-4, 10.0
    closed = thm19_value(ctx, q, 35.0, 45.0, lo, hi)
    direct = thm19_oracle(ctx, q, 35.0, 45.0, lo, hi)
    return _Outcome(
        abs(closed - direct),
        1,
        "level-difference closed form against quadrature of the chained weight",
    )


def _check_thm19_small_r() -> _Outcome:
    ctx = _context("1", 8)
    q = QuadraticPowerIntegral(-1.0, 0.0, 1.0, Fraction(1, 2))
    try:
        thm19_value(ctx, q, 1.0, 3.0, 1e-4, 10.0)
    except NoBracket as exc:
        return _Outcome(
            0.0,
            1,
            "for the unit instance the attainable level band has width "
            "1/pi^2 (about 0.101), so ratio parameters below about 30 put "
            f"both targets outside it; raised as designed: {exc}",
            status="recorded",
        )
    return _Outcome(
        _INF, 1, "expected the out-of-band diagnostic but none was raised", status="fail"
    )


def _check_thm20_fit() -> _Outcome:
    ctx = _context("1", 8)
    anchors = [0.02, 0.04, 0.06]
    l1, sign = thm20_fit(ctx, anchors)
    err = max(abs(thm20_residual(ctx, a, l1)) for a in anchors)
    return _Outcome(
        err,
        len(anchors),
        f"fitted shift {l1:.3e} (truth 0), sign convention {sign:+d}",
    )


def _check_real_chain_ode() -> _Outcome:
    ctx = _context("1", 8)
    lo, hi = 1e-3, 30.0
    err = 0.0
    for x in (0.04, 0.06):
        h = lambda t: hi_inverse(ctx, t, lo, hi)  # noqa: E731
        step = 1e-6
        hp = (h(x + step) - h(x - step)) / (2.0 * step)
        p = math.exp(math.pi * math.sqrt(h(x)))
        err = max(err, abs(hp + 2.0 * p) / abs(2.0 * p))
    return _Outcome(
        err,
        2,
        "level-inverse derivative balances the reciprocal series (relative); "
        "the modular-composed restatement reduces to this by substitution, "
        "and its natural abscissae fall outside the attainable level band",
    )


def _check_fy_sum_real() -> _Outcome:
    values = []
    for r in (1.0, 2.0, 4.0):
        total = 0.0
        for s in (4.0 * r, 4.0 / r):
            total += inc_beta(k_r(s) ** 2, 1.0 / 6.0, 2.0 / 3.0).real
        values.append(-_CBRT2 * total)
    spread = max(values) - min(values)
    difference = abs(values[0] - _CUBED_GAMMA)
    return _Outcome(
        spread,
        3,
        f"real-nome constant {values[0]:.12f} agrees with the cubed-gamma "
        f"closed form (difference {difference:.2e}); the "
        "displayed value omits the cube",
        status=_constant_status(spread, difference),
    )


# ---------------------------------------------------------------------------
# Registry and runners.
# ---------------------------------------------------------------------------

_TIER_DEFAULTS = {"A": 1e-10, "B": 1e-8}

# (id, tier, intrinsic tolerance or None for the suite default, body)
_REGISTRY: list[tuple[str, str, Optional[float], Callable[[], _Outcome]]] = [
    ("reversion_defining_exact", "A", None, _check_reversion_defining_exact),
    ("reversion_catalan", "A", None, _check_reversion_catalan),
    ("reversion_vs_newton", "A", None, _check_reversion_vs_newton),
    ("mobius_roundtrip", "A", None, _check_mobius_roundtrip),
    ("theta_anchor", "A", None, _check_theta_anchor),
    ("singular_modulus", "A", None, _check_singular_modulus),
    ("eta_anchor", "A", None, _check_eta_anchor),
    ("nome_reduction", "A", 1e-12, _check_nome_reduction),
    ("gamma_classics", "A", None, _check_gamma_classics),
    ("incomplete_beta_complete", "A", 1e-8, _check_incomplete_beta_complete),
    ("hyp2f1_identities", "A", None, _check_hyp2f1_identities),
    ("appell_reduction", "A", None, _check_appell_reduction),
    ("lambert_w_defining", "A", None, _check_lambert_w_defining),
    ("rogers_ramanujan_anchor", "A", None, _check_rogers_ramanujan_anchor),
    ("quadrature_calibration", "A", 1e-8, _check_quadrature_calibration),
    ("f1_inverse_pair", "A", None, _check_f1_inverse_pair),
    ("beta_balance", "A", 1e-8, _check_beta_balance),
    ("thm18_calibration", "A", 1e-8, _check_thm18_calibration),
    ("series_primitives", "A", None, _check_series_primitives),
    ("product_form_equivalence", "B", 1e-10, _check_product_form),
    ("coefficient_prefactor", "B", None, _check_coefficient_prefactor),
    ("modular_sum_constant", "B", None, _check_eq16_body),
    ("eta_quartic_derivative", "B", 1e-12, _check_eq18_body),
    ("g_chain_pole", "B", 1e-9, _check_g_chain),
    ("pole_sign_convention", "B", 1e-9, _check_pole_sign),
    ("analytic_completion", "B", 1e-9, _check_analytic_completion),
    ("thm13_1_quadrature", "B", None, _check_thm13_1),
    ("lambert_involution", "B", 1e-10, _check_lambert_involution),
    ("lambda_derivative", "B", 1e-12, _check_lambda_derivative),
    ("real_bridge", "B", 1e-7, _check_real_bridge),
    ("hi_consistency", "B", 1e-9, _check_hi_consistency),
    ("thm17_residual", "B", 1e-5, _check_thm17_residual),
    ("thm19_closed_vs_quadrature", "B", None, _check_thm19),
    ("thm19_small_r_range", "B", None, _check_thm19_small_r),
    ("thm20_shift_fit", "B", 1e-6, _check_thm20_fit),
    ("real_chain_ode", "B", 1e-5, _check_real_chain_ode),
    ("fy_sum_real", "B", None, _check_fy_sum_real),
]

_SUITE_TIERS = {"classical": ("A",), "paper": ("B",), "all": ("A", "B")}


def _run_one(
    check_id: str, tier: str, tolerance: float, body: Callable[[], _Outcome]
) -> CheckResult:
    try:
        out = body()
    except Exception as exc:  # findings, not crashes
        return CheckResult(
            id=check_id,
            tier=tier,
            status="fail",
            max_abs_error=_INF,
            tolerance=tolerance,
            samples=0,
            notes=f"{type(exc).__name__}: {exc}",
        )
    status = out.status or ("pass" if out.max_abs_error < tolerance else "fail")
    return CheckResult(
        id=check_id,
        tier=tier,
        status=status,
        max_abs_error=out.max_abs_error,
        tolerance=tolerance,
        samples=out.samples,
        notes=out.notes,
    )


def run_suite(name: str, tol: Optional[float] = None) -> VerificationReport:
    """Run the registered checks for a suite and assemble a report.

    name is "classical" (tier A), "paper" (tier B) or "all"; any other
    name raises DomainError.  tol, when given, replaces the per-tier
    default for checks that do not declare an intrinsic tolerance.
    Individual check errors become statuses with notes.
    """
    tiers = _SUITE_TIERS.get(name)
    if tiers is None:
        raise DomainError(f"unknown suite {name!r}; expected one of {sorted(_SUITE_TIERS)}")
    default = tol if tol is not None else _TIER_DEFAULTS[tiers[0]]
    checks = []
    for check_id, tier, intrinsic, body in _REGISTRY:
        if tier not in tiers:
            continue
        tolerance = intrinsic
        if tolerance is None:
            tolerance = tol if tol is not None else _TIER_DEFAULTS[tier]
        checks.append(_run_one(check_id, tier, tolerance, body))
    checks.sort(key=lambda c: c.id)
    return VerificationReport(
        suite=name,
        tolerance_default=default,
        versions={"engine": "lagrev " + __version__},
        checks=tuple(checks),
    )


def emit_report(r: VerificationReport, path) -> None:
    """Write the report as JSON in the field order of the dataclasses."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(r), fh, indent=2)
        fh.write("\n")
