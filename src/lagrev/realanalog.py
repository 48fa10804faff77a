"""The real-nome pipeline q = exp(-pi sqrt(A)).

Everything here is built on one chain: h_i(A) = pi^-2 sum a_n q^n/n^2
+ (sqrt(A)/pi) sum a_n q^n/n, its numeric inverse h, and
L(x) = w(exp(-pi sqrt(h(x)))).  Within that chain L'(x) = pi/sqrt(h(x))
holds exactly, which the closed-form integral identities below exploit.
All free additive constants are fitted, never derived.
"""

from __future__ import annotations

import math
import sys

from . import series as qs
from .errors import DomainError, NoBracket, NonMonotone
from .expr import eval_expr
from .inversion import F1_forward, InversionContext, _check_w_prime_tail, build_context
from .quadint import QuadraticPowerIntegral, U_antideriv, beta_endpoint
from .quadrature import newton_decreasing, quad_oracle
from .specfun import inc_beta, k_r, lambert_w, rogers_ramanujan, theta3


# perfbench's thm19 workload calls realanalog.build_real_context; the real
# chain runs on an InversionContext
build_real_context = build_context


def _sqrt_abscissa(A) -> float:
    """sqrt(A) for the real nome q = exp(-pi sqrt(A)); DomainError unless 0 < A < inf."""
    A = float(A)
    if not 0 < A < math.inf:
        raise DomainError(f"the real nome requires A > 0 and finite, got A = {A}")
    return math.sqrt(A)


def _level(ctx: InversionContext, s: float) -> tuple[float, float, float]:
    """(h_i, h_i', tail) at A = s^2 from one Horner pass over a_n at q = exp(-pi s);
    tail is eval_series's estimate |a_N| q^N/(1 - q) for the series w'."""
    q = math.exp(-math.pi * s)
    p0 = p1 = p2 = 0.0
    for n in range(len(ctx.a), 0, -1):
        a = ctx.a[n - 1].real
        p0, p1, p2 = p0 * q + a, p1 * q + a / n, p2 * q + a / (n * n)
    tail = abs(ctx.a[-1]) * q ** len(ctx.a) / (1.0 - q)
    return q * p2 / math.pi**2 + s / math.pi * (q * p1), -0.5 * (q * p0), tail


def hi_prime(ctx: InversionContext, A) -> float:
    """h_i'(A) = -(1/2) q w'(q) at q = exp(-pi sqrt(A)), with
    q w'(q) = sum a_n q^n; AccuracyLoss past a w' tail of 1e-12."""
    s = _sqrt_abscissa(A)
    _h, slope, tail = _level(ctx, s)
    _check_w_prime_tail(ctx, tail, math.exp(-math.pi * s))
    return slope


def hi_of(ctx: InversionContext, A) -> float:
    """h_i(A) = pi^-2 sum a_n q^n/n^2 + (sqrt(A)/pi) sum a_n q^n/n."""
    return _level(ctx, _sqrt_abscissa(A))[0]


def _level_solver(ctx: InversionContext, lo: float, hi: float):
    """hi_inverse on [lo, hi] as solve(target) -> (t, h_i'(t)): the bracket ends are read
    once, here, and h_i'(t) is the one the tail check at the root reads."""
    flo, fhi = hi_of(ctx, lo), hi_of(ctx, hi)
    if flo <= fhi:
        raise NonMonotone("h_i is not decreasing on the requested bracket")
    s_lo, s_hi, a1 = math.sqrt(lo), math.sqrt(hi), ctx.a[0].real

    def solve(target: float) -> tuple[float, float]:
        if not (fhi <= target <= flo):
            raise NoBracket(f"target {target:.6g} outside the h_i range [{fhi:.6g}, {flo:.6g}]")
        if not fhi > 0:
            raise DomainError(f"h_i must be positive on the bracket, h_i({hi:.6g}) = {fhi:.6g}")

        def g(s: float) -> tuple[float, float]:
            h, slope, _tail = _level(ctx, s)
            if not h > 0:
                raise NonMonotone(
                    f"h_i is not decreasing on the bracket: h_i({s * s:.6g}) = {h:.6g}"
                )
            return math.log(h / target), 2.0 * s * slope / h

        seed, k = s_lo, math.pi**2 * target
        if k < a1:  # -1/e < z < 0, the model's root; z kept off -1/e and the subnormals
            z = min(max(-k / (math.e * a1), math.nextafter(-1 / math.e, 0.0)), -sys.float_info.min)
            seed = min(max((-lambert_w(z, -1).real - 1.0) / math.pi, s_lo), s_hi)
        s = newton_decreasing(g, s_lo, s_hi, seed)
        return s * s, hi_prime(ctx, s * s)

    return solve


def hi_inverse(ctx: InversionContext, target: float, lo: float = 0.05, hi: float = 60.0) -> float:
    """Solve h_i(t) = target on [lo, hi]: bracketed Newton on log(h_i(s^2)/target)
    in s = sqrt(t), slope 2 s h_i'/h_i, from the root s = (-W_{-1}(-pi^2 target/(e a_1))
    - 1)/pi of the one-term model a_1 e^(-pi s)(1/pi^2 + s/pi) = target (h_i itself for
    f = 1), clamped to the bracket, or from sqrt(lo) where the model has no root.  h_i
    must be strictly decreasing (else NonMonotone) and positive (else DomainError) on
    the bracket, its range there holding the target (else NoBracket).  The w' tail rule
    of hi_prime is checked once, at the root: elsewhere the slope only steers Newton."""
    return _level_solver(ctx, lo, hi)(target)[0]


def _w_real(ctx: InversionContext, t: float) -> float:
    """w at the real nome exp(-pi sqrt(t))."""
    value, _tail = qs.eval_series(ctx.w_series, math.exp(-math.pi * _sqrt_abscissa(t)))
    return value.real


def L_of(ctx: InversionContext, x: float, lo: float = 0.05, hi: float = 60.0) -> float:
    """L(x) = w(exp(-pi sqrt(h(x)))) with h the inverse of h_i."""
    return _w_real(ctx, hi_inverse(ctx, x, lo, hi))


def _level_jet(ctx: InversionContext, t: float, order: int):
    """(w, h_i) at A = t + eps as series in eps through eps^order, with no root solve:
    w and sum (c_n/n) q^n, Taylor-shifted to q0 = q(t), composed with q(t + eps) - q0."""
    root = qs.s_pow(qs.TruncSeries((t, 1.0)).padded(order), 0.5)
    q = qs.s_exp(root * -math.pi)

    def at_q(series: qs.TruncSeries) -> qs.TruncSeries:
        taylor = []
        for k in range(order + 1):
            taylor.append(qs.eval_series(series, q[0])[0] / math.factorial(k))
            series = series.derivative()
        return qs.compose(qs.TruncSeries(tuple(taylor)), q - q[0])

    w = at_q(ctx.w_series)
    g = at_q(qs.TruncSeries(tuple(c / max(n, 1) for n, c in enumerate(ctx.w_series.coeffs))))
    return w, g * math.pi**-2 + root * w * (1.0 / math.pi)


def S_residual(
    ctx: InversionContext, x: float, lo: float = 0.05, hi: float = 60.0
) -> float:
    """Residual of -L''/L'^3 + pi^-2/L = (pi^-2/2) P0* at the point x.

    t = h(x) is solved once.  The left side reads L' = w'/h_i' and
    L'' = (w'' h_i' - w' h_i'')/h_i'^3 from the t-derivatives of _level_jet;
    the right side recovers P0* = h' + 2/L from the pole-plus-analytic
    decomposition, with h'(x) = 1/h_i'(h(x)), h_i' read by hi_prime at the root.
    """
    t, slope = _level_solver(ctx, lo, hi)(x)
    (lx, w1, w2), (_h, h1, h2) = ([c.real for c in s.coeffs] for s in _level_jet(ctx, t, 2))
    lp, lpp = w1 / h1, 2.0 * (w2 * h1 - w1 * h2) / h1**3  # w2, h2: half of w'', h_i''
    left = -lpp / lp**3 + 1.0 / (math.pi**2 * lx)
    right = 0.5 / math.pi**2 * (1.0 / slope + 2.0 / lx)
    return left - right


def thm19_value(
    ctx: InversionContext, q: QuadraticPowerIntegral, r1: float, r2: float,
    lo: float = 0.05, hi: float = 60.0,
) -> float:
    """R2 - R1 where h_i(R_j) equals the closed-form level of r_j.

    The levels prefactor * Gamma(1-m)^2/Gamma(2-2m) / (r+1) must fall in
    the (narrow) range of h_i, else NoBracket: for f = 1 the range has
    width 1/pi^2, so small r are genuinely unreachable.
    """
    if r1 == r2:
        return 0.0
    scale, solve = (q.prefactor * q.gamma_factor).real, _level_solver(ctx, lo, hi)
    t1, t2 = (solve(scale / (r + 1.0))[0] for r in (r1, r2))
    return t2 - t1


def thm19_oracle(
    ctx: InversionContext, q: QuadraticPowerIntegral, r1: float, r2: float,
    lo: float = 0.05, hi: float = 60.0,
) -> float:
    """Quadrature of f1(t) (quadratic)^-m between the beta endpoints, to
    tolerance 1e-10, with f1(t) = 1/h_i'(h(U(t))): the weight for which
    the closed form of thm19_value holds.  One level solve serves every
    node, and h_i' is the one it read at the root."""
    a1, a2 = beta_endpoint(q, r1), beta_endpoint(q, r2)
    solve = _level_solver(ctx, lo, hi)

    def integrand(t: complex) -> complex:
        _root, slope = solve(U_antideriv(q, t).real)
        return complex(q.evaluate(t).real / slope)

    value, _err = quad_oracle(integrand, a1, a2, tol=1e-10)
    return value.real


def thm20_residual(
    ctx: InversionContext, A: float, l1: float = 0.0, lo: float = 0.05, hi: float = 60.0
) -> float:
    """|w(exp(-pi sqrt(h(A) - l1))) - L(A)|, h and L on the bracket [lo, hi]."""
    t = hi_inverse(ctx, A, lo, hi)
    if t - l1 <= 0:
        raise DomainError("h(A) - l1 must be positive")
    return abs(_w_real(ctx, t - l1) - _w_real(ctx, t))


def thm20_fit(
    ctx: InversionContext, anchors, lo: float = 0.05, hi: float = 60.0
) -> tuple[float, int]:
    """Fit the shift l1 (and report the sign convention).

    By the defining equation w(q) = L holds at q = L/f(L), so the shift
    that zeroes the residual at an anchor A is h(A) - (ln(q)/pi)^2 with
    L = L(A); the fit is the mean over the anchors.
    """
    shifts, solve = [], _level_solver(ctx, lo, hi)
    for a in anchors:
        t = solve(a)[0]
        level = _w_real(ctx, t)
        q = level / eval_expr(ctx.f.tree, level).real
        shifts.append(t - (math.log(q) / math.pi) ** 2)
    return sum(shifts) / len(shifts), 1


_CBRT4 = 2.0 ** (2.0 / 3.0)


def modular_abscissa(r: float) -> float:
    """2^(-2/3) B0(k_r^2; 1/6, 2/3): the abscissa paired with nome r."""
    if not r > 0:
        raise DomainError("r must be positive")
    return inc_beta(k_r(r) ** 2, 1.0 / 6.0, 2.0 / 3.0).real / _CBRT4


def f1_real_cross(A: float) -> tuple[float, float]:
    """Two independent values that an identity says coincide:
    F1(A) through the Appell/Newton path, and R(exp(-pi sqrt(m0(A))))
    through the modular path, m0 inverting modular_abscissa by
    newton_decreasing in s = sqrt(r) over r in [0.05, 50], a variable
    that stays clear of 0.
    The slope is d lambda/ds = -pi lambda theta4^4 (lambda'(tau) =
    i pi lambda theta4^4 at tau = i s, lambda = k_r^2) times
    dB0/d lambda = lambda^(-5/6) (1 - lambda)^(-1/3).
    """
    r_lo, r_hi = 0.05, 50.0
    g_lo, g_hi = modular_abscissa(r_lo), modular_abscissa(r_hi)
    if not (g_hi <= A <= g_lo):
        raise NoBracket(f"A={A:.6g} outside the abscissa range [{g_hi:.6g}, {g_lo:.6g}]")

    def g(s: float) -> tuple[float, float]:
        lam = k_r(s * s) ** 2
        theta4 = theta3(-math.exp(-math.pi * s)).real
        dlam = -math.pi * lam * theta4**4
        slope = dlam * lam ** (-5.0 / 6.0) * (1.0 - lam) ** (-1.0 / 3.0) / _CBRT4
        return modular_abscissa(s * s) - A, slope

    s_lo, s_hi = math.sqrt(r_lo), math.sqrt(r_hi)
    s = newton_decreasing(g, s_lo, s_hi, 0.5 * (s_lo + s_hi))
    modular = rogers_ramanujan(math.exp(-math.pi * s)).real
    direct = F1_forward(A).real
    return direct, modular
