"""The real-nome pipeline q = exp(-pi sqrt(A)).

Everything here is built on one chain: h_i(A) = pi^-2 sum a_n q^n/n^2
+ (sqrt(A)/pi) sum a_n q^n/n, its numeric inverse h, and
L(x) = w(exp(-pi sqrt(h(x)))).  Within that chain L'(x) = pi/sqrt(h(x))
holds exactly, which the closed-form integral identities below exploit.
All free additive constants are fitted, never derived.
"""

from __future__ import annotations

import math

from .errors import DomainError, NoBracket, NonMonotone
from .expr import eval_expr
from .inversion import F1_forward, InversionContext, _q_w_prime, build_context
from .quadint import QuadraticPowerIntegral, U_antideriv, beta_endpoint
from .quadrature import newton_decreasing, quad_oracle
from .series import eval_series
from .specfun import inc_beta, k_r, rogers_ramanujan, theta3


# perfbench's thm19 workload calls realanalog.build_real_context; the real
# chain runs on an InversionContext
build_real_context = build_context


def _real_nome(A: float) -> float:
    """The real nome q = exp(-pi sqrt(A)); DomainError unless A > 0."""
    if not A > 0:
        raise DomainError("the real nome requires A > 0")
    return math.exp(-math.pi * math.sqrt(A))


def hi_prime(ctx: InversionContext, A) -> float:
    """h_i'(A) = -(1/2) q w'(q) at q = exp(-pi sqrt(A)), with
    q w'(q) = sum a_n q^n."""
    return -0.5 * _q_w_prime(ctx, _real_nome(float(A))).real


def hi_of(ctx: InversionContext, A) -> float:
    """h_i(A) = pi^-2 sum a_n q^n/n^2 + (sqrt(A)/pi) sum a_n q^n/n."""
    A = float(A)
    q = _real_nome(A)
    s2 = 0.0
    s1 = 0.0
    qn = 1.0
    for n, a in enumerate(ctx.a, start=1):
        qn *= q
        s2 += a.real * qn / (n * n)
        s1 += a.real * qn / n
    return s2 / math.pi**2 + math.sqrt(A) / math.pi * s1


def hi_inverse(
    ctx: InversionContext, target: float, lo: float = 0.05, hi: float = 60.0
) -> float:
    """Solve h_i(t) = target on [lo, hi]: bracketed Newton with the
    derivative hi_prime from the midpoint.  h_i must be strictly
    decreasing on the bracket (else NonMonotone) and its range there
    must hold the target (else NoBracket)."""
    flo = hi_of(ctx, lo)
    fhi = hi_of(ctx, hi)
    if flo <= fhi:
        raise NonMonotone("h_i is not decreasing on the requested bracket")
    if not (fhi <= target <= flo):
        raise NoBracket(
            f"target {target:.6g} outside the h_i range [{fhi:.6g}, {flo:.6g}]"
        )
    g = lambda t: hi_of(ctx, t) - target  # noqa: E731
    return newton_decreasing(g, lambda t: hi_prime(ctx, t), lo, hi, 0.5 * (lo + hi))


def _w_real(ctx: InversionContext, t: float) -> float:
    """w at the real nome exp(-pi sqrt(t))."""
    value, _tail = eval_series(ctx.w_series, _real_nome(t))
    return value.real


def L_of(ctx: InversionContext, x: float, lo: float = 0.05, hi: float = 60.0) -> float:
    """L(x) = w(exp(-pi sqrt(h(x)))) with h the inverse of h_i."""
    return _w_real(ctx, hi_inverse(ctx, x, lo, hi))


def S_residual(
    ctx: InversionContext, x: float, lo: float = 0.05, hi: float = 60.0
) -> float:
    """Residual of -L''/L'^3 + pi^-2/L = (pi^-2/2) P0* at the point x.

    The left side uses finite differences of L; the right side recovers
    P0* = h' + 2/L from the pole-plus-analytic decomposition, with
    h'(x) = 1/h_i'(h(x)).
    """
    L = lambda t: L_of(ctx, t, lo, hi)  # noqa: E731
    h1 = 1e-6 * max(1.0, abs(x))
    d1 = lambda s: (L(x + s) - L(x - s)) / (2.0 * s)  # noqa: E731
    lp = (4.0 * d1(h1 / 2) - d1(h1)) / 3.0
    h2 = 1e-4 * max(1.0, abs(x))
    tx = hi_inverse(ctx, x, lo, hi)
    lx = _w_real(ctx, tx)
    d2 = lambda s: (L(x + s) - 2.0 * lx + L(x - s)) / (s * s)  # noqa: E731
    lpp = (4.0 * d2(h2 / 2) - d2(h2)) / 3.0
    left = -lpp / lp**3 + 1.0 / (math.pi**2 * lx)
    hprime = 1.0 / hi_prime(ctx, tx)
    right = 0.5 / math.pi**2 * (hprime + 2.0 / lx)
    return left - right


def thm19_value(
    ctx: InversionContext,
    q: QuadraticPowerIntegral,
    r1: float,
    r2: float,
    lo: float = 0.05,
    hi: float = 60.0,
) -> float:
    """R2 - R1 where h_i(R_j) equals the closed-form level of r_j.

    The levels prefactor * Gamma(1-m)^2/Gamma(2-2m) / (r+1) must fall in
    the (narrow) range of h_i, else NoBracket: for f = 1 the range has
    width 1/pi^2, so small r are genuinely unreachable.
    """
    if r1 == r2:
        return 0.0
    levels = []
    for r in (r1, r2):
        target = (q.prefactor * q.gamma_factor).real / (r + 1.0)
        levels.append(hi_inverse(ctx, target, lo, hi))
    return levels[1] - levels[0]


def thm19_oracle(
    ctx: InversionContext,
    q: QuadraticPowerIntegral,
    r1: float,
    r2: float,
    lo: float = 0.05,
    hi: float = 60.0,
) -> float:
    """Quadrature of f1(t) (quadratic)^-m between the beta endpoints, to
    tolerance 1e-10, with f1(t) = 1/h_i'(h(U(t))): the weight for which
    the closed form of thm19_value holds."""
    a1 = beta_endpoint(q, r1)
    a2 = beta_endpoint(q, r2)

    def integrand(t: complex) -> complex:
        u = U_antideriv(q, t).real
        s = hi_inverse(ctx, u, lo, hi)
        return complex(q.evaluate(t).real / hi_prime(ctx, s))

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
    shifts = []
    for a in anchors:
        t = hi_inverse(ctx, a, lo, hi)
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
    g_lo = modular_abscissa(r_lo)
    g_hi = modular_abscissa(r_hi)
    if not (g_hi <= A <= g_lo):
        raise NoBracket(
            f"A={A:.6g} outside the abscissa range [{g_hi:.6g}, {g_lo:.6g}]"
        )

    def slope(s: float) -> float:
        lam = k_r(s * s) ** 2
        theta4 = theta3(-math.exp(-math.pi * s)).real
        dlam = -math.pi * lam * theta4**4
        return dlam * lam ** (-5.0 / 6.0) * (1.0 - lam) ** (-1.0 / 3.0) / _CBRT4

    s_lo, s_hi = math.sqrt(r_lo), math.sqrt(r_hi)
    s = newton_decreasing(
        lambda t: modular_abscissa(t * t) - A, slope, s_lo, s_hi, 0.5 * (s_lo + s_hi)
    )
    modular = rogers_ramanujan(math.exp(-math.pi * s)).real
    direct = F1_forward(A).real
    return direct, modular
