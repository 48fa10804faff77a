"""Integrals of (a1 t^2 + b1 t + c1)^(-m): the incomplete-beta
antiderivative U, the special points beta_r, and the closed forms that
evaluate such integrals between beta-points.

Branch policy: all fractional powers are principal.  The overall phase of
the antiderivative prefactor is fixed by requiring U'(x) to equal the
integrand exactly, which also reproduces the real calibration
(a1, b1, c1, m) = (-1, 0, 1, 1/2) -> U(x) = 2 arcsin sqrt((1+x)/2); the
phase of the raw textbook prefactor relative to it is kept for reporting.
A real negative -a1/D1 is taken from below the cut (imaginary part -0.0),
whatever sign of zero the complex arithmetic left on it, so that real
a1 > 0 > c1 gives the same branch for either sign of b1.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .errors import BranchError, DomainError, NoConvergence, PoleError
from .quadrature import newton_decreasing
from .specfun import gamma_fn, inc_beta

_TWO_PI_I = 2j * math.pi


@dataclass(frozen=True)
class QuadraticPowerIntegral:
    """The integrand family (a1 t^2 + b1 t + c1)^(-m), m rational."""

    a1: complex
    b1: complex
    c1: complex
    m: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a1", complex(self.a1))
        object.__setattr__(self, "b1", complex(self.b1))
        object.__setattr__(self, "c1", complex(self.c1))
        object.__setattr__(self, "m", Fraction(self.m))
        for name, value in (("a1", self.a1), ("b1", self.b1), ("c1", self.c1)):
            if not cmath.isfinite(value):
                raise DomainError(f"coefficient {name} must be finite, got {value}")
        if not (0 < self.m < 1):
            raise DomainError("the exponent m must lie strictly in (0, 1)")
        if self.a1 == 0:
            raise DomainError("a1 must be nonzero")
        if self.D1 == 0:
            raise DomainError("the quadratic must have distinct roots (D1 != 0)")

    @functools.cached_property
    def mf(self) -> float:
        return float(self.m)

    @functools.cached_property
    def alpha(self) -> float:  # the equal beta parameters 1 - m
        return float(1 - self.m)

    @functools.cached_property
    def D1(self) -> complex:
        return self.b1 * self.b1 - 4.0 * self.a1 * self.c1

    @functools.cached_property
    def sqrt_D1(self) -> complex:
        return cmath.sqrt(self.D1)

    @property
    def rho1(self) -> complex:
        return (self.b1 - self.sqrt_D1) / (2.0 * self.a1)

    @functools.cached_property
    def prefactor(self) -> complex:
        """Phase-calibrated prefactor: with it, dU/dx = (quadratic)^(-m)."""
        ratio = -self.a1 / self.D1
        if ratio.imag == 0:
            ratio = complex(ratio.real, -0.0)
        return -(ratio**self.mf) * self.sqrt_D1 / self.a1

    @property
    def prefactor_literal(self) -> complex:
        """(-1)^(m+1) a1^(m-1) D1^(1/2-m), every power principal."""
        return (
            cmath.exp(1j * math.pi * (self.mf + 1.0))
            * self.a1 ** (self.mf - 1.0)
            * self.D1 ** (0.5 - self.mf)
        )

    @property
    def branch_phase(self) -> complex:
        """Calibrated prefactor over the literal one (reported, not used)."""
        return self.prefactor / self.prefactor_literal

    @property
    def gamma_factor(self) -> float:
        return gamma_fn(self.alpha) ** 2 / gamma_fn(2 * self.alpha)

    def evaluate(self, t: complex) -> complex:
        """The integrand (a1 t^2 + b1 t + c1)^(-m), principal power."""
        quad = (self.a1 * t + self.b1) * t + self.c1
        return quad ** (-self.mf)

    def root_form(self, t0: complex, span: complex) -> Callable[[float], complex]:
        """The integrand at parameter distance d from a root t0, on the
        segment t0 + span*d: quad(t0 + span*d) = span*d*(quad'(t0) +
        a1*span*d) exactly when quad(t0) = 0, free of the 1 - (1 - d)
        cancellation there (quad_oracle's from_left/from_right form)."""
        slope = 2.0 * self.a1 * t0 + self.b1
        return lambda d: (span * d * (slope + self.a1 * span * d)) ** (-self.mf)


@dataclass(frozen=True)
class BetaPoint:
    """Solution beta of B_{1-m}(1-beta)/B_{1-m}(beta) = sqrt(r).

    u = min(beta, 1 - beta) is the solver's root at full precision; for
    r < 1 the double beta = 1 - u rounds away the digits of u below
    about 1e-16, so callers that need 1 - beta read u.
    """

    m: Fraction
    r: float
    beta: float
    u: float


def B_alpha(x: float, alpha: float) -> float:
    """sqrt of the incomplete beta with equal parameters."""
    if not 0.0 <= x <= 1.0:
        raise DomainError("B_alpha needs x in [0, 1]")
    if not 0.0 < alpha < 1.0:
        raise DomainError("B_alpha needs alpha in (0, 1)")
    if x == 0.0:
        return 0.0
    return math.sqrt(inc_beta(x, alpha, alpha).real)


_LOG_TINY = math.log(sys.float_info.min)
_LOG_HALF = math.log(0.5)


def beta_r(m: Fraction, r: float) -> BetaPoint:
    """Solve B_{1-m}(1-t)/B_{1-m}(t) = sqrt(r) for t in (0, 1).

    t -> 1 - t turns r into 1/r, so with s = max(r, 1/r) the root u lies
    in (0, 1/2] and t is u or 1 - u.  With equal parameters alpha = 1-m,
    B0(1-u) = B - B0(u) for the complete value B = B(alpha, alpha), so
    the equation is B0(u) = B/(1+s).  Bracketed Newton solves
    g(v) = B/(1+s) - B0(e^v), dg/dv = -u^alpha (1-u)^(alpha-1), in
    v = log u on [log(float_min), log(1/2)].  Its seed is one Newton step
    on the first two terms of B0(u) = (u^alpha/alpha)(1 + c u + ...),
    c = alpha(1-alpha)/(alpha+1) (DLMF 8.17.8), from the root
    v0 = log(alpha B/(1+s))/alpha of the first, clamped to that bracket.
    No evaluation lies beyond x = 1/2, the mean of equal parameters: each
    B0(u) is one continued fraction, B itself the two met at x = 1/2 (see
    inc_beta), and no step of the solve reaches quadrature.  NoConvergence
    unless the ratio residual |sqrt(B/B0(u) - 1) - sqrt(s)| is at most 1e-10.
    """
    m = Fraction(m)
    if not (0 < m < 1):
        raise DomainError("the exponent m must lie strictly in (0, 1)")
    if not r > 0:
        raise DomainError("r must be positive")
    alpha = float(1 - m)
    s = max(r, 1.0 / r)
    ib = lambda u: inc_beta(u, alpha, alpha).real  # noqa: E731
    complete = ib(1.0)
    target = complete / (1.0 + s)

    def g(v: float) -> tuple[float, float]:
        u = math.exp(v)
        return target - ib(u), -(u**alpha) * (1.0 - u) ** (alpha - 1.0)

    v0 = math.log(alpha * target) / alpha
    e = alpha * (1.0 - alpha) / (alpha + 1.0) * math.exp(v0)
    seed = min(max(v0 - math.log1p(e) / (alpha + e / (1.0 + e)), _LOG_TINY), _LOG_HALF)
    u = math.exp(newton_decreasing(g, _LOG_TINY, _LOG_HALF, seed))
    residual = abs(math.sqrt(complete / ib(u) - 1.0) - math.sqrt(s))
    if residual > 1e-10:
        raise NoConvergence(f"beta_r residual {residual:.3e} did not reach 1e-10")
    return BetaPoint(m=m, r=float(r), beta=u if r >= 1.0 else 1.0 - u, u=u)


def U_antideriv(q: QuadraticPowerIntegral, x: complex) -> complex:
    """Antiderivative of (a1 t^2 + b1 t + c1)^(-m) via incomplete beta."""
    s = (-q.b1 + q.sqrt_D1 - 2.0 * q.a1 * complex(x)) / (2.0 * q.sqrt_D1)
    if abs(s.imag) < 1e-300 and s.real >= 1.0:
        raise BranchError("B0 argument on the cut [1, oo)")
    return q.prefactor * inc_beta(s, q.alpha, q.alpha)


def omega(q: QuadraticPowerIntegral, z: complex) -> complex:
    """Omega(z) = prefactor * Gamma(1-m)^2/Gamma(2-2m) / (1 - z^2)."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"Omega needs a finite argument, got {z}")
    denom = 1.0 - z * z
    if abs(denom) < 1e-14:
        raise PoleError("Omega has poles at z = +-1")
    return q.prefactor * q.gamma_factor / denom


def closed_integral_thm18(q: QuadraticPowerIntegral, r1: float, r2: float) -> complex:
    """Closed form of the integral of (quadratic)^(-m) between the
    beta-points of r1 and r2; r = inf is the exact limit 1/(r+1) -> 0."""
    for r in (r1, r2):
        if not (r > 0 or math.isinf(r)):
            raise DomainError("r endpoints must be positive (inf admitted)")
    term1 = 0.0 if math.isinf(r1) else 1.0 / (r1 + 1.0)
    term2 = 0.0 if math.isinf(r2) else 1.0 / (r2 + 1.0)
    return q.prefactor * q.gamma_factor * (term2 - term1)


def beta_endpoint(q: QuadraticPowerIntegral, r: float) -> complex:
    """The abscissa -rho1 - (sqrt(D1)/a1) beta_r paired with omega(i sqrt r)."""
    if math.isinf(r):
        return -q.rho1
    b = beta_r(q.m, r).beta
    return -q.rho1 - (q.sqrt_D1 / q.a1) * b


def f1_integrand(
    q: QuadraticPowerIntegral,
    c: complex,
    p0: Callable[[complex], complex],
) -> Callable[[complex], complex]:
    """The weight f1(t) = -1/(c - 2 pi i U(t)) + P0(c - 2 pi i U(t)),
    multiplied by the quadratic power: the left-side integrand of the
    residue-type closed form."""

    def integrand(t: complex) -> complex:
        u = c - _TWO_PI_I * U_antideriv(q, t)
        if abs(u) < 1e-14:
            raise PoleError("f1 evaluated at its simple pole")
        return (-1.0 / u + p0(u)) * q.evaluate(t)

    return integrand


def closed_integral_thm13_1(
    q: QuadraticPowerIntegral,
    c: complex,
    z1: complex,
    z2: complex,
    log_f: Optional[Callable[[complex], complex]] = None,
) -> complex:
    """(1/2 pi i)[log(c - 2 pi i t) - log f(c - 2 pi i t)] between
    t = Omega(z1) and t = Omega(z2).

    log_f must be an analytic logarithm of f along the path of interest;
    passing the principal log of f(u) risks branch jumps, so the caller
    supplies it directly (for f = e^u simply log_f = identity).  With
    log_f omitted, f = 1: the pole term alone.
    """
    if log_f is None:
        log_f = lambda u: 0j  # noqa: E731
    t1 = omega(q, z1)
    t2 = omega(q, z2)
    u1 = c - _TWO_PI_I * t1
    u2 = c - _TWO_PI_I * t2
    bracket = (cmath.log(u2) - log_f(u2)) - (cmath.log(u1) - log_f(u1))
    return bracket / _TWO_PI_I
