"""Adaptive Gauss-Kronrod quadrature along straight segments in C, and
the two Newton solvers that every scalar root solve of the package goes
through: newton_decreasing (real, bracketed) and newton (complex,
unbracketed).

The integrator is the ground truth the verification suite uses against
every closed form; it must stay independent of those closed forms.
Endpoint singularities of type |t - endpoint|^{-s}, s < 1, are removed
by the power substitution t = u^p with p(1-s) >= 3 before subdividing.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Optional

from .errors import DomainError, NoConvergence, NonIntegrable

# 15-point Kronrod nodes on [-1, 1] (symmetric; nonnegative half listed)
# with the embedded 7-point Gauss rule on the odd-indexed nodes; the
# full-precision QUADPACK values (Piessens et al. 1983, qk15).
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


def _gk15(fn: Callable[[float], complex], a: float, b: float) -> tuple[complex, float]:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = fn(mid)
    kronrod = _WGK[7] * fc
    gauss = _WG[3] * fc
    for j in range(7):
        x = half * _XGK[j]
        fsum = fn(mid - x) + fn(mid + x)
        kronrod += _WGK[j] * fsum
        if j % 2 == 1:
            gauss += _WG[j // 2] * fsum
    kronrod *= half
    gauss *= half
    return kronrod, abs(kronrod - gauss)


def _adaptive(fn, a: float, b: float, tol: float) -> tuple[complex, float]:
    value, err = _gk15(fn, a, b)
    scale = abs(value)
    stack = [(a, b, value, err)]
    total = 0j
    total_err = 0.0
    splits = 0
    while stack:
        a, b, value, err = stack.pop()
        achievable = 2e-16 * (scale + abs(total))
        if err <= max(tol * (b - a), achievable):
            total += value
            total_err += err
            continue
        if (b - a) < 1e-14:
            # subdivision bottomed out; a panel this narrow that is still
            # far from tolerance means the integrand diverges inside it
            if err > 1e3 * max(achievable, tol):
                raise NonIntegrable(
                    f"divergent integrand at minimal panel width: panel "
                    f"[{a:.17g}, {b:.17g}], error estimate {err:.3e}, {splits} splits"
                )
            total += value
            total_err += err
            continue
        if splits == 20000:
            raise NonIntegrable(
                f"adaptive quadrature stalled above tolerance after {splits} "
                f"splits: panel [{a:.17g}, {b:.17g}], error estimate {err:.3e}"
            )
        splits += 1
        mid = 0.5 * (a + b)
        stack.append((a, mid) + _gk15(fn, a, mid))
        stack.append((mid, b) + _gk15(fn, mid, b))
    return total, total_err


def _power_order(s: float) -> float:
    """Substitution exponent for a |t|^{-s} endpoint singularity.

    When s is (close to) a small rational P/Q the exponent is chosen as a
    multiple of Q, which turns every term of the local Puiseux expansion
    into an integer power of u; the transformed integrand is then smooth
    and Gauss-Kronrod converges at machine precision.
    """
    least = 3.0 / (1.0 - s)
    frac = Fraction(s).limit_denominator(24)
    if abs(float(frac) - s) < 1e-12:
        q = frac.denominator
        return float(q * math.ceil(least / q))
    return float(math.ceil(least))


def quad_oracle(
    integrand: Callable[[complex], complex],
    z1: complex,
    z2: complex,
    tol: float = 1e-12,
    sing_left: float = 0.0,
    sing_right: float = 0.0,
    from_left: Optional[Callable[[float], complex]] = None,
    from_right: Optional[Callable[[float], complex]] = None,
) -> tuple[complex, float]:
    """Integrate along the straight segment [z1, z2].

    sing_left / sing_right declare endpoint singularities: the integrand
    may blow up like |t - endpoint|^{-s} with the given s < 1.  For a
    singular endpoint the integrand should be supplied additionally as
    from_left(d) / from_right(d), the value at parameter distance d from
    that endpoint along the segment; evaluating the distance directly
    avoids the cancellation 1 - (1 - d) that otherwise caps the attainable
    accuracy near t = z2 at roughly eps^(1-s).  Returns
    (value, error_estimate).
    """
    if not (0.0 <= sing_left < 1.0 and 0.0 <= sing_right < 1.0):
        raise DomainError("endpoint singularity exponents must lie in [0, 1)")
    if z1 == z2:
        return 0j, 0.0
    span = z2 - z1

    def on_segment(t: float) -> complex:
        return integrand(z1 + span * t) * span

    if sing_left == 0.0 and sing_right == 0.0:
        return _adaptive(on_segment, 0.0, 1.0, tol)

    # The fallbacks reconstruct the point from the endpoint, so inside the
    # sub-eps shell the distance information is already lost; treat a
    # resulting division by zero as the (substitution-suppressed) origin.
    if from_left is None:
        from_left = _guarded(lambda d: integrand(z1 + span * d))
    if from_right is None:
        from_right = _guarded(lambda d: integrand(z1 + span * (1.0 - d)))

    # Each singular endpoint gets its own substituted piece expressed in
    # the distance from that endpoint, so both pieces carry a + sign.
    parts = []
    if sing_left > 0.0 and sing_right > 0.0:
        parts.append(_substituted(from_left, span, 0.5, sing_left))
        parts.append(_substituted(from_right, span, 0.5, sing_right))
    elif sing_left > 0.0:
        parts.append(_substituted(from_left, span, 1.0, sing_left))
    else:
        parts.append(_substituted(from_right, span, 1.0, sing_right))

    total = 0j
    total_err = 0.0
    for fn in parts:
        value, err = _adaptive(fn, 0.0, 1.0, tol)
        total += value
        total_err += err
    return total, total_err


def _guarded(fn):
    def safe(d: float) -> complex:
        try:
            return fn(d)
        except ZeroDivisionError:
            return 0j

    return safe


def _substituted(fn_dist, span: complex, width: float, s: float):
    """Map u in (0,1] -> d = width * u^p so the transformed integrand
    fn_dist(d) * dd/du vanishes at least quadratically at u = 0."""
    p = _power_order(s)

    def transformed(u: float) -> complex:
        if u == 0.0:
            return 0j
        return fn_dist(width * u**p) * span * width * p * u ** (p - 1.0)

    return transformed


_NEWTON_EVALS = 100


def newton_decreasing(
    g: Callable[[float], float], dg: Callable[[float], float], lo: float, hi: float, t: float
) -> float:
    """Root of a strictly decreasing g on [lo, hi], g(lo) > 0 > g(hi).

    Newton steps with the analytic derivative dg from t; each g value
    shrinks the bracket by its sign, and a step that would leave the
    bracket bisects it instead.  The last step is taken and the search
    stops once it is within 16 ulps of the iterate or the bracket is that
    narrow; NoConvergence after 100 evaluations of g.
    """
    for _ in range(_NEWTON_EVALS):
        gt = g(t)
        if gt > 0.0:
            lo = t
        elif gt < 0.0:
            hi = t
        elif gt == 0.0:
            return t
        tol = 16.0 * math.ulp(t)
        step = gt / dg(t)
        if abs(step) <= tol or hi - lo <= tol:
            return t - step if lo <= t - step <= hi else t
        t -= step
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
    raise NoConvergence(
        f"no root after {_NEWTON_EVALS} iterations: "
        f"bracket [{lo:.17g}, {hi:.17g}], last g = {gt:.3e}"
    )


def newton(
    g: Callable[[complex], complex], dg: Callable[[complex], complex], z: complex, tol: float
) -> complex:
    """Root of an analytic g by plain Newton steps with the derivative dg
    from z: once |g| < tol, one more step, which takes the quadratically
    converging iterate to rounding level.  NoConvergence after 100
    evaluations of g, or at a zero derivative; the message names the
    iteration count and the last |g|.
    """
    for k in range(1, _NEWTON_EVALS + 1):
        gz = g(z)
        slope = dg(z)
        if abs(gz) < tol:
            return z - gz / slope if slope else z
        if slope == 0:
            break
        z -= gz / slope
    cause = "zero derivative" if slope == 0 else "no root"
    raise NoConvergence(f"{cause} after {k} iterations: last |g| = {abs(gz):.3e}")
