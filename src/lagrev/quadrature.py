"""Quadrature along straight segments in C, and the two Newton solvers
that every scalar root solve of the package goes through:
newton_decreasing (real, bracketed) and newton (complex, unbracketed).

The integrator is the ground truth the verification suite uses against
every closed form; it must stay independent of those closed forms.
A segment with a singular end, given as a function of the distance to
it, goes through the tanh-sinh rule; any other through adaptive
Gauss-Kronrod 15.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from .errors import NoConvergence, NonIntegrable

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


_TS_LEVELS = 10


def _tanh_sinh(left, right, tol: float) -> tuple[complex, float]:
    """Tanh-sinh rule on the parameter interval [0, 1] (Takahasi & Mori 1974).

    left(d) / right(d) is the integrand times the span at parameter
    distance d from that end, or None once the node rounds onto the end.
    The node at x >= 0 lies at d = e/(1 + e), e = exp(-pi sinh x), from
    each end, with weight pi cosh x d (1 - d).  Level 0 walks each side out
    in unit steps until a term is negligible or the side ends; each later
    level halves the step within that reach.  Returns once two levels agree
    within tol, from the third level on; the estimate is their difference,
    floored at 4 ulps of the sum of |terms|.  NonIntegrable when level 0
    reaches d = 0 with d |f| still above tol (the endpoint terms do not
    decay), or when the levels disagree at level 10.
    """
    reach = [math.inf, math.inf]
    total = 0.25 * math.pi * left(0.5)
    mass, evals, h, previous = abs(total), 1, 1.0, None
    for level in range(_TS_LEVELS + 1):
        for i, fn in enumerate((left, right)):
            x, last = h, 0.0
            while x < reach[i]:
                e = math.exp(-math.pi * math.sinh(x))
                d = e / (1.0 + e)
                f = fn(d)
                if f is None:
                    if level == 0 and d == 0.0 and last > tol:
                        raise NonIntegrable(
                            f"endpoint terms do not decay: d |f| = {last:.3e} at the "
                            f"{('left', 'right')[i]} end, level {level}, {evals} evaluations"
                        )
                    reach[i] = x
                    break
                evals += 1
                term = math.pi * math.cosh(x) * d * (1.0 - d) * f
                total += term
                mass += abs(term)
                last = d * abs(f)
                if level == 0 and abs(term) <= 2.0**-52 * mass:
                    reach[i] = x
                    break
                x += h if level == 0 else 2.0 * h
        value = h * total
        floor = 4.0 * 2.0**-52 * h * mass
        if previous is not None:
            diff = abs(value - previous)
            if level >= 2 and diff <= max(tol, floor):
                return value, max(diff, floor)
        previous = value
        h *= 0.5
    raise NonIntegrable(
        f"tanh-sinh levels still disagree by {diff:.3e} at level {_TS_LEVELS}, "
        f"{evals} evaluations"
    )


def quad_oracle(
    integrand: Callable[[complex], complex],
    z1: complex,
    z2: complex,
    tol: float = 1e-12,
    from_left: Optional[Callable[[float], complex]] = None,
    from_right: Optional[Callable[[float], complex]] = None,
) -> tuple[complex, float]:
    """Integrate along the straight segment [z1, z2]; returns
    (value, error_estimate).

    from_left(d) / from_right(d), the integrand at parameter distance d
    from that end, marks a singular end: the distance is evaluated
    directly, without the cancellation 1 - (1 - d) that otherwise caps the
    accuracy near the end.  A segment with either form goes through the
    tanh-sinh rule, which needs no exponent of the singularity, and an end
    without a form through the integrand; a segment with neither through
    adaptive Gauss-Kronrod 15.
    """
    if z1 == z2:
        return 0j, 0.0
    span = z2 - z1

    def on_segment(t: float) -> complex:
        return integrand(z1 + span * t) * span

    if from_left is None and from_right is None:
        return _adaptive(on_segment, 0.0, 1.0, tol)

    def side(form, t_of):
        if form is not None:
            return lambda d: form(d) * span if d else None
        end = z1 + span * t_of(0.0)
        return lambda d: None if z1 + span * t_of(d) == end else on_segment(t_of(d))

    return _tanh_sinh(side(from_left, lambda d: d), side(from_right, lambda d: 1.0 - d), tol)


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
