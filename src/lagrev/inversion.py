"""Solving w/f(w) = q and the derived objects P, F1, y, G, h.

The equation is solved two ways: by formal series reversion (the series is
the deliverable) and by direct Newton iteration (the oracle).  Everything
downstream of w -- the reciprocal-P series, the Appell-based F1 pair, the
composite G and the h map -- lives here.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

from . import series as qs
from .errors import AccuracyLoss, BranchError, PoleError, ZeroAtOrigin
from .expr import Node, eval_expr
from .quadrature import newton
from .series import TruncSeries, eval_series, lagrange_revert
from .specfun import _as_z, appell_f1, e_map

_TWO_PI_I = 2j * math.pi


@dataclass(frozen=True)
class FuncSpec:
    """A function f(A) carried as its expression tree and its Taylor
    series at 0."""

    tree: Node
    series: TruncSeries


def to_funcspec(tree: Node, order: int = qs.DEFAULT_MAX_ORDER) -> FuncSpec:
    return FuncSpec(tree, eval_expr(tree, qs.identity(order)))


@dataclass(frozen=True)
class InversionContext:
    f: FuncSpec
    w_series: TruncSeries
    a: tuple[complex, ...]  # a[n-1] = n * c_n, 1-based in the math
    order: int
    c: complex = 0j


def build_context(f: FuncSpec, order: int, c: complex = 0j) -> InversionContext:
    w = lagrange_revert(f.series, order)
    a = tuple(n * w[n] for n in range(1, order + 1))
    return InversionContext(f=f, w_series=w, a=a, order=order, c=c)


def solve_w_direct(f: FuncSpec, q: complex, tol: float = 1e-13) -> complex:
    """Newton oracle for w/f(w) = q: quadrature's newton from w0 = q*f(0),
    with the exact slope from the jet f(w) + f'(w) eps."""
    f0 = eval_expr(f.tree, 0j)
    if f0 == 0:
        raise ZeroAtOrigin("f vanishes at the origin")

    def slope(w: complex) -> complex:
        fw, fprime = eval_expr(f.tree, TruncSeries((w, 1))).coeffs
        return (fw - w * fprime) / (fw * fw)

    return newton(lambda w: w / eval_expr(f.tree, w) - q, slope, complex(q) * f0, tol)


def _q_w_prime(ctx: InversionContext, q: complex) -> complex:
    """q w'(q) = sum a_n q^n; AccuracyLoss once the tail estimate of the
    series w' exceeds 1e-12."""
    value, tail = eval_series(TruncSeries(ctx.a), q)
    if tail > 1e-12:
        raise AccuracyLoss(
            f"series tail estimate {tail:.3e} exceeds 1e-12 at |q| = {abs(q):.6g} "
            f"with w at order {ctx.order}"
        )
    return q * value


def p_of_z(ctx: InversionContext, z) -> complex:
    """P = 1/(q w'(q)) at q = e(z), with q w'(q) = sum a_n q^n."""
    qw = _q_w_prime(ctx, e_map(_as_z(z)).q)
    if qw == 0:
        raise PoleError("q w'(q) vanishes; P has a pole here")
    return 1.0 / qw


def w_of_q_via_integral(ctx: InversionContext, z) -> complex:
    """w recovered as the termwise integral of 1/P: sum (a_n/n) q^n."""
    q = e_map(_as_z(z)).q
    integrated = TruncSeries((0j,) + tuple(a / (n + 1) for n, a in enumerate(ctx.a)))
    value, _tail = eval_series(integrated, q)
    return value


_X1_DEN = 11.0 + 5.0 * math.sqrt(5.0)
_X2_DEN = 11.0 - 5.0 * math.sqrt(5.0)


def F1_inverse(a: complex) -> complex:
    """Closed form via the first Appell function."""
    a = complex(a)
    if a == 0:
        return 0j
    a5 = a**5
    x1 = -2.0 * a5 / _X1_DEN
    x2 = -2.0 * a5 / _X2_DEN
    sixth = 1.0 / 6.0
    return 6.0 * a ** (5.0 / 6.0) * appell_f1(sixth, sixth, sixth, 7.0 / 6.0, x1, x2)


def F1_inverse_deriv(y: complex) -> complex:
    """d F1_inverse / dy = 5 / (y (y^-5 - 11 - y^5)^(1/6))."""
    y = complex(y)
    if y == 0:
        raise PoleError("derivative of F1_inverse is singular at 0")
    return 5.0 / (y * (y**-5 - 11.0 - y**5) ** (1.0 / 6.0))


def F1_forward(x: complex, tol: float = 1e-12) -> complex:
    """Inverse of F1_inverse: quadrature's newton with the exact
    derivative F1_inverse_deriv, from the leading-order seed (x/6)^(6/5)."""
    x = complex(x)
    if x == 0:
        return 0j
    return newton(lambda y: F1_inverse(y) - x, F1_inverse_deriv, (x / 6.0) ** (6.0 / 5.0), tol)


def y_of(ctx: InversionContext, z) -> complex:
    """y(A) = F1((c - w(q_A)) / (2 pi i)) at q_A = e(A)."""
    q = e_map(_as_z(z)).q
    w, _tail = eval_series(ctx.w_series, q)
    return F1_forward((ctx.c - w) / _TWO_PI_I)


def cauchy_taylor(
    fn: Callable[[complex], complex],
    center: complex,
    count: int,
    radius: float = 0.5,
    samples: int = 64,
) -> list[complex]:
    """Taylor coefficients fn^(k)(center)/k! for k < count+1 by the
    trapezoid rule on a circle, exact for analytic fn up to aliasing."""
    values = []
    for j in range(samples):
        theta = 2.0 * math.pi * j / samples
        values.append(fn(center + radius * cmath.exp(1j * theta)))
    coeffs = []
    for k in range(count + 1):
        acc = 0j
        for j, v in enumerate(values):
            theta = 2.0 * math.pi * j / samples
            acc += v * cmath.exp(-1j * k * theta)
        coeffs.append(acc / (samples * radius**k))
    return coeffs


def G_from_P0(
    p0: Callable[[complex], complex], c: complex
) -> Callable[[complex], complex]:
    """G with G(F1(A)) = -1/(c - 2 pi i A) + P0(c - 2 pi i A)."""

    def g(y: complex) -> complex:
        a = F1_inverse(y)
        u = c - _TWO_PI_I * a
        if abs(u) < 1e-12:
            raise PoleError("G has a simple pole here")
        return -1.0 / u + p0(u)

    return g


def h_of(
    p0: Callable[[complex], complex], c: complex, a: complex, terms: int = 48
) -> complex:
    """h(A) = log(c - 2 pi i A)/(2 pi i) + sum_k P0^(k)(c) (-2 pi i)^k
    A^(k+1) / (k+1)!, principal log, additive constant zero."""
    a = complex(a)
    u = c - _TWO_PI_I * a
    if u.real <= 0 and abs(u.imag) < 1e-300:
        raise BranchError("c - 2 pi i A lies on the logarithm cut")
    total = cmath.log(u) / _TWO_PI_I
    d = cauchy_taylor(p0, c, terms, radius=0.5)
    tail_bound = math.inf
    for k in range(terms + 1):
        term = d[k] * (-_TWO_PI_I) ** k * a ** (k + 1) / (k + 1)
        total += term
        tail_bound = abs(term)
        if tail_bound < 1e-14 and k >= 2:
            return total
    if tail_bound > 1e-12:
        raise AccuracyLoss(
            f"h series truncated after {terms + 1} terms; last |term| = {tail_bound:.3e} "
            "exceeds 1e-12"
        )
    return total
