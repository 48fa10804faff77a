"""Solving w/f(w) = q and the derived objects P, F1, y, G.

The equation is solved two ways: by formal series reversion (the series is
the deliverable) and by direct Newton iteration (the oracle).  Everything
downstream of w -- the reciprocal-P series, the Appell-based F1 pair and
the composite G -- lives here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import AccuracyLoss, DomainError, PoleError, ZeroAtOrigin
from .expr import Node, eval_expr
from .quadrature import newton
from .series import TruncSeries, eval_series, identity, lagrange_revert
from .specfun import appell_f1, e_map

_TWO_PI_I = 2j * math.pi


@dataclass(frozen=True)
class FuncSpec:
    """A function f(A) carried as its expression tree and its Taylor
    series at 0."""

    tree: Node
    series: TruncSeries


def to_funcspec(tree: Node, order: int) -> FuncSpec:
    return FuncSpec(tree, eval_expr(tree, identity(order)))


@dataclass(frozen=True)
class InversionContext:
    f: FuncSpec
    w_series: TruncSeries
    a: tuple[complex, ...]  # a[n-1] = n * c_n, 1-based in the math


def build_context(f: FuncSpec, order: int) -> InversionContext:
    """Revert f to the given order; DomainError if f's series is shorter."""
    if f.series.order < order:
        raise DomainError(f"f carries order {f.series.order}, the reversion asks for {order}")
    w = lagrange_revert(f.series, order)
    a = tuple(n * w[n] for n in range(1, order + 1))
    return InversionContext(f=f, w_series=w, a=a)


def solve_w_direct(f: FuncSpec, q: complex) -> complex:
    """Newton oracle for w/f(w) = q: quadrature's newton to |residual|
    < 1e-13 from w0 = q*f(0), with the exact slope from the jet
    f(w) + f'(w) eps."""
    f0 = eval_expr(f.tree, 0j)
    if f0 == 0:
        raise ZeroAtOrigin("f vanishes at the origin")

    def slope(w: complex) -> complex:
        fw, fprime = eval_expr(f.tree, TruncSeries((w, 1))).coeffs
        return (fw - w * fprime) / (fw * fw)

    return newton(lambda w: w / eval_expr(f.tree, w) - q, slope, complex(q) * f0, 1e-13)


def _q_w_prime(ctx: InversionContext, q: complex) -> complex:
    """q w'(q) = sum a_n q^n; AccuracyLoss once the tail estimate of the
    series w' exceeds 1e-12."""
    value, tail = eval_series(TruncSeries(ctx.a), q)
    if tail > 1e-12:
        raise AccuracyLoss(
            f"series tail estimate {tail:.3e} exceeds 1e-12 at |q| = {abs(q):.6g} "
            f"with w at order {ctx.w_series.order}"
        )
    return q * value


def p_of_z(ctx: InversionContext, z) -> complex:
    """P = 1/(q w'(q)) at q = e(z), with q w'(q) = sum a_n q^n."""
    qw = _q_w_prime(ctx, e_map(z))
    if qw == 0:
        raise PoleError("q w'(q) vanishes; P has a pole here")
    return 1.0 / qw


_X1_DEN = 11.0 + 5.0 * math.sqrt(5.0)
_X2_DEN = 11.0 - 5.0 * math.sqrt(5.0)


def F1_inverse(a: complex) -> complex:
    """Closed form via the first Appell function; DomainError once a^5
    overflows the float range."""
    a = complex(a)
    if a == 0:
        return 0j
    try:
        a5 = a**5
    except OverflowError:
        raise DomainError(f"F1_inverse at a = {a}: a^5 lies beyond the float range") from None
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


def F1_forward(x: complex) -> complex:
    """Inverse of F1_inverse: quadrature's newton to |residual| < 1e-12
    with the exact derivative F1_inverse_deriv, from the leading-order
    seed (x/6)^(6/5); a DomainError at an iterate names this x."""
    x = complex(x)
    if x == 0:
        return 0j
    seed = (x / 6.0) ** (6.0 / 5.0)
    try:
        return newton(lambda y: F1_inverse(y) - x, F1_inverse_deriv, seed, 1e-12)
    except DomainError as exc:
        raise DomainError(f"F1_forward at x = {x}: {exc}") from None


def y_of(ctx: InversionContext, z) -> complex:
    """y(A) = F1(-w(q_A) / (2 pi i)) at q_A = e(A)."""
    w, _tail = eval_series(ctx.w_series, e_map(z))
    return F1_forward(-w / _TWO_PI_I)


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
