"""Truncated formal power series, Lagrange reversion, and the
Moebius-weighted infinite-product representation.

A :class:`TruncSeries` carries coefficients c_0..c_N of one type: all
``Fraction`` (exact arithmetic) or ``complex`` (anything else is coerced).
Arithmetic never silently extends the truncation order: binary operations
truncate to the shorter operand, and mixing a ``Fraction`` series with a
complex one gives a complex series.  All values are immutable; every
operation is pure.  ``lagrange_revert`` and ``revert_exact`` share one
Newton loop on these series, whose orders are fixed top-down from N,
each about half the next, so that only the last step runs near N.

Exact products, quotients and compositions run on integers: each
``Fraction`` operand becomes integer numerators over one common
denominator (its lcm), the integers go through the same convolution and
quotient loops as complex coefficients, and each coefficient of the
result is normalised once, when it is built (as FLINT's ``fmpq_poly``
does; Knuth, TAOCP vol. 2, 4.5.1), not after every product and sum.  A
composition splits its inner series once and carries its Horner
accumulator as integers over one denominator, divided by their gcd at
each step.  Only the kernels ``_mul``, ``_div`` and ``_compose`` look at
the type; what they typed becomes a series unchecked.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Number
from typing import Sequence

from .errors import (
    CompositionDomain,
    ConvergenceDomain,
    DegenerateSeries,
    DomainError,
    ZeroAtOrigin,
)


@dataclass(frozen=True)
class TruncSeries:
    """Power series sum_{n=0}^{N} coeffs[n] * q^n, truncated at order N.

    The coefficients stay ``Fraction`` when every one of them is a
    ``Fraction``; otherwise all are converted to ``complex``.  Zeros and
    ones produced by the arithmetic take the series' own type.
    """

    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        if not all(type(c) is Fraction or isinstance(c, Fraction) for c in coeffs):
            coeffs = tuple(complex(c) for c in coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if not self.coeffs:
            raise DomainError("a TruncSeries needs at least the constant term")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def _scalar(self, value: int):
        """value as a coefficient of this series' type."""
        return Fraction(value) if isinstance(self.coeffs[0], Fraction) else complex(value)

    def __getitem__(self, n: int):
        return self.coeffs[n]

    def truncated(self, order: int) -> "TruncSeries":
        if order >= self.order:
            return self
        return _typed(self.coeffs[: order + 1])

    def padded(self, order: int) -> "TruncSeries":
        """The series at exactly this order: truncated, or extended by zeros."""
        zeros = (self._scalar(0),) * max(0, order - self.order)
        return _typed(self.coeffs[: order + 1] + zeros)

    def __add__(self, other):
        if not isinstance(other, TruncSeries):
            other = constant(other, self.order)
        n = min(self.order, other.order)
        return _typed(tuple(self.coeffs[k] + other.coeffs[k] for k in range(n + 1)))

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return _typed(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, Number):
            return TruncSeries(tuple(c * other for c in self.coeffs))
        return _typed(tuple(_mul(self.coeffs, other.coeffs, min(self.order, other.order))))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Number):
            return self * (self._scalar(1) / other)
        return _typed(tuple(_div(self.coeffs, other.coeffs, min(self.order, other.order))))

    def derivative(self) -> "TruncSeries":
        if self.order == 0:
            return _typed((self._scalar(0),))
        return _typed(tuple((k + 1) * self.coeffs[k + 1] for k in range(self.order)))


def _typed(coeffs: tuple) -> TruncSeries:
    """A series of coefficients a kernel has typed (all Fraction or all complex), unchecked."""
    s = object.__new__(TruncSeries)
    object.__setattr__(s, "coeffs", coeffs)
    return s


def _over_lcm(coeffs) -> tuple[list, int]:
    """Fraction coefficients as integer numerators over their least
    common denominator d, and d."""
    d = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def _mul(a, b, n: int) -> list:
    """Coefficients 0..n of the product of a and b: Fraction when both are, else complex."""
    if not (isinstance(a[0], Fraction) and isinstance(b[0], Fraction)):
        return _convolve(a, b, n, 0j)
    (p, da), (r, db) = _over_lcm(a[: n + 1]), _over_lcm(b[: n + 1])
    return [Fraction(c, da * db) for c in _convolve(p, r, n, 0)]


def _div(a, b, n: int) -> list:
    """Coefficients 0..n of the quotient a/b, typed as _mul's; DegenerateSeries at b_0 = 0."""
    if b[0] == 0:
        raise DegenerateSeries("division by a series with zero constant term")
    if not (isinstance(a[0], Fraction) and isinstance(b[0], Fraction)):
        return _solve_lower(a, b, n, 1 / b[0])
    # q = a/b with a = A/d_a, b = B/d_b: Q_k = q_k d_a B_0^(k+1)/d_b is
    # the integer A_k B_0^k - sum_j B_j B_0^(j-1) Q_(k-j)
    (a, da), (b, db) = _over_lcm(a[: n + 1]), _over_lcm(b[: n + 1])
    powers = [1]
    for _ in range(n + 1):
        powers.append(powers[-1] * b[0])
    lead = [a[k] * powers[k] for k in range(n + 1)]
    scaled = [0] + [b[j] * powers[j - 1] for j in range(1, n + 1)]
    quotient = _solve_lower(lead, scaled, n, 1)
    return [Fraction(quotient[k] * db, da * powers[k + 1]) for k in range(n + 1)]


def _compose(outer, inner, n: int) -> list:
    """Coefficients 0..n of outer(inner) by Horner, typed as _mul's; acc/den when exact."""
    if not (isinstance(outer[0], Fraction) and isinstance(inner[0], Fraction)):
        acc = [0j]
        for c in reversed(outer[: n + 1]):
            acc = _convolve(acc, inner, n, 0j)
            acc[0] += c
        return acc
    (p, d), acc, den = _over_lcm(inner[: n + 1]), [0], 1
    for c in reversed(outer[: n + 1]):
        lcm = math.lcm(den * d, c.denominator)
        acc = [x * (lcm // (den * d)) for x in _convolve(acc, p, n, 0)]
        acc[0] += c.numerator * (lcm // c.denominator)
        g = math.gcd(lcm, *acc)  # without it the integers grow like d^n
        acc, den = [x // g for x in acc], lcm // g
    return [Fraction(x, den) for x in acc]


def _convolve(a, b, n: int, zero) -> list:
    """Coefficients 0..n of the product of the sequences a and b."""
    out = [zero] * (n + 1)
    for j, aj in enumerate(a[: n + 1]):
        if aj == 0:
            continue
        for k in range(n + 1 - j):
            out[j + k] += aj * b[k]
    return out


def _solve_lower(lead, b, n: int, scale) -> list:
    """out_0..out_n of out_k = (lead_k - sum_{j=1..k} b_j out_(k-j)) * scale,
    the recurrence of a series quotient."""
    out = [None] * (n + 1)
    for k in range(n + 1):
        acc = lead[k]
        for j in range(1, k + 1):
            acc -= b[j] * out[k - j]
        out[k] = acc * scale
    return out


def constant(value, order: int) -> TruncSeries:
    """The constant series value + 0 q + ... + 0 q^order (Fraction stays exact)."""
    return TruncSeries((value,)).padded(order)


def identity(order: int) -> TruncSeries:
    """The series q itself."""
    c = [0j] * (order + 1)
    if order >= 1:
        c[1] = 1.0 + 0j
    return TruncSeries(tuple(c))


def compose(outer: TruncSeries, inner: TruncSeries) -> TruncSeries:
    """outer(inner(q)) to the common order; inner must vanish at 0."""
    if inner.coeffs[0] != 0:
        raise CompositionDomain("inner series of a composition must have zero constant term")
    return _typed(tuple(_compose(outer.coeffs, inner.coeffs, min(outer.order, inner.order))))


def s_exp(s: TruncSeries) -> TruncSeries:
    n = s.order
    out = [cmath.exp(s.coeffs[0])] + [0j] * n
    for k in range(1, n + 1):
        acc = 0j
        for j in range(1, k + 1):
            acc += j * s.coeffs[j] * out[k - j]
        out[k] = acc / k
    return TruncSeries(tuple(out))


def s_log(s: TruncSeries) -> TruncSeries:
    if s.coeffs[0] == 0:
        raise DegenerateSeries("log of a series with zero constant term")
    n = s.order
    out = [cmath.log(s.coeffs[0])] + [0j] * n
    inv0 = 1.0 / s.coeffs[0]
    for k in range(1, n + 1):
        acc = k * s.coeffs[k]
        for j in range(1, k):
            acc -= j * out[j] * s.coeffs[k - j]
        out[k] = acc * inv0 / k
    return TruncSeries(tuple(out))


def s_pow(s: TruncSeries, k) -> TruncSeries:
    """s**k for integer or rational/real k.

    Non-negative integer exponents work for any series (and keep a
    Fraction series exact); everything else requires a nonzero constant
    term and gives a complex series.
    """
    if isinstance(k, Fraction) and k.denominator == 1:
        k = int(k)
    if isinstance(k, int) and k >= 0:
        acc = constant(s._scalar(1), s.order)
        for _ in range(k):
            acc = acc * s
        return acc
    if s.coeffs[0] == 0:
        raise DegenerateSeries("fractional or negative power of a series vanishing at 0")
    return s_exp(s_log(s) * complex(float(k) if isinstance(k, Fraction) else k))


def s_sin(s: TruncSeries) -> TruncSeries:
    e_plus = s_exp(s * 1j)
    e_minus = s_exp(s * -1j)
    return (e_plus - e_minus) * (-0.5j)


def s_cos(s: TruncSeries) -> TruncSeries:
    e_plus = s_exp(s * 1j)
    e_minus = s_exp(s * -1j)
    return (e_plus + e_minus) * 0.5


def _revert(f: TruncSeries, order: int) -> TruncSeries:
    """Newton iteration on the series equation w = q*f(w), in f's type.

    The start w = f(0) q is exact through q^1, and a step takes a w that
    is exact through q^n to one exact through q^(2n+2): the error e
    becomes O(q e^2) (Brent & Kung, J. ACM 25, 1978).  The orders are
    fixed top-down, m = N then m <- (m-1)//2 while m > 1, and run upward:
    each m is at most 2n+2 for the n below it, so every step is exact
    through its order, and only the last runs near N: N = 64 takes 5
    steps, at orders 3, 7, 15, 31 and 64 (2, 5, 11, 23 and 48 at N = 48).
    It is private so that a call of revert_exact never counts as one of
    lagrange_revert.
    """
    if f.coeffs[0] == 0:
        raise ZeroAtOrigin("reversion requires f(0) != 0")
    if order < 1:
        raise DomainError("reversion order must be >= 1")
    fN = f.padded(order)
    fprime = fN.derivative().padded(order)
    one = constant(fN._scalar(1), order)
    w = TruncSeries((fN._scalar(0), fN.coeffs[0]))
    ladder, m = [], order
    while m > 1:
        ladder.append(m)
        m = (m - 1) // 2
    for exact_through in reversed(ladder):
        w = w.padded(exact_through)
        residual = w - _shift(compose(fN.truncated(exact_through), w))
        slope = one - _shift(compose(fprime.truncated(exact_through), w))
        w = w - residual / slope
    return w


def _shift(s: TruncSeries) -> TruncSeries:
    """Multiply by q, keeping the truncation order."""
    return _typed((s._scalar(0),) + s.coeffs[:-1])


def lagrange_revert(f: TruncSeries, order: int) -> TruncSeries:
    """Series w(q) with w(q)/f(w(q)) = q + O(q^{order+1}).

    Solved by Newton iteration on the series equation w = q*f(w), whose
    attained order doubles per step; the orders are fixed top-down from
    N, so only the last step runs near N.  The coefficients keep f's type
    (complex, or Fraction for an exact f).  f must not vanish at the
    origin.
    """
    return _revert(f, order)


def defining_residual(f: TruncSeries, w: TruncSeries):
    """max |coefficient| of w(q)/f(w(q)) - q through the common order,
    relative to max |c_n| of w.

    Exact (a Fraction) for Fraction series, so an exact reversion gives 0.
    In double precision each coefficient of w/f(w) carries rounding
    error near eps times the largest c_n, which for fast-growing
    reversions is far above 1 (f = e^A, N = 64: the absolute residual
    reads 1e8-1e9 for coefficients good to 6e-16); relative to that
    scale, a good float reversion reads near eps.
    """
    ratio = w / compose(f.truncated(w.order), w)
    residual = max(abs(c - 1 if n == 1 else c) for n, c in enumerate(ratio.coeffs))
    return residual / (max(abs(c) for c in w.coeffs) or 1)


def _exact_series(s, order: int) -> TruncSeries:
    """s (a TruncSeries or sequence of real numbers) as a Fraction series
    of exactly this order; floats are dyadic, hence exact."""
    out = []
    for c in (s.coeffs if isinstance(s, TruncSeries) else tuple(s))[: order + 1]:
        if isinstance(c, complex):
            if c.imag != 0:
                raise DomainError("exact reversion requires real coefficients")
            c = c.real
        out.append(Fraction(c))
    return TruncSeries(tuple(out)).padded(order)


def revert_exact(f, order: int) -> list:
    """Exact-rational reversion of w/f(w) = q.

    f may be a TruncSeries or coefficient sequence with real entries
    (floats are dyadic, hence exact).  Runs the Newton loop of
    lagrange_revert on the Fraction series of f and returns the Fraction
    coefficients c_0..c_order of w; w/f(w) - q vanishes identically
    through the order.
    """
    return list(_revert(_exact_series(f, order), order).coeffs)


def defining_residual_exact(f, w: list) -> Fraction:
    """max |coefficient| of w/f(w) - q, all arithmetic exact."""
    order = len(w) - 1
    return defining_residual(_exact_series(f, order), _exact_series(w, order))


def eval_series(s: TruncSeries, q: complex) -> tuple[complex, float]:
    """Horner evaluation plus a crude geometric tail estimate."""
    acc = 0j
    for c in reversed(s.coeffs):
        acc = acc * q + c
    aq = abs(q)
    tail = abs(s.coeffs[-1]) * aq ** (s.order + 1) / (1 - aq) if aq < 1 else float("inf")
    return acc, tail


def mobius(n: int) -> int:
    if n < 1:
        raise DomainError("mobius is defined for positive integers")
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1 if p == 2 else 2
    if n > 1:
        result = -result
    return result


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def product_exponents(a: Sequence[complex]) -> tuple[complex, ...]:
    """The exponents (e_1..e_N) of the product form prod (1-q^n)^{-e_n}:
    e_n = (1/n) sum_{d|n} mu(n/d) a_d from the 1-indexed list a."""
    a = tuple(complex(x) for x in a)
    e = []
    for n in range(1, len(a) + 1):
        acc = 0j
        for d in _divisors(n):
            acc += mobius(n // d) * a[d - 1]
        e.append(acc / n)
    return tuple(e)


def invert_exponents(e: Sequence[complex]) -> tuple[complex, ...]:
    """Recover a_n = sum_{d|n} d*e_d (Moebius inversion round trip)."""
    out = []
    for n in range(1, len(e) + 1):
        out.append(sum(d * e[d - 1] for d in _divisors(n)))
    return tuple(out)


def eval_product(e: Sequence[complex], q: complex) -> complex:
    """prod_{n<=N} (1-q^n)^{-e_n} via the principal logarithm."""
    if abs(q) >= 1:
        raise ConvergenceDomain("product form requires |q| < 1")
    acc = 0j
    qn = 1.0 + 0j
    for en in e:
        qn *= q
        if en == 0:
            continue
        if abs(qn) < 1e-8:
            # log(1 - x) to full absolute precision: 1 - x rounds to 1 for
            # sub-eps x, and the exponents can be large enough that the
            # lost e_n * q^n mass is not negligible
            acc += en * (qn + qn * qn / 2 + qn * qn * qn / 3)
        else:
            acc -= en * cmath.log(1 - qn)
    return cmath.exp(acc)
