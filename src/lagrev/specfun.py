"""Scalar special functions: nome maps, null Jacobi thetas, singular
modulus, Dedekind eta, gamma, incomplete beta, Gauss 2F1, Appell F1,
Lambert W, and the Rogers-Ramanujan continued fraction.

All branch choices are principal unless an operation exposes an explicit
branch parameter.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys

from .errors import (
    AccuracyLoss,
    BranchError,
    ConvergenceDomain,
    DomainError,
    NoConvergence,
    PoleError,
)
from .quadrature import newton

_TWO_PI_I = 2j * math.pi
_PHI = (1.0 + math.sqrt(5.0)) / 2.0
_PHI_NORM = math.sqrt(1.0 + _PHI * _PHI)


def _as_z(z) -> complex:
    z = complex(z)
    if not (z.imag > 0 and math.isfinite(z.real)):
        raise DomainError("expected a point of the upper half plane")
    return z


def e_map(z) -> complex:
    """The nome e(z) = exp(2 pi i z); DomainError where |e(z)| rounds to 1
    (Im z below about 1e-17)."""
    q = cmath.exp(_TWO_PI_I * _as_z(z))
    if not abs(q) < 1:
        raise DomainError("the nome e(z) requires |e(z)| < 1")
    return q


def _reduce(tau: complex) -> tuple[complex, list]:
    """tau moved into the fundamental domain, |Re tau| <= 1/2 and |tau| >= 1,
    with the steps that moved it (Johansson, arXiv:1806.06725, section 4).
    Each round takes T^-k, tau -> tau - k with k = round(Re tau), which is
    exact, then S, tau -> s = -1/tau, while |tau| < 1; steps holds (k, s)
    per round, s None on the last.  The loop stops 1e-9 short of |tau| = 1,
    so that every S raises Im tau by a factor above 1 + 2e-9, far above
    rounding, and the loop ends; at the reduced tau, Im tau > 0.86.
    """
    steps = []
    while True:
        k = round(tau.real)
        tau -= k
        if abs(tau) >= 1 - 1e-9:
            steps.append((k, None))
            return tau, steps
        tau = -1 / tau
        steps.append((k, tau))


def _thetas(tau: complex) -> tuple[complex, complex, complex]:
    """(theta2, theta3, theta4) at tau, theta2 = sum_n e^{i pi tau (n+1/2)^2}.

    Three terms of each sum at the reduced tau, where |e^{i pi tau}| < 0.066
    and the first term left out is below 3e-19, folded back along the
    steps of _reduce: T^k multiplies theta2 by e^{i pi k/4} and swaps
    theta3 and theta4 when k is odd; S gives (theta2, theta3, theta4)(tau)
    = sqrt(-i s) (theta4, theta3, theta2)(s) at s = -1/tau.
    """
    tau, steps = _reduce(tau)
    q = cmath.exp(1j * math.pi * tau)
    t2 = t3 = t4 = 1.0 + 0j
    for n in (1, 2, 3):
        power = q ** (n * n)
        t2 += power * q**n
        t3 += 2 * power
        t4 += 2 * (-1) ** n * power
    t2 *= 2 * cmath.exp(1j * math.pi / 4 * tau)
    scale = 1.0 + 0j
    for k, s in reversed(steps):
        if s is not None:
            t2, t4 = t4, t2
            scale *= cmath.sqrt(-1j * s)
        t2 *= cmath.exp(1j * math.pi * (k % 8) / 4)
        if k % 2:
            t3, t4 = t4, t3
    return scale * t2, scale * t3, scale * t4


def _nome_thetas(q) -> tuple[complex, complex, complex]:
    """(theta2, theta3, theta4) at the nome q = e^{i pi tau}, tau = log q/(i pi)
    principal (Re tau in (-1, 1]); DomainError unless |q| < 1."""
    q = complex(q)
    if q == 0:
        return 0j, 1.0 + 0j, 1.0 + 0j
    if not abs(q) < 1:
        raise DomainError("theta functions require |q| < 1")
    return _thetas(cmath.log(q) / (1j * math.pi))


def theta2(q) -> complex:
    """Sum over all integers n of q^{(n+1/2)^2}, q^{1/4} principal.

    q = e^{i pi tau}, tau = log q/(i pi) principal; evaluated by modular
    reduction of tau (_thetas), so in bounded time for every |q| < 1.
    DomainError unless |q| < 1.
    """
    return _nome_thetas(q)[0]


def theta3(q) -> complex:
    """Sum over all integers n of q^{n^2}.

    q = e^{i pi tau}, tau = log q/(i pi) principal, reduced as in theta2;
    theta3(-q) is theta4(q) to full relative accuracy (theta3(-0.99) =
    8.459e-106).  Below about q = -0.9967 that value leaves the float range
    and rounds to 0.0, within the rounding of the alternating sum, whose
    terms add up to theta3(|q|).  DomainError unless |q| < 1.
    """
    return _nome_thetas(q)[1]


def mstar(z) -> complex:
    """Elliptic singular modulus (theta2/theta3)^2 at the nome e^{i pi z}.

    Note the half-nome convention: e^{i pi z}, not e^{2 pi i z}; the
    principal nome puts Re z in [-1, 1] (k changes sign under z -> z + 2).
    One modular reduction gives both thetas (_thetas).
    """
    z = _as_z(z)
    t2, t3, _ = _thetas(z - 2 * round(z.real / 2))
    return (t2 / t3) ** 2


def k_r(r: float) -> float:
    """Singular modulus k_r at the real nome e^{-pi sqrt(r)}: mstar at
    z = i sqrt(r)."""
    if not r > 0:
        raise DomainError("k_r requires r > 0")
    return mstar(complex(0.0, math.sqrt(r))).real


_ETA_CHI = (1, 1, 1, 1, 1)
_RR_CHI = (0, 1, -1, -1, 1)
_LOG_TINY = math.log(sys.float_info.min)  # below this |value| is not a normal double


def _product(q: complex, chi: tuple) -> complex:
    """prod_{n >= 1} (1 - q^n)^chi[n mod 5] at a reduced nome e^{2 pi i tau},
    |q| < 0.0044, where the first factor left out, n = 8, differs from 1 by
    under 2e-19."""
    total, power = 1.0 + 0j, 1.0 + 0j
    for n in range(1, 8):
        power *= q
        total *= (1 - power) ** chi[n % 5]
    return total


def eta(z) -> complex:
    """Dedekind eta e^{i pi z/12} prod (1-q^n), q = e(z) = e^{2 pi i z}.

    z is reduced into the fundamental domain (_reduce) and the multiplier
    kept as a logarithm: T^k contributes i pi k/12 (k counted mod 24), S
    at tau contributes log sqrt(-i s), s = -1/tau (eta(tau) = sqrt(-i s)
    eta(s)); the short product (_product) is taken at the reduced point.
    Near a real cusp |eta| falls below the float range (|eta(1e-4 i)| is
    about e^{-2613}): DomainError naming the exponent.
    """
    tau, steps = _reduce(_as_z(z))
    log_eta = 1j * math.pi / 12 * tau + cmath.log(_product(cmath.exp(_TWO_PI_I * tau), _ETA_CHI))
    turns = 0
    for k, s in steps:
        turns += k
        if s is not None:
            log_eta += 0.5 * cmath.log(-1j * s)
    if log_eta.real < _LOG_TINY:
        raise DomainError(f"|eta({z})| = exp({log_eta.real:.6g}) is below the float range")
    return cmath.exp(log_eta + 1j * math.pi * (turns % 24) / 12)


# Lanczos approximation, g = 7, 9 terms; used for complex arguments.
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma_fn(x) -> complex:
    """Gamma function; real arguments go through math.gamma, complex ones
    through reflection plus the shifted Lanczos series.  DomainError where
    either overflows the float range."""
    x = complex(x)
    try:
        value = _gamma(x)
    except OverflowError:
        value = math.inf
    if not cmath.isfinite(value):
        raise DomainError(f"gamma at x = {x} lies beyond the float range")
    return value


def _gamma(x: complex) -> complex:
    if x.imag == 0:
        xr = x.real
        if xr <= 0 and xr == int(xr):
            raise PoleError(f"gamma pole at {int(xr)}")
        return complex(math.gamma(xr))
    if x.real < 0.5:
        # Reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x)
        return math.pi / (cmath.sin(math.pi * x) * _gamma(1 - x))
    x -= 1
    acc = _LANCZOS[0]
    for i, c in enumerate(_LANCZOS[1:], start=1):
        acc += c / (x + i)
    t = x + _LANCZOS_G + 0.5
    return math.sqrt(2 * math.pi) * cmath.exp((x + 0.5) * cmath.log(t) - t) * acc


# Term cap of the hypergeometric sums and of the incomplete-beta
# continued fraction.
_MAX_TERMS = 100000

# Rounding bound of the Gauss core: a value whose size (see _gauss) is at
# most this many times its modulus carries an error near 1e-14 relative.
_ROUNDING_BOUND = 45

# Cancellation bound of hyp2f1 and appell_f1: a value whose size exceeds this
# many times its modulus may be wrong from the 12th digit on, and raises.
_CANCELLATION_BOUND = 1e4


def _uncancelled(value: complex, size: float, name: str, *args) -> complex:
    """value, unless its size passes _CANCELLATION_BOUND times |value|; an
    exact zero stands, as at a zero of a terminating sum."""
    if value and not size <= _CANCELLATION_BOUND * abs(value):
        raise AccuracyLoss(f"{name}{args} cancels: size {size:.3e}, |value| {abs(value):.3e}")
    return value


def hyp2f1(a: float, b: float, c: float, x: complex) -> complex:
    """Gauss 2F1 on |x| < 1 (_gauss): the Maclaurin series where |x| <= 1/2,
    where |x| is the least of |x|, |1-x| and |x/(x-1)|, or where it stops;
    Pfaff's map z/(z-1) (DLMF 15.8.1) where |x/(x-1)| is the least; else
    z -> 1-z with s = c-a-b: DLMF 15.8.4 for s 1e-3 or more from every
    integer, the logarithmic case 15.8.10 at an integer s (after Euler's
    transformation to s >= 0), and the Maclaurin series in between.
    Rounding bound: the value stands when its size is at most
    _ROUNDING_BOUND (45) times |value|, an error near 1e-14 relative;
    otherwise the Maclaurin sum is taken too and returned, unless its size
    is the larger.  AccuracyLoss where the size of the nonzero value
    returned exceeds _CANCELLATION_BOUND (1e4) times |value|.  DomainError
    at a non-positive integer c; NoConvergence at _MAX_TERMS terms.
    """
    if _is_pole(c):
        raise DomainError("2F1 undefined at non-positive integer c")
    x = complex(x)
    if abs(x) >= 1:
        raise ConvergenceDomain("2F1 series requires |x| < 1")
    value, size = _gauss(a, b, c, x)
    if not size <= _ROUNDING_BOUND * abs(value):
        # the Maclaurin sum wins ties, so a core out of range (size inf) never stands
        value, size = min(_maclaurin(a, b, c, x), (value, size), key=lambda pair: pair[1])
    return _uncancelled(value, size, "2F1", a, b, c, x)


def _maclaurin(a: float, b: float, c: float, x: complex) -> tuple[complex, float]:
    """(2F1(a, b; c; x) by its Maclaurin series, the sum of |term|)."""
    term = 1.0 + 0j
    total, size = term, 1.0
    for n in range(_MAX_TERMS):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1)) * x
        total += term
        modulus = abs(term)
        size += modulus
        if modulus <= 1e-17 * abs(total):  # <=: a terminating sum may be 0
            return total, size
    raise NoConvergence(
        f"2F1 series stalled after {n + 1} terms at |x| = {abs(x):.17g}; "
        f"last |term| = {abs(term):.3e}"
    )


def _gauss(a: float, b: float, c: float, x: complex) -> tuple[complex, float]:
    """(2F1(a, b; c; x), size) as hyp2f1 describes, c off the poles; the
    rounding error is about 2.2e-16 size, size being the sum of |term| over
    every series used times the modulus of its prefactor.  (0j, inf) where
    a factor or the value leaves the float range."""
    try:
        value, size = _represent(a, b, c, x)
    except (OverflowError, ZeroDivisionError):
        return 0j, math.inf
    if cmath.isfinite(value) and math.isfinite(size):
        return value, size
    return 0j, math.inf


def _represent(a: float, b: float, c: float, x: complex) -> tuple[complex, float]:
    """(2F1(a, b; c; x), size) by the representation _gauss picks; a factor
    out of the float range raises or comes back inf or nan."""
    w, p, s = 1 - x, x / (x - 1), c - a - b
    m = round(s)
    if abs(x) <= max(0.5, min(abs(w), abs(p))) or _is_pole(a) or _is_pole(b):
        return _maclaurin(a, b, c, x)
    if abs(p) < abs(w):  # Pfaff, DLMF 15.8.1
        scale, (value, size) = w**-a, _maclaurin(a, c - b, c, p)
        return scale * value, abs(scale) * size
    if s == m < 0:  # Euler's transformation to s > 0
        scale, (value, size) = w**s, _gauss(c - a, c - b, c, x)
        return scale * value, abs(scale) * size
    if s != m and abs(s - m) < 1e-3:
        return _maclaurin(a, b, c, x)
    if s == m:
        return _log_case(a, b, m, w)
    ca, cb, s1, s2 = c - a, c - b, 1 - s, 1 + s  # DLMF 15.8.4
    # gammas and reciprocals alternate, so that no partial product overflows
    # where the whole does not
    first = math.gamma(c) * _rgamma(ca) * math.gamma(s) * _rgamma(cb)
    second = math.gamma(c) * _rgamma(a) * math.gamma(-s) * _rgamma(b) * w**s
    (f1, size1), (f2, size2) = _maclaurin(a, b, s1, w), _maclaurin(ca, cb, s2, w)
    # The two terms cancel, most near a pole of Gamma(s), so their own
    # rounding counts: each prefactor's, a few ulps for its gammas (math.gamma
    # is within 4) and |s log w| for w^s, and that of the derived parameters,
    # amplified by 1/|s - m|.
    exact = ((c, -a, -b, -s), (c, -a, -ca), (c, -b, -cb), (1, -s, -s1), (1, s, -s2))
    slip = sum(abs(math.fsum(t)) for t in exact)
    term1, term2 = abs(first * f1), abs(second * f2)
    size = abs(first) * size1 + abs(second) * size2
    size += 4 * (term1 + term2) + abs(s * cmath.log(w)) * term2
    size += (term1 + term2) * slip / (2.2e-16 * abs(s - m))
    return first * f1 + second * f2, size


def _log_case(a: float, b: float, m: int, w: complex) -> tuple[complex, float]:
    """(2F1(a, b; a+b+m; 1-w), size) at an integer m >= 0: DLMF 15.8.10
    times Gamma(a+b+m), a sum of m terms and a logarithmic series."""
    first = math.gamma(a + b + m) * _rgamma(a + m) * _rgamma(b + m)
    second = -math.gamma(a + b + m) * _rgamma(a) * _rgamma(b) * (-w) ** m
    finite, size1, rising = 0j, 0.0, 1.0 + 0j  # rising = (a)_k (b)_k (-w)^k / k!
    for k in range(m):
        term = rising * math.factorial(m - k - 1)
        finite, size1 = finite + term, size1 + abs(term)
        rising *= (a + k) * (b + k) / (k + 1) * -w
    # coeff = (a+m)_k (b+m)_k w^k / (k! (k+m)!), and psi holds
    # psi(k+1) + psi(k+m+1) - psi(a+k+m) - psi(b+k+m), each by psi(y+1) = psi(y) + 1/y
    log_w, coeff = cmath.log(w), 1.0 / math.factorial(m) + 0j
    series, size2 = 0j, 0.0
    psi = _digamma(1) + _digamma(m + 1) - _digamma(a + m) - _digamma(b + m)
    for k in range(_MAX_TERMS):
        series += coeff * (log_w - psi)
        bound = abs(coeff) * (1 + abs(log_w - psi))
        size2 += bound
        if bound < 1e-17 * abs(series):
            return first * finite + second * series, abs(first) * size1 + abs(second) * size2
        psi += 1 / (k + 1) + 1 / (k + m + 1) - 1 / (a + k + m) - 1 / (b + k + m)
        coeff *= (a + m + k) * (b + m + k) / ((k + 1) * (k + m + 1)) * w
    raise NoConvergence(
        f"2F1 logarithmic series stalled after {k + 1} terms at |1 - x| = {abs(w):.17g}"
    )


def _is_pole(x: float) -> bool:
    """x is a non-positive integer, a pole of Gamma."""
    return x <= 0 and x == int(x)


def _rgamma(x: float) -> float:
    """1/Gamma(x), 0 at the poles."""
    return 0.0 if _is_pole(x) else 1 / math.gamma(x)


def _digamma(x: float) -> float:
    """psi(x) off the poles: psi(x) = psi(x+1) - 1/x up to x >= 10, then
    the asymptotic series of DLMF 5.11.2 through x^-14."""
    shift = 0.0
    while x < 10:
        shift, x = shift - 1 / x, x + 1
    tail, y = 0.0, 1 / (x * x)
    for coefficient in (1 / 12, -691 / 32760, 1 / 132, -1 / 240, 1 / 252, -1 / 120, 1 / 12):
        tail = y * (coefficient + tail)  # sum of B_2k / (2k x^2k), from k = 7 down
    return shift + math.log(x) - 0.5 / x - tail


def inc_beta(x, a: float, b: float) -> complex:
    """Incomplete beta B0(x; a, b) = int_0^x t^{a-1} (1-t)^{b-1} dt.

    Two regimes, split at the mean (a+1)/(a+b+2):
    - Re x at or below it, and every x when b <= 0: the continued
      fraction of DLMF 8.17.22 (_b0_fraction);
    - above it: the reflection (DLMF 8.17.4) B(a, b) - B0(1-x; b, a),
      whose tail lies below the mean of the swapped parameters and takes
      the same fraction; at x = 1 the tail is 0.
    The complete value B(a, b) is the two fractions met at the mean (see
    _complete_beta), so it stays independent of the gamma closed form.
    x on the cut (1, inf) raises DomainError, as does x = 1 with b <= 0,
    where the integral diverges.
    """
    if a <= 0:
        raise DomainError("inc_beta requires a > 0")
    x = complex(x)
    if x.imag == 0 and x.real > 1:
        raise DomainError("inc_beta argument on the cut [1, inf)")
    if x == 1 and b <= 0:
        raise DomainError("the complete beta B(a, b) diverges for b <= 0")
    if b <= 0 or x.real <= (a + 1) / (a + b + 2):
        return _b0_fraction(x, a, b)
    return _complete_beta(a, b) - _b0_fraction(1 - x, b, a)


@functools.lru_cache(maxsize=256)
def _complete_beta(a: float, b: float) -> complex:
    """B(a, b) = B0(t; a, b) + B0(1-t; b, a) at the mean t = (a+1)/(a+b+2);
    with a >= b, t >= 1/2 and 1 - t is exact."""
    if a < b:
        return _complete_beta(b, a)
    mean = (a + 1) / (a + b + 2)
    return _b0_fraction(mean, a, b) + _b0_fraction(1 - mean, b, a)


def _b0_fraction(x: complex, a: float, b: float) -> complex:
    """B0(x; a, b) = x^a (1-x)^b/a / (1 + d1/(1 + d2/(1 + ...))), the
    continued fraction of DLMF 8.17.22 with
    d_2m = m(b-m)x/((a+2m-1)(a+2m)) and
    d_2m+1 = -(a+m)(a+b+m)x/((a+2m)(a+2m+1)),
    evaluated forwards by the modified Lentz method (Thompson & Barnett,
    J. Comput. Phys. 64, 1986), in floats when x is real.  A zero
    denominator is replaced by 1e-300.  It converges fast below the mean
    (a+1)/(a+b+2); NoConvergence at _MAX_TERMS steps, and DomainError
    where x^a (1-x)^b exceeds the float range.
    """
    if x == 0:
        return 0j
    try:
        if x.imag == 0 and x.real > 0:
            prefactor = x.real**a * (1 - x.real) ** b / a
        else:
            prefactor = cmath.exp(a * cmath.log(x) + b * cmath.log(1 - x)) / a
    except OverflowError:
        raise DomainError(f"B0({x}; {a}, {b}) exceeds the float range") from None
    if x.imag == 0:
        x = x.real
    denominator, c, d = 1.0, 1.0, 0.0
    for k in range(1, _MAX_TERMS + 1):
        m = k // 2
        if k % 2:
            dk = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        else:
            dk = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        d = 1 / (1 + dk * d or 1e-300)
        c = 1 + dk / c or 1e-300
        step = c * d
        denominator *= step
        if abs(step - 1) <= 2.2e-16:
            return complex(prefactor / denominator)
    raise NoConvergence(
        f"incomplete beta continued fraction stalled after {k} steps at "
        f"x = {x}; last |step - 1| = {abs(step - 1):.3e}"
    )


def appell_f1(a: float, b1: float, b2: float, c: float, x: complex, y: complex) -> complex:
    """First Appell function on the unit polydisc, by the expansion of
    Burchnall & Chaundy (Quart. J. Math. 11, 1940) in products of Gauss
    functions:
    F1 = sum_r t_r (xy)^r 2F1(a+r, b1+r; c+2r; x) 2F1(a+r, b2+r; c+2r; y),
    t_r = (a)_r (b1)_r (b2)_r (c-a)_r / ((c+r-1)_r (c)_2r r!).
    The factors come from one backward recurrence in r (_gauss_factors;
    Gautschi, SIAM Review 9, 1967) run down from a depth n that puts the
    terms, which fall like (lam(x) lam(y))^r, and the start's error,
    lam^2(n-r), below 1e-17, lam(z) = |(1 - sqrt(1-z))/(1 + sqrt(1-z))|;
    n doubles if the sum runs on.  The sum stops at a zero coefficient or
    after two terms in a row below 1e-17 of it (a factor may vanish at one
    r).  Cost: O(1/sqrt(1 - |z|)) steps (620 at x = y = 0.999).  `hyp2f1`
    gives the r = 0 factors (one call when (b1, x) = (b2, y)), the r = 1
    factor where the pass cancels there, and the value alone on an axis.
    AccuracyLoss where the sum of |term| exceeds _CANCELLATION_BOUND (1e4)
    times a nonzero |F1|; DomainError at a non-positive integer c;
    NoConvergence where n would pass _MAX_TERMS.
    """
    x, y = complex(x), complex(y)
    if not (abs(x) < 1 and abs(y) < 1):  # NaN too
        raise ConvergenceDomain("Appell F1 series requires |x| < 1 and |y| < 1")
    if not (x and y):
        return hyp2f1(a, b2, c, y) if y else hyp2f1(a, b1, c, x)
    # log lam(z), lam(z) written as |z/(1 + sqrt(1-z))^2| without the cancellation
    log_x, log_y = (math.log(abs(z / (1 + cmath.sqrt(1 - z)) ** 2) or 1e-300) for z in (x, y))
    log_tol = math.log(1e-17)
    n = 2 + int(log_tol / (log_x + log_y) + log_tol / (2 * max(log_x, log_y)))
    while n <= _MAX_TERMS:
        fx = _gauss_factors(a, b1, c, x, n)
        fy = fx if (b1, x) == (b2, y) else _gauss_factors(a, b2, c, y, n)
        term = total = fx[0] * fy[0]
        size = abs(term)
        for r in range(n):
            # t_{r+1} / t_r; the factor (c+r-1)/(c+2r-1) is 1 at r = 0
            shift = (c + r - 1) / (c + 2 * r - 1) if r else 1.0
            step = (a + r) * (b1 + r) * (b2 + r) * (c - a + r) * shift * x * y
            step /= (r + 1) * (c + 2 * r) ** 2 * (c + 2 * r + 1)
            if step == 0:
                break
            last = term
            term = step * fx[1] * fy[1] if r == 0 else term * step * fx[r + 1] * fy[r + 1]
            total += term
            size += abs(term)
            if max(abs(last), abs(term)) < 1e-17 * abs(total):
                break
        else:
            n *= 2
            continue
        return _uncancelled(total, size, "F1", a, b1, b2, c, x, y)
    raise NoConvergence(
        f"Appell F1 expansion needs over {_MAX_TERMS} terms at |x| = {abs(x):.17g}, "
        f"|y| = {abs(y):.17g}"
    )


def _gauss_factors(a: float, b: float, c: float, z: complex, n: int) -> list:
    """[G_0, G_1, G_2/G_1, ..., G_n/G_{n-1}] for G_r = 2F1(a+r, b+r; c+2r; z).
    With (a, b, c) read as (a+r, b+r, c+2r), rho_r = G_r/G_{r-1} is
    c(c-1) / (abz + c(c-a-1)(c-b-1)z/(c-2) + c(c-1)(1-z) - d rho_{r+1}),
    d = (c-a)(c-b) ab z^2 / ((c+1)c), by DLMF 15.5 cleared of denominators,
    so that a zero of a, b, c-a or c-b leaves the step finite.  G_r is the
    minimal solution off [1, inf): the pass runs down from rho_{n+1} = 0.
    G_0 is `hyp2f1`, and so is G_1 where the step to it cancels by more
    than _ROUNDING_BOUND (near a zero of G_0)."""
    g0 = hyp2f1(a, b, c, z)
    factors, rho, z2, w = [g0] * (n + 1), 0j, z * z, 1 - z
    for r in range(n, 0, -1):
        ar, br, cr = a + r, b + r, c + 2 * r
        ca, cb, num = cr - ar, cr - br, cr * (cr - 1)
        e1, e2, e3 = ar * br * z, cr * (ca - 1) * (cb - 1) * z / (cr - 2), num * w
        d = ca * cb * ar * br * z2 / ((cr + 1) * cr) * rho
        den = e1 + e2 + e3 - d
        if r > 1:
            rho = factors[r] = num / (den or 1e-300)
        elif abs(den) * _ROUNDING_BOUND > abs(e1) + abs(e2) + abs(e3) + abs(d):
            factors[1] = g0 * num / den
        else:
            factors[1] = hyp2f1(a + 1, b + 1, c + 2, z)
    return factors


_BRANCH_POINT = -1.0 / math.e


def lambert_w(x, branch: int = 0) -> complex:
    """Lambert W on branches 0 and -1: quadrature's newton on w e^w/x - 1
    from _lambert_seed, to the rounding of w e^w, 1e-14 (1 + |seed|)."""
    if branch not in (0, -1):
        raise BranchError("only branches 0 and -1 are supported")
    x = complex(x)
    if branch == -1 and (x.imag != 0 or not _BRANCH_POINT < x.real < 0):
        raise BranchError("branch -1 requires real x in (-1/e, 0)")
    if x == 0:
        return 0j
    w = _lambert_seed(x, branch)
    g = lambda w: w * cmath.exp(w) / x - 1  # noqa: E731
    return newton(g, lambda w: cmath.exp(w) * (w + 1) / x, w, 1e-14 * (1 + abs(w)))


def _lambert_seed(x: complex, branch: int) -> complex:
    """The seeds of Corless et al. (Adv. Comput. Math. 5, 1996): the
    branch-point series in p = +-sqrt(2(e x + 1)) near -1/e, a Pade form
    about 0 on branch 0, and L1 - L2 + L2/L1 with L1 = log x, L2 = log L1
    elsewhere (log(-x), log(-L1) on branch -1)."""
    if abs(x - _BRANCH_POINT) < 0.3:
        p = (1 + 2 * branch) * cmath.sqrt(2 * (math.e * x + 1))
        return -1 + p - p * p / 3 + 11 / 72 * p**3
    if branch == 0 and -1 < x.real < 3 and abs(x.imag) < 1 and x.real > -2.5 * abs(x.imag) - 0.2:
        return x * (3 + 6 * x + x * x) / (3 + 9 * x + 5 * x * x)
    l1 = cmath.log(-x if branch else x)
    l2 = cmath.log(-l1 if branch else l1)
    return l1 - l2 + l2 / l1


def rogers_ramanujan(q) -> complex:
    """R(q) = q^{1/5} prod (1-q^n)^{chi(n)}, chi = +1 for n = +-1 (mod 5),
    -1 for n = +-2 (mod 5), 0 otherwise; q^{1/5} principal.

    q = e^{2 pi i tau}, tau = log q/(2 pi i) principal (Re tau in (-1/2, 1/2]),
    reduced into the fundamental domain (_reduce), the short product
    (_product) taken there and folded back as one Moebius map: T^k
    multiplies R by e^{2 pi i k/5}, S gives R(tau) = (1 - phi R(s))/(phi +
    R(s)) at s = -1/tau.  Bounded time for every |q| < 1; DomainError
    unless |q| < 1, or where |R| exceeds the float range (near a cusp
    where R has a pole).
    """
    q = complex(q)
    if not abs(q) < 1:
        raise DomainError("Rogers-Ramanujan product requires |q| < 1")
    if q == 0:
        return 0j
    tau, steps = _reduce(cmath.log(q) / _TWO_PI_I)
    value = cmath.exp(_TWO_PI_I / 5 * tau) * _product(cmath.exp(_TWO_PI_I * tau), _RR_CHI)
    # The map (a v + b)/(c v + d) composes T^k = diag(e^{2 pi i k/5}, 1) and
    # S = [[-phi, 1], [1, phi]] / sqrt(1 + phi^2).  Their products are the
    # 60 rotations of the icosahedron, unitary, with entries of modulus 0,
    # 0.526, 0.851 or 1.  So an entry below 0.25 is a rounded zero, and it
    # must be exact where R nears 0 or a pole, or relative accuracy is lost.
    a, b, c, d = 1.0 + 0j, 0j, 0j, 1.0 + 0j
    for k, s in steps:
        turn = cmath.exp(_TWO_PI_I * (k % 5) / 5)
        a, c = a * turn, c * turn
        if s is not None:
            a, b = (b - _PHI * a) / _PHI_NORM, (a + _PHI * b) / _PHI_NORM
            c, d = (d - _PHI * c) / _PHI_NORM, (c + _PHI * d) / _PHI_NORM
    a, b, c, d = (x if abs(x) > 0.25 else 0j for x in (a, b, c, d))
    denominator = c * value + d
    result = (a * value + b) / denominator if denominator else math.inf
    if not cmath.isfinite(result):
        raise DomainError(f"|R({q})| exceeds the float range")
    return result
