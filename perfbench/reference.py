"""Independent references and the pass/fail rule for every operation.

References come from closed forms where one exists (n^(n-1)/n! and
Catalan coefficients, 2F1(1,1;2;x) = -log(1-x)/x, 2F1(1/2,1/2;1;x) =
2K(x)/pi, the Appell F1 reductions to 2F1, B(x;1/2,1/2) = 2 asin sqrt x,
the Jacobi triple product for Rogers-Ramanujan) and otherwise from
mpmath at 30 digits.  lagrev never imports mpmath; only the benchmark's
parent process does.

check() compares one operation's output with its reference.  An
operation passes when it did not raise and every compared quantity is
within its stated tolerance; its margin is the smallest
log10(tolerance / error), capped at MARGIN_CAP (reached at error 0 and
at any error 10^4 below the tolerance).
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
from mpmath import mp, mpc, mpf

# An error 10^4 below its tolerance counts as exact: below that level the
# margin only measures rounding noise, which differs from seed to seed.
MARGIN_CAP = 4.0
DPS = 30

# Stated tolerances, relative unless noted.
TOL = {
    "revert_coeff": 1e-9,  # c_n, against the largest reference c_k with k <= n
    "revert_eval": 1e-9,  # w(q) and the product form at |q| <= 0.05
    "integral": 1e-9,  # closed form and quadrature oracle
    "thm19": 1e-8,  # absolute, level difference R2 - R1
    "special": 1e-9,
    "lambert_w": 1e-12,  # times the condition factor 1/|1 + W|
    "F1_forward": 1e-10,  # relative residual of the defining integral
}


def margin(tol: float, err: float) -> float:
    if err == 0.0:
        return MARGIN_CAP
    return min(MARGIN_CAP, math.log10(tol / err))


def _rel(value: complex, ref) -> float:
    ref = complex(ref)
    return abs(complex(value) - ref) / abs(ref) if ref != 0 else abs(complex(value))


def _z(pair) -> complex:
    return complex(pair[0], pair[1])


def _mz(pair):
    return mpc(pair[0], pair[1])


# -- revert_highorder ------------------------------------------------------


def _lagrange_mp(f: list, order: int) -> list:
    """c_n = (1/n) [A^(n-1)] f(A)^n for n = 1..order, f as mp coefficients."""
    f = (f + [mpf(0)] * order)[:order]
    out = []
    power = [mpf(1)] + [mpf(0)] * (order - 1)
    for n in range(1, order + 1):
        power = [mpmath.fsum(power[j] * f[k - j] for j in range(k + 1)) for k in range(order)]
        out.append(power[n - 1] / n)
    return out


def _lagrange_exact(f: list, order: int) -> list:
    f = (f + [Fraction(0)] * order)[:order]
    out = []
    power = [Fraction(1)] + [Fraction(0)] * (order - 1)
    for n in range(1, order + 1):
        power = [sum((power[j] * f[k - j] for j in range(k + 1) if f[k - j]), Fraction(0))
                 for k in range(order)]
        out.append(power[n - 1] / n)
    return out


def _exp_sin_series(c, order: int) -> list:
    """Taylor coefficients of exp(sin(c A)) through A^order."""
    s = [mpf(0)] * (order + 1)
    for k in range(1, order + 1, 2):
        s[k] = (-1) ** ((k - 1) // 2) * c**k / mpmath.factorial(k)
    e = [mpf(1)] + [mpf(0)] * order
    for k in range(1, order + 1):
        e[k] = mpmath.fsum(j * s[j] * e[k - j] for j in range(1, k + 1)) / k
    return e


def _mobius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def _revert_float_ref(op) -> dict:
    order = op["order"]
    family = op["family"]
    if family == "exp":
        c = mpf(op["c"])
        coeffs = [mpf(n) ** (n - 1) * c ** (n - 1) / mpmath.factorial(n) for n in range(1, order + 1)]
    elif family == "geom":
        c = mpf(op["c"])
        coeffs = [mpf(math.comb(2 * n - 2, n - 1) // n) * c ** (n - 1) for n in range(1, order + 1)]
    elif family == "expsin":
        coeffs = _lagrange_mp(_exp_sin_series(mpf(op["c"]), order), order)
    else:
        exact = _lagrange_exact([Fraction(x) for x in op["coeffs"]], order)
        coeffs = [mpf(x.numerator) / x.denominator for x in exact]
    q = _mz(op["q"])
    w = mpmath.fsum(cn * q**n for n, cn in enumerate(coeffs, start=1))
    # the truncated product prod_{n<=N} (1 - q^n)^(-e_n), e_n by Moebius
    a = [n * cn for n, cn in enumerate(coeffs, start=1)]
    log_p = mpf(0)
    for n in range(1, order + 1):
        e_n = mpmath.fsum(_mobius(n // d) * a[d - 1] for d in range(1, n + 1) if n % d == 0) / n
        log_p -= e_n * mpmath.log(1 - q**n)
    return {"c": [complex(x) for x in coeffs], "w": complex(w), "p": complex(mpmath.exp(log_p))}


def _revert_exact_ref(op) -> dict:
    order = op["order"]
    if op["family"] == "geom":
        c = Fraction(op["c"])
        return {"c": [Fraction(math.comb(2 * n - 2, n - 1) // n) * c ** (n - 1)
                      for n in range(1, order + 1)]}
    return {"c": _lagrange_exact([Fraction(x) for x in op["coeffs"]], order)}


# -- integral_oracle -------------------------------------------------------


def _beta_point(m: Fraction, r) -> mpf:
    """t in (0, 1/2) with B(t; 1-m, 1-m) = B(1-m, 1-m) / (r + 1)."""
    alpha = 1 - mpf(m.numerator) / m.denominator
    target = mpmath.beta(alpha, alpha) / (mpf(r) + 1)
    return mpmath.findroot(lambda t: mpmath.betainc(alpha, alpha, 0, t) - target,
                           (mpf("1e-20"), mpf("0.5")), solver="anderson")


def _endpoint(a1, b1, c1, m: Fraction, r):
    sqrt_d = mpmath.sqrt(b1 * b1 - 4 * a1 * c1)
    rho1 = (b1 - sqrt_d) / (2 * a1)
    if r == "inf":
        return -rho1
    return -rho1 - (sqrt_d / a1) * _beta_point(m, r)


def _power_integral(a1, b1, c1, mm, z1, z2, z1_is_root: bool):
    """int_z1^z2 (a1 t^2 + b1 t + c1)^(-mm) dt along the segment.

    With t = z1 + (z2 - z1) s^12 an endpoint root at z1, where the
    integrand blows up like |t - z1|^(-mm), becomes a polynomially
    vanishing integrand at s = 0 (every m used has a denominator dividing
    12).  The quadratic is expanded about z1, so the distance to the root
    never cancels against z1; at a root its constant term is exactly 0,
    since a rounded residual q(z1) ~ 1e-30 would change the integral by
    about |q(z1)|^(1-m)."""
    span = z2 - z1
    q0 = 0 if z1_is_root else (a1 * z1 + b1) * z1 + c1
    slope = 2 * a1 * z1 + b1

    def integrand(s):
        d = span * s**12
        return (q0 + d * (slope + a1 * d)) ** (-mm) * 12 * s**11 * span

    return mpmath.quad(integrand, [0, 1])


def _thm18_ref(op) -> dict:
    a1, b1, c1 = _mz(op["a1"]), _mz(op["b1"]), _mz(op["c1"])
    m = Fraction(op["m"])
    mm = mpf(m.numerator) / m.denominator
    e1 = _endpoint(a1, b1, c1, m, op["r1"])
    e2 = _endpoint(a1, b1, c1, m, op["r2"])
    value = _power_integral(a1, b1, c1, mm, e1, e2, z1_is_root=op["r1"] == "inf")
    return {"value": complex(value)}


def _thm13_1_ref(op) -> dict:
    """(1/2 pi i) [log u - u] between u_j = c - 2 pi i U(e_j), with U the
    antiderivative of (1 - t^2)^(-m) that vanishes at t = -1."""
    m = Fraction(op["m"])
    mm = mpf(m.numerator) / m.denominator
    a1, b1, c1 = mpf(-1), mpf(0), mpf(1)
    c = _mz(op["c"])
    two_pi_i = 2j * mpmath.pi

    def u_at(r):
        e = _endpoint(a1, b1, c1, m, r)
        return c - two_pi_i * _power_integral(a1, b1, c1, mm, mpf(-1), e, z1_is_root=True)

    u1, u2 = u_at(op["r1"]), u_at(op["r2"])
    value = ((mpmath.log(u2) - u2) - (mpmath.log(u1) - u1)) / two_pi_i
    return {"value": complex(value)}


def _thm19_ref(op) -> dict:
    """R2 - R1 with h(R_j) = pi/(r_j + 1), where h(A) = q/pi^2 + sqrt(A) q/pi
    and q = exp(-pi sqrt(A)) is the unit instance (w = q) of the real chain."""
    if op["m"] != "1/2":
        raise ValueError("the thm19 reference covers the m = 1/2 calibration only")

    def h(a):
        q = mpmath.exp(-mpmath.pi * mpmath.sqrt(a))
        return q / mpmath.pi**2 + mpmath.sqrt(a) * q / mpmath.pi

    def level_point(r):
        target = mpmath.pi / (mpf(r) + 1)
        return mpmath.findroot(lambda a: h(a) - target, (mpf("1e-4"), mpf(10)), solver="anderson")

    return {"value": float(level_point(op["r2"]) - level_point(op["r1"]))}


# -- specfun_edge ----------------------------------------------------------


def _rogers_ramanujan(q: mpf) -> mpf:
    """q^(1/5) S(3)/S(1), S(k) = sum_n (-1)^n q^((5n^2 - k n)/2) (Jacobi
    triple product); the sums cancel to below exp(-pi^2/(6(1-q))), so the
    working precision grows near q = 1."""
    digits = int(math.pi**2 / (6 * (1 - float(q))) / math.log(10)) + DPS
    with mp.workdps(digits):
        q = mpf(q)

        def s(k):
            total, n = mpf(0), 0
            while True:
                terms = [(-1) ** n * q ** (mpf(5 * n * n - k * n) / 2)]
                if n:
                    terms.append((-1) ** n * q ** (mpf(5 * n * n + k * n) / 2))
                total += sum(terms)
                if n > 2 and max(abs(t) for t in terms) < mpf(10) ** -(digits + 5):
                    return total
                n += 1

        value = q ** mpf("0.2") * s(3) / s(1)
    return value


def _special_ref(op) -> dict:
    fn = op["fn"]
    args = op["args"]
    if fn == "hyp2f1":
        a, b, c, x = (mpf(v) for v in args)
        if (a, b, c) == (1, 1, 2):
            value = -mpmath.log1p(-x) / x
        elif (a, b, c) == (mpf(0.5), mpf(0.5), 1):
            value = 2 * mpmath.ellipk(x) / mpmath.pi
        else:
            value = mpmath.hyp2f1(a, b, c, x)
    elif fn == "inc_beta":
        x, a, b = (mpf(v) for v in args)
        if a == b == mpf(0.5):
            value = 2 * mpmath.asin(mpmath.sqrt(x))
        else:
            value = mpmath.betainc(a, b, 0, x)
    elif fn == "appell_f1":
        a, b1, b2, c, x, y = (mpf(v) for v in args)
        if op["form"] == "diagonal":
            value = mpmath.hyp2f1(a, b1 + b2, c, x)
        elif op["form"] == "axis":
            value = mpmath.hyp2f1(a, b1, c, x)
        else:
            value = mpmath.appellf1(a, b1, b2, c, x, y)
    elif fn == "theta2":
        value = mpmath.jtheta(2, 0, mpf(args[0]))
    elif fn == "theta3":
        q = mpf(args[0])
        if q < 0:
            # an alternating sum: its error is measured against the sum of
            # the terms' magnitudes, theta3(|q|), which fixes its conditioning
            return {"value": complex(mpmath.jtheta(4, 0, -q)),
                    "scale": float(mpmath.jtheta(3, 0, -q))}
        value = mpmath.jtheta(3, 0, q)
    elif fn == "eta":
        value = mpmath.eta(_mz(args[0]))
    elif fn == "rogers_ramanujan":
        value = _rogers_ramanujan(mpf(args[0]))
    elif fn == "lambert_w":
        w = mpmath.lambertw(mpf(args[0]), args[1])
        return {"value": complex(w), "cond": float(1 / abs(1 + w))}
    elif fn == "F1_forward":
        return {"x": float(args[0])}  # checked through the defining integral
    else:
        raise ValueError(f"no reference for {fn}")
    return {"value": complex(value)}


def f1_inverse(y: complex) -> complex:
    """int_0^y 5 t^(-1/6) (1 - 11 t^5 - t^10)^(-1/6) dt along the segment,
    the antiderivative that F1_forward inverts."""
    y = mpc(y)
    return complex(mpmath.quad(
        lambda t: 5 * t ** (-mpf(1) / 6) * (1 - 11 * t**5 - t**10) ** (-mpf(1) / 6), [0, y]))


# -- dispatch --------------------------------------------------------------

_BUILDERS = {
    "revert_float": _revert_float_ref,
    "revert_exact": _revert_exact_ref,
    "integral_thm18": _thm18_ref,
    "integral_thm13_1": _thm13_1_ref,
    "thm19": _thm19_ref,
    "special": _special_ref,
}


def build(ops: list) -> list:
    """One reference per operation (None for verify_all, which carries
    its own tolerances)."""
    with mp.workdps(DPS):
        return [_BUILDERS[op["kind"]](op) if op["kind"] in _BUILDERS else None for op in ops]


class Checker:
    """Applies the pass/fail rule; caches the output-dependent part of the
    F1_forward check, since every pass repeats the same outputs."""

    def __init__(self):
        self._f1_cache: dict = {}

    def check(self, op: dict, out, err, ref) -> tuple[bool, float | None, str]:
        """(passed, margin or None, detail) for one executed operation."""
        if err is not None:
            return False, None, err
        try:
            errors = self._errors(op, out, ref)  # [(name, tolerance, error)]
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            return False, None, f"malformed output: {type(exc).__name__}: {exc}"
        for name, tol, e in errors:
            if not e <= tol:
                return False, None, f"{name}: error {e:.3g} above tolerance {tol:.3g}"
        return True, min(margin(tol, e) for _, tol, e in errors), ""

    def _errors(self, op, out, ref) -> list:
        kind = op["kind"]
        if kind == "revert_float":
            # a single c_n can be small by cancellation, so each error is
            # scaled by the largest reference coefficient up to order n
            coeff, scale = 0.0 if len(out["c"]) == len(ref["c"]) else math.inf, 0.0
            for c, r in zip(out["c"], ref["c"]):
                scale = max(scale, abs(r))
                coeff = max(coeff, abs(_z(c) - r) / scale)
            return [("coefficients", TOL["revert_coeff"], coeff),
                    ("w(q)", TOL["revert_eval"], _rel(_z(out["w"]), ref["w"])),
                    ("product form", TOL["revert_eval"], _rel(_z(out["p"]), ref["p"]))]
        if kind == "revert_exact":
            got = [Fraction(c) for c in out["c"]]
            exact = got == ref["c"]
            return [("exact coefficients", 0.0, 0.0 if exact else math.inf)]
        if kind in ("integral_thm18", "integral_thm13_1"):
            return [("closed form", TOL["integral"], _rel(_z(out["closed"]), ref["value"])),
                    ("quadrature oracle", TOL["integral"], _rel(_z(out["oracle"]), ref["value"]))]
        if kind == "thm19":
            return [("closed form", TOL["thm19"], abs(_z(out["closed"]) - ref["value"])),
                    ("quadrature oracle", TOL["thm19"], abs(_z(out["oracle"]) - ref["value"]))]
        value = _z(out["value"])
        if op["fn"] == "lambert_w":
            return [("value", TOL["lambert_w"] * max(1.0, ref["cond"]), _rel(value, ref["value"]))]
        if op["fn"] == "F1_forward":
            if value not in self._f1_cache:
                with mp.workdps(DPS):
                    self._f1_cache[value] = f1_inverse(value)
            return [("defining integral", TOL["F1_forward"],
                     _rel(self._f1_cache[value], ref["x"]))]
        if "scale" in ref:
            return [("value", TOL["special"], abs(value - ref["value"]) / ref["scale"])]
        return [("value", TOL["special"], _rel(value, ref["value"]))]
