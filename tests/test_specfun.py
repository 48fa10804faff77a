from __future__ import annotations

import cmath
import math
import re
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lagrev import specfun as sf
from lagrev.errors import (
    AccuracyLoss,
    BranchError,
    ConvergenceDomain,
    DomainError,
    NoConvergence,
)
from lagrev.quadint import beta_r
from lagrev.quadrature import quad_oracle


class TestTheta:
    def test_theta3_small_nome(self):
        # 1 + 2q + 2q^4 + 2q^9 + ...
        assert sf.theta3(0.1).real == pytest.approx(1.200200002, abs=1e-9)

    def test_theta3_lemniscatic(self):
        q = math.exp(-math.pi)
        closed = math.pi**0.25 / sf.gamma_fn(0.75).real
        assert abs(sf.theta3(q) - closed) < 1e-12

    def test_jacobi_quartic_identity(self):
        for q in (math.exp(-math.pi), 0.05, 0.2):
            t2, t3, t4 = sf.theta2(q), sf.theta3(q), sf.theta3(-q)
            assert abs(t3**4 - t2**4 - t4**4) < 1e-12


class TestModulus:
    def test_singular_values(self):
        assert sf.k_r(1.0) == pytest.approx(2**-0.5, abs=1e-12)
        assert sf.k_r(4.0) == pytest.approx(3 - 2 * math.sqrt(2), abs=1e-12)

    def test_complementary_relation(self):
        for r in (2.0, 3.0, 5.0):
            assert sf.k_r(r) ** 2 + sf.k_r(1 / r) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_mstar_matches_k_r_on_the_imaginary_axis(self):
        for r in (1.0, 2.0, 4.0):
            assert abs(sf.mstar(1j * math.sqrt(r)) - sf.k_r(r)) < 1e-12


class TestEta:
    def test_value_at_i(self):
        closed = sf.gamma_fn(0.25).real / (2 * math.pi**0.75)
        assert abs(sf.eta(1j) - closed) < 1e-12

    def test_value_at_2i(self):
        closed = sf.gamma_fn(0.25).real / (2 ** (11 / 8) * math.pi**0.75)
        assert abs(sf.eta(2j) - closed) < 1e-12


PHI = (1 + math.sqrt(5)) / 2


def _drift(f, t: complex) -> float:
    """How far f(t) moves when t moves by 1e-15 (1 + |t|), a few ulps: a
    central difference of f.  Arguments computed in floats (tau + 1, -1/tau,
    or the tau a nome stands for) carry such a rounding, which f magnifies
    near a cusp beyond any fixed relative tolerance."""
    h = 1e-9
    return 1e-15 * (1 + abs(t)) * abs(f(t + h) - f(t - h)) / (2 * h)


def _rr_tau(t: complex) -> complex:
    """R as a function of tau: rogers_ramanujan takes tau principal, so the
    shift k it drops comes back as e^{2 pi i k/5}; 0 where q underflows."""
    q = cmath.exp(2j * math.pi * t)
    if q == 0:
        return 0j
    k = round(t.real - (cmath.log(q) / (2j * math.pi)).real)
    return cmath.exp(2j * math.pi * k / 5) * sf.rogers_ramanujan(q)


def _theta(j: int):
    """theta_j as a function of tau, through the nome q = e^{i pi tau}."""
    f = {2: sf.theta2, 3: sf.theta3, 4: lambda q: sf.theta3(-q)}[j]
    return lambda t: f(cmath.exp(1j * math.pi * t))


_TAU = st.builds(
    complex, st.floats(min_value=-2.0, max_value=2.0), st.floats(min_value=1e-3, max_value=3.0)
)


class TestModularReduction:
    """The transformation laws hold to 1e-12 relative, plus the rounding of
    the transformed argument times each side's slope there (_drift)."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_TAU)
    def test_eta_translation(self, t):
        lhs = lambda x: sf.eta(x + 1)  # noqa: E731
        rhs = lambda x: cmath.exp(1j * math.pi / 12) * sf.eta(x)  # noqa: E731
        allowed = 1e-12 * abs(rhs(t)) + _drift(lhs, t) + _drift(rhs, t)
        assert abs(lhs(t) - rhs(t)) <= allowed

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_TAU)
    def test_eta_inversion(self, t):
        lhs = lambda x: sf.eta(-1 / x)  # noqa: E731
        rhs = lambda x: cmath.sqrt(-1j * x) * sf.eta(x)  # noqa: E731
        allowed = 1e-12 * abs(rhs(t)) + _drift(lhs, t) + _drift(rhs, t)
        assert abs(lhs(t) - rhs(t)) <= allowed

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_TAU)
    def test_jacobi_quartic(self, t):
        # theta4 = theta3(-q) takes its own reduction, from tau + 1
        thetas = [_theta(j) for j in (2, 3, 4)]
        t2, t3, t4 = values = [f(t) for f in thetas]
        allowed = 1e-12 * sum(abs(v) ** 4 for v in values)
        allowed += sum(4 * abs(v) ** 3 * _drift(f, t) for f, v in zip(thetas, values))
        assert abs(t3**4 - t2**4 - t4**4) <= allowed

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_TAU)
    def test_rogers_ramanujan_inversion(self, t):
        # R(-1/tau) = (1 - phi R)/(phi + R) as (phi + R(tau))(phi + R(-1/tau))
        # = 1 + phi^2, which does not cancel where R(-1/tau) is near 0
        inverted = lambda x: _rr_tau(-1 / x)  # noqa: E731
        a, b = _rr_tau(t), inverted(t)
        allowed = 1e-12 * (PHI + abs(a)) * (PHI + abs(b))
        allowed += (PHI + abs(b)) * _drift(_rr_tau, t) + (PHI + abs(a)) * _drift(inverted, t)
        assert abs((PHI + a) * (PHI + b) - (1 + PHI**2)) <= allowed

    def test_theta4_at_full_relative_accuracy(self):
        # theta4(0.99) at the double -0.99, from the modular identity at 60
        # digits (mpmath jtheta(4, 0, 0.99) needs some 400); the direct sum
        # returned 8.4e-15i
        assert abs(sf.theta3(-0.99) - 8.45927634161969e-106) <= 1e-13 * 8.45927634161969e-106

    def test_theta3_returns_near_one(self):
        # the direct sum raised NoConvergence at its 2000-term cap
        q = 1 - 1e-6
        expected = math.sqrt(math.pi / -math.log(q))  # to within e^{-pi^2 1e6}
        assert abs(sf.theta3(q) - expected) <= 1e-13 * expected

    def test_rogers_ramanujan_near_a_pole_keeps_relative_accuracy(self):
        # |R| = 1.9e7 near the cusp 2/5; mpmath, Jacobi triple product at 120
        # digits.  Folding the Moebius steps in floats left 4e-9 relative.
        q = cmath.exp(2j * math.pi * complex(0.4, 0.003))
        expected = 18760126.922088808747 + 2369955.1736346648241j
        assert abs(sf.rogers_ramanujan(q) - expected) <= 1e-12 * abs(expected)

    def test_rogers_ramanujan_beyond_the_float_range_raises(self):
        # |R| = 2e218 at 0.4 + 1e-4 i and overflows at 0.4 + 5e-5 i
        with pytest.raises(DomainError, match="exceeds the float range"):
            sf.rogers_ramanujan(cmath.exp(2j * math.pi * complex(0.4, 5e-5)))

    @pytest.mark.parametrize("z", [1e-4j, 0.3 + 1e-6j])
    def test_eta_below_the_float_range_names_its_exponent(self, z):
        # |eta(1e-4 i)| = 100 e^{-2618}; next to the cusp 3/10, |eta(0.3 + 1e-6 i)|
        # is about e^{-2612}
        with pytest.raises(DomainError, match=r"= exp\(-26\d\d\.?\d*\) is below the float range"):
            sf.eta(z)

    @pytest.mark.parametrize("z", [complex(math.nan, 1), complex(math.inf, 1)])
    def test_non_finite_point_is_a_domain_error(self, z):
        # the reduction rounds Re z, which would raise an untyped error
        with pytest.raises(DomainError, match="upper half plane"):
            sf.eta(z)

    @pytest.mark.parametrize(
        "fn, arg",
        [
            (sf.rogers_ramanujan, 1 - 1e-6),  # 15.5 s by the direct product
            (sf.theta3, 1 - 1e-9),
            (sf.eta, 0.3 + 1e-6j),  # raises DomainError, as above
            (sf.k_r, 1e-8),
        ],
    )
    def test_bounded_time_at_the_edge(self, fn, arg):
        start = time.perf_counter()
        try:
            fn(arg)
        except DomainError:
            assert fn is sf.eta
        assert time.perf_counter() - start < 0.05


class TestGamma:
    def test_classics(self):
        assert abs(sf.gamma_fn(0.5) - math.sqrt(math.pi)) < 1e-13
        assert abs(sf.gamma_fn(5.0) - 24.0) < 1e-10

    def test_reflection(self):
        x = 0.3
        assert abs(sf.gamma_fn(x) * sf.gamma_fn(1 - x) - math.pi / math.sin(math.pi * x)) < 1e-12

    @pytest.mark.parametrize(
        "z, expected",
        [
            # mpmath gamma at 40 digits; Re z < 1/2 goes through the reflection
            (0.5 + 1j, 0.30069461726065582 - 0.42496787943312381j),
            (-2.5 + 0.3j, -0.61382299743774149 - 0.21123261493704178j),
            (3 + 4j, 0.0052255384713692142 - 0.17254707929430019j),
        ],
    )
    def test_complex_against_mpmath(self, z, expected):
        assert abs(sf.gamma_fn(z) - expected) < 1e-14 * abs(expected)

    @pytest.mark.parametrize(
        "z, expected",
        [
            # mpmath gamma at 30 digits, up to the float edge near Re z = 171.6
            (150 + 0.5j, -3.05723687231260647561901537e260 + 2.26648496280973012045444757e260j),
            (171.6 + 0.5j, -1.33379345317009240998533387e308 + 8.55798971150236744186642494e307j),
        ],
    )
    def test_large_complex_against_mpmath(self, z, expected):
        # the exponent (z + 1/2) log t, near 880, carries its rounding into
        # the relative error
        assert abs(sf.gamma_fn(z) - expected) < 1e-13 * abs(expected)

    @pytest.mark.parametrize("x", [200.0, 171.7 + 0.5j])
    def test_overflow_is_a_domain_error(self, x):
        with pytest.raises(DomainError, match=r"gamma at x = .* lies beyond the float range"):
            sf.gamma_fn(x)


def _plain_maclaurin(a, b, c, x):
    """2F1(a, b; c; x) by its Maclaurin series alone, to the last bit."""
    term = total = 1.0 + 0j
    n = 0
    while abs(term) >= 1e-17 * abs(total):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1)) * x
        total += term
        n += 1
    return total


@pytest.mark.parametrize(
    "fn, args",
    [
        (sf.hyp2f1, (1, 1, 2, math.nan)),
        (sf.hyp2f1, (0.5, 0.5, 1.0, complex(0.2, math.nan))),
        (sf.inc_beta, (math.nan, 0.5, 0.5)),
        (sf.inc_beta, (complex(math.nan, 0.1), 1 / 6, 2 / 3)),
    ],
)
def test_nan_argument_is_a_domain_error(fn, args):
    # both sums used to run their 100 000-term cap (50-70 ms) before
    # NoConvergence; the check at entry is one comparison
    with pytest.raises(DomainError, match=r"got x = \(.*nan"):
        fn(*args)


@pytest.mark.parametrize("x", [-math.inf, complex(0, math.inf)])
def test_infinite_x_is_a_prompt_domain_error(x):
    # inc_beta(-inf, .5, .5) used to run the fraction's 100 000-step cap
    # (57-84 ms) before NoConvergence
    start = time.perf_counter()
    with pytest.raises(DomainError, match=r"finite x, got x = .*inf"):
        sf.inc_beta(x, 0.5, 0.5)
    assert time.perf_counter() - start < 5e-3


class TestHypergeometric:
    def test_log_case(self):
        for z in (0.3, -0.4):
            assert abs(sf.hyp2f1(1, 1, 2, z) + cmath.log(1 - z) / z) < 1e-13

    def test_euler_transformation(self):
        a, b, c, x = 1 / 6, 1 / 3, 7 / 6, 0.4
        lhs = sf.hyp2f1(a, b, c, x)
        rhs = (1 - x) ** (c - a - b) * sf.hyp2f1(c - a, c - b, c, x)
        assert abs(lhs - rhs) < 1e-13

    def test_stall_names_its_count_and_last_term(self):
        # |x|, |1 - x| and |x/(x - 1)| all lie near 1 here, so no
        # transformation brings x inside the disc
        x = 0.9999 * cmath.exp(1j * math.pi / 3)
        with pytest.raises(NoConvergence) as info:
            sf.hyp2f1(0.5, 0.5, 1.0, x)
        message = str(info.value)
        assert "100000 terms" in message
        # the term after n steps is ((1/2)_n / n!)^2 x^n
        n = 100000
        log_pochhammer = math.lgamma(n + 0.5) - math.lgamma(0.5) - math.lgamma(n + 1)
        last = math.exp(2 * log_pochhammer + n * math.log(abs(x)))
        reported = float(re.search(r"last \|term\| = (\S+)", message).group(1))
        assert reported == pytest.approx(last, rel=1e-3)

    @pytest.mark.parametrize(
        "args, expected",
        [
            # mpmath at 40 digits
            ((0.5, 0.5, 1.0, 1 - 1e-4), 3.8143642420736259),  # 1 - x = 1e-4
            ((1.0, 1.0, 2.0, 1 - 1.1e-4), 9.1160329557965005),
            ((2.5, 2.5, 1.0, -0.9), -0.070107181336224674),  # Pfaff
            ((3.5, 3.5, 1.0, -0.95), -0.033597910521989975),
            ((0.5, 0.5, 2.0, 0.999), 1.2711106707222515),  # s = 1
            ((1.5, 1.5, 2.0, 0.99), 125.91402448345295),  # s = -1
            ((0.25, 0.75, 4.0, 0.95), 1.059502219999077),  # s = 3
            ((0.5, 0.5, 1 + 1e-9, 0.999), 3.0819607007569575),  # s near an integer
            ((0.25, 0.5, 0.75, 0.9 + 0.3j), 1.1929454931365541 + 0.22330792210623834j),
            ((60.0, 60.5, 121.0, 0.99), 1.4337626434332913e31),  # 1 - z cancels
        ],
    )
    def test_against_mpmath(self, args, expected):
        assert abs(sf.hyp2f1(*args) - expected) < 1e-13 * abs(expected)

    def test_near_a_pole_of_gamma_s(self):
        # s = c - a - b = -1.998: the two terms of DLMF 15.8.4 cancel, and
        # without the rounding of c - a and c - b in the bound this point
        # reads 1.2e-13 off
        a, b, c = -0.012169334818386446, 2.919113779969628, 0.9089444451512414
        expected = 1.0118116567874098 - 0.03645828574500827j
        value = sf.hyp2f1(a, b, c, 0.5693411995222358 + 0.6491257492487287j)
        assert abs(value - expected) < 1e-14 * abs(expected)

    def test_cancelling_terms_count_their_prefactors(self):
        # s = -2.037: the terms of DLMF 15.8.4 are 14 times the value and
        # their gamma prefactors 0.8 and 3.5 ulps off; counted without that
        # rounding, the size passes the bound and the value reads 2.0e-14 off
        a, b, c, x = 1.9337782039718752, 4.76397198056114, 4.660792902353632, 0.5590937089948971
        expected = 5.0827724003689363  # mpmath at 40 digits
        assert abs(sf.hyp2f1(a, b, c, x) - expected) < 1e-14 * expected

    def test_digamma(self):
        euler = 0.57721566490153286
        assert abs(sf._digamma(1.0) + euler) < 1e-15
        assert abs(sf._digamma(0.5) + euler + 2 * math.log(2)) < 1e-15

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.floats(min_value=0.05, max_value=3.0),
        st.floats(min_value=0.05, max_value=3.0),
        st.floats(min_value=0.05, max_value=3.0),
        st.floats(min_value=0.5, max_value=0.9, exclude_min=True, exclude_max=True),
        st.floats(min_value=-math.pi / 2, max_value=math.pi / 2),
    )
    def test_agrees_with_the_maclaurin_sum(self, a, b, c, modulus, angle):
        x = cmath.rect(modulus, angle)
        total = _plain_maclaurin(a, b, c, x)
        assert abs(sf.hyp2f1(a, b, c, x) - total) <= 1e-12 * abs(total)

    @pytest.mark.parametrize(
        "args",
        [
            # Gamma(c) Gamma(s) = 3.7e156 * 3.7e154 would overflow unpaired
            (0.5, 0.5, 100.3, 0.9),
            (0.5, 0.5, 200.5, 0.9),  # Gamma(c) past the float range
        ],
    )
    def test_large_c_against_the_maclaurin_sum(self, args):
        expected = _plain_maclaurin(*args)
        assert abs(sf.hyp2f1(*args) - expected) < 1e-14 * abs(expected)

    @pytest.mark.parametrize(
        "args",
        [
            (0.5, 0.5, 200.5, 0.9),  # math.gamma(200.5) raises
            (80.0, 80.0, 10.5, 0.99),  # the 15.8.4 terms come back inf and nan
        ],
    )
    def test_core_out_of_range_has_infinite_size(self, args):
        assert sf._gauss(*args) == (0j, math.inf)

    def test_value_past_the_float_range_is_inf(self):
        # mpmath: 2F1(80, 80; 10.5; 0.99) exceeds the float range; the
        # Maclaurin sum overflows to inf and the failed core does not stand
        value = sf.hyp2f1(80.0, 80.0, 10.5, 0.99)
        assert value.real == math.inf and value.imag == 0

    def test_cancellation_past_the_bound_raises(self):
        # both the 1 - z connection and the Maclaurin series cancel: the
        # value was 4.5e-5 off mpmath (573.0617 + 932.1435i), its size
        # 2.8e12 times its modulus
        with pytest.raises(AccuracyLoss, match=r"2F1\(40.25, 40.5, 81.5, .*size 3.0\d+e\+15"):
            sf.hyp2f1(40.25, 40.5, 81.5, 0.6 + 0.7j)

    def test_decade_four_sums_few_terms(self, monkeypatch):
        # every series loop of the module steps through range
        steps = []

        def counted(*args):
            for i in range(*args):
                steps.append(i)
                yield i

        monkeypatch.setattr(sf, "range", counted, raising=False)
        sf.hyp2f1(0.5, 0.5, 1.0, 1 - 1e-4)
        assert 0 < len(steps) < 200

    def test_appell_reductions(self):
        a, b1, b2, c, x = 0.25, 0.5, 0.75, 1.5, 0.3
        assert abs(sf.appell_f1(a, b1, b2, c, x, 0.0) - sf.hyp2f1(a, b1, c, x)) < 1e-13
        assert abs(sf.appell_f1(a, b1, b2, c, x, x) - sf.hyp2f1(a, b1 + b2, c, x)) < 1e-13


def _unchecked_hyp2f1(a, b, c, z):
    """hyp2f1's value without its cancellation check: a per-r factor of a
    large r may cancel past the bound and still weigh nothing in F1."""
    value, size = sf._gauss(a, b, c, z)
    if not size <= sf._ROUNDING_BOUND * abs(value):
        value = min(sf._maclaurin(a, b, c, z), (value, size), key=lambda pair: pair[1])[0]
    return value


def _per_r_sum(a, b1, b2, c, x, y):
    """F1 by the Burchnall-Chaundy expansion with every Gauss factor from
    hyp2f1: the sum appell_f1 took before its factors came from one
    recurrence."""
    coeff, total = 1.0 + 0j, 0j
    for r in range(2000):
        fx = _unchecked_hyp2f1(a + r, b1 + r, c + 2 * r, x)
        fy = _unchecked_hyp2f1(a + r, b2 + r, c + 2 * r, y)
        term = coeff * fx * fy
        total += term
        if r and abs(term) < 1e-17 * abs(total):
            return total
        shift = (c + r - 1) / (c + 2 * r - 1) if r else 1.0
        coeff *= (a + r) * (b1 + r) * (b2 + r) * (c - a + r) * shift * x * y
        coeff /= (r + 1) * (c + 2 * r) ** 2 * (c + 2 * r + 1)
        if coeff == 0:
            return total
    raise AssertionError("the reference sum did not stop")


class TestAppellF1:
    """The Burchnall-Chaundy expansion in products of Gauss functions."""

    @pytest.mark.parametrize(
        "args, expected",
        [
            # mpmath hyp2f1(1/6, 1/3; 7/6; 0.97): F1 on the diagonal is a
            # 2F1, and mpmath appellf1 reaches its term limit here
            ((1 / 6, 1 / 6, 1 / 6, 7 / 6, 0.97, 0.97), 1.094069840968365),
            ((0.25, 0.5, 0.75, 1.5, 0.97, -0.97), 1.03137196634853),
            (
                (0.5, 2.0, -1.5, 0.7, 0.9 + 0.3j, -0.5 + 0.8j),
                1.2134771883442925 + 12.538712854935344j,
            ),
        ],
    )
    def test_against_mpmath(self, args, expected):
        assert abs(sf.appell_f1(*args) - expected) < 1e-13 * abs(expected)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        st.floats(min_value=-1.0, max_value=1.5),
        st.floats(min_value=-1.0, max_value=1.5),
        st.floats(min_value=-1.0, max_value=1.5),
        st.floats(min_value=0.5, max_value=2.5),
        st.complex_numbers(max_magnitude=0.89),
        st.complex_numbers(max_magnitude=0.89),
    )
    def test_euler_transformation(self, a, b1, b2, c, x, y):
        # F1(a; b1, b2; c; x, y)
        #   = (1-x)^-b1 (1-y)^-b2 F1(c-a; b1, b2; c; x/(x-1), y/(y-1))
        x_image, y_image = x / (x - 1), y / (y - 1)
        assume(abs(x_image) < 0.9 and abs(y_image) < 0.9)
        lhs = sf.appell_f1(a, b1, b2, c, x, y)
        image = sf.appell_f1(c - a, b1, b2, c, x_image, y_image)
        rhs = (1 - x) ** -b1 * (1 - y) ** -b2 * image
        assert abs(lhs - rhs) <= 1e-13 * abs(lhs)

    @pytest.mark.parametrize("c", [0.0, -1.0, -2.0])
    def test_non_positive_integer_c_is_a_domain_error(self, c):
        with pytest.raises(DomainError, match="non-positive integer c"):
            sf.appell_f1(0.5, 0.5, 0.5, c, 0.3, 0.2)

    def test_factors_past_the_gamma_range(self, monkeypatch):
        # the recurrence starts at n = 620 and the sum runs to r = 196, past
        # r = 85, where Gamma(c + 2r) overflows; on the diagonal F1 is
        # 2F1(a, b1 + b2; c; x)
        steps = []

        def counted(*args):
            for i in range(*args):
                steps.append(i)
                yield i

        monkeypatch.setattr(sf, "range", counted, raising=False)
        value = sf.appell_f1(1 / 6, 1 / 6, 1 / 6, 7 / 6, 0.999, 0.999)
        expected = sf.hyp2f1(1 / 6, 1 / 3, 7 / 6, 0.999)
        assert abs(value - expected) < 1e-15
        # mpmath hyp2f1 at 40 digits
        assert abs(expected - 1.1105970173860691) < 1e-15
        # 620 steps down, 196 up and 12 in the hyp2f1 series
        assert len(steps) < 1000

    def test_cost_is_a_short_sum_of_gauss_products(self, monkeypatch):
        # one hyp2f1 call for the shared factors at r = 0; the rest from the
        # recurrence
        calls = []
        gauss = sf._gauss

        def counted(*args):
            calls.append(args)
            return gauss(*args)

        monkeypatch.setattr(sf, "_gauss", counted)
        sf.appell_f1(1 / 6, 1 / 6, 1 / 6, 7 / 6, 0.97, 0.97)
        assert 0 < len(calls) <= 4

    @pytest.mark.parametrize(
        "a, b, c, z",
        [
            (1 / 6, 1 / 6, 7 / 6, 0.97),
            (1.3, -0.7, 0.6, -0.95),
            (0.25, 0.5, 1.5, -0.5 + 0.7j),
            (-0.4, 2.5, 0.9, -0.3 - 0.9j),
        ],
    )
    def test_recurrence_factors_against_hyp2f1(self, a, b, c, z):
        # depth 100: at 0.97 the start's error lam^2(n-r) = 0.497^(n-r) is
        # 1e-14 at r = 40
        factors = sf._gauss_factors(a, b, c, z, 100)
        value = factors[0]
        for r in range(41):
            value = factors[r] if r < 2 else value * factors[r]
            expected = sf.hyp2f1(a + r, b + r, c + 2 * r, z)
            assert abs(value - expected) <= 1e-13 * abs(expected)

    def test_recurrence_where_hyp2f1_cancels(self):
        # both representations of hyp2f1 cancel at 2F1(40.25, 40.5; 81.5;
        # 0.6+0.7j), which it returns 4.5e-5 off; mpmath at 40 digits
        factors = sf._gauss_factors(0.25, 0.5, 1.5, 0.6 + 0.7j, 100)
        value = factors[1] * math.prod(factors[2:41])
        expected = 573.06167974805644 + 932.14351863128331j
        assert abs(value - expected) <= 1e-14 * abs(expected)

    def test_sum_past_the_first_depth(self, monkeypatch):
        # with large parameters the terms grow before they fall like
        # (lam(x) lam(y))^r, so the sum runs past the first depth, 61, and
        # the pass is redone from 122; mpmath hyp2f1(30, 60; 61; 0.9)
        depths = []
        factors = sf._gauss_factors

        def recorded(a, b, c, z, n):
            depths.append(n)
            return factors(a, b, c, z, n)

        monkeypatch.setattr(sf, "_gauss_factors", recorded)
        value = sf.appell_f1(30.0, 30.0, 30.0, 61.0, 0.9, 0.9)
        assert depths == [61, 122]
        assert abs(value - 1.8640135107956633407e29) < 1e-13 * 1.8640135107956633407e29

    @pytest.mark.parametrize("x", [float("nan"), complex(0.3, math.inf)])
    def test_non_finite_point_is_outside_the_polydisc(self, x):
        with pytest.raises(ConvergenceDomain):
            sf.appell_f1(0.5, 0.5, 0.5, 1.5, x, 0.3)

    def test_beyond_the_term_cap_raises_at_once(self):
        start = time.perf_counter()
        with pytest.raises(NoConvergence, match="over 100000 terms"):
            sf.appell_f1(1 / 6, 1 / 6, 1 / 6, 7 / 6, 1 - 1e-12, 1 - 1e-12)
        assert time.perf_counter() - start < 0.05

    def test_cancelling_sum_raises(self):
        # c - a < 0: the coefficients alternate and the sum cancels; it
        # was 5.1e43 against 3.30e43 (mpmath hyp2f1(30, 60; 1.5; 0.5), the
        # diagonal), with a sum of |term| 7.9e15 times |F1|
        with pytest.raises(AccuracyLoss, match=r"F1\(30, 30, 30, 1.5, .*size 4.0\d+e\+59"):
            sf.appell_f1(30, 30, 30, 1.5, 0.5, 0.5)

    def test_zero_of_the_first_factor(self):
        # 2F1(-1, 1; 1/2; 1/2) = 0, so the ratio G_1/G_0 has no value and G_1
        # comes from hyp2f1; F1 = t_1 xy = 0.25 (mpmath appellf1)
        assert sf.hyp2f1(-1.0, 1.0, 0.5, 0.5) == 0
        assert abs(sf.appell_f1(-1.0, 1.0, 0.5, 0.5, 0.5, -0.25) - 0.25) < 1e-15

    @pytest.mark.parametrize("y, expected", [(0.3, -0.01), (0.625, 0.453125)])
    def test_zero_factor_inside_the_sum(self, y, expected):
        # 2F1(-1, 4; 5/2; 5/8) = 0 is the x factor at r = 1, and the r = 2
        # term is not small; mpmath appellf1
        value = sf.appell_f1(-2.0, 3.0, 0.5, 0.5, 0.625, y)
        assert abs(value - expected) < 1e-14

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.floats(min_value=-1.0, max_value=1.5),
        st.floats(min_value=-1.0, max_value=1.5),
        st.floats(min_value=-1.0, max_value=1.5),
        st.floats(min_value=0.5, max_value=2.5),
        st.complex_numbers(max_magnitude=0.9),
        st.complex_numbers(max_magnitude=0.9),
        st.integers(min_value=0, max_value=3),
        st.sampled_from(["a", "b1", "b2", "c-a", "c-b1", "c-b2"]),
    )
    def test_non_positive_integer_parameters(self, a, b1, b2, c, x, y, k, which):
        # a, b1 or b2 = -k, or c - a, c - b1 or c - b2 = -k: a zero
        # denominator of the recurrence, or a sum that stops at r = k
        a, b1, b2 = {
            "a": (-k, b1, b2), "b1": (a, -k, b2), "b2": (a, b1, -k),
            "c-a": (c + k, b1, b2), "c-b1": (a, c + k, b2), "c-b2": (a, b1, c + k),
        }[which]
        expected = _per_r_sum(a, b1, b2, c, x, y)
        assert abs(sf.appell_f1(a, b1, b2, c, x, y) - expected) <= 1e-13 * abs(expected)


class TestIncompleteBeta:
    def test_complete_values(self):
        for a, b in ((1 / 6, 2 / 3), (0.5, 0.5), (2.0, 3.0)):
            closed = sf.gamma_fn(a) * sf.gamma_fn(b) / sf.gamma_fn(a + b)
            assert abs(sf.inc_beta(1.0, a, b) - closed) < 1e-10

    def test_arcsine_half(self):
        assert abs(sf.inc_beta(0.5, 0.5, 0.5) - math.pi / 2) < 1e-12

    def test_complementary_split(self):
        a, b = 1 / 6, 2 / 3
        total = sf.inc_beta(1.0, a, b)
        assert abs(sf.inc_beta(0.3, a, b) + sf.inc_beta(0.7, b, a) - total) < 1e-10


class TestIncompleteBetaReflection:
    """x above the mean (a+1)/(a+b+2) goes through B(a, b) - B0(1-x; b, a)."""

    def test_a_twelfth_near_one_returns(self):
        # quadrature up to x raised NonIntegrable from 1 - x = 3e-11 here
        x = 1 - 3e-11
        value = sf.inc_beta(x, 1 / 12, 1 / 12).real
        closed = (sf.gamma_fn(1 / 12) ** 2 / sf.gamma_fn(1 / 6)).real
        # the tail B0(1-x) is (1-x)^a/a to relative 0.07 (1-x)
        assert closed - value == pytest.approx(12 * (1 - x) ** (1 / 12), rel=1e-11)

    @pytest.mark.parametrize("a", [1 / 12, 1 / 6, 1 / 3, 1 / 2], ids=["1/12", "1/6", "1/3", "1/2"])
    def test_halves_add_up_to_the_complete_value(self, a):
        closed = (sf.gamma_fn(a) ** 2 / sf.gamma_fn(2 * a)).real
        for k in range(2, 16):
            x = 1 - 10.0**-k
            # 1 - x is exact for x in [1/2, 1]: the two halves meet
            total = sf.inc_beta(x, a, a).real + sf.inc_beta(1 - x, a, a).real
            assert abs(total - closed) <= 1e-14 * closed

    def test_arcsine(self):
        # B0(x; 1/2, 1/2) = 2 asin(sqrt(x)) = pi - 2 asin(sqrt(1 - x)), the
        # second form well conditioned near x = 1
        for x in (0.81, 0.9, 0.99, 1 - 1e-6, 1 - 1e-12):
            arcsine = math.pi - 2 * math.asin(math.sqrt(1 - x))
            assert abs(sf.inc_beta(x, 0.5, 0.5).real - arcsine) < 1e-14
        assert abs(sf.inc_beta(0.9, 0.5, 0.5).real - 2 * math.asin(math.sqrt(0.9))) < 1e-14

    def test_unequal_parameters_against_quadrature(self):
        # guards the a <-> b swap of the reflection
        a, b = 1 / 6, 2 / 3
        for x in (0.81, 0.9, 0.99):
            direct, _ = quad_oracle(
                lambda t: t ** (a - 1) * (1 - t) ** (b - 1),
                0.0,
                x,
                tol=1e-14,
                from_left=lambda d: (x * d) ** (a - 1) * (1 - x * d) ** (b - 1),
            )
            assert abs(sf.inc_beta(x, a, b) - direct) < 1e-13

    def test_small_b_by_the_series_up_to_one(self):
        # B0(x; 1, b) = (1 - (1-x)^b)/b; a quadrature to x = 1 overflows at b = 0.01
        for x in (0.81, 0.9, 0.99, 1 - 1e-12, 1.0):
            closed = -math.expm1(0.01 * math.log1p(-x)) / 0.01 if x < 1 else 100.0
            assert abs(sf.inc_beta(x, 1.0, 0.01).real - closed) <= 1e-13 * closed

    def test_no_point_reaches_quadrature(self, monkeypatch):
        import lagrev.quadrature

        def refused(*args):
            raise AssertionError("inc_beta reached the quadrature")

        for rule in ("_adaptive", "_tanh_sinh"):
            monkeypatch.setattr(lagrev.quadrature, rule, refused)
        for a, b in ((0.3125, 0.4375), (1 / 12, 1 / 12), (1.0, 0.01), (40.5, 40.5)):
            for k in range(0, 41):
                sf.inc_beta(k / 40, a, b)
            sf.inc_beta(1 - 1e-15, a, b)
            for x in (-3 + 1j, 2j, 5 + 5j, -50, 1.5 - 0.2j):
                sf.inc_beta(x, a, b)

    @pytest.mark.parametrize("a, b", [(1 / 6, 1 / 6), (1 / 2, 1 / 2), (1 / 6, 2 / 3)])
    def test_complex_points_near_one_against_quadrature(self, a, b):
        for x in (0.9 + 0.3j, 1.3 - 0.2j, 0.7 + 0.5j):
            direct, _ = quad_oracle(
                lambda t: t ** (a - 1) * (1 - t) ** (b - 1),
                0j,
                x,
                tol=1e-14,
                from_left=lambda d: (x * d) ** (a - 1) * (1 - x * d) ** (b - 1),
            )
            assert abs(sf.inc_beta(x, a, b) - direct) <= 1e-13 * abs(direct)


class TestIncompleteBetaLargeParameters:
    """B0(x; a, b) for b > 1 on (0, 0.8], where the alternating series cancelled."""

    def test_halves_at_a_large_parameter(self):
        # the alternating series gave B0(0.8; 40.5, 40.5) 1.8e12 too large
        a = 40.5
        closed = math.exp(2 * math.lgamma(a) - math.lgamma(2 * a))
        total = (sf.inc_beta(0.8, a, a) + sf.inc_beta(0.2, a, a)).real
        assert abs(total - closed) <= 1e-13 * closed

    def test_tail_beyond_the_series_is_negligible(self):
        # (1-t)^59.5 leaves under 1e-40 of B(0.5, 60.5) beyond t = 0.8;
        # the alternating series was off by 3.2e-3 relative
        closed = math.exp(math.lgamma(0.5) + math.lgamma(60.5) - math.lgamma(61))
        assert abs(sf.inc_beta(0.8, 0.5, 60.5).real - closed) <= 1e-13 * closed


class TestIncompleteBetaLargeParameterEdges:
    """Real x in (0.8, 1) below the mean, where the reflection would cancel,
    and prefactors x^a (1-x)^b or 0.5^(a+b) below the float range."""

    def test_below_the_mean_in_closed_form(self):
        # b = 2: B0(x; a, 2) = x^a ((a+1) - a x)/(a (a+1)); the reflection
        # B(a, b) - B0(1-x; b, a) cancelled to 0.9 % here
        x, a = 0.85, 200
        closed = x**a * ((a + 1) - a * x) / (a * (a + 1))
        assert abs(sf.inc_beta(x, a, 2).real - closed) <= 1e-13 * closed

    @pytest.mark.parametrize(
        "x, a, b, expected",
        [(0.85, 200, 0.5, 9.745152273663876e-17), (0.81, 300, 1.5, 5.138126348795583e-31)],
    )
    def test_below_the_mean_against_mpmath(self, x, a, b, expected):
        # mpmath betainc; the reflection read 2.5e-16 and 1.9e-19
        assert abs(sf.inc_beta(x, a, b).real - expected) <= 1e-12 * expected

    @pytest.mark.parametrize(
        "x, a, b, expected",
        [
            (0.8, 0.5, 500, 0.07928636506259065),
            (0.5, 2, 1200, 6.938662225922842e-07),
            (1.0, 2, 1200, 1 / (1200 * 1201)),
        ],
    )
    def test_underflowing_prefactor(self, x, a, b, expected):
        # (1-x)^b, or 0.5^(a+b) of the complete value, underflows while the
        # 2F1 sum overflows: 0 * inf gave nan
        assert abs(sf.inc_beta(x, a, b) - expected) <= 1e-12 * expected

    def test_cancelled_reflection_takes_the_long_series(self):
        # below the mean; the reflection keeps 2.5e-12 of B(a, 2) here
        x, a = 0.997, 10000
        closed = x**a * ((a + 1) - a * x) / (a * (a + 1))
        assert abs(sf.inc_beta(x, a, 2).real - closed) <= 1e-13 * closed

    def test_near_one_beyond_the_term_cap_reflects(self):
        # below the mean 0.99995 (mpmath betainc); the direct series would
        # need about 400000 terms here
        expected = 1.223475762827343
        assert abs(sf.inc_beta(0.9999, 1000, 0.05).real - expected) <= 1e-12 * expected


class TestIncompleteBetaAgainstMpmath:
    """Values pinned against mpmath betainc at the exact doubles."""

    @pytest.mark.parametrize(
        "x, a, b, expected, rel",
        [
            # off the real segment with b > 1
            (0.5 + 0.1j, 3, 50, 1.5082956259439586e-05 - 8.3267657768298836e-19j, 1e-13),
            # the fraction's steps are near -x and cancel to 1 - x: about 1e4 ulps
            (0.9999, 1e6, 0.5, 3.6832859030608102e-48, 1e-11),
            # small parameters off both unit discs
            (
                -1.0850048044535354 + 1.1045726661337258j,
                0.021569659758031122,
                0.0971408471115427,
                45.944679047076909 + 2.775189575861471j,
                1e-13,
            ),
            # b <= 0 just above the cut
            (3 + 1e-9j, 0.5, -0.5, 2.0412414523193152e-10 + 2.4494897427831781j, 1e-13),
        ],
    )
    def test_value(self, x, a, b, expected, rel):
        assert abs(sf.inc_beta(x, a, b) - expected) <= rel * abs(expected)

    def test_beyond_the_float_range_raises(self):
        with pytest.raises(DomainError, match="exceeds the float range"):
            sf.inc_beta(-50, 300, 2)

    def test_stall_names_its_count_and_last_step(self):
        # with b <= 0 every x takes the fraction, which converges ever more
        # slowly as x nears the cut
        with pytest.raises(NoConvergence, match=r"after 100000 steps .* last \|step - 1\| = "):
            sf.inc_beta(11.8 - 6e-7j, 0.5, -0.25)


class TestCompleteBeta:
    """B(a, b) as the two continued fractions met at the mean."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.floats(min_value=1e-3, max_value=50.0),
        st.floats(min_value=1e-3, max_value=50.0),
    )
    @example(40.5, 40.5)
    @example(1.0, 0.01)
    def test_against_the_gamma_product(self, a, b):
        # math.gamma itself errs up to about 3e-14 relative here
        closed = math.gamma(a) * math.gamma(b) / math.gamma(a + b)
        assert abs(sf.inc_beta(1.0, a, b).real - closed) <= 1e-13 * closed

    def test_beta_point_at_small_alpha(self):
        # the x = 1 quadrature overflowed for alpha = 1/100
        alpha, s = 0.01, 2.0
        bp = beta_r(Fraction(99, 100), s)
        closed = math.gamma(alpha) ** 2 / math.gamma(2 * alpha)
        assert sf.inc_beta(bp.u, alpha, alpha).real * (1 + s) == pytest.approx(closed, rel=1e-12)

    @pytest.mark.parametrize("b", [0.0, -0.5])
    def test_divergent_complete_value_raises(self, b):
        # its own diagnosis, not the quadrature's check of an endpoint exponent
        with pytest.raises(DomainError, match=r"B\(a, b\) diverges for b <= 0"):
            sf.inc_beta(1.0, 0.5, b)


class TestLambertW:
    def test_principal_anchor(self):
        assert abs(sf.lambert_w(math.e) - 1.0) < 1e-13

    def test_defining_equation(self):
        for x in (0.5, -0.2, 3.0, 1 + 1j):
            w = sf.lambert_w(x)
            assert abs(w * cmath.exp(w) - x) < 1e-12

    def test_lower_branch(self):
        w = sf.lambert_w(-0.1, branch=-1)
        assert w.real < -1.0
        assert abs(w * cmath.exp(w) + 0.1) < 1e-12

    @pytest.mark.parametrize(
        "x, branch, expected",
        [
            # mpmath lambertw at 40 digits: the branch-point seed on both
            # branches within 0.3 of -1/e, and the logarithmic seed of
            # branch -1 beyond it
            (-0.3, 0, -0.48940222718021493),
            (-0.36, 0, -0.80608431597081762),
            (-0.05, -1, -4.4997552885234875),
            (-1e-5, -1, -14.163600815810183),
        ],
    )
    def test_seeds_against_mpmath(self, x, branch, expected):
        assert abs(sf.lambert_w(x, branch) - expected) < 1e-15 * abs(expected)

    @pytest.mark.parametrize(
        "x, branch, expected",
        [
            # mpmath lambertw at 30 digits; each of these once took the wrong
            # branch, stalled past a 1e-14 residual or raised a bare ValueError
            (0.3078450670676809 + 0.23112540915714153j, 0,
             0.2602267284097451538 + 0.14262765025168350438j),
            (1.9255630303276417e154, 0, 349.39711359271886622),
            (-8.431225131063911e-280, -1, -649.06742054201804643),
            (-0.5, 0, -0.79402363234468936796 + 0.77011175051037910968j),
            (1.5500654954621413 - 0.14953378007319132j, 0,
             0.74106744343444592357 - 0.040958418197200935613j),
        ],
    )
    def test_hard_points_against_mpmath(self, x, branch, expected):
        assert abs(sf.lambert_w(x, branch) - expected) <= 4.5e-16 * abs(expected)

    def test_branch_point_and_lower_branch_at_zero(self):
        assert sf.lambert_w(-1 / math.e) == -1
        with pytest.raises(BranchError):
            sf.lambert_w(0, -1)

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(
        st.floats(min_value=-300.0, max_value=300.0),
        st.floats(min_value=-math.pi, max_value=math.pi),
    )
    def test_principal_branch_over_the_float_range(self, decade, phase):
        x = 10.0**decade * cmath.exp(1j * phase)
        w = sf.lambert_w(x)
        assert abs(w * cmath.exp(w) - x) <= 1e-13 * (1 + abs(w)) * abs(x)
        # the image of W_0: the real ray w >= -1 and, off it, the region
        # right of the curve -y cot(y) + iy, |y| < pi
        y = w.imag
        if y == 0:
            assert w.real >= -1
        else:
            assert abs(y) < math.pi and w.real > -y / math.tan(y)


class TestRogersRamanujan:
    def test_classical_value(self):
        phi = (1 + math.sqrt(5)) / 2
        closed = math.sqrt(phi * math.sqrt(5)) - phi
        assert abs(sf.rogers_ramanujan(math.exp(-2 * math.pi)) - closed) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.rogers_ramanujan(1.5)
