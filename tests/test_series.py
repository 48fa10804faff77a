from __future__ import annotations

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagrev import series as qs
from lagrev.errors import DegenerateSeries, ZeroAtOrigin


def geometric(order):
    return qs.TruncSeries(tuple(1.0 + 0j for _ in range(order + 1)))


def exponential(order):
    return qs.TruncSeries(tuple(1.0 / math.factorial(k) + 0j for k in range(order + 1)))


class TestReversion:
    def test_catalan_counts(self):
        w = qs.lagrange_revert(geometric(10), 10)
        expected = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]
        for n, c in enumerate(expected, start=1):
            assert w[n] == pytest.approx(c, abs=1e-10)

    def test_tree_counts(self):
        w = qs.lagrange_revert(exponential(8), 8)
        for n in range(1, 9):
            assert w[n] == pytest.approx(n ** (n - 1) / math.factorial(n), rel=1e-12)

    def test_defining_residual_linear(self):
        f = qs.TruncSeries((1.0 + 0j, 1.0 + 0j))
        w = qs.lagrange_revert(f, 12)
        assert qs.defining_residual(f, w) < 1e-13

    def test_defining_residual_is_relative(self):
        # c_64 of e^A is near 5e24, so the absolute residual reads 1e8-1e9
        # for coefficients good to 6e-16 of the largest
        f = exponential(64)
        assert qs.defining_residual(f, qs.lagrange_revert(f, 64)) < 1e-13

    def test_zero_at_origin_rejected(self):
        with pytest.raises(ZeroAtOrigin):
            qs.lagrange_revert(qs.identity(4), 4)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.floats(min_value=-0.9, max_value=0.9, allow_nan=False),
            min_size=0,
            max_size=4,
        )
    )
    def test_defining_property_random_polynomials(self, tail):
        coeffs = (1.0 + 0j,) + tuple(complex(t) for t in tail)
        f = qs.TruncSeries(coeffs + (0j,) * (12 - len(tail)))
        w = qs.lagrange_revert(f, 12)
        assert qs.defining_residual(f, w) < 1e-10


class TestExactReversion:
    def test_exponential_certificate(self):
        for order in (24, 48):
            f = [Fraction(1, math.factorial(k)) for k in range(order + 1)]
            w = qs.revert_exact(f, order)
            assert qs.defining_residual_exact(f, w) == 0
            for n in range(1, order + 1):
                assert w[n] == Fraction(n ** (n - 1), math.factorial(n))

    def test_float_inputs_are_dyadic(self):
        w = qs.revert_exact([1.0, 0.5], 6)
        assert qs.defining_residual_exact([1.0, 0.5], w) == 0

    def test_complex_rejected(self):
        from lagrev.errors import DomainError

        with pytest.raises(DomainError):
            qs.revert_exact([1.0 + 1.0j], 4)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.fractions(min_value=-12, max_value=12, max_denominator=6),
            min_size=1,
            max_size=7,
        ).filter(lambda c: c[0] != 0),
        st.integers(min_value=1, max_value=24),
    )
    def test_exact_and_float_reversion_agree(self, coeffs, order):
        w = qs.revert_exact(coeffs, order)
        assert qs.defining_residual_exact(coeffs, w) == 0
        wf = qs.lagrange_revert(qs.TruncSeries(tuple(complex(c) for c in coeffs)), order)
        # a single c_n can be small by cancellation, so each error is
        # relative to the largest exact coefficient up to order n
        scale = 0
        for n in range(1, order + 1):
            scale = max(scale, abs(w[n]))
            assert abs(wf[n] - complex(w[n])) <= 1e-12 * scale

    def test_newton_steps_follow_the_doubling_law(self, monkeypatch):
        # the orders are fixed top-down from N by m <- (m-1)//2, and a step
        # of two compositions takes an order n that is exact to 2n+2
        ladders = {
            64: [3, 7, 15, 31, 64],
            48: [2, 5, 11, 23, 48],
            24: [2, 5, 11, 24],
            16: [3, 7, 16],
        }
        calls = []
        compose = qs.compose

        def counted(outer, inner):
            calls.append(outer.order)
            return compose(outer, inner)

        monkeypatch.setattr(qs, "compose", counted)
        for order, ladder in ladders.items():
            calls.clear()
            qs.lagrange_revert(exponential(order), order)
            assert calls == [m for m in ladder for _ in range(2)]
            orders = calls[::2]
            for below, m in zip([1] + orders, orders):
                assert m <= 2 * below + 2
            assert orders[-1] == order

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.fractions(min_value=-5, max_value=5, max_denominator=4),
            min_size=1,
            max_size=5,
        ).filter(lambda c: c[0] != 0),
        st.integers(min_value=1, max_value=12),
    )
    def test_lagrange_coefficient_law(self, coeffs, order):
        # c_n = (1/n) [A^(n-1)] f(A)^n, with f^n by plain list products
        f = (coeffs + [Fraction(0)] * order)[:order]
        power = [Fraction(1)] + [Fraction(0)] * (order - 1)
        expected = [Fraction(0)]
        for n in range(1, order + 1):
            power = [sum(power[j] * f[k - j] for j in range(k + 1)) for k in range(order)]
            expected.append(power[n - 1] / n)
        assert qs.revert_exact(coeffs, order) == expected

    @pytest.mark.parametrize("c", [Fraction(4, 7), Fraction(5, 7)])
    def test_geometric_gives_scaled_catalan_numbers(self, c):
        # f = 1/(1 - cA), w = q/(1 - c w): c_n = Catalan(n-1) c^(n-1)
        w = qs.revert_exact([c**k for k in range(49)], 48)
        assert w[0] == 0
        for n in range(1, 49):
            assert w[n] == math.comb(2 * n - 2, n - 1) // n * c ** (n - 1)


small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=9)


def exact_series(coeffs):
    return qs.TruncSeries(tuple(coeffs))


class TestExactKernel:
    """Fraction products, quotients and compositions run on integers over
    one denominator; these are the plain Fraction double loops."""

    @staticmethod
    def product(a, b):
        n = min(len(a), len(b))
        return [sum((a[j] * b[k - j] for j in range(k + 1)), Fraction(0)) for k in range(n)]

    @staticmethod
    def quotient(a, b):
        out = []
        for k in range(min(len(a), len(b))):
            acc = a[k] - sum((b[j] * out[k - j] for j in range(1, k + 1)), Fraction(0))
            out.append(acc / b[0])
        return out

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.lists(small_fractions, min_size=1, max_size=17),
        st.lists(small_fractions, min_size=1, max_size=17),
    )
    def test_product_and_quotient(self, a, b):
        product = (exact_series(a) * exact_series(b)).coeffs
        assert list(product) == self.product(a, b)
        assert all(type(c) is Fraction for c in product)
        if b[0] != 0:
            assert list((exact_series(a) / exact_series(b)).coeffs) == self.quotient(a, b)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.lists(small_fractions, min_size=1, max_size=17),
        st.lists(small_fractions, min_size=0, max_size=16),
    )
    def test_composition(self, outer, inner_tail):
        inner = [Fraction(0)] + inner_tail
        n = min(len(outer), len(inner))
        expected = [outer[n - 1]] + [Fraction(0)] * (n - 1)
        for k in range(n - 2, -1, -1):
            expected = self.product(expected, inner[:n])
            expected[0] += outer[k]
        composed = qs.compose(exact_series(outer), exact_series(inner)).coeffs
        assert list(composed) == expected

    @pytest.mark.parametrize("n", [4, 24])
    def test_composition_splits_and_normalises_once(self, n, monkeypatch):
        # the inner series is split over its lcm once per composition, and
        # the n+1 Fractions of the result are the only ones built: no
        # Horner step splits its operands or normalises its coefficients
        split, built = [], []
        over_lcm, new = qs._over_lcm, Fraction.__new__

        def counted_split(coeffs):
            split.append(len(coeffs))
            return over_lcm(coeffs)

        def counted_new(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        outer = exact_series([Fraction(1, k + 1) for k in range(n + 1)])
        inner = exact_series([Fraction(0)] + [Fraction(k, 2 * k + 1) for k in range(1, n + 1)])
        monkeypatch.setattr(qs, "_over_lcm", counted_split)
        monkeypatch.setattr(Fraction, "__new__", counted_new)
        composed = qs.compose(outer, inner)
        monkeypatch.undo()
        assert split == [n + 1] and len(built) == n + 1
        assert list(composed.coeffs) == list(TestComposition.operator_loop(outer, inner).coeffs)


small_complex = st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False)
wide_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=10**6)


class TestComposition:
    """compose runs its Horner loop on coefficient lists; it must give
    what the same loop of TruncSeries operators gives, in the same type."""

    @staticmethod
    def operator_loop(outer, inner):
        n = min(outer.order, inner.order)
        inner = inner.truncated(n)
        acc = qs.constant(outer[n], n)
        for k in range(n - 1, -1, -1):
            acc = acc * inner + qs.constant(outer[k], n)
        return acc

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_the_operator_loop(self, data):
        # either type for either operand, to order 24, denominators to 10^6
        kinds = st.sampled_from([(small_complex, complex), (wide_fractions, Fraction)])
        (outer_coefficient, outer_kind), (inner_coefficient, inner_kind) = (
            data.draw(kinds), data.draw(kinds)
        )
        outer = data.draw(st.lists(outer_coefficient, min_size=1, max_size=25))
        inner = [inner_kind(0)] + data.draw(st.lists(inner_coefficient, min_size=0, max_size=24))
        a, b = qs.TruncSeries(tuple(outer)), qs.TruncSeries(tuple(inner))
        composed, expected = qs.compose(a, b).coeffs, self.operator_loop(a, b).coeffs
        kind = Fraction if outer_kind is inner_kind is Fraction else complex
        assert len(composed) == len(expected) == min(len(outer), len(inner))
        assert all(x == kind(y) for x, y in zip(composed, expected))
        assert all(type(c) is kind for c in composed)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.lists(small_fractions, min_size=1, max_size=13),
        st.lists(small_fractions, min_size=0, max_size=12),
    )
    def test_mixed_operands_become_complex(self, outer, inner_tail):
        # a Fraction series with a float one gives an all-complex result,
        # at every order, the constant-only order 0 included
        inner = [Fraction(0)] + inner_tail
        for a, b in (
            (exact_series(outer), qs.TruncSeries(tuple(map(float, inner)))),
            (qs.TruncSeries(tuple(map(float, outer))), exact_series(inner)),
        ):
            composed = qs.compose(a, b).coeffs
            assert all(type(c) is complex for c in composed)
            assert all(x == complex(y) for x, y in zip(composed, self.operator_loop(a, b).coeffs))


class TestCoefficientTypes:
    def test_fraction_series_stay_exact(self):
        a = qs.TruncSeries((Fraction(1), Fraction(1, 2), Fraction(1, 3)))
        b = qs.TruncSeries((Fraction(0), Fraction(2), Fraction(-1, 5)))
        results = (a + b, a - b, a * b, a / (a + b), qs.compose(a, b), a * 3, a / 3, a + Fraction(1))
        for s in results:
            assert all(type(c) is Fraction for c in s.coeffs)
        assert (a / (a + b) * (a + b)).coeffs == a.coeffs

    def test_mixed_input_becomes_complex(self):
        exact = qs.TruncSeries((Fraction(1), Fraction(1, 2)))
        assert qs.TruncSeries((Fraction(1), 0.5)).coeffs == (1 + 0j, 0.5 + 0j)
        for s in (exact + qs.identity(1), exact * qs.identity(1), exact * 0.5, exact + 1):
            assert all(type(c) is complex for c in s.coeffs)


class TestSeriesAlgebra:
    def test_exp_log_round_trip(self):
        s = qs.constant(1.0, 16) + qs.identity(16)
        back = qs.s_exp(qs.s_log(s))
        assert max(abs(c) for c in (back - s).coeffs) < 1e-14

    def test_pythagorean(self):
        x = qs.identity(16)
        one = qs.constant(1.0, 16)
        diff = qs.s_sin(x) * qs.s_sin(x) + qs.s_cos(x) * qs.s_cos(x) - one
        assert max(abs(c) for c in diff.truncated(16).coeffs) < 1e-14

    def test_log_needs_unit_constant_term(self):
        with pytest.raises(DegenerateSeries):
            qs.s_log(qs.identity(4))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.floats(min_value=-0.5, max_value=0.5, allow_nan=False),
            min_size=1,
            max_size=5,
        )
    )
    def test_exp_of_sum_is_product(self, tail):
        a = qs.TruncSeries((0j,) + tuple(complex(t) for t in tail) + (0j,) * 6)
        b = qs.TruncSeries((0j,) + tuple(complex(-t / 2) for t in tail) + (0j,) * 6)
        lhs = qs.s_exp(a + b)
        rhs = (qs.s_exp(a) * qs.s_exp(b)).truncated(lhs.order)
        assert max(abs(x - y) for x, y in zip(lhs.coeffs, rhs.coeffs)) < 1e-12


class TestProductForm:
    def test_mobius_values(self):
        assert [qs.mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]

    def test_exponent_round_trip(self):
        a = tuple(complex(n, 0.1 * n) for n in range(1, 16))
        back = qs.invert_exponents(qs.product_exponents(a))
        assert max(abs(x - y) for x, y in zip(a, back)) < 1e-10

    def test_product_matches_exponential(self):
        # exp(w(q)) against the Moebius-exponent product, both truncated
        w = qs.lagrange_revert(geometric(32), 32)
        a = tuple(n * w[n] for n in range(1, 33))
        exponents = qs.product_exponents(a)
        for q in (0.02, 0.05, 0.04 + 0.02j):
            value, _ = qs.eval_series(w, q)
            assert abs(cmath.exp(value) - qs.eval_product(exponents, q)) < 1e-12

    def test_tiny_factors_not_dropped(self):
        # exponents grow fast enough that q^n below machine epsilon still
        # carries visible mass through e_n * q^n
        w = qs.lagrange_revert(geometric(40), 40)
        a = tuple(n * w[n] for n in range(1, 41))
        exponents = qs.product_exponents(a)
        value, _ = qs.eval_series(w, 0.08)
        assert abs(cmath.exp(value) - qs.eval_product(exponents, 0.08)) < 1e-13
