from __future__ import annotations

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lagrev.quadint
from lagrev.errors import BranchError, DomainError, PoleError
from lagrev.quadint import (
    B_alpha,
    QuadraticPowerIntegral,
    beta_endpoint,
    beta_r,
    closed_integral_thm13_1,
    closed_integral_thm18,
    f1_integrand,
    omega,
    U_antideriv,
)
from lagrev.quadrature import quad_oracle
from lagrev.specfun import gamma_fn

INF = float("inf")


@pytest.fixture(scope="module")
def arcsine():
    # (1 - t^2)^(-1/2): both the closed form and the endpoints are classical
    return QuadraticPowerIntegral(-1.0, 0.0, 1.0, Fraction(1, 2))


class TestQuadratic:
    def test_validation(self):
        with pytest.raises(DomainError):
            QuadraticPowerIntegral(1.0, 0.0, 1.0, Fraction(3, 2))
        with pytest.raises(DomainError):
            QuadraticPowerIntegral(0.0, 1.0, 1.0, Fraction(1, 2))

    @pytest.mark.parametrize("bad", [math.nan, INF, complex(0.0, -INF)])
    def test_nonfinite_coefficients(self, bad):
        for k, name in enumerate(("a1", "b1", "c1")):
            coeffs = [0.5, 0.0, 3.5e6]
            coeffs[k] = bad
            with pytest.raises(DomainError, match=f"coefficient {name} must be finite"):
                QuadraticPowerIntegral(*coeffs, Fraction(1, 2))

    def test_calibration_prefactor(self, arcsine):
        assert abs(arcsine.prefactor - 1.0) < 1e-14
        assert abs(arcsine.branch_phase + 1.0) < 1e-12

    def test_gamma_factor(self, arcsine):
        alpha = 0.5
        closed = gamma_fn(alpha).real ** 2 / gamma_fn(2 * alpha).real
        assert arcsine.gamma_factor == pytest.approx(closed, rel=1e-12)


class TestBetaPoints:
    def test_closed_form_point(self):
        assert beta_r(Fraction(1, 2), 3.0).beta == pytest.approx((2 - math.sqrt(2)) / 4, abs=1e-12)

    def test_defining_ratio(self):
        for m, r in ((Fraction(1, 2), 3.0), (Fraction(1, 3), 2.0)):
            alpha = float(1 - m)
            b = beta_r(m, r).beta
            assert B_alpha(1 - b, alpha) / B_alpha(b, alpha) == pytest.approx(
                math.sqrt(r), abs=1e-10
            )

    def test_square_law(self):
        # B_alpha(beta_r)^2 = Gamma(alpha)^2 / (Gamma(2 alpha) (r+1))
        for m, r in ((Fraction(1, 2), 3.0), (Fraction(1, 6), 5.0)):
            alpha = float(1 - m)
            b = beta_r(m, r).beta
            closed = gamma_fn(alpha).real ** 2 / (gamma_fn(2 * alpha).real * (r + 1))
            assert B_alpha(b, alpha) ** 2 == pytest.approx(closed, abs=1e-12)

    def test_small_r_mirrors_large_r(self):
        # t -> 1 - t swaps r and 1/r; here 1 - t is 5e-11, finer than a
        # double t near 1 resolves, so both solves share the same u
        m = Fraction(5, 6)
        small, large = beta_r(m, 0.01), beta_r(m, 1 / 0.01)
        assert small.u == large.u == large.beta
        assert small.beta == 1 - large.beta

    def test_interlocking_scaling(self):
        alpha, r, n = 0.5, 2.0, 2
        lhs = B_alpha(beta_r(Fraction(1, 2), n * n * r).beta, alpha)
        rhs = math.sqrt((r + 1) / (n * n * r + 1)) * B_alpha(beta_r(Fraction(1, 2), r).beta, alpha)
        assert lhs == pytest.approx(rhs, abs=1e-12)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=11), st.floats(min_value=-2.0, max_value=3.0))
@example(9, 3.0)
@example(10, -2.0)
@example(11, 3.0)
def test_beta_r_solve_cost(k, log10_r):
    """Every beta-point solve returns after at most 10 incomplete-beta
    calls, and its u = min(t, 1 - t) meets the defining ratio to 1e-10
    against an oracle that shares nothing with the solver's quadrature:
    B0(1-u) = Gamma(alpha)^2/Gamma(2 alpha) - B0(u)."""
    calls = []
    inc_beta = lagrev.quadint.inc_beta

    def counted(*args):
        calls.append(args)
        return inc_beta(*args)

    m, r = Fraction(k, 12), 10.0**log10_r
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lagrev.quadint, "inc_beta", counted)
        bp = beta_r(m, r)
    assert len(calls) <= 10
    alpha = float(1 - m)
    assert 0 < bp.u <= 0.5
    assert bp.beta == (bp.u if r >= 1 else 1 - bp.u)
    near = inc_beta(bp.u, alpha, alpha).real
    far = (gamma_fn(alpha) ** 2 / gamma_fn(2 * alpha)).real - near
    assert math.sqrt(far / near) == pytest.approx(math.sqrt(max(r, 1 / r)), abs=1e-10)


def test_beta_r_seed_cost():
    """The second-order seed: Newton evaluations per beta-point solve over
    the m of the integral oracle and r near its bands average at most 4.0."""
    solve = lagrev.quadint.newton_decreasing
    evaluations = []

    def counted(g, *bracket):
        def g_counted(v):
            evaluations.append(v)
            return g(v)

        return solve(g_counted, *bracket)

    grid = [(Fraction(m), r) for m in ("1/6", "1/4", "1/3", "1/2", "2/3", "5/6")
            for r in (1.5, 2.0, 3.0, 5.0)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lagrev.quadint, "newton_decreasing", counted)
        for m, r in grid:
            beta_r(m, r)
    assert len(evaluations) / len(grid) <= 4.0


class TestClosedIntegral:
    def test_arcsine_calibration(self, arcsine):
        assert closed_integral_thm18(arcsine, INF, 3.0).real == pytest.approx(math.pi / 4)
        assert closed_integral_thm18(arcsine, INF, 1.0).real == pytest.approx(math.pi / 2)

    def test_equal_endpoints_vanish(self, arcsine):
        assert closed_integral_thm18(arcsine, 3.0, 3.0) == 0

    def test_against_quadrature(self, arcsine):
        a1 = beta_endpoint(arcsine, INF)
        a2 = beta_endpoint(arcsine, 3.0)
        value, _ = quad_oracle(arcsine.evaluate, a1, a2, from_left=arcsine.root_form(a1, a2 - a1))
        assert abs(value - math.pi / 4) < 1e-10

    def test_antiderivative_matches_omega(self, arcsine):
        # U at the beta abscissa lands exactly on the omega closed form
        for r in (1.0, 3.0, 7.0):
            z = 1j * math.sqrt(r)
            u = U_antideriv(arcsine, beta_endpoint(arcsine, r))
            assert abs(u - omega(arcsine, z)) < 1e-10

    def test_antiderivative_derivative(self, arcsine):
        t = -0.6
        h = 1e-6
        fd = (U_antideriv(arcsine, t + h) - U_antideriv(arcsine, t - h)) / (2 * h)
        assert abs(fd - arcsine.evaluate(t)) < 1e-8


@pytest.mark.parametrize("r1", [INF, 1.5])
@pytest.mark.parametrize(
    "m", [Fraction(1, 6), Fraction(1, 3), Fraction(1, 2), Fraction(5, 6)], ids=str
)
@pytest.mark.parametrize("b1", [0.1, -0.1])
def test_real_a1_positive_c1_negative_against_quadrature(b1, m, r1):
    # -a1/D1 is a negative real whose zero imaginary part carries the
    # sign of b1; both signs must land on the same side of the cut
    q = QuadraticPowerIntegral(1.0, b1, -1.0, m)
    closed = closed_integral_thm18(q, r1, 3.0)
    a1, a2 = beta_endpoint(q, r1), beta_endpoint(q, 3.0)
    kwargs = {}
    if r1 == INF:
        # a1 is a root of the quadratic: evaluate at distance d from it
        kwargs = dict(from_left=q.root_form(a1, a2 - a1))
    direct, _ = quad_oracle(q.evaluate, a1, a2, **kwargs)
    assert abs(closed - direct) < 1e-9 * max(1.0, abs(direct))


class TestLogBracket:
    def test_against_quadrature(self, arcsine):
        c = 1.5 + 0j
        r1, r2 = 2.56, 6.25
        closed = closed_integral_thm13_1(
            arcsine, c, 1j * math.sqrt(r1), 1j * math.sqrt(r2), log_f=lambda u: u
        )
        integrand = f1_integrand(arcsine, c, lambda u: 1.0 + 0j)
        direct, _ = quad_oracle(integrand, beta_endpoint(arcsine, r1), beta_endpoint(arcsine, r2))
        assert abs(closed - direct) < 1e-10

    def test_pure_pole_variant(self, arcsine):
        c = 1.5 + 0j
        r1, r2 = 2.56, 6.25
        closed = closed_integral_thm13_1(arcsine, c, 1j * math.sqrt(r1), 1j * math.sqrt(r2))
        integrand = f1_integrand(arcsine, c, lambda u: 0j)
        direct, _ = quad_oracle(integrand, beta_endpoint(arcsine, r1), beta_endpoint(arcsine, r2))
        assert abs(closed - direct) < 1e-10


class TestGuards:
    def test_omega_pole(self, arcsine):
        with pytest.raises(PoleError):
            omega(arcsine, 1.0)

    def test_omega_non_finite(self, arcsine):
        # 1j * sqrt(inf) is nan+infj, the point an infinite ratio maps to
        for z in (1j * math.sqrt(INF), complex(INF, 0.0), complex(0.0, math.nan)):
            with pytest.raises(DomainError):
                omega(arcsine, z)

    def test_antiderivative_cut(self, arcsine):
        with pytest.raises(BranchError):
            U_antideriv(arcsine, 3.0)  # maps past the closure of the disc

    def test_f1_pole_guard(self, arcsine):
        integrand = f1_integrand(arcsine, 0j, lambda u: 0j)
        with pytest.raises(PoleError):
            integrand(beta_endpoint(arcsine, INF))
