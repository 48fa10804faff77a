from __future__ import annotations

import cmath
import math
import time

import pytest

from lagrev.errors import NoConvergence, NonIntegrable
from lagrev.quadrature import _WG, _WGK, _XGK, newton, newton_decreasing, quad_oracle
from lagrev.specfun import gamma_fn


def _rule_moment(nodes, weights, centre_weight, k):
    """The rule's value for the integral of t^k over [-1, 1], k even."""
    return 2.0 * math.fsum(w * x**k for x, w in zip(nodes, weights)) + (
        centre_weight if k == 0 else 0.0
    )


class TestGK15Constants:
    def test_weights_sum_to_two(self):
        assert abs(_rule_moment(_XGK[:7], _WGK[:7], _WGK[7], 0) - 2.0) <= 4e-16
        assert abs(_rule_moment(_XGK[1::2], _WG[:3], _WG[3], 0) - 2.0) <= 4e-16

    @pytest.mark.parametrize("k", range(2, 23, 2))
    def test_kronrod_rule_is_exact_through_degree_22(self, k):
        assert abs(_rule_moment(_XGK[:7], _WGK[:7], _WGK[7], k) - 2.0 / (k + 1)) <= 1e-15

    @pytest.mark.parametrize("k", range(2, 13, 2))
    def test_gauss_rule_is_exact_through_degree_12(self, k):
        assert abs(_rule_moment(_XGK[1::2], _WG[:3], _WG[3], k) - 2.0 / (k + 1)) <= 1e-15


class TestSmooth:
    def test_polynomial(self):
        value, err = quad_oracle(lambda t: t * t, 0.0, 1.0)
        assert abs(value - 1 / 3) < 1e-13
        assert err < 1e-10

    def test_oscillatory(self):
        value, _ = quad_oracle(lambda t: complex(math.cos(10 * t.real)), 0.0, 1.0)
        assert abs(value - math.sin(10) / 10) < 1e-11

    def test_complex_segment(self):
        # integral of exp along a tilted segment is exact by antiderivative
        z1, z2 = 0.0, 1.0 + 0.5j
        value, _ = quad_oracle(cmath.exp, z1, z2)
        assert abs(value - (cmath.exp(z2) - cmath.exp(z1))) < 1e-12


# The calibration integrals of verify's quadrature_calibration check, each
# singular end given by its distance form: (integrand, forms, closed form).
CALIBRATION = [
    (lambda t: t**-0.5, dict(from_left=lambda d: d**-0.5), 2.0),
    (
        lambda t: (1 - t * t) ** -0.5,
        dict(from_right=lambda d: (d * (2 - d)) ** -0.5),
        math.pi / 2,
    ),
    (
        lambda t: t ** (-5 / 6) * (1 - t) ** (-1 / 3),
        dict(
            from_left=lambda d: d ** (-5 / 6) * (1 - d) ** (-1 / 3),
            from_right=lambda d: (1 - d) ** (-5 / 6) * d ** (-1 / 3),
        ),
        (gamma_fn(1 / 6) * gamma_fn(2 / 3) / gamma_fn(5 / 6)).real,
    ),
]


def _counted(fn, box):
    def wrapped(*args):
        box[0] += 1
        return fn(*args)

    return wrapped


class TestEndpointSingularities:
    def test_inverse_square_root(self):
        value, _ = quad_oracle(lambda t: t**-0.5, 0.0, 1.0, from_left=lambda d: d**-0.5)
        assert abs(value - 2.0) < 1e-11

    def test_right_singularity_distance_form(self):
        value, _ = quad_oracle(
            lambda t: (1 - t * t) ** -0.5,
            0.0,
            1.0,
            from_right=lambda d: (d * (2 - d)) ** -0.5,
        )
        assert abs(value - math.pi / 2) < 1e-11

    def test_two_sided_beta(self):
        integrand, forms, closed = CALIBRATION[2]
        value, _ = quad_oracle(integrand, 0.0, 1.0, **forms)
        assert abs(value - closed) < 1e-10

    def test_strength_near_one(self):
        value, _ = quad_oracle(lambda t: t**-0.9, 0.0, 1.0, from_left=lambda d: d**-0.9)
        assert abs(value - 10.0) < 1e-9

    @pytest.mark.parametrize("case", range(3))
    def test_estimate_covers_the_calibration_error(self, case):
        integrand, forms, closed = CALIBRATION[case]
        value, estimate = quad_oracle(integrand, 0.0, 1.0, **forms)
        assert abs(value - closed) <= estimate <= 1e-13

    def test_calibration_costs_at_most_2000_evaluations(self):
        box = [0]
        for integrand, forms, closed in CALIBRATION:
            counted = {key: _counted(form, box) for key, form in forms.items()}
            value, _ = quad_oracle(_counted(integrand, box), 0.0, 1.0, **counted)
            assert abs(value - closed) < 1e-10
        assert box[0] <= 2000

    def test_unreached_end_is_not_evaluated(self):
        # the right end has no form: its abscissa 1 - d rounds onto t = 1
        # long before d underflows, and that side's sum ends there instead
        # of raising ZeroDivisionError from 0.0 ** -0.25
        value, _ = quad_oracle(
            lambda t: (1 - t) ** -0.25,
            0.0,
            1.0,
            from_left=lambda d: 1 / (1 - d) ** 0.25,
        )
        assert abs(value - 4 / 3) < 1e-9


class TestFailure:
    def test_non_integrable_pole(self):
        with pytest.raises(NonIntegrable, match=r"panel \[0, .*error estimate .* \d+ splits"):
            quad_oracle(lambda t: 1.0 / t if t != 0 else 0j, 0.0, 1.0)

    def test_divergent_distance_form(self):
        start = time.perf_counter()
        with pytest.raises(NonIntegrable, match=r"do not decay.* level 0, \d+ evaluations"):
            quad_oracle(lambda t: 1 / t, 0.0, 1.0, from_left=lambda d: 1 / d)
        assert time.perf_counter() - start < 1.0


class TestNewtonDecreasing:
    def test_quadratic_convergence(self):
        seen = []

        def g(t):
            seen.append(t)
            return 0.5 - t**3

        root = newton_decreasing(g, lambda t: -3 * t * t, 0.0, 2.0, 1.0)
        assert root == pytest.approx(0.5 ** (1 / 3), rel=4e-16)
        assert len(seen) <= 7

    def test_overshooting_step_bisects(self):
        # from t = 5 the Newton step on -atan(t - 1) lands at t = -17.5,
        # outside the bracket [0, 5], so the next point is its midpoint
        seen = []

        def g(t):
            seen.append(t)
            return -math.atan(t - 1.0)

        root = newton_decreasing(g, lambda t: -1.0 / (1.0 + (t - 1.0) ** 2), 0.0, 10.0, 5.0)
        assert seen[:2] == [5.0, 2.5]
        assert root == pytest.approx(1.0, abs=1e-15)

    def test_bisection_alone_converges(self):
        # a derivative 1000 times too small sends every Newton step out
        # of the bracket: the solver degrades to plain bisection
        seen = []

        def g(t):
            seen.append(t)
            return 0.3 - t

        root = newton_decreasing(g, lambda t: -1e-3, 0.0, 1.0, 0.5)
        assert seen[:4] == [0.5, 0.25, 0.375, 0.3125]
        assert root == pytest.approx(0.3, abs=1e-15)

    def test_no_convergence_message(self):
        # bisection alone cannot narrow [0, 1e300] to the root at 1 in 100 steps
        with pytest.raises(NoConvergence) as exc:
            newton_decreasing(lambda t: 1.0 - t, lambda t: -1e-300, 0.0, 1e300, 5e299)
        message = str(exc.value)
        width = 1e300 / 2**100
        assert f"after 100 iterations: bracket [0, {width:.17g}]" in message
        assert f"last g = {1.0 - width:.3e}" in message


class TestNewton:
    def test_complex_root(self):
        seen = []

        def g(z):
            seen.append(z)
            return z * z + 1.0

        root = newton(g, lambda z: 2.0 * z, 1.0 + 1.0j, 1e-14)
        assert abs(root - 1j) < 1e-14
        assert abs(g(root)) < 1e-14
        assert len(seen) <= 9

    def test_last_step_reaches_rounding_level(self):
        # |g| < 1e-6 stops the iteration, and one more step squares the error
        root = newton(lambda z: z * z + 1.0, lambda z: 2.0 * z, 1.0 + 1.0j, 1e-6)
        assert abs(root - 1j) < 1e-15

    def test_evaluation_cap_message(self):
        # exp has no root: each step moves z by -1, so after 100
        # evaluations the last |g| is exp(-99)
        with pytest.raises(NoConvergence) as exc:
            newton(cmath.exp, cmath.exp, 0j, 1e-300)
        message = str(exc.value)
        assert "after 100 iterations" in message
        assert f"last |g| = {math.exp(-99):.3e}" in message

    def test_zero_derivative_message(self):
        with pytest.raises(NoConvergence) as exc:
            newton(lambda z: z * z + 1.0, lambda z: 2.0 * z, 0j, 1e-14)
        message = str(exc.value)
        assert "zero derivative after 1 iterations" in message
        assert "last |g| = 1.000e+00" in message
