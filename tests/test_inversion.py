from __future__ import annotations

import math

import pytest

from lagrev.errors import AccuracyLoss, PoleError, ZeroAtOrigin
from lagrev.expr import parse_expr
from lagrev.inversion import (
    G_from_P0,
    F1_forward,
    F1_inverse,
    F1_inverse_deriv,
    build_context,
    eval_series,
    p_of_z,
    solve_w_direct,
    to_funcspec,
    y_of,
)
from lagrev.specfun import e_map, lambert_w


@pytest.fixture(scope="module")
def lambert_ctx():
    return build_context(to_funcspec(parse_expr("exp(A)"), order=48), 48)


class TestContext:
    def test_series_against_newton(self, lambert_ctx):
        f = lambert_ctx.f
        for q in (0.05, -0.08, 0.04 + 0.03j):
            via_series, _ = eval_series(lambert_ctx.w_series, q)
            assert abs(via_series - solve_w_direct(f, q)) < 1e-12

    def test_lambert_closed_form(self, lambert_ctx):
        # w e^{-w} = q means w = -W(-q)
        for q in (0.05, 0.1, 0.02 + 0.06j):
            via_series, _ = eval_series(lambert_ctx.w_series, q)
            assert abs(via_series + lambert_w(-q)) < 1e-12

    def test_newton_rejects_zero_constant(self):
        f = to_funcspec(parse_expr("A"))
        with pytest.raises(ZeroAtOrigin):
            solve_w_direct(f, 0.1)


class TestReciprocalSeries:
    def test_pole_balance(self, lambert_ctx):
        # P * q w'(q) = 1 by construction
        z = 0.1 + 0.5j
        q = e_map(z)
        wprime, _ = eval_series(lambert_ctx.w_series.derivative(), q)
        assert abs(p_of_z(lambert_ctx, z) * q * wprime - 1.0) < 1e-12

    def test_matches_differentiated_series(self, lambert_ctx):
        # reference: 1/(q w'(q)) from the differentiated series w' with
        # its own tail check; z = 0.1 + iy has |q| = exp(-2 pi y)
        def reference(y):
            q = e_map(0.1 + 1j * y)
            value, tail = eval_series(lambert_ctx.w_series.derivative(), q)
            return 1.0 / (q * value), tail > 1e-12

        for k in range(30):
            y = 0.3 * 1.1**k
            expected, lossy = reference(y)
            assert not lossy
            assert abs(p_of_z(lambert_ctx, 0.1 + 1j * y) - expected) <= 1e-15 * abs(expected)
        # the tail check trips between the same two adjacent heights
        lo, hi = 0.1, 0.3
        while math.nextafter(lo, hi) < hi:
            mid = 0.5 * (lo + hi)
            if reference(mid)[1]:
                lo = mid
            else:
                hi = mid
        with pytest.raises(AccuracyLoss):
            p_of_z(lambert_ctx, 0.1 + 1j * lo)
        expected = reference(hi)[0]
        assert abs(p_of_z(lambert_ctx, 0.1 + 1j * hi) - expected) <= 1e-15 * abs(expected)

    def test_accuracy_loss_names_q_order_and_tail(self, lambert_ctx):
        # z = 0.1 + 0.1i has |q| = exp(-0.2 pi), far outside the series' reach
        with pytest.raises(
            AccuracyLoss,
            match=r"tail estimate \d\.\d{3}e\+\d\d exceeds 1e-12 at \|q\| = 0\.533488 "
            r"with w at order 48",
        ):
            p_of_z(lambert_ctx, 0.1 + 0.1j)


class TestF1:
    def test_frozen_anchors(self):
        assert abs(F1_inverse(0.2) - 1.56932424422317538692601316093) < 1e-12
        assert abs(F1_inverse(0.5) - 3.39862308863694797496339826298) < 1e-12

    def test_forward_inverse_pair(self):
        for a in (0.1, 0.2, 0.5):
            assert abs(F1_forward(F1_inverse(a)) - a) < 1e-11

    def test_derivative_consistency(self):
        y = 0.3
        h = 1e-6
        fd = (F1_inverse(y + h) - F1_inverse(y - h)) / (2 * h)
        assert abs(fd - F1_inverse_deriv(y)) < 1e-7


class TestChain:
    def test_g_cancels_reciprocal(self, lambert_ctx):
        g = G_from_P0(lambda u: 1.0 + 0j, 0j)
        for z in (0.1 + 0.5j, -0.2 + 0.6j):
            assert abs(g(y_of(lambert_ctx, z)) + p_of_z(lambert_ctx, z)) < 1e-10

    def test_g_pole_guard(self):
        g = G_from_P0(lambda u: 0j, 0j)
        with pytest.raises(PoleError):
            g(F1_inverse(1e-60))
