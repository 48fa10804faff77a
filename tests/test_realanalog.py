from __future__ import annotations

import math
from fractions import Fraction

import pytest

import lagrev.realanalog
from lagrev.errors import AccuracyLoss, DomainError, NoBracket
from lagrev.expr import parse_expr
from lagrev.inversion import eval_series, to_funcspec
from lagrev.quadint import QuadraticPowerIntegral
from lagrev.quadrature import quad_oracle
from lagrev.realanalog import (
    L_of,
    S_residual,
    build_real_context,
    f1_real_cross,
    hi_inverse,
    hi_of,
    hi_prime,
    modular_abscissa,
    thm19_oracle,
    thm19_value,
    thm20_fit,
    thm20_residual,
)


@pytest.fixture(scope="module")
def unit_ctx():
    return build_real_context(to_funcspec(parse_expr("1"), order=8), 8)


@pytest.fixture(scope="module")
def exp_ctx():
    return build_real_context(to_funcspec(parse_expr("exp(A)"), order=48), 48)


class TestLevelMap:
    def test_unit_instance_closed_form(self, unit_ctx):
        # f = 1 gives w = q, so the level map is elementary
        for a in (0.5, 1.0, 3.0):
            q = math.exp(-math.pi * math.sqrt(a))
            closed = q / math.pi**2 + math.sqrt(a) * q / math.pi
            assert hi_of(unit_ctx, a) == pytest.approx(closed, abs=1e-15)

    def test_derivative_consistency(self, exp_ctx):
        for a1, a2 in ((1.0, 2.0), (2.0, 4.0)):
            v, _ = quad_oracle(lambda t: complex(hi_prime(exp_ctx, t.real)), a1, a2)
            assert abs(v.real - (hi_of(exp_ctx, a2) - hi_of(exp_ctx, a1))) < 1e-10

    def test_derivative_matches_differentiated_series(self, exp_ctx):
        # reference: the differentiated series w' with its own tail check
        def reference(a):
            q = math.exp(-math.pi * math.sqrt(a))
            value, tail = eval_series(exp_ctx.w_series.derivative(), q)
            return -0.5 * q * value.real, tail > 1e-12

        for k in range(40):
            a = 0.25 * 1.1**k
            expected, lossy = reference(a)
            assert not lossy
            assert hi_prime(exp_ctx, a) == pytest.approx(expected, rel=1e-15, abs=0.0)
        # the tail check trips between the same two adjacent abscissae
        lo, hi = 0.1, 0.3
        while math.nextafter(lo, hi) < hi:
            mid = 0.5 * (lo + hi)
            if reference(mid)[1]:
                lo = mid
            else:
                hi = mid
        with pytest.raises(AccuracyLoss):
            hi_prime(exp_ctx, lo)
        assert hi_prime(exp_ctx, hi) == pytest.approx(reference(hi)[0], rel=1e-15, abs=0.0)

    def test_inverse_round_trip(self, unit_ctx):
        for a in (0.5, 2.0, 10.0):
            target = hi_of(unit_ctx, a)
            assert hi_inverse(unit_ctx, target, 0.05, 60.0) == pytest.approx(a, rel=1e-10)

    def test_inverse_accuracy_and_cost(self, unit_ctx, monkeypatch):
        # for f = 1 the one-term seed is the root itself: the two bracket
        # ends, one Newton evaluation and the tail check at the root make
        # 4 passes over a_n
        lo, hi = hi_of(unit_ctx, 60.0), hi_of(unit_ctx, 0.05)
        level = lagrev.realanalog._level
        passes = []

        def counted(ctx, s):
            passes.append(s)
            return level(ctx, s)

        monkeypatch.setattr(lagrev.realanalog, "_level", counted)
        for k in range(1, 20):
            x = lo + (hi - lo) * k / 20
            passes.clear()
            t = hi_inverse(unit_ctx, x, 0.05, 60.0)
            assert len(passes) <= 6
            assert hi_of(unit_ctx, t) == pytest.approx(x, rel=1e-13)

    def test_inverse_checks_the_tail_at_the_root_only(self):
        # order 24 for f = exp(A): the w' tail estimate passes 1e-12 below
        # about A = 0.43, so the bracket [0.2, 60] starts where it fails
        ctx = build_real_context(to_funcspec(parse_expr("exp(A)"), order=24), 24)
        for root in (0.48949, 2.0):
            assert hi_inverse(ctx, hi_of(ctx, root), 0.2, 60.0) == pytest.approx(root, rel=1e-12)
        with pytest.raises(AccuracyLoss):
            hi_inverse(ctx, hi_of(ctx, 0.3), 0.2, 60.0)

    def test_inverse_needs_a_positive_level(self, unit_ctx):
        # the nome exp(-pi sqrt(1e5)) underflows, so h_i(1e5) is 0 and
        # log(h_i/target) has no value there
        with pytest.raises(DomainError, match=r"h_i\(100000\) = 0"):
            hi_inverse(unit_ctx, 0.01, 0.05, 1e5)

    def test_out_of_band_target(self, unit_ctx):
        with pytest.raises(NoBracket):
            hi_inverse(unit_ctx, 5.0, 0.05, 60.0)

    def test_positive_abscissa_required(self, unit_ctx):
        for a in (-1.0, 0.0, math.nan):
            for level in (hi_of, hi_prime):
                with pytest.raises(DomainError, match="requires A > 0"):
                    level(unit_ctx, a)

    def test_finite_abscissa_required(self, unit_ctx):
        # at A = inf the nome is 0 and sqrt(A) q is inf * 0: h_i read nan,
        # h_i' read -0.0, and a bracket end at inf raised NoBracket
        x = hi_of(unit_ctx, 1.5)
        for a in (math.inf, -math.inf):
            for level in (hi_of, hi_prime):
                with pytest.raises(DomainError, match=f"finite, got A = {a}"):
                    level(unit_ctx, a)
            for lo, hi in ((0.05, a), (a, 60.0)):
                with pytest.raises(DomainError, match=f"finite, got A = {a}"):
                    L_of(unit_ctx, x, lo, hi)


class TestChain:
    def test_chain_derivative_balance(self, unit_ctx):
        # the level-inverse satisfies h' = -2 P(h) with P = 1/(q w'(q))
        lo, hi = 1e-3, 30.0
        for x in (0.04, 0.06):
            h = lambda t: hi_inverse(unit_ctx, t, lo, hi)  # noqa: E731
            step = 1e-6
            fd = (h(x + step) - h(x - step)) / (2 * step)
            p = math.exp(math.pi * math.sqrt(h(x)))
            assert abs(fd + 2 * p) / (2 * p) < 1e-5

    def test_s_residual(self, exp_ctx):
        lo, hi = 0.2, 60.0
        for a in (1.0, 3.0):
            x = hi_of(exp_ctx, a)
            assert abs(S_residual(exp_ctx, x, lo, hi)) < 1e-12

    def test_level_jet_matches_the_level_map(self, unit_ctx, exp_ctx):
        # the jet's h_i, h_i' and w at eps = 0 are the values of _level and _w_real
        one_plus = build_real_context(to_funcspec(parse_expr("1+A"), order=40), 40)
        for ctx in (exp_ctx, unit_ctx, one_plus):
            for k in range(41):
                t = 0.05 * 800.0 ** (k / 40)
                w, h = lagrev.realanalog._level_jet(ctx, t, 2)
                level, slope, _tail = lagrev.realanalog._level(ctx, math.sqrt(t))
                for got, want in (
                    (h[0], level), (h[1], slope), (w[0], lagrev.realanalog._w_real(ctx, t))
                ):
                    assert got.real == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_L_matches_series(self, unit_ctx):
        # for f = 1 the chain value is just the nome at the inverted level
        x = hi_of(unit_ctx, 1.5)
        assert L_of(unit_ctx, x) == pytest.approx(math.exp(-math.pi * math.sqrt(1.5)), rel=1e-10)


class TestLevelDifference:
    QUAD = QuadraticPowerIntegral(-1.0, 0.0, 1.0, Fraction(1, 2))

    def test_closed_vs_quadrature(self, unit_ctx):
        closed = thm19_value(unit_ctx, self.QUAD, 35.0, 45.0, 1e-4, 10.0)
        direct = thm19_oracle(unit_ctx, self.QUAD, 35.0, 45.0, 1e-4, 10.0)
        assert abs(closed - direct) < 1e-9

    def test_oracle_solves_each_node_once(self, unit_ctx, monkeypatch):
        # the bracket ends are read once per call; at a node the Newton
        # steps and the root's tail check, whose h_i' is the weight, make
        # at most 3 passes over a_n
        level, quad = lagrev.realanalog._level, lagrev.realanalog.quad_oracle
        passes, per_node = [], []

        def counted_level(ctx, s):
            passes.append(s)
            return level(ctx, s)

        def counted_quad(integrand, a, b, **kwargs):
            def node(t):
                before = len(passes)
                value = integrand(t)
                per_node.append(len(passes) - before)
                return value

            return quad(node, a, b, **kwargs)

        monkeypatch.setattr(lagrev.realanalog, "_level", counted_level)
        monkeypatch.setattr(lagrev.realanalog, "quad_oracle", counted_quad)
        thm19_oracle(unit_ctx, self.QUAD, 35.0, 45.0, 1e-4, 10.0)
        assert per_node and max(per_node) <= 3
        assert len(passes) == 2 + sum(per_node)

    def test_equal_ratios_vanish(self, unit_ctx):
        assert thm19_value(unit_ctx, self.QUAD, 35.0, 35.0) == 0.0

    def test_small_ratios_unreachable(self, unit_ctx):
        # the attainable level band has width 1/pi^2; both targets for
        # r = 1, 3 lie far above it
        with pytest.raises(NoBracket):
            thm19_value(unit_ctx, self.QUAD, 1.0, 3.0, 1e-4, 10.0)


class TestShiftFit:
    def test_recovers_zero_shift(self, unit_ctx):
        l1, sign = thm20_fit(unit_ctx, [0.02, 0.04])
        assert abs(l1) < 1e-8
        assert sign == 1
        # held-out point
        assert thm20_residual(unit_ctx, 0.06, l1) < 1e-8

    def test_shift_domain_guard(self, unit_ctx):
        with pytest.raises(DomainError):
            thm20_residual(unit_ctx, 0.04, l1=10.0)

    def test_each_level_is_solved_once(self, unit_ctx, monkeypatch):
        # h(A) is solved once per point, and both w and h' are read there
        level_solver = lagrev.realanalog._level_solver
        calls = []

        def counted(*args):
            solve = level_solver(*args)

            def counted_solve(target):
                calls.append(target)
                return solve(target)

            return counted_solve

        monkeypatch.setattr(lagrev.realanalog, "_level_solver", counted)
        l1, _sign = thm20_fit(unit_ctx, [0.02, 0.04])
        assert calls == [0.02, 0.04]
        calls.clear()
        thm20_residual(unit_ctx, 0.06, l1)
        assert calls == [0.06]
        calls.clear()
        x = hi_of(unit_ctx, 1.5)
        S_residual(unit_ctx, x)
        # x alone: L' and L'' are read from the jet at its root
        assert calls == [x]

    def test_one_solver_serves_every_point(self, unit_ctx, exp_ctx, monkeypatch):
        # the bracket ends are read once per call, not once per point, and
        # S_residual's h'(x) is the h_i' of the tail check at x's root (its
        # jet makes no pass): 2 passes over a_n, then per point its Newton
        # steps and the root
        level, newton = lagrev.realanalog._level, lagrev.realanalog.newton_decreasing
        passes, steps, roots = [], [], []

        def counted_level(ctx, s):
            passes.append(s)
            return level(ctx, s)

        def counted_newton(g, lo, hi, t):
            def step(s):
                steps.append(s)
                return g(s)

            roots.append(newton(step, lo, hi, t))
            return roots[-1]

        x = hi_of(exp_ctx, 1.0)
        monkeypatch.setattr(lagrev.realanalog, "_level", counted_level)
        monkeypatch.setattr(lagrev.realanalog, "newton_decreasing", counted_newton)
        for run, points in (
            (lambda: S_residual(exp_ctx, x, 0.2, 60.0), 1),
            (lambda: thm20_fit(unit_ctx, [0.02, 0.04, 0.06]), 3),
            (lambda: thm19_value(unit_ctx, TestLevelDifference.QUAD, 35.0, 45.0, 1e-4, 10.0), 2),
        ):
            del passes[:], steps[:], roots[:]
            run()
            assert len(roots) == points
            assert len(passes) == 2 + len(steps) + points


class TestModularBridge:
    def test_abscissa_anchors(self):
        assert modular_abscissa(1.0) == pytest.approx(3.46774, abs=1e-4)
        assert modular_abscissa(3.0) == pytest.approx(2.41675, abs=1e-4)

    def test_cross_agreement(self):
        for a in (2.5, 2.9, 3.4):
            direct, modular = f1_real_cross(a)
            assert abs(direct - modular) < 1e-10

    def test_out_of_range(self):
        with pytest.raises(NoBracket):
            f1_real_cross(100.0)

    def test_solve_accuracy_and_cost(self, monkeypatch):
        # the modular solve alone: count modular_abscissa calls, recover
        # r from the nome handed to the continued fraction, stub F1
        abscissa = modular_abscissa
        calls = []
        nomes = []

        def counted(r):
            calls.append(r)
            return abscissa(r)

        def continued_fraction(q):
            nomes.append(q)
            return 0.0

        monkeypatch.setattr(lagrev.realanalog, "modular_abscissa", counted)
        monkeypatch.setattr(lagrev.realanalog, "rogers_ramanujan", continued_fraction)
        monkeypatch.setattr(lagrev.realanalog, "F1_forward", lambda a: 0.0)
        lo, hi = abscissa(50.0), abscissa(0.05)
        # the grid spans the whole range; the last point has its root
        # within 1e-12 of r = 1
        grid = [lo + (hi - lo) * k / 40 for k in range(41)] + [abscissa(1.0) * (1 + 1e-12)]
        for a in grid:
            calls.clear()
            nomes.clear()
            f1_real_cross(a)
            assert len(calls) <= 20
            r = (math.log(nomes[0]) / math.pi) ** 2
            assert abscissa(r) == pytest.approx(a, rel=1e-13)
