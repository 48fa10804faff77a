from __future__ import annotations

import cmath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagrev.errors import DegenerateSeries, ParseError
from lagrev.expr import eval_expr, parse_expr, print_expr
from lagrev.series import TruncSeries, eval_series, identity

# fixed corpus: parse -> print -> parse must be a fixpoint on every entry
CORPUS = [
    "1",
    "A",
    "i",
    "-A",
    "1+A",
    "1-A",
    "1/(1-A)",
    "1/(1-A)^2",
    "exp(A)",
    "log(1+A)",
    "sin(A)",
    "cos(A)",
    "sqrt(1+A)",
    "exp(sin(A))",
    "A^2",
    "A^3",
    "(1+A)^2",
    "A^1/2",
    "(1+A)^1/2",
    "(1-A)^-1/2",
    "2*A",
    "A/2",
    "1+2*A+3*A^2",
    "1-A-A^2",
    "(1+A)*(1-A)",
    "exp(A)/(1-A)",
    "1+i*A",
    "-(1+A)",
    "cos(A)+i*sin(A)",
    "sqrt(1+A^2)",
]


class TestRoundTrip:
    @pytest.mark.parametrize("src", CORPUS)
    def test_parse_print_parse_fixpoint(self, src):
        tree = parse_expr(src)
        text = print_expr(tree)
        again = parse_expr(text)
        assert print_expr(again) == text

    @pytest.mark.parametrize("src", CORPUS)
    def test_eval_matches_series(self, src):
        tree = parse_expr(src)
        if src == "A^1/2":
            # no expansion at 0; still a valid expression pointwise
            with pytest.raises(DegenerateSeries):
                eval_expr(tree, identity(32))
            return
        s = eval_expr(tree, identity(32))
        for a in (0.05, -0.03, 0.02 + 0.04j):
            direct = eval_expr(tree, a)
            via_series, _ = eval_series(s, a)
            assert abs(direct - via_series) < 1e-10
            # the jet a + eps carries f(a) and f'(a)
            value, slope = eval_expr(tree, TruncSeries((a, 1))).coeffs
            assert abs(value - direct) <= 1e-15 * abs(direct)
            assert abs(slope - eval_series(s.derivative(), a)[0]) < 1e-12

    def test_corpus_size(self):
        assert len(CORPUS) == 30


class TestSemantics:
    def test_power_literal(self):
        assert eval_expr(parse_expr("(1+A)^2"), 3.0) == pytest.approx(16.0)

    def test_rational_exponent(self):
        assert eval_expr(parse_expr("(1+A)^1/2"), 0.44) == pytest.approx(1.2)

    def test_imaginary_unit(self):
        assert eval_expr(parse_expr("i*i"), 0.0) == pytest.approx(-1.0)

    def test_precedence(self):
        assert eval_expr(parse_expr("1+2*A^2"), 2.0) == pytest.approx(9.0)

    def test_unary_minus(self):
        assert eval_expr(parse_expr("-A^2"), 3.0) == pytest.approx(-9.0)

    def test_exp_series_prefix(self):
        s = eval_expr(parse_expr("exp(A)"), identity(4))
        expected = (1.0, 1.0, 0.5, 1 / 6, 1 / 24)
        for c, e in zip(s.coeffs, expected):
            assert c == pytest.approx(e, abs=1e-14)


class TestErrors:
    def test_unknown_identifier(self):
        with pytest.raises(ParseError):
            parse_expr("tan(A)")

    def test_position_in_message(self):
        with pytest.raises(ParseError, match="position"):
            parse_expr("1+*2")

    def test_unbalanced(self):
        with pytest.raises(ParseError):
            parse_expr("exp(A")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_expr("")

    def test_non_literal_exponent(self):
        with pytest.raises(ParseError):
            parse_expr("A^A")

    def test_log_at_origin_has_no_series(self):
        with pytest.raises(DegenerateSeries):
            eval_expr(parse_expr("log(A)"), identity(4))

    def test_division_by_vanishing_series(self):
        with pytest.raises(DegenerateSeries):
            eval_expr(parse_expr("1/A"), identity(4))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=1, max_value=3),
    st.sampled_from(["exp", "sin", "cos"]),
)
def test_generated_expressions_round_trip(k, p, fn):
    src = f"{fn}({k}*A)^{p}+A"
    tree = parse_expr(src)
    assert print_expr(parse_expr(print_expr(tree))) == print_expr(tree)
    a = 0.03
    direct = eval_expr(tree, a)
    expected = {"exp": cmath.exp, "sin": cmath.sin, "cos": cmath.cos}[fn](k * a) ** p + a
    assert abs(direct - expected) < 1e-12
