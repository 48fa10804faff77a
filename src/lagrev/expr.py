"""Expression trees for analytic functions of one variable A.

Grammar (whitespace insignificant):

    expr  := term {("+"|"-") term}
    term  := unary {("*"|"/") unary}
    unary := ["-"] power
    power := atom ["^" rational]
    atom  := number | "i" | "A" | ident "(" expr ")" | "(" expr ")"
    ident in {exp, log, sin, cos, sqrt}

Exponents are literal integers or literal P/Q rationals; general real
exponents are rejected so that rational powers stay exact.  A parsed tree
round-trips through print_expr.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from . import series as qs
from .errors import DegenerateSeries, ParseError
from .series import TruncSeries

Node = Union["Number", "Imag", "Var", "Neg", "BinOp", "Pow", "Call"]

# name: (scalar function, series function)
_CALLS = {
    "exp": (cmath.exp, qs.s_exp),
    "log": (cmath.log, qs.s_log),
    "sin": (cmath.sin, qs.s_sin),
    "cos": (cmath.cos, qs.s_cos),
    "sqrt": (cmath.sqrt, lambda s: qs.s_pow(s, 0.5)),
}


@dataclass(frozen=True)
class Number:
    value: float


@dataclass(frozen=True)
class Imag:
    pass


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    child: Node


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: Node
    right: Node


@dataclass(frozen=True)
class Pow:
    base: Node
    exponent: Fraction


@dataclass(frozen=True)
class Call:
    name: str
    arg: Node


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)|(?P<name>[A-Za-z_]\w*)|(?P<sym>[-+*/^()]))"
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            tail = src[pos:].lstrip()
            if not tail:
                break
            at = len(src) - len(tail)
            raise ParseError(f"unexpected character {tail[0]!r} at position {at}")
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("sym", m.group("sym"), m.start("sym")))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.k = 0

    def peek(self):
        return self.tokens[self.k] if self.k < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError(f"unexpected end of input at position {len(self.src)}")
        self.k += 1
        return tok

    def expect_sym(self, sym: str):
        tok = self.take()
        if tok[0] != "sym" or tok[1] != sym:
            raise ParseError(f"expected {sym!r} at position {tok[2]}, found {tok[1]!r}")

    def expr(self) -> Node:
        node = self.term()
        while self.peek() and self.peek()[0] == "sym" and self.peek()[1] in "+-":
            op = self.take()[1]
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek() and self.peek()[0] == "sym" and self.peek()[1] in "*/":
            op = self.take()[1]
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Node:
        tok = self.peek()
        if tok and tok[0] == "sym" and tok[1] == "-":
            self.take()
            return Neg(self.power())
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        tok = self.peek()
        if tok and tok[0] == "sym" and tok[1] == "^":
            self.take()
            node = Pow(node, self.rational())
        return node

    def rational(self) -> Fraction:
        sign = 1
        tok = self.take()
        if tok[0] == "sym" and tok[1] == "-":
            sign = -1
            tok = self.take()
        if tok[0] != "num" or not tok[1].isdigit():
            raise ParseError(
                f"exponent must be a literal integer or P/Q rational at position {tok[2]}"
            )
        numer = int(tok[1])
        nxt = self.peek()
        if nxt and nxt[0] == "sym" and nxt[1] == "/":
            self.take()
            den = self.take()
            if den[0] != "num" or not den[1].isdigit() or int(den[1]) == 0:
                raise ParseError(
                    f"exponent denominator must be a positive integer at position {den[2]}"
                )
            return Fraction(sign * numer, int(den[1]))
        return Fraction(sign * numer)

    def atom(self) -> Node:
        tok = self.take()
        kind, text, pos = tok
        if kind == "num":
            return Number(float(text))
        if kind == "name":
            if text == "i":
                return Imag()
            if text == "A":
                return Var()
            if text in _CALLS:
                self.expect_sym("(")
                inner = self.expr()
                self.expect_sym(")")
                return Call(text, inner)
            raise ParseError(f"unknown identifier {text!r} at position {pos}")
        if text == "(":
            inner = self.expr()
            self.expect_sym(")")
            return inner
        raise ParseError(f"unexpected token {text!r} at position {pos}")


def parse_expr(src: str) -> Node:
    """Parse src into an expression tree; errors carry the position."""
    if not src or not src.strip():
        raise ParseError("empty expression")
    parser = _Parser(src)
    node = parser.expr()
    trailing = parser.peek()
    if trailing is not None:
        raise ParseError(
            f"unexpected token {trailing[1]!r} at position {trailing[2]}"
        )
    return node


# Precedence levels used by the canonical printer; a child is wrapped in
# parentheses exactly when reparsing would otherwise regroup it.
_ADD, _MUL, _UNARY, _POWER, _ATOM = 1, 2, 3, 4, 5


def _level(node: Node) -> int:
    if isinstance(node, BinOp):
        return _ADD if node.op in "+-" else _MUL
    if isinstance(node, Neg):
        return _UNARY
    if isinstance(node, Pow):
        return _POWER
    return _ATOM


def _fmt_number(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _wrap(node: Node, minimum: int) -> str:
    text = print_expr(node)
    if _level(node) < minimum:
        return "(" + text + ")"
    return text


def print_expr(node: Node) -> str:
    """Canonical text form; parse_expr(print_expr(t)) == t."""
    if isinstance(node, Number):
        return _fmt_number(node.value)
    if isinstance(node, Imag):
        return "i"
    if isinstance(node, Var):
        return "A"
    if isinstance(node, Neg):
        return "-" + _wrap(node.child, _POWER)
    if isinstance(node, BinOp):
        mine = _level(node)
        left = _wrap(node.left, mine)
        # reparse is left-associative, so an equal-level right child of
        # "-" or "/" must keep its parentheses
        right_min = mine + 1 if node.op in "-/" else mine
        if node.op in "+*" and _level(node.right) == mine:
            right_min = mine + 1
        right = _wrap(node.right, right_min)
        return f"{left}{node.op}{right}"
    if isinstance(node, Pow):
        base = _wrap(node.base, _ATOM)
        e = node.exponent
        etext = str(e.numerator) if e.denominator == 1 else f"{e.numerator}/{e.denominator}"
        return f"{base}^{etext}"
    if isinstance(node, Call):
        return f"{node.name}({print_expr(node.arg)})"
    raise TypeError(f"not an expression node: {node!r}")


def eval_expr(node: Node, a):
    """Evaluate the tree at A = a, a complex number or a TruncSeries, with
    principal branches.

    Bound to qs.identity(N), A gives the Taylor expansion at 0; bound to
    the jet TruncSeries((a0, 1)), it gives f(a0) and f'(a0) as
    coefficients 0 and 1.  A series walk raises DegenerateSeries naming
    the offending subexpression when a log/sqrt/fractional power or
    division has no expansion there.
    """
    is_series = isinstance(a, TruncSeries)
    if isinstance(node, (Number, Imag)):
        value = 1j if isinstance(node, Imag) else node.value
        return qs.constant(value, a.order) if is_series else complex(value)
    if isinstance(node, Var):
        return a if is_series else complex(a)
    if isinstance(node, Neg):
        return -eval_expr(node.child, a)
    try:
        if isinstance(node, BinOp):
            left = eval_expr(node.left, a)
            right = eval_expr(node.right, a)
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            return left / right
        if isinstance(node, Pow):
            base = eval_expr(node.base, a)
            e = node.exponent
            k = e.numerator if e.denominator == 1 else float(e)
            return qs.s_pow(base, k) if is_series else base**k
        if isinstance(node, Call):
            scalar_fn, series_fn = _CALLS[node.name]
            arg = eval_expr(node.arg, a)
            return series_fn(arg) if is_series else scalar_fn(arg)
    except DegenerateSeries as exc:
        raise DegenerateSeries(
            f"no expansion for subexpression {print_expr(node)!r}: {exc}"
        ) from exc
    raise TypeError(f"not an expression node: {node!r}")
