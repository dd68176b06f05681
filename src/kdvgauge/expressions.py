"""Closed-form scalar fields of (t, x) with exact symbolic derivatives.

Grammar (infix, `^` is power, right associative):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('+' | '-') unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | 'pi' | 't' | 'x' | FUNC '(' expr ')' | '(' expr ')'
    FUNC   := exp | log | tanh | sech | sin | cos

Expressions are immutable after parse; evaluation is pure, vectorized over
numpy arrays, and thread-safe.  Derivative trees are produced symbolically
and cached per (t-order, x-order) up to t-order 1 and x-order 4; `eval`
and the `dx`/`dt` expressions both read that one cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ExpressionError", "CoefficientExpr", "parse_coefficient"]

MAX_DT_ORDER = 1
MAX_DX_ORDER = 4


class ExpressionError(ValueError):
    """Parse or evaluation failure, carrying a 1-based source column."""

    def __init__(self, message: str, column: int | None = None):
        self.column = column
        if column is not None:
            message = f"{message} (column {column})"
        super().__init__(message)


# -- AST -----------------------------------------------------------------


class _Node:
    __slots__ = ()


@dataclass(frozen=True)
class _Const(_Node):
    value: float


@dataclass(frozen=True)
class _Var(_Node):
    name: str  # 't' or 'x'


@dataclass(frozen=True)
class _BinOp(_Node):
    op: str  # '+', '-', '*', '/', '^'
    left: _Node
    right: _Node


@dataclass(frozen=True)
class _Call(_Node):
    func: str
    arg: _Node


_FUNCS = ("exp", "log", "tanh", "sech", "sin", "cos")

_ZERO = _Const(0.0)
_ONE = _Const(1.0)


def _const(v: float) -> _Const:
    return _Const(float(v))


def _is_const(n: _Node, v: float | None = None) -> bool:
    return isinstance(n, _Const) and (v is None or n.value == v)


def _add(a: _Node, b: _Node) -> _Node:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if isinstance(a, _Const) and isinstance(b, _Const):
        return _const(a.value + b.value)
    return _BinOp("+", a, b)


def _sub(a: _Node, b: _Node) -> _Node:
    if _is_const(b, 0.0):
        return a
    if isinstance(a, _Const) and isinstance(b, _Const):
        return _const(a.value - b.value)
    return _BinOp("-", a, b)


def _mul(a: _Node, b: _Node) -> _Node:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if isinstance(a, _Const) and isinstance(b, _Const):
        return _const(a.value * b.value)
    return _BinOp("*", a, b)


def _div(a: _Node, b: _Node) -> _Node:
    if _is_const(a, 0.0):
        return _ZERO
    if _is_const(b, 1.0):
        return a
    if isinstance(a, _Const) and isinstance(b, _Const) and b.value != 0.0:
        return _const(a.value / b.value)
    return _BinOp("/", a, b)


def _pow(a: _Node, b: _Node) -> _Node:
    if _is_const(b, 1.0):
        return a
    if _is_const(b, 0.0):
        return _ONE
    if isinstance(a, _Const) and isinstance(b, _Const):
        try:
            return _const(a.value**b.value)
        except (OverflowError, ValueError):
            pass
    return _BinOp("^", a, b)


def _call(func: str, arg: _Node) -> _Node:
    return _Call(func, arg)


def _diff(node: _Node, var: str) -> _Node:
    if isinstance(node, _Const):
        return _ZERO
    if isinstance(node, _Var):
        return _ONE if node.name == var else _ZERO
    if isinstance(node, _BinOp):
        a, b = node.left, node.right
        da, db = _diff(a, var), _diff(b, var)
        if node.op == "+":
            return _add(da, db)
        if node.op == "-":
            return _sub(da, db)
        if node.op == "*":
            return _add(_mul(da, b), _mul(a, db))
        if node.op == "/":
            return _div(_sub(_mul(da, b), _mul(a, db)), _pow(b, _const(2.0)))
        if node.op == "^":
            if isinstance(b, _Const):
                return _mul(
                    _mul(b, _pow(a, _const(b.value - 1.0))), da
                )
            # general a^b = exp(b log a)
            return _mul(
                node,
                _add(_mul(db, _call("log", a)), _mul(b, _div(da, a))),
            )
    if isinstance(node, _Call):
        u, du = node.arg, _diff(node.arg, var)
        if node.func == "exp":
            outer: _Node = node
        elif node.func == "log":
            return _div(du, u)
        elif node.func == "tanh":
            outer = _pow(_call("sech", u), _const(2.0))
        elif node.func == "sech":
            outer = _mul(_const(-1.0), _mul(_call("sech", u), _call("tanh", u)))
        elif node.func == "sin":
            outer = _call("cos", u)
        elif node.func == "cos":
            outer = _mul(_const(-1.0), _call("sin", u))
        else:  # pragma: no cover
            raise ExpressionError(f"cannot differentiate {node.func}")
        return _mul(outer, du)
    raise ExpressionError(f"cannot differentiate node {node!r}")  # pragma: no cover


def _eval(node: _Node, t, x):
    if isinstance(node, _Const):
        return node.value
    if isinstance(node, _Var):
        return t if node.name == "t" else x
    if isinstance(node, _BinOp):
        a = _eval(node.left, t, x)
        b = _eval(node.right, t, x)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            with np.errstate(divide="ignore", invalid="ignore"):
                return a / b
        if node.op == "^":
            with np.errstate(invalid="ignore"):
                return np.power(a, b)
    if isinstance(node, _Call):
        u = _eval(node.arg, t, x)
        if node.func == "exp":
            with np.errstate(over="ignore"):
                return np.exp(u)
        if node.func == "log":
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.log(u)
        if node.func == "tanh":
            return np.tanh(u)
        if node.func == "sech":
            return 1.0 / np.cosh(u)
        if node.func == "sin":
            return np.sin(u)
        if node.func == "cos":
            return np.cos(u)
    raise ExpressionError(f"cannot evaluate node {node!r}")  # pragma: no cover


def _has_pole_risk(node: _Node) -> bool:
    if isinstance(node, _BinOp):
        if node.op == "/":
            return True
        if node.op == "^" and (
            not isinstance(node.right, _Const) or node.right.value < 0
        ):
            return True
        return _has_pole_risk(node.left) or _has_pole_risk(node.right)
    if isinstance(node, _Call):
        return node.func == "log" or _has_pole_risk(node.arg)
    return False


def _depends_on(node: _Node, var: str) -> bool:
    if isinstance(node, _Var):
        return node.name == var
    if isinstance(node, _BinOp):
        return _depends_on(node.left, var) or _depends_on(node.right, var)
    if isinstance(node, _Call):
        return _depends_on(node.arg, var)
    return False


# -- tokenizer / parser --------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # NUMBER IDENT OP LPAREN RPAREN EOF
    text: str
    column: int  # 1-based


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        col = i + 1
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_exp = False
            while j < n:
                c = text[j]
                if c.isdigit() or c == ".":
                    j += 1
                elif c in "eE" and not seen_exp and j + 1 < n and (
                    text[j + 1].isdigit() or text[j + 1] in "+-"
                ):
                    seen_exp = True
                    j += 2 if text[j + 1] in "+-" else 1
                else:
                    break
            tokens.append(_Token("NUMBER", text[i:j], col))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("IDENT", text[i:j], col))
            i = j
            continue
        if ch in "+-*/^":
            tokens.append(_Token("OP", ch, col))
            i += 1
            continue
        if ch == "(":
            tokens.append(_Token("LPAREN", ch, col))
            i += 1
            continue
        if ch == ")":
            tokens.append(_Token("RPAREN", ch, col))
            i += 1
            continue
        raise ExpressionError(f"unexpected character {ch!r}", col)
    tokens.append(_Token("EOF", "", n + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> _Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "EOF":
            raise ExpressionError(f"unexpected {tok.text!r}", tok.column)
        return node

    def expr(self) -> _Node:
        node = self.term()
        while self.peek().kind == "OP" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.term()
            node = _add(node, rhs) if op == "+" else _sub(node, rhs)
        return node

    def term(self) -> _Node:
        node = self.unary()
        while self.peek().kind == "OP" and self.peek().text in "*/":
            op = self.advance().text
            rhs = self.unary()
            node = _mul(node, rhs) if op == "*" else _div(node, rhs)
        return node

    def unary(self) -> _Node:
        tok = self.peek()
        if tok.kind == "OP" and tok.text in "+-":
            self.advance()
            inner = self.unary()
            return inner if tok.text == "+" else _mul(_const(-1.0), inner)
        return self.power()

    def power(self) -> _Node:
        base = self.atom()
        if self.peek().kind == "OP" and self.peek().text == "^":
            self.advance()
            exponent = self.unary()
            return _pow(base, exponent)
        return base

    def atom(self) -> _Node:
        tok = self.advance()
        if tok.kind == "NUMBER":
            try:
                return _const(float(tok.text))
            except ValueError:
                raise ExpressionError(f"bad number {tok.text!r}", tok.column)
        if tok.kind == "IDENT":
            name = tok.text
            if name in ("t", "x"):
                return _Var(name)
            if name == "pi":
                return _const(math.pi)
            if name in _FUNCS:
                open_tok = self.peek()
                if open_tok.kind != "LPAREN":
                    raise ExpressionError(
                        f"expected '(' after {name!r}", open_tok.column
                    )
                self.advance()
                arg = self._group(open_tok)
                return _call(name, arg)
            raise ExpressionError(f"unknown identifier {name!r}", tok.column)
        if tok.kind == "LPAREN":
            return self._group(tok)
        raise ExpressionError(
            f"expected a value, got {tok.text!r}" if tok.kind != "EOF"
            else "unexpected end of expression",
            tok.column,
        )

    def _group(self, open_tok: _Token) -> _Node:
        """Parse the inside of a '(' ... ')' pair; blame the opener on EOF."""
        unclosed = ExpressionError(
            f"unclosed '(' opened at column {open_tok.column}", open_tok.column
        )
        try:
            node = self.expr()
        except ExpressionError as exc:
            if exc.column == self.tokens[-1].column:  # failed at end of input
                raise unclosed from None
            raise
        if self.peek().kind != "RPAREN":
            if self.peek().kind == "EOF":
                raise unclosed
            raise ExpressionError(
                f"expected ')', got {self.peek().text!r}", self.peek().column
            )
        self.advance()
        return node


# -- public wrapper ------------------------------------------------------


class CoefficientExpr:
    """Immutable expression of (t, x) with cached symbolic derivatives."""

    __slots__ = ("root", "text", "has_division", "_derivatives")

    def __init__(self, root: _Node, text: str | None = None):
        self.root = root
        self.text = text
        self.has_division = _has_pole_risk(root)
        self._derivatives: dict[tuple[int, int], _Node] = {(0, 0): root}

    # construction helpers ------------------------------------------------

    @classmethod
    def constant(cls, value: float) -> "CoefficientExpr":
        return cls(_const(value), repr(float(value)))

    @staticmethod
    def _coerce(other) -> "_Node":
        if isinstance(other, CoefficientExpr):
            return other.root
        if isinstance(other, (int, float)):
            return _const(other)
        raise TypeError(f"cannot combine expression with {type(other)!r}")

    def __add__(self, other):
        return CoefficientExpr(_add(self.root, self._coerce(other)))

    def __radd__(self, other):
        return CoefficientExpr(_add(self._coerce(other), self.root))

    def __sub__(self, other):
        return CoefficientExpr(_sub(self.root, self._coerce(other)))

    def __rsub__(self, other):
        return CoefficientExpr(_sub(self._coerce(other), self.root))

    def __mul__(self, other):
        return CoefficientExpr(_mul(self.root, self._coerce(other)))

    def __rmul__(self, other):
        return CoefficientExpr(_mul(self._coerce(other), self.root))

    def __truediv__(self, other):
        return CoefficientExpr(_div(self.root, self._coerce(other)))

    def __rtruediv__(self, other):
        return CoefficientExpr(_div(self._coerce(other), self.root))

    def __pow__(self, other):
        return CoefficientExpr(_pow(self.root, self._coerce(other)))

    def __neg__(self):
        return CoefficientExpr(_mul(_const(-1.0), self.root))

    def apply(self, func: str) -> "CoefficientExpr":
        if func not in _FUNCS:
            raise ExpressionError(f"unknown function {func!r}")
        return CoefficientExpr(_call(func, self.root))

    # differentiation ------------------------------------------------------

    def _tree(self, dt_order: int, dx_order: int) -> _Node:
        if not (0 <= dt_order <= MAX_DT_ORDER and 0 <= dx_order <= MAX_DX_ORDER):
            raise ExpressionError(
                f"derivative order out of range: dt={dt_order} (max {MAX_DT_ORDER}),"
                f" dx={dx_order} (max {MAX_DX_ORDER})"
            )
        key = (dt_order, dx_order)
        if key not in self._derivatives:
            if dx_order > 0:
                base = self._tree(dt_order, dx_order - 1)
                self._derivatives[key] = _diff(base, "x")
            else:
                base = self._tree(dt_order - 1, 0)
                self._derivatives[key] = _diff(base, "t")
        return self._derivatives[key]

    def dx(self, order: int = 1) -> "CoefficientExpr":
        return CoefficientExpr(self._tree(0, order))

    def dt(self, order: int = 1) -> "CoefficientExpr":
        return CoefficientExpr(self._tree(order, 0))

    # evaluation ------------------------------------------------------------

    def eval(self, t, x, dt_order: int = 0, dx_order: int = 0):
        """Evaluate the (dt_order, dx_order) derivative at (t, x).

        `x` may be a numpy array; broadcasting follows numpy rules.
        """
        node = self._tree(dt_order, dx_order)
        out = _eval(node, t, x)
        if np.ndim(x) > 0 and np.ndim(out) == 0:
            out = np.full(np.shape(x), float(out))
        return out

    def __call__(self, t, x):
        return self.eval(t, x)

    @property
    def depends_on_t(self) -> bool:
        return _depends_on(self.root, "t")

    @property
    def depends_on_x(self) -> bool:
        return _depends_on(self.root, "x")

    def screen(self, t_values, x_values) -> None:
        """Evaluate value and low-order derivatives on samples; raise on poles."""
        x = np.asarray(x_values, dtype=float)
        for t in np.atleast_1d(np.asarray(t_values, dtype=float)):
            for orders in ((0, 0), (0, 1), (0, 2), (1, 0)):
                vals = np.asarray(self.eval(float(t), x, *orders))
                if not np.all(np.isfinite(vals)):
                    raise ExpressionError(
                        f"expression {self.text or ''!r} is singular on the "
                        f"requested domain (non-finite at t={t:g}, derivative "
                        f"orders {orders})"
                    )

    def __repr__(self) -> str:
        return f"CoefficientExpr({self.text!r})" if self.text else "CoefficientExpr(<built>)"


def parse_coefficient(text: str) -> CoefficientExpr:
    """Parse an infix expression of t and x into a CoefficientExpr.

    Raises ExpressionError with a 1-based column on syntax errors and
    unknown identifiers; division and log forms are flagged on the result
    for later pole screening.
    """
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("empty expression", 1)
    root = _Parser(text).parse()
    return CoefficientExpr(root, text)
