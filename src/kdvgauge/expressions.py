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

Nodes are hash-consed as they are built: one live node per (operation,
children), constants keyed by their bit pattern, and t/x dependence stored
on each node when it is made.  A derivative tree written out in full can be
ten times its distinct node count, so sharing is what keeps evaluation
cheap.  There is one evaluator, `Program`: a set of roots compiled into a
flat instruction list with one slot per distinct subexpression.
`CoefficientExpr.eval` runs the single-root program kept on the node, and a
caller that samples several fields at the same points (one gauge slice)
compiles them into one program, so what the fields share is computed once.
"""

from __future__ import annotations

import math
import operator
import struct
import weakref
from dataclasses import dataclass

import numpy as np

__all__ = ["ExpressionError", "CoefficientExpr", "Program", "parse_coefficient"]

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
#
# Nodes are hash-consed: each constructor returns the one live node for its
# (kind, fields, children), so equal subexpressions are the same object and
# compare by identity.  Constants are keyed by their float64 bit pattern
# (0.0 and -0.0 stay apart).  The table holds nodes weakly, so a tree that
# nothing else references is freed with its entries.

_INTERN: "weakref.WeakValueDictionary[tuple, _Node]" = weakref.WeakValueDictionary()


class _Node:
    __slots__ = ("depends_on_t", "depends_on_x", "program", "__weakref__")


def _interned(cls, key: tuple, depends_on_t: bool, depends_on_x: bool, **fields):
    """The live node of `key`, built with `fields` if there is none."""
    node = _INTERN.get(key)
    if node is None:
        node = object.__new__(cls)
        node.depends_on_t, node.depends_on_x = depends_on_t, depends_on_x
        node.program = None  # single-root Program, compiled on first eval
        for name, value in fields.items():
            setattr(node, name, value)
        _INTERN[key] = node
    return node


class _Const(_Node):
    __slots__ = ("value",)

    def __new__(cls, value: float):
        value = float(value)
        return _interned(cls, ("const", struct.pack("<d", value)), False, False, value=value)


class _Var(_Node):
    __slots__ = ("name",)

    def __new__(cls, name: str):  # 't' or 'x'
        return _interned(cls, ("var", name), name == "t", name == "x", name=name)


class _BinOp(_Node):
    __slots__ = ("op", "left", "right")

    def __new__(cls, op: str, left: _Node, right: _Node):  # op in + - * / ^
        return _interned(
            cls, (op, left, right),
            left.depends_on_t or right.depends_on_t,
            left.depends_on_x or right.depends_on_x,
            op=op, left=left, right=right,
        )


class _Call(_Node):
    __slots__ = ("func", "arg")

    def __new__(cls, func: str, arg: _Node):
        return _interned(
            cls, (func, arg), arg.depends_on_t, arg.depends_on_x, func=func, arg=arg
        )


_FUNCS = ("exp", "log", "tanh", "sech", "sin", "cos")

_ZERO = _Const(0.0)
_ONE = _Const(1.0)


def _is_const(n: _Node, v: float | None = None) -> bool:
    return isinstance(n, _Const) and (v is None or n.value == v)


def _add(a: _Node, b: _Node) -> _Node:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if isinstance(a, _Const) and isinstance(b, _Const):
        return _Const(a.value + b.value)
    return _BinOp("+", a, b)


def _sub(a: _Node, b: _Node) -> _Node:
    if _is_const(b, 0.0):
        return a
    if isinstance(a, _Const) and isinstance(b, _Const):
        return _Const(a.value - b.value)
    return _BinOp("-", a, b)


def _mul(a: _Node, b: _Node) -> _Node:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if isinstance(a, _Const) and isinstance(b, _Const):
        return _Const(a.value * b.value)
    return _BinOp("*", a, b)


def _div(a: _Node, b: _Node) -> _Node:
    if _is_const(a, 0.0) and not _is_const(b, 0.0):  # 0/0 stays, a nan
        return _ZERO
    if _is_const(b, 1.0):
        return a
    if isinstance(a, _Const) and isinstance(b, _Const) and b.value != 0.0:
        return _Const(a.value / b.value)
    return _BinOp("/", a, b)


def _pow(a: _Node, b: _Node) -> _Node:
    if _is_const(b, 1.0):
        return a
    if _is_const(b, 0.0):
        return _ONE
    if isinstance(a, _Const) and isinstance(b, _Const):
        # fold only a finite real result; 0^(-1), (-8)^(1/3) and overflows
        # stay nodes and evaluate to inf or nan, which screening reports
        try:
            value = a.value**b.value
        except (OverflowError, ZeroDivisionError):
            value = None
        if isinstance(value, float) and math.isfinite(value):
            return _Const(value)
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
            return _div(_sub(_mul(da, b), _mul(a, db)), _pow(b, _Const(2.0)))
        if node.op == "^":
            if isinstance(b, _Const):
                return _mul(
                    _mul(b, _pow(a, _Const(b.value - 1.0))), da
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
            outer = _pow(_call("sech", u), _Const(2.0))
        elif node.func == "sech":
            outer = _mul(_Const(-1.0), _mul(_call("sech", u), _call("tanh", u)))
        elif node.func == "sin":
            outer = _call("cos", u)
        elif node.func == "cos":
            outer = _mul(_Const(-1.0), _call("sin", u))
        else:  # pragma: no cover
            raise ExpressionError(f"cannot differentiate {node.func}")
        return _mul(outer, du)
    raise ExpressionError(f"cannot differentiate node {node!r}")  # pragma: no cover


# -- compiled programs ---------------------------------------------------


def _sech(u):
    return 1.0 / np.cosh(u)


def _divide(a, b):
    """a / b, and IEEE's +-inf or nan where Python floats raise on a zero divisor."""
    try:
        return a / b
    except ZeroDivisionError:
        return np.divide(a, b)


# the float operation of each node kind; Python operators on the operands,
# so a scalar (t, x) keeps Python-float semantics, except that a zero divisor
# gives inf or nan as it does in an array
_OPERATIONS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _divide,
    "^": np.power,
    "exp": np.exp,
    "log": np.log,
    "tanh": np.tanh,
    "sech": _sech,
    "sin": np.sin,
    "cos": np.cos,
}


def _children(node: _Node) -> tuple:
    if isinstance(node, _BinOp):
        return (node.left, node.right)
    if isinstance(node, _Call):
        return (node.arg,)
    return ()


def _topological(roots) -> list:
    """The distinct nodes under `roots`, each after its operands."""
    order: list[_Node] = []
    done: set[_Node] = set()
    stack = [(root, False) for root in reversed(roots)]
    while stack:
        node, expanded = stack.pop()
        if node in done:
            continue
        if expanded:
            done.add(node)
            order.append(node)
        else:
            stack.append((node, True))
            stack.extend((c, False) for c in reversed(_children(node)))
    return order


class Program:
    """A set of roots compiled into one flat instruction list.

    Slot 0 holds t, slot 1 holds x, then one slot per distinct constant and
    one per distinct operation node, in topological order, so a subexpression
    shared by several roots (or repeated within one) is evaluated once per
    call.  Each instruction applies its node's float operation to the slots
    of its operands and then drops the operation slots it read for the last
    time, so a call holds only the intermediates still to be read; one
    np.errstate ignores divide, invalid and overflow for the whole pass, and
    poles come out as inf or nan for screening.  Calling the program returns
    one value per root: when x is an array, an array of the call's shape,
    the broadcast of t's and x's (a root that does not read x is broadcast
    to it: a constant, or a t-only root under a column of times), else a
    scalar.
    """

    __slots__ = ("_constants", "_code", "_outputs", "_flat")

    def __init__(self, roots):
        order = _topological(roots)
        constants = [n for n in order if isinstance(n, _Const)]
        operations = [n for n in order if isinstance(n, (_BinOp, _Call))]
        slot = {n: (0 if n.name == "t" else 1) for n in order if isinstance(n, _Var)}
        slot.update((n, 2 + i) for i, n in enumerate(constants))
        first = 2 + len(constants)
        slot.update((n, first + i) for i, n in enumerate(operations))
        operands = [
            (slot[n.left], slot[n.right]) if isinstance(n, _BinOp) else (slot[n.arg],)
            for n in operations
        ]
        self._outputs = [slot[root] for root in roots]
        last_read = {s: i for i, reads in enumerate(operands) for s in reads}
        frees = [[] for _ in operations]
        for s, i in last_read.items():
            if s >= first and s not in self._outputs:
                frees[i].append(s)
        self._constants = [n.value for n in constants]
        self._code = [
            (_OPERATIONS[n.op if isinstance(n, _BinOp) else n.func],
             reads[0], reads[1] if len(reads) == 2 else -1, tuple(free))
            for n, reads, free in zip(operations, operands, frees)
        ]
        self._flat = [i for i, root in enumerate(roots) if not root.depends_on_x]

    def __len__(self) -> int:
        """Instructions per call: the distinct operation nodes of the roots."""
        return len(self._code)

    def __call__(self, t, x) -> list:
        values = [t, x, *self._constants]
        push = values.append
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for operation, a, b, free in self._code:
                push(operation(values[a]) if b < 0 else operation(values[a], values[b]))
                for s in free:
                    values[s] = None
        out = [values[i] for i in self._outputs]
        if self._flat and np.ndim(x) > 0:
            shape = np.broadcast_shapes(np.shape(t), np.shape(x))
            for i in self._flat:
                if np.shape(out[i]) != shape:
                    out[i] = np.full(shape, out[i], dtype=float)
        return out


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
            return inner if tok.text == "+" else _mul(_Const(-1.0), inner)
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
                return _Const(float(tok.text))
            except ValueError:
                raise ExpressionError(f"bad number {tok.text!r}", tok.column)
        if tok.kind == "IDENT":
            name = tok.text
            if name in ("t", "x"):
                return _Var(name)
            if name == "pi":
                return _Const(math.pi)
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

    __slots__ = ("root", "text", "_derivatives")

    def __init__(self, root: _Node, text: str | None = None):
        self.root = root
        self.text = text
        self._derivatives: dict[tuple[int, int], _Node] = {(0, 0): root}

    # construction helpers ------------------------------------------------

    @classmethod
    def constant(cls, value: float) -> "CoefficientExpr":
        return cls(_Const(value), repr(float(value)))

    @staticmethod
    def _coerce(other) -> "_Node":
        if isinstance(other, CoefficientExpr):
            return other.root
        if isinstance(other, (int, float)):
            return _Const(other)
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
        return CoefficientExpr(_mul(_Const(-1.0), self.root))

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
        if node.program is None:
            node.program = Program((node,))
        return node.program(t, x)[0]

    def __call__(self, t, x):
        return self.eval(t, x)

    @property
    def depends_on_t(self) -> bool:
        return self.root.depends_on_t

    @property
    def depends_on_x(self) -> bool:
        return self.root.depends_on_x

    def screen(self, t_values, x_values) -> None:
        """Evaluate value and low-order derivatives on samples; raise on poles."""
        x = np.asarray(x_values, dtype=float)
        for t in np.atleast_1d(np.asarray(t_values, dtype=float)):
            for orders in ((0, 0), (0, 1), (0, 2), (1, 0)):
                vals = np.asarray(self.eval(float(t), x, *orders))
                if not np.all(np.isfinite(vals)):
                    what = f"expression {self.text!r}" if self.text else "built expression"
                    raise ExpressionError(
                        f"{what} is singular on the requested domain "
                        f"(non-finite at t={t:g}, derivative orders {orders})"
                    )

    def __repr__(self) -> str:
        return f"CoefficientExpr({self.text!r})" if self.text else "CoefficientExpr(<built>)"


def parse_coefficient(text: str) -> CoefficientExpr:
    """Parse an infix expression of t and x into a CoefficientExpr.

    Raises ExpressionError with a 1-based column on syntax errors and
    unknown identifiers.  Poles are not judged here: `screen` finds them by
    evaluation.
    """
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("empty expression", 1)
    root = _Parser(text).parse()
    return CoefficientExpr(root, text)
