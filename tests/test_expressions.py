"""Expression parsing, symbolic derivatives, and their finite-difference oracle."""

import gc
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kdvgauge.coefficients import CoefficientSet
from kdvgauge.expressions import (
    _FUNCS,
    _INTERN,
    CoefficientExpr,
    ExpressionError,
    Program,
    _BinOp,
    _Call,
    _Const,
    _diff,
    _Var,
    parse_coefficient,
)


class TestParsing:
    def test_tanh_derivative_at_origin(self):
        e = parse_coefficient("2 + tanh(x)")
        assert e.eval(0.0, 0.0, dx_order=1) == pytest.approx(1.0, rel=1e-14)

    def test_constant_all_derivatives_vanish(self):
        e = parse_coefficient("1")
        for dt in (0, 1):
            for dx in (0, 1, 2, 3, 4):
                if dt == 0 and dx == 0:
                    continue
                assert e.eval(0.3, 0.7, dt_order=dt, dx_order=dx) == 0.0

    def test_unclosed_paren_column(self):
        with pytest.raises(ExpressionError) as err:
            parse_coefficient("2 + tanh(")
        assert err.value.column == 9

    def test_unknown_identifier(self):
        with pytest.raises(ExpressionError, match="unknown identifier 'foo'"):
            parse_coefficient("1 + foo(x)")

    def test_unexpected_character(self):
        with pytest.raises(ExpressionError) as err:
            parse_coefficient("1 + @")
        assert err.value.column == 5

    def test_pi_constant(self):
        e = parse_coefficient("2*pi")
        assert e.eval(0.0, 0.0) == pytest.approx(2 * np.pi)

    def test_power_right_associative(self):
        e = parse_coefficient("2^3^2")
        assert e.eval(0.0, 0.0) == pytest.approx(512.0)

    def test_unary_minus(self):
        e = parse_coefficient("-sech(x)^2")
        assert e.eval(0.0, 0.0) == pytest.approx(-1.0)

    def test_scientific_numbers(self):
        e = parse_coefficient("1.5e-3*x")
        assert e.eval(0.0, 2.0) == pytest.approx(3e-3)

    def test_vectorized_eval(self):
        e = parse_coefficient("sin(x)*cos(t)")
        x = np.linspace(-1, 1, 7)
        got = e.eval(0.5, x)
        assert np.allclose(got, np.sin(x) * np.cos(0.5))


class TestDerivativeOracle:
    CASES = [
        "exp(sin(x))",
        "2 + 0.5*tanh(x/4)",
        "sech(x)^2",
        "x^3 - 2*x + 1",
        "cos(x)*exp(-x^2/8)",
        "(2+tanh(x))^(-1/3)",
        "log(2 + sech(x))",
        "sin(t)*sech(x/2)^2",
    ]

    @pytest.mark.parametrize("text", CASES)
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_x_derivatives_match_fd(self, text, order):
        # centered finite differences of the (order-1)-th derivative
        e = parse_coefficient(text)
        rng = np.random.default_rng(hash(text) % 2**32)
        pts = rng.uniform(-3.0, 3.0, size=20)
        ts = rng.uniform(0.0, 1.0, size=20)
        h = 1e-4
        for t, x in zip(ts, pts):
            analytic = e.eval(t, x, dx_order=order)
            fd = (
                e.eval(t, x + h, dx_order=order - 1)
                - e.eval(t, x - h, dx_order=order - 1)
            ) / (2 * h)
            assert abs(analytic - fd) <= 1e-6 * (1.0 + abs(analytic))

    def test_t_derivative_matches_fd(self):
        e = parse_coefficient("2 + 0.5*cos(t)*sech(x/4)^2")
        h = 1e-5
        for t, x in [(0.2, 0.5), (0.9, -2.0), (0.0, 1.3)]:
            analytic = e.eval(t, x, dt_order=1)
            fd = (e.eval(t + h, x) - e.eval(t - h, x)) / (2 * h)
            assert abs(analytic - fd) <= 1e-7 * (1.0 + abs(analytic))

    def test_order_out_of_range(self):
        e = parse_coefficient("x")
        with pytest.raises(ExpressionError, match="order out of range"):
            e.eval(0.0, 0.0, dx_order=5)
        with pytest.raises(ExpressionError, match="order out of range"):
            e.eval(0.0, 0.0, dt_order=2)


class TestAlgebraAndScreening:
    def test_composition_operators(self):
        a = parse_coefficient("2 + tanh(x)")
        b = parse_coefficient("cos(x)")
        r = (b - a.dx()) / (3.0 * a)
        x = np.linspace(-2, 2, 11)
        want = (np.cos(x) - 1 / np.cosh(x) ** 2) / (3 * (2 + np.tanh(x)))
        assert np.allclose(r.eval(0.0, x), want, atol=1e-14)

    def test_power_composition(self):
        a = parse_coefficient("2 + tanh(x)")
        inv_cbrt = a ** (-1.0 / 3.0)
        x = np.linspace(-2, 2, 11)
        assert np.allclose(inv_cbrt.eval(0.0, x), (2 + np.tanh(x)) ** (-1 / 3))

    def test_apply_named_function(self):
        a = parse_coefficient("x")
        assert (2.0 * a).apply("exp").eval(0.0, 1.0) == pytest.approx(np.e**2)

    def test_screen_catches_pole(self):
        e = parse_coefficient("1/x")
        with pytest.raises(ExpressionError, match="singular"):
            e.screen([0.0], np.linspace(-1, 1, 9))  # includes x = 0

    def test_screen_passes_smooth(self):
        e = parse_coefficient("1/(1+x^2)")
        e.screen([0.0, 1.0], np.linspace(-5, 5, 33))

    def test_depends_flags(self):
        assert parse_coefficient("sin(t)*x").depends_on_t
        assert parse_coefficient("sin(t)*x").depends_on_x
        assert not parse_coefficient("3.5").depends_on_t
        assert not CoefficientExpr.constant(2.0).depends_on_x


class TestPowerFolding:
    def test_finite_real_powers_fold(self):
        assert parse_coefficient("2^3^2").root is _Const(512.0)
        assert parse_coefficient("(-2)^3").root is _Const(-8.0)

    @pytest.mark.parametrize(
        "text, value",
        [
            ("0^(-1)", math.inf),  # was an uncaught ZeroDivisionError
            ("(-8)^(1/3)", math.nan),  # was a complex constant, refused
            ("10^400", math.inf),  # OverflowError
            ("0^(-1)*x", math.nan),  # inf * 0 at x = 0
        ],
    )
    def test_unfoldable_powers_stay_nodes(self, text, value):
        e = parse_coefficient(text)
        assert isinstance(e.root, _BinOp)
        got = e.eval(0.0, 0.0)
        assert got == value or (math.isnan(value) and math.isnan(got))
        with pytest.raises(ExpressionError, match="singular"):
            e.screen([0.0], np.linspace(-1, 1, 5))

    @pytest.mark.parametrize(
        "text, value",
        [
            ("1/0", math.inf),  # was an uncaught ZeroDivisionError
            ("-1/0", -math.inf),
            ("1/(0*x)", math.inf),  # 0*x folds to the constant 0
            ("0/0", math.nan),  # folded to 0
            ("1/t", math.inf),  # at t = 0
        ],
    )
    def test_zero_divisors_give_ieee_values(self, text, value):
        e = parse_coefficient(text)
        assert isinstance(e.root, _BinOp)
        got = e.eval(0.0, 0.0)
        assert got == value or (math.isnan(value) and math.isnan(got))
        with pytest.raises(ExpressionError, match="singular"):
            e.screen([0.0], np.linspace(-1, 1, 5))

    @pytest.mark.parametrize("alpha", ["0", "-1"])
    def test_nonpositive_constant_alpha_builds_its_gauge_forms(self, alpha):
        # derived("alpha_inv_cbrt") used to raise while folding 0^(-1/3)
        # or (-1)^(-1/3); now the coercivity check gets to judge alpha
        cs = CoefficientSet.from_strings(alpha=alpha)
        assert isinstance(cs.derived("alpha_inv_cbrt").root, _BinOp)
        assert not np.all(np.isfinite(cs.derived("alpha_inv_cbrt").eval(0.0, 0.0)))


class TestHashConsing:
    def test_equal_subexpressions_are_one_node(self):
        a = parse_coefficient("2 + 0.5*sech(x/4)^2")
        b = parse_coefficient("(2 + 0.5*sech(x/4)^2)")
        assert a.root is b.root
        assert (a ** (-1.0 / 3.0)).root is CoefficientSet.from_strings(
            alpha="2 + 0.5*sech(x/4)^2"
        ).derived("alpha_inv_cbrt").root

    def test_signed_zeros_stay_apart(self):
        assert _Const(-0.0) is not _Const(0.0)
        assert math.copysign(1.0, _Const(-0.0).value) == -1.0
        assert _Const(0.0) is _Const(0) and _Const(-0.0) is _Const(-0.0)

    def test_dead_trees_leave_the_table(self):
        gc.collect()
        before = len(_INTERN)
        e = parse_coefficient("exp(sin(x*1.2345)) / (3.25 + cos(t*x))")
        e.eval(0.1, np.linspace(-1.0, 1.0, 4), dx_order=2)
        assert len(_INTERN) > before
        del e
        assert len(_INTERN) == before  # freed by reference counting alone

    def test_dependence_flags_of_derivative_trees(self):
        e = parse_coefficient("2 + 0.5*cos(t)*sech(x/4)^2")
        assert e.root.depends_on_t and e.root.depends_on_x
        assert e.dt().depends_on_t and e.dt().depends_on_x
        c = parse_coefficient("cos(t)")
        assert c.depends_on_t and not c.depends_on_x
        assert not c.dx().depends_on_t  # the zero constant

    def test_shared_subexpressions_are_evaluated_once(self):
        cs = CoefficientSet.from_strings(
            alpha="2+0.5*cos(t)*sech(x/4)^2", beta1="0.2*sech(x/4)^2", alpha0=0.4
        )
        names = ("gauge_ratio", "gauge_ratio_x", "gauge_ratio_xx")
        roots = [cs.derived(n).root for n in names]
        together = len(Program(roots))
        assert together < sum(len(Program([r])) for r in roots)
        x = np.linspace(-3.0, 3.0, 9)
        for got, name in zip(cs.sample(names, 0.3, x), names):
            assert got.tobytes() == cs.derived(name).eval(0.3, x).tobytes()


# -- the compiled program against the recursive walker it replaced --------
#
# Trees are nested tuples: ("const", v), ("var", "t" | "x"), (op, a, b) for
# op in + - * / ^, and (func, a).  The walker below is the evaluator that
# preceded compiled programs, kept as the oracle; it walks the tuples, so it
# shares nothing with the nodes' interning.


def _walk(tree, t, x):
    kind = tree[0]
    if kind == "const":
        return tree[1]
    if kind == "var":
        return t if tree[1] == "t" else x
    if kind in _FUNCS:
        u = _walk(tree[1], t, x)
        if kind == "exp":
            with np.errstate(over="ignore"):
                return np.exp(u)
        if kind == "log":
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.log(u)
        if kind == "tanh":
            return np.tanh(u)
        if kind == "sech":
            return 1.0 / np.cosh(u)
        if kind == "sin":
            return np.sin(u)
        return np.cos(u)
    a = _walk(tree[1], t, x)
    b = _walk(tree[2], t, x)
    if kind == "+":
        return a + b
    if kind == "-":
        return a - b
    if kind == "*":
        return a * b
    if kind == "/":
        with np.errstate(divide="ignore", invalid="ignore"):
            try:
                return a / b
            except ZeroDivisionError:  # Python floats: IEEE's +-inf or nan, as in an array
                return np.divide(a, b)
    with np.errstate(invalid="ignore"):
        return np.power(a, b)


def _reference(tree, t, x):
    """The walker's value as `CoefficientExpr.eval` returned it."""
    with np.errstate(all="ignore"):  # quiet only; no value changes
        out = _walk(tree, t, x)
    if np.ndim(x) > 0 and np.ndim(out) == 0:
        out = np.full(np.shape(x), float(out))
    return out


def _node(tree):
    """The node of a tuple tree, built without any folding."""
    kind = tree[0]
    if kind == "const":
        return _Const(tree[1])
    if kind == "var":
        return _Var(tree[1])
    if kind in _FUNCS:
        return _Call(kind, _node(tree[1]))
    return _BinOp(kind, _node(tree[1]), _node(tree[2]))


def _tuple(node):
    if isinstance(node, _Const):
        return ("const", node.value)
    if isinstance(node, _Var):
        return ("var", node.name)
    if isinstance(node, _Call):
        return (node.func, _tuple(node.arg))
    return (node.op, _tuple(node.left), _tuple(node.right))


def _text(tree) -> str:
    """The source text of a tuple tree, every operation and constant in parentheses."""
    kind = tree[0]
    if kind == "const":
        return f"({tree[1]!r})"
    if kind == "var":
        return tree[1]
    if kind in _FUNCS:
        return f"{kind}({_text(tree[1])})"
    return f"({_text(tree[1])}{kind}{_text(tree[2])})"


def _assert_bit_equal(got, want):
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes()


_LEAVES = st.one_of(
    st.sampled_from([("var", "x"), ("var", "t")]),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -1.0 / 3.0]).map(lambda v: ("const", v)),
    st.floats(-4.0, 4.0).map(lambda v: ("const", v)),
)
_TREES = st.recursive(
    _LEAVES,
    lambda kids: st.one_of(
        st.tuples(st.sampled_from("+-*/^"), kids, kids),
        st.tuples(st.sampled_from(_FUNCS), kids),
    ),
    max_leaves=10,
)
_X = np.array([-2.5, -1.0, -0.0, 0.0, 0.25, 1.0, 3.0])


class TestProgramMatchesWalker:
    @settings(max_examples=150, deadline=None)
    @given(tree=_TREES, t=st.sampled_from([0.0, -0.0, 0.3, -1.7]), x=st.sampled_from([0.0, -0.0, 0.7]))
    @example(tree=("/", ("var", "x"), ("const", -0.0)), t=0.0, x=0.7)
    @example(tree=("/", ("const", 0.0), ("var", "t")), t=-0.0, x=0.7)
    @example(tree=("*", ("sin", ("const", -0.0)), ("exp", ("var", "x"))), t=0.0, x=-0.0)
    def test_bit_equal_on_random_trees_and_their_derivatives(self, tree, t, x):
        node = _node(tree)
        # the tree with its derivative trees: each root alone (the program
        # eval keeps on a node), and all in one program, at scalar and array x
        roots = [node, _diff(node, "x"), _diff(node, "t"), _diff(_diff(node, "x"), "x")]
        for point in (x, _X):
            want = [_reference(tree, t, point)]
            want += [_reference(_tuple(root), t, point) for root in roots[1:]]
            for root, expected in zip(roots, want):
                _assert_bit_equal(Program([root])(t, point)[0], expected)
            for got, expected in zip(Program(roots)(t, point), want):
                _assert_bit_equal(got, expected)


class TestProgramSlots:
    def test_slot_freeing_leaves_every_output_unchanged(self):
        # the gauge slice's pullback fields in one program: roots that are
        # operands of later instructions and roots shared by two names must
        # come back intact while the intermediates are dropped
        cs = CoefficientSet.from_strings(
            alpha="2+0.5*cos(t)*sech(x/4)^2", beta="0.2*sech(x/4)^2",
            beta1="0.2*sech(x/4)^2", gamma="0.2*sech(x/4)^2", alpha0=0.4,
        )
        names = ("alpha", "alpha_x", "alpha_xx", "beta", "gamma", "gauge_ratio",
                 "gauge_ratio_x", "gauge_ratio_xx", "alpha_t", "ratio1")
        roots = [(getattr(cs, n) if n in ("alpha", "beta", "gamma") else cs.derived(n)).root
                 for n in names]
        program = Program(roots)
        assert any(free for *_, free in program._code)  # intermediates are dropped
        x = np.linspace(-6.0, 6.0, 33)
        for t in (0.0, 0.7):
            together = program(t, x)
            for root, got in zip(roots, together):
                assert got.tobytes() == Program([root])(t, x)[0].tobytes()
            assert together[3] is together[4]  # beta and gamma: one node, one slot

    @pytest.mark.parametrize("shape", [(9,), (4, 9)])
    def test_root_without_x_under_a_column_of_times_keeps_the_call_shape(self, shape):
        roots = [parse_coefficient(text).root for text in ("0.5*cos(t)^2", "3", "sech(x/4)*t")]
        program = Program(roots)
        times = np.array([0.0, 0.3, 1.1, 2.5])
        x = np.broadcast_to(np.linspace(-3.0, 3.0, 9), shape).copy()
        got = program(times[:, None], x)
        for value in got:
            assert value.shape == (4, 9)
        for i, t in enumerate(times):
            row = x if x.ndim == 1 else x[i]
            for value, want in zip(got, program(float(t), row)):
                assert value[i].tobytes() == want.tobytes()
