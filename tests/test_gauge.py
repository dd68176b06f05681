"""Straightening map, gauge weight, transformed coefficients, transport."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from kdvgauge.coefficients import CoefficientSet, anchored_cumulative
from kdvgauge.expressions import parse_coefficient
from kdvgauge.gauge import (
    GaugeSystem,
    build_gauge_map,
    compute_A,
    forward_transform,
    gauge_weight,
    gauge_weight_log_time_derivative,
    image_grid_for,
    inverse_transform,
    invert_A,
)
from kdvgauge.spectral import SpectralState, derivative, l2_norm, make_grid
from kdvgauge.experiments import gaussian_state

TANH_SET = dict(
    alpha="2+0.5*tanh(x/4)",
    beta="-0.2*sech(x/4)^2",
    beta1="0",
    beta2="-0.2*sech(x/4)^2",
    alpha0=0.4,
)


def tanh_set() -> CoefficientSet:
    return CoefficientSet.from_strings(**TANH_SET)


def weight_and_derivatives(cs: CoefficientSet, t: float, x: np.ndarray):
    """h from the closed form and h_x, h_xx, h_xxx from the recurrences in
    r = h_x/h (the derived forms transform_coefficients reads)."""
    h = gauge_weight(cs, t, x)
    r, rx, rxx = (
        np.asarray(cs.derived(name).eval(t, x), dtype=float)
        for name in ("gauge_ratio", "gauge_ratio_x", "gauge_ratio_xx")
    )
    return h, h * r, h * (r * r + rx), h * (r**3 + 3.0 * r * rx + rxx)


class TestComputeA:
    def test_identity(self):
        g = make_grid(8 * np.pi, 128)
        A = compute_A(parse_coefficient("1"), 0.0, g)
        assert np.abs(A - g.x).max() < 1e-13
        inv_cbrt_t = CoefficientSet.from_strings(alpha="1").derived("alpha_inv_cbrt_t")
        assert np.abs(inv_cbrt_t.eval(0.0, g.x)).max() == 0.0

    def test_dilation(self):
        g = make_grid(8 * np.pi, 128)
        A = compute_A(parse_coefficient("8"), 0.0, g)
        assert np.abs(A - g.x / 2).max() < 1e-13

    def test_against_adaptive_quadrature(self):
        alpha = parse_coefficient("2+tanh(x)")
        g = make_grid(8 * np.pi, 256)
        A = compute_A(alpha, 0.0, g)
        fn = lambda y: (2 + np.tanh(y)) ** (-1.0 / 3.0)
        for idx in (0, 50, 128, 200, 255):
            want, _ = quad(fn, 0.0, g.x[idx], limit=200)
            assert abs(A[idx] - want) < 1e-9
        assert np.all(np.diff(A) > 0)
        assert A[128] == 0.0  # anchored at the origin node

    def test_time_derivative_matches_fd(self):
        # A_t as transform_coefficients builds it: the anchored integral of
        # d/dt alpha^(-1/3)
        cs = CoefficientSet.from_strings(alpha="2+0.5*cos(t)*sech(x/4)^2", alpha0=0.4)
        g = make_grid(8 * np.pi, 128)
        t, h = 0.3, 1e-5
        inv_cbrt_t = cs.derived("alpha_inv_cbrt_t")
        A_t = anchored_cumulative(lambda y: np.asarray(inv_cbrt_t.eval(t, y)), g.x)
        fd = (compute_A(cs.alpha, t + h, g) - compute_A(cs.alpha, t - h, g)) / (2 * h)
        assert np.abs(A_t - fd).max() < 1e-8

    def test_rejects_nonpositive_alpha(self):
        g = make_grid(np.pi, 32)
        with pytest.raises(ValueError, match="positive"):
            compute_A(parse_coefficient("tanh(x)"), 0.0, g)


class TestInvertA:
    def test_dilation_inverse(self):
        cs = CoefficientSet.from_strings(alpha="8", alpha0=0.125)
        g = make_grid(8 * np.pi, 128)
        gm = build_gauge_map(cs, 0.0, g, image_grid_for(cs, g))
        assert invert_A(gm, 1.0) == pytest.approx(2.0, abs=1e-11)

    def test_identity_inverse(self):
        cs = CoefficientSet.from_strings(alpha="1")
        g = make_grid(8 * np.pi, 128)
        gm = build_gauge_map(cs, 0.0, g, image_grid_for(cs, g, padding=0.0))
        ys = np.linspace(-20, 20, 11)
        assert np.abs(invert_A(gm, ys) - ys).max() < 1e-11

    def test_roundtrip_through_map(self):
        cs = CoefficientSet.from_strings(alpha="2+tanh(x)", alpha0=0.3)
        g = make_grid(8 * np.pi, 256)
        gm = build_gauge_map(cs, 0.0, g, image_grid_for(cs, g))
        y = gm.a_of(np.array([1.37]))[0]
        assert invert_A(gm, y) == pytest.approx(1.37, abs=1e-9)

    def test_out_of_range_rejected(self):
        cs = CoefficientSet.from_strings(alpha="1")
        g = make_grid(np.pi, 32)
        gm = build_gauge_map(cs, 0.0, g, image_grid_for(cs, g, padding=0.0))
        with pytest.raises(ValueError, match="outside sampled range"):
            invert_A(gm, 100.0)

    def test_node_roundtrip_interior(self):
        cs = tanh_set()
        g = make_grid(16 * np.pi, 256)
        gm = build_gauge_map(cs, 0.0, g, image_grid_for(cs, g))
        xs = g.x[8:-8]
        back = invert_A(gm, gm.a_of(xs))
        assert np.abs(back - xs).max() < 1e-10


class TestComputeH:
    """The closed form of `gauge_weight` and the h-derivative recurrences."""

    def test_trivial_gauge(self):
        cs = CoefficientSet.from_strings(alpha="1", beta1="0", beta2="0")
        g = make_grid(8 * np.pi, 128)
        h, hx, h2x, h3x = weight_and_derivatives(cs, 0.0, g.x)
        assert np.abs(h - 1.0).max() < 1e-14
        for arr in (hx, h2x, h3x):
            assert np.abs(arr).max() < 1e-14

    def test_exponential_gauge(self):
        # alpha = 1, beta1 = 3: h = exp(x), so h_x / h = 1
        cs = CoefficientSet.from_strings(alpha="1", beta="3", beta1="3", beta2="0")
        g = make_grid(2.0, 64)
        h, hx, h2x, h3x = weight_and_derivatives(cs, 0.0, g.x)
        assert np.abs(h - np.exp(g.x)).max() < 1e-10 * np.exp(2.0)
        assert np.abs(hx / h - 1.0).max() < 1e-12
        assert np.abs(h3x / h - 1.0).max() < 1e-12

    def test_against_quadrature_oracle(self):
        cs = CoefficientSet.from_strings(
            alpha="2+tanh(x)", beta="sech(x)^2", beta1="sech(x)^2", beta2="0"
        )
        g = make_grid(8 * np.pi, 256)
        h = gauge_weight(cs, 0.0, g.x)
        a0 = 2 + np.tanh(0.0)
        fn = lambda y: (1 / np.cosh(y) ** 2) / (2 + np.tanh(y))
        for idx in (10, 128, 230):
            integral, _ = quad(fn, 0.0, g.x[idx], limit=200)
            want = (a0 / (2 + np.tanh(g.x[idx]))) ** (1 / 3) * np.exp(integral / 3)
            assert abs(h[idx] - want) < 1e-8 * max(1.0, want)

    def test_derivatives_against_spectral(self):
        # derivative recurrences vs spectral differentiation of sampled h;
        # fields chosen wrap-continuous (alpha even-tailed, beta1 odd) so
        # the sampled h is itself spectrally clean
        cs = CoefficientSet.from_strings(
            alpha="2+0.5*sech(x/4)^2",
            beta="0.3*x*sech(x/4)^2",
            beta1="0.3*x*sech(x/4)^2",
            beta2="0",
        )
        g = make_grid(32 * np.pi, 1024)
        h, hx, h2x, h3x = weight_and_derivatives(cs, 0.0, g.x)
        state = SpectralState.from_physical(g, h - h[0])
        for order, want in ((1, hx), (2, h2x), (3, h3x)):
            got = derivative(state, order).physical()
            err = np.abs(got - want).max()
            scale = max(np.abs(want).max(), 1e-12)
            assert err < 1e-6 * max(1.0, scale)

    def test_positivity(self):
        cs = tanh_set()
        g = make_grid(16 * np.pi, 256)
        h = gauge_weight(cs, 0.0, g.x)
        assert h.min() > 0.0

    @pytest.mark.parametrize(
        "alpha, match",
        [("x", r"alpha\(t, 0\) must be positive"), ("1+2*tanh(x)", "strictly positive")],
        ids=["vanishing_at_origin", "negative_left_of_origin"],
    )
    def test_rejects_nonpositive_alpha(self, alpha, match):
        cs = CoefficientSet.from_strings(alpha=alpha)
        g = make_grid(np.pi, 32)
        with pytest.raises(ValueError, match=match):
            gauge_weight(cs, 0.0, g.x)


class TestTransformedCoefficients:
    def test_standard_kdv_recovered(self):
        cs = CoefficientSet.from_strings(alpha="1", epsilon="1")
        g = make_grid(8 * np.pi, 128)
        system = GaugeSystem(cs, g, image_grid=g)
        tc = system.coefficients_at(0.0)
        for arr in (tc.b, tc.c, tc.d, tc.f):
            assert np.abs(arr).max() < 1e-12
        assert np.abs(tc.e - 1.0).max() < 1e-12

    def test_identity_dispersion_localized_beta(self):
        # alpha = 1 makes A the identity, so b(x) = sech(x)^2 exactly
        cs = CoefficientSet.from_strings(
            alpha="1", beta="-sech(x)^2", beta1="0", beta2="-sech(x)^2"
        )
        g = make_grid(8 * np.pi, 256)
        system = GaugeSystem(cs, g, image_grid=g)
        tc = system.coefficients_at(0.0)
        assert np.abs(tc.b - 1 / np.cosh(g.x) ** 2).max() < 1e-10
        assert tc.b.min() >= -1e-10
        for arr in (tc.c, tc.d, tc.f):
            assert np.abs(arr).max() < 1e-10

    def test_b_closed_form_cross_check(self):
        cs = tanh_set()
        g = make_grid(32 * np.pi, 512)
        system = GaugeSystem(cs, g)
        tc = system.coefficients_at(0.0)
        y = tc.pullback_points
        want = 0.2 / np.cosh(y / 4) ** 2 * (2 + 0.5 * np.tanh(y / 4)) ** (-2 / 3)
        scale = max(1.0, np.abs(want).max())
        assert np.abs(tc.b - want).max() < 1e-8 * scale
        assert tc.b.min() >= -1e-10

    def test_time_dependent_weight_drift(self):
        # oracle: finite differences in t of the sampled log gauge weight
        cs = CoefficientSet.from_strings(
            alpha="2+0.5*cos(t)*sech(x/4)^2",
            beta="0.2*sech(x/4)^2-0.1*sech(x/8)^2",
            beta1="0.2*sech(x/4)^2",
            beta2="-0.1*sech(x/8)^2",
            alpha0=0.4,
        )
        g = make_grid(16 * np.pi, 256)
        t, step = 0.4, 1e-5
        got = gauge_weight_log_time_derivative(cs, t, g.x)
        hp = gauge_weight(cs, t + step, g.x)
        hm = gauge_weight(cs, t - step, g.x)
        fd = (np.log(hp) - np.log(hm)) / (2 * step)
        assert np.abs(got - fd).max() < 1e-8


class TestTransport:
    def test_identity_gauge_is_identity(self):
        cs = CoefficientSet.from_strings(alpha="1")
        g = make_grid(8 * np.pi, 256)
        system = GaugeSystem(cs, g, image_grid=g)
        gm = system.map_at(0.0)
        u = gaussian_state(g, 1.0, 1.0)
        v = forward_transform(u, gm)
        assert l2_norm(v - u) < 1e-12

    def test_dilation_composition(self):
        # alpha = 8: A^{-1}(x) = 2x, h = 1, so v(x) = u(2x)
        cs = CoefficientSet.from_strings(alpha="8", alpha0=0.125)
        g = make_grid(8 * np.pi, 256)
        system = GaugeSystem(cs, g)
        gm = system.map_at(0.0)
        u = gaussian_state(g, 1.0, 1.0)
        v = forward_transform(u, gm)
        interior = ~gm.inverse_clamped
        want = np.exp(-((2 * gm.image_grid.x[interior]) ** 2) / 2)
        assert np.abs(v.physical()[interior] - want).max() < 1e-12

    @pytest.mark.parametrize("key", ["identity", "dilation", "tanh"])
    def test_round_trips(self, key):
        sets = {
            "identity": CoefficientSet.from_strings(alpha="1"),
            "dilation": CoefficientSet.from_strings(alpha="8", alpha0=0.125),
            "tanh": tanh_set(),
        }
        cs = sets[key]
        g = make_grid(16 * np.pi, 256)
        system = GaugeSystem(cs, g)
        gm = system.map_at(0.0)
        u = gaussian_state(g, 1.0, 1.2)
        v = forward_transform(u, gm)
        back = inverse_transform(v, gm)
        assert l2_norm(back - u) <= 1e-8 * l2_norm(u)
        v2 = forward_transform(back, gm)
        assert l2_norm(v2 - v) <= 1e-8 * l2_norm(v)

    def test_bilipschitz_bounds(self):
        cs = tanh_set()
        g = make_grid(16 * np.pi, 256)
        gm = build_gauge_map(cs, 0.0, g, image_grid_for(cs, g))
        dA = np.diff(gm.A_samples)
        dx = g.dx
        lo = cs.alpha0 ** (1.0 / 3.0)
        hi = cs.alpha0 ** (-1.0 / 3.0)
        assert np.all(dA >= lo * dx * (1 - 1e-10))
        assert np.all(dA <= hi * dx * (1 + 1e-10))

    def test_edge_mass_gate(self):
        cs = CoefficientSet.from_strings(alpha="1")
        g = make_grid(8 * np.pi, 128)
        gm = build_gauge_map(cs, 0.0, g, image_grid_for(cs, g, padding=0.0))
        wide = SpectralState.from_physical(g, np.ones(128))
        with pytest.raises(ValueError, match="edge"):
            forward_transform(wide, gm)


class TestWeightOrientation:
    def test_forward_transform_multiplies_by_weight(self):
        # alpha = 1, beta1 = 3: A = id and h = exp(x), so the transported
        # field is exp(x) u(x) pointwise (round trips alone cannot tell
        # h from 1/h)
        cs = CoefficientSet.from_strings(
            alpha="1", beta="3", beta1="3", beta2="0"
        )
        g = make_grid(8 * np.pi, 256)
        system = GaugeSystem(cs, g, image_grid=g)
        gm = system.map_at(0.0)
        u = gaussian_state(g, 1.0, 1.0)
        v = forward_transform(u, gm)
        want = np.exp(g.x) * u.physical()
        core = np.abs(g.x) <= 5.0  # far field is round-off amplified by h
        err = np.abs(v.physical()[core] - want[core]).max()
        assert err < 1e-9 * np.abs(want[core]).max()


def _param(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda v: round(v, 4))


class TestGaugeProperties:
    """Random coercive sets alpha = a0 + a1 sech^2(x/w), beta1 = c1 sech^2(x/w1),
    beta2 = -c2 sech^2(x/w2) <= 0."""

    @settings(max_examples=15, deadline=None)
    @given(
        a0=_param(0.5, 3.0),
        a1_rel=_param(-0.3, 0.5),
        w=_param(3.0, 6.0),
        c1=_param(-0.5, 0.5),
        w1=_param(3.0, 6.0),
        c2=_param(0.0, 0.5),
        w2=_param(3.0, 6.0),
    )
    def test_b_identity_ratio_and_round_trip(self, a0, a1_rel, w, c1, w1, c2, w2):
        a1 = round(a1_rel * a0, 4)
        beta1 = f"({c1:.4f})*sech(x/{w1:.4f})^2"
        beta2 = f"-({c2:.4f})*sech(x/{w2:.4f})^2"
        cs = CoefficientSet.from_strings(
            alpha=f"{a0:.4f}+({a1:.4f})*sech(x/{w:.4f})^2",
            beta=f"{beta1}+{beta2}",
            beta1=beta1,
            beta2=beta2,
            alpha0=min(a0 + min(a1, 0.0), 1.0 / (a0 + max(a1, 0.0))),
        )
        g = make_grid(8 * np.pi, 256)
        system = GaugeSystem(cs, g)

        # b = -beta2 alpha^(-2/3) at the pullback points
        tc = system.coefficients_at(0.0)
        y = tc.pullback_points
        want = c2 / np.cosh(y / w2) ** 2 * (a0 + a1 / np.cosh(y / w) ** 2) ** (-2.0 / 3.0)
        assert np.abs(tc.b - want).max() < 1e-8 * max(1.0, np.abs(want).max())

        # h_x / h = r, with h_x from fourth-order differences of the closed form
        x = g.x[np.abs(g.x) < 0.5 * g.half_width]
        step = 1e-3
        offsets = np.array([-2.0, -1.0, 1.0, 2.0]) * step
        h = gauge_weight(cs, 0.0, (x[:, None] + offsets[None, :]).ravel()).reshape(-1, 4)
        h_x = (h[:, 0] - 8.0 * h[:, 1] + 8.0 * h[:, 2] - h[:, 3]) / (12.0 * step)
        r = np.asarray(cs.derived("gauge_ratio").eval(0.0, x), dtype=float)
        assert np.abs(h_x / gauge_weight(cs, 0.0, x) - r).max() < 1e-8 * max(1.0, np.abs(r).max())

        # forward then inverse transport is the identity
        gm = system.map_at(0.0)
        u = gaussian_state(g, 1.0, 1.0)
        back = inverse_transform(forward_transform(u, gm), gm)
        assert l2_norm(back - u) <= 1e-8 * l2_norm(u)
