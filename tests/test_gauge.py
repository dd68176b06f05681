"""Straightening map, gauge weight, transformed coefficients, transport."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from kdvgauge import gauge
from kdvgauge.coefficients import CoefficientSet
from kdvgauge.expressions import parse_coefficient
from kdvgauge.gauge import (
    BLOCK_POINTS,
    SLICE_CACHE,
    GaugeSystem,
    TimeSlices,
    _invert,
    _pullback,
    build_gauge_map,
    build_gauge_maps,
    forward_transform,
    forward_transforms,
    gauge_weight,
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
    r = h_x/h (the derived forms a gauge slice reads for b..f)."""
    h = gauge_weight(cs, t, x)
    r, rx, rxx = (
        np.asarray(cs.derived(name).eval(t, x), dtype=float)
        for name in ("gauge_ratio", "gauge_ratio_x", "gauge_ratio_xx")
    )
    return h, h * r, h * (r * r + rx), h * (r**3 + 3.0 * r * rx + rxx)


def straightening(cs: CoefficientSet, t: float, g, image_grid=None) -> np.ndarray:
    """A = int_0^x alpha^(-1/3) on the source grid, as the gauge map at t samples it."""
    if image_grid is None:
        image_grid = image_grid_for(cs, g, times=(t,))
    return build_gauge_map(cs, t, g, image_grid).A_samples


class TestComputeA:
    """The straightening map A of a gauge map, and its time derivative."""

    def test_identity(self):
        g = make_grid(8 * np.pi, 128)
        cs = CoefficientSet.from_strings(alpha="1")
        A = straightening(cs, 0.0, g)
        assert np.abs(A - g.x).max() < 1e-13
        inv_cbrt_t = cs.derived("alpha_inv_cbrt_t")
        assert np.abs(inv_cbrt_t.eval(0.0, g.x)).max() == 0.0

    def test_dilation(self):
        g = make_grid(8 * np.pi, 128)
        A = straightening(CoefficientSet.from_strings(alpha="8", alpha0=0.125), 0.0, g)
        assert np.abs(A - g.x / 2).max() < 1e-13

    def test_against_adaptive_quadrature(self):
        cs = CoefficientSet.from_strings(alpha="2+tanh(x)", alpha0=0.3)
        g = make_grid(8 * np.pi, 256)
        A = straightening(cs, 0.0, g)
        fn = lambda y: (2 + np.tanh(y)) ** (-1.0 / 3.0)
        for idx in (0, 50, 128, 200, 255):
            want, _ = quad(fn, 0.0, g.x[idx], limit=200)
            assert abs(A[idx] - want) < 1e-9
        assert np.all(np.diff(A) > 0)
        assert A[128] == 0.0  # anchored at the origin node

    def test_time_derivative_matches_fd(self):
        # A_t as a gauge slice builds it: the anchored integral of
        # d/dt alpha^(-1/3)
        cs = CoefficientSet.from_strings(alpha="2+0.5*cos(t)*sech(x/4)^2", alpha0=0.4)
        g = make_grid(8 * np.pi, 128)
        t, h = 0.3, 1e-5
        _, A_t, _, _ = _pullback(cs, t, g.x)
        fd = (straightening(cs, t + h, g) - straightening(cs, t - h, g)) / (2 * h)
        assert np.abs(A_t - fd).max() < 1e-8

    def test_rejects_nonpositive_alpha(self):
        g = make_grid(np.pi, 32)
        with pytest.raises(ValueError, match="positive"):
            image_grid_for(CoefficientSet.from_strings(alpha="tanh(x)"), g)


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
        y = system.map_at(0.0).A_inverse_samples
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
        got = _pullback(cs, t, g.x)[2]
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


class TestSharedTransport:
    """`forward_transforms` shares one Interpolant over a run of one map."""

    @staticmethod
    def _counted(monkeypatch) -> list:
        built = []
        original = gauge.Interpolant

        def counted(grid, query_points):
            built.append(grid.num_points)
            return original(grid, query_points)

        monkeypatch.setattr(gauge, "Interpolant", counted)
        return built

    @staticmethod
    def _states(g, count):
        return [gaussian_state(g, 1.0 + 0.1 * i, 1.0 + 0.05 * i) for i in range(count)]

    def test_equals_one_at_a_time(self, monkeypatch):
        g = make_grid(16 * np.pi, 256)
        system = GaugeSystem(tanh_set(), g)
        gm = system.map_at(0.0)
        states = self._states(g, 4)
        built = self._counted(monkeypatch)
        moved = list(forward_transforms(states, [gm] * len(states)))
        assert built == [256]  # one run of one map: one set of tables
        for u, v in zip(states, moved):
            assert np.array_equal(v.coefficients, forward_transform(u, gm).coefficients)

    def test_alternating_maps_rebuild(self, monkeypatch):
        cs = CoefficientSet.from_strings(alpha="2+0.5*cos(t)*sech(x/4)^2", alpha0=0.4)
        g = make_grid(16 * np.pi, 256)
        system = GaugeSystem(cs, g, times=(0.0, 0.5))
        maps = [system.map_at(t) for t in (0.0, 0.5, 0.5, 0.0)]
        assert maps[0] is not maps[1]
        states = self._states(g, 4)
        built = self._counted(monkeypatch)
        moved = list(forward_transforms(states, maps))
        assert len(built) == 3  # a new table per change of map
        for u, gm, v in zip(states, maps, moved):
            assert np.array_equal(v.coefficients, forward_transform(u, gm).coefficients)

    def test_edge_mass_refused_in_a_run(self):
        cs = CoefficientSet.from_strings(alpha="1")
        g = make_grid(8 * np.pi, 128)
        gm = build_gauge_map(cs, 0.0, g, image_grid_for(cs, g, padding=0.0))
        wide = SpectralState.from_physical(g, np.ones(128))
        moved = forward_transforms([gaussian_state(g, 1.0, 1.0), wide], [gm, gm])
        next(moved)
        with pytest.raises(ValueError, match="edge"):
            next(moved)


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
        y = system.map_at(0.0).A_inverse_samples
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


class TestTimeDependentGaugeProperties:
    """Random coercive drifting sets alpha = a0 + a1 cos(t) sech^2(x/w),
    beta1 = c1 (1 + s1 sin(t)) sech^2(x/w1), beta2 = -c2 sech^2(x/w2) <= 0,
    at a time t off the origin: the slices a time-dependent transformed
    solve builds at every stage time."""

    @settings(max_examples=12, deadline=None)
    @given(
        a0=_param(0.5, 3.0),
        a1_rel=_param(-0.3, 0.5).filter(lambda v: abs(v) >= 0.05),
        w=_param(3.0, 6.0),
        c1=_param(-0.5, 0.5),
        s1=_param(-0.5, 0.5),
        w1=_param(3.0, 6.0),
        c2=_param(0.0, 0.5),
        w2=_param(3.0, 6.0),
        t=_param(0.1, 1.0),
    )
    def test_slice_identities_and_round_trip(self, a0, a1_rel, w, c1, s1, w1, c2, w2, t):
        a1 = round(a1_rel * a0, 4)
        beta1 = f"({c1:.4f})*(1+({s1:.4f})*sin(t))*sech(x/{w1:.4f})^2"
        beta2 = f"-({c2:.4f})*sech(x/{w2:.4f})^2"
        cs = CoefficientSet.from_strings(
            alpha=f"{a0:.4f}+({a1:.4f})*cos(t)*sech(x/{w:.4f})^2",
            beta=f"{beta1}+{beta2}",
            beta1=beta1,
            beta2=beta2,
            alpha0=min(a0 - abs(a1), 1.0 / (a0 + abs(a1))),
        )
        g = make_grid(8 * np.pi, 256)
        system = GaugeSystem(cs, g, times=(0.0, t))
        alpha_at = lambda y: a0 + a1 * np.cos(t) / np.cosh(y / w) ** 2

        # b = -beta2 alpha^(-2/3) at the pullback points of the slice at t
        tc = system.coefficients_at(t)
        assert tc.t == t
        y = system.map_at(t).A_inverse_samples
        want = c2 / np.cosh(y / w2) ** 2 * alpha_at(y) ** (-2.0 / 3.0)
        assert np.abs(tc.b - want).max() < 1e-8 * max(1.0, np.abs(want).max())

        x = g.x[np.abs(g.x) < 0.5 * g.half_width]
        step = 1e-3

        def fourth_order(f):
            """f' at 0 from f(-2s), f(-s), f(s), f(2s)."""
            return (f(-2 * step) - 8.0 * f(-step) + 8.0 * f(step) - f(2 * step)) / (12.0 * step)

        # h_x / h = r, against differences of the closed form in x
        h = gauge_weight(cs, t, x)
        r = np.asarray(cs.derived("gauge_ratio").eval(t, x), dtype=float)
        h_x = fourth_order(lambda s: gauge_weight(cs, t, x + s))
        assert np.abs(h_x / h - r).max() < 1e-8 * max(1.0, np.abs(r).max())

        # h_t / h and A_t as a gauge slice builds them, against
        # centred differences in t of log h and of A
        _, A_t, ht_h, _ = _pullback(cs, t, g.x)
        log_h_t = fourth_order(lambda s: np.log(gauge_weight(cs, t + s, g.x)))
        assert np.abs(ht_h - log_h_t).max() < 1e-8 * max(1.0, np.abs(log_h_t).max())
        fd_A_t = fourth_order(lambda s: straightening(cs, t + s, g, system.image_grid))
        assert np.abs(A_t - fd_A_t).max() < 1e-8 * max(1.0, np.abs(fd_A_t).max())

        # forward then inverse transport at t is the identity
        gm = system.map_at(t)
        u = gaussian_state(g, 1.0, 1.0)
        back = inverse_transform(forward_transform(u, gm), gm)
        assert l2_norm(back - u) <= 1e-8 * l2_norm(u)


class TestTimeSlices:
    @staticmethod
    def _recording(frozen):
        built = []

        def build(t):
            built.append(t)
            return [t]  # a fresh object per build

        return TimeSlices(build, frozen), built

    def test_frozen_builds_once_for_any_time(self):
        slices, built = self._recording(frozen=True)
        first = slices(0.37)
        assert all(slices(t) is first for t in (0.0, 0.37, 1.5, -2.0, 1e6))
        assert built == [0.0]

    def test_times_equal_to_14_decimals_share_a_slice(self):
        slices, built = self._recording(frozen=False)
        first = slices(0.1 + 0.2)  # 0.30000000000000004
        assert slices(0.3) is first
        assert built == [0.3]  # built at the key, not at the raw time
        assert slices(0.3 + 1e-13) is not first  # 0.30000000000009996
        assert built == [0.3, 0.3000000000001]

    def test_holds_the_newest_eight(self):
        assert SLICE_CACHE == 8
        slices, built = self._recording(frozen=False)
        first = [slices(float(i)) for i in range(8)]
        assert all(slices(float(i)) is first[i] for i in range(8))  # hits
        assert len(built) == 8
        slices(8.0)  # the ninth distinct time evicts the oldest, t = 0
        assert all(slices(float(i)) is first[i] for i in range(1, 8))
        assert len(built) == 9
        assert slices(0.0) is not first[0]
        assert built[-1] == 0.0

    def test_never_holds_more_than_eight(self):
        slices, built = self._recording(frozen=False)
        for i in range(20):
            slices(0.01 * i)
        newest = [slices(0.01 * i) for i in range(12, 20)]
        assert len(built) == 20  # the newest eight are all hits
        assert slices(0.11) not in newest
        assert len(built) == 21  # the ninth newest was evicted

    def test_kept_keys_are_built_once_and_never_evicted(self):
        built = []
        slices = TimeSlices(lambda t: built.append(t) or [t], False, keep=(0.1 + 0.2, 2.0))
        kept = slices(0.3)  # kept keys are rounded like every other key
        for i in range(3 * SLICE_CACHE):
            slices(10.0 + i)
        assert slices(0.3) is kept and slices(0.1 + 0.2) is kept
        late = slices(2.0)  # kept, though first asked after the FIFO filled
        for i in range(3 * SLICE_CACHE):
            slices(100.0 + i)
        assert slices(2.0) is late
        assert built.count(0.3) == 1 and built.count(2.0) == 1
        assert len(built) == 2 + 6 * SLICE_CACHE

    def test_other_keys_keep_the_fifo_beside_kept_ones(self):
        built = []
        slices = TimeSlices(lambda t: built.append(t) or [t], False, keep=(0.5,))
        first = [slices(float(i)) for i in range(SLICE_CACHE)]
        slices(0.5)  # a kept key takes no FIFO slot
        assert all(slices(float(i)) is first[i] for i in range(SLICE_CACHE))
        slices(float(SLICE_CACHE))  # the ninth other key evicts the oldest
        assert slices(0.0) is not first[0]
        assert built == [*map(float, range(SLICE_CACHE)), 0.5, float(SLICE_CACHE), 0.0]

    def test_dropped_gauge_system_is_freed_without_the_collector(self):
        g = make_grid(8 * np.pi, 64)
        cs = CoefficientSet.from_strings(alpha="2+0.5*cos(t)*sech(x/4)^2", alpha0=0.4)
        enabled = gc.isenabled()
        gc.disable()
        try:
            system = GaugeSystem(cs, g, image_grid=g, keep=(0.0,))
            ref = weakref.ref(system.map_at(0.0))
            system.coefficients_at(0.25)
            del system
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_gauge_system_slices_follow_time_dependence(self):
        g = make_grid(8 * np.pi, 64)
        frozen = GaugeSystem(CoefficientSet.from_strings(**TANH_SET), g, image_grid=g)
        assert frozen.map_at(0.0) is frozen.map_at(0.25)
        assert frozen.coefficients_at(0.1) is frozen.coefficients_at(0.0)
        drifting = GaugeSystem(
            CoefficientSet.from_strings(alpha="2+0.5*cos(t)*sech(x/4)^2", alpha0=0.4),
            g, image_grid=g,
        )
        late = drifting.coefficients_at(0.25)
        assert late.t == 0.25 and drifting.map_at(0.25).t == 0.25
        assert drifting.coefficients_at(0.25 + 1e-16) is late
        assert drifting.coefficients_at(0.0) is not late
        for system in (frozen, drifting):
            for t in (0.0, 0.25):
                assert system.coefficients_at(t) is system.map_at(t).coefficients

    def test_drifting_slice_samples_the_pullback_points_once(self, monkeypatch):
        # h, the drift terms and b..f all read one sample of A^-1(image nodes)
        cs = CoefficientSet.from_strings(
            alpha="2+0.5*cos(t)*sech(x/4)^2",
            beta="0.2*sech(x/4)^2-0.1*sech(x/8)^2",
            beta1="0.2*sech(x/4)^2",
            beta2="-0.1*sech(x/8)^2",
            alpha0=0.4,
        )
        g = make_grid(8 * np.pi, 64)
        image_grid = image_grid_for(cs, g, times=(0.0, 0.3))
        points = []
        sample = CoefficientSet.sample

        def spy(self, names, t, x):
            points.append(np.array(x, dtype=float, copy=True))
            return sample(self, names, t, x)

        monkeypatch.setattr(CoefficientSet, "sample", spy)
        gm = build_gauge_map(cs, 0.3, g, image_grid)
        pulled = [x for x in points if np.array_equal(x, gm.A_inverse_samples)]
        assert len(pulled) == 1
        assert len(points) == 3  # the points, their rule's Gauss nodes, and x = 0


# the all-time-dependent set of the drift_oracle workload
DRIFTING_SET = dict(
    alpha="2+0.5*cos(t)*sech(x/4)^2",
    beta="0.2*sech(x/4)^2-0.1*sech(x/8)^2",
    beta1="0.2*sech(x/4)^2",
    beta2="-0.1*sech(x/8)^2",
    gamma="0.1*sech(x/4)^2",
    delta="0.05",
    epsilon="1",
    alpha0=0.4,
)
_SLICE_ARRAYS = ("A_samples", "A_inverse_samples", "inverse_clamped", "h_at_inverse")


def _assert_same_slice(got, want):
    assert (got.t, got.source_grid, got.image_grid) == (want.t, want.source_grid, want.image_grid)
    assert got.cset is want.cset
    pairs = [(getattr(got, name), getattr(want, name)) for name in _SLICE_ARRAYS]
    pairs += [(getattr(got.coefficients, name), getattr(want.coefficients, name)) for name in "bcdef"]
    for a, b in pairs:
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()
    assert (got.coefficients.t, got.coefficients.grid) == (want.t, want.image_grid)


class TestSingleHomes:
    """h and A each have one computation: a slice's samples equal the public
    `gauge_weight` and `GaugeMap.a_of` bit for bit, so a second computation
    that drifts by one bit fails here."""

    @pytest.mark.parametrize("t", [0.0, 0.05])
    @pytest.mark.parametrize("n", [256, 512])
    @pytest.mark.parametrize("name", ["drifting", "tanh"])
    def test_slice_samples_are_gauge_weight_and_a_of(self, name, n, t):
        cs = CoefficientSet.from_strings(**(DRIFTING_SET if name == "drifting" else TANH_SET))
        g = make_grid(16 * np.pi, n)
        gm = build_gauge_map(cs, t, g, image_grid_for(cs, g, times=(0.0, 0.05)))
        assert np.array_equal(gm.h_at_inverse, gauge_weight(cs, t, gm.A_inverse_samples))
        assert np.array_equal(gm.a_of(g.x), gm.A_samples)


class TestStackedSlices:
    @pytest.mark.parametrize("n", [256, 512])
    @pytest.mark.parametrize("name", ["drifting", "tanh"])
    def test_blocks_equal_one_row_builds(self, n, name):
        cs = CoefficientSet.from_strings(**(DRIFTING_SET if name == "drifting" else TANH_SET))
        g = make_grid(16 * np.pi, n)
        image = image_grid_for(cs, g, times=(0.0, 0.5, 1.0))
        times = [0.0, 0.0125, 0.025, 0.1 + 0.2, 0.5, 0.7, 0.95, 1.0]
        alone = [build_gauge_map(cs, t, g, image) for t in times]
        for K in range(1, 9):
            block = build_gauge_maps(cs, times[:K], g, image)
            assert len(block) == K
            for got, want in zip(block, alone):
                _assert_same_slice(got, want)
                if K > 1:  # each map owns its rows, not views of the block
                    assert all(getattr(got, a).base is None for a in _SLICE_ARRAYS)
                    assert all(getattr(got.coefficients, f).base is None for f in "bcdef")

    @pytest.mark.parametrize("n", [256, 512])
    def test_rows_take_the_newton_updates_of_their_one_row_solve(self, n):
        cs = CoefficientSet.from_strings(**DRIFTING_SET)
        g = make_grid(16 * np.pi, n)
        times = [0.0, 0.3, 0.6, 0.9, 1.2, 1.5]
        A = np.stack([build_gauge_map(cs, t, g, g).A_samples for t in times])
        y = np.clip(np.linspace(-40.0, 40.0, n), A[:, :1], A[:, -1:])
        y[1] = A[1]  # targets at the nodes: the bracket is exact, no update
        y[4, ::2] = A[4, ::2]
        x, updates = _invert(cs, np.array(times)[:, None], A, g.x, y)
        assert len(set(updates.tolist())) > 1  # the rows leave at different updates
        for i, t in enumerate(times):
            x_one, updates_one = _invert(cs, t, A[i][None], g.x, y[i][None])
            assert updates_one.tolist() == [updates[i]]
            assert x_one[0].tobytes() == x[i].tobytes()

    def test_block_size_follows_the_grid(self):
        cs = CoefficientSet.from_strings(**DRIFTING_SET)
        for n, K in ((64, SLICE_CACHE), (256, 8), (512, 4), (4096, 1)):
            g = make_grid(16 * np.pi, n)
            assert GaugeSystem(cs, g, image_grid=g).map_at._block_size == K
            assert K == min(max(BLOCK_POINTS // n, 1), SLICE_CACHE)


class TestAnnouncedSlices:
    @staticmethod
    def _recording(keep=(), block_size=3):
        built, blocks = [], []

        def build(t):
            built.append(t)
            return [t]

        def build_block(keys):
            blocks.append(list(keys))
            return [[k] for k in keys]

        slices = TimeSlices(build, False, keep, build_block=build_block, block_size=block_size)
        return slices, built, blocks

    def test_a_miss_builds_the_next_announced_times_together(self):
        slices, built, blocks = self._recording()
        stages = [0.0, 0.5, 0.5, 1.0, 1.0, 1.5, 1.5, 2.0, 2.0, 2.5, 2.5, 3.0]
        slices.announce(iter(stages))  # read lazily
        got = [slices(t) for t in stages]
        assert blocks == [[0.0, 0.5, 1.0], [1.5, 2.0, 2.5], [3.0]]
        assert built == []
        assert all(g == [t] for g, t in zip(got, stages))
        assert got[1] is got[2]  # one slice per key

    def test_built_and_kept_keys_are_skipped(self):
        slices, built, blocks = self._recording(keep=(1.0,))
        kept = slices(1.0)  # not yet announced: built alone
        slices.announce([0.0, 0.5, 1.0, 1.5, 2.0])
        slices(0.0)
        assert built == [1.0] and blocks == [[0.0, 0.5, 1.5]]
        assert slices(1.0) is kept
        slices(2.0)
        assert blocks[-1] == [2.0]

    def test_unannounced_and_withdrawn_times_are_built_alone(self):
        slices, built, blocks = self._recording()
        slices.announce([1.0, 2.0, 3.0])
        slices(0.5)  # not announced: the announcement stays
        slices(2.0)  # 1.0 is passed over
        assert built == [0.5] and blocks == [[2.0, 3.0]]
        slices.announce(())
        slices(4.0)
        assert built == [0.5, 4.0]

    def test_a_failing_block_builds_the_missed_time_alone(self):
        calls = []

        def build_block(keys):
            calls.append(list(keys))
            if 2.0 in keys:
                raise ValueError("bad slice at 2.0")
            return [[k] for k in keys]

        slices = TimeSlices(None, False, build_block=build_block, block_size=3)
        slices.announce([1.0, 2.0, 3.0])
        assert slices(1.0) == [1.0]
        assert calls == [[1.0, 2.0, 3.0], [1.0]]
        with pytest.raises(ValueError, match="at 2.0"):
            slices(2.0)

    def test_a_block_evicts_no_row_before_it_is_read(self):
        slices, _, blocks = self._recording(block_size=SLICE_CACHE)
        stages = [0.1 * i for i in range(3 * SLICE_CACHE)]
        slices.announce(stages)
        for t in stages:
            slices(t)
        assert [len(b) for b in blocks] == [SLICE_CACHE] * 3

    def test_solve_announces_its_stage_times(self, monkeypatch):
        # a drifting solve builds every stage-time slice in blocks; the t = 0
        # slice that the solve stores before it announces is built alone, by
        # build_gauge_map as the one-row case of build_gauge_maps
        g = make_grid(16 * np.pi, 256)
        system = GaugeSystem(CoefficientSet.from_strings(**DRIFTING_SET), g, image_grid=g)
        rows, alone = [], []
        build_map, build_maps = gauge.build_gauge_map, gauge.build_gauge_maps

        def counted_maps(cset, times, source_grid, image_grid):
            rows.append(list(times))
            return build_maps(cset, times, source_grid, image_grid)

        def counted_map(cset, t, source_grid, image_grid):
            alone.append(t)
            return build_map(cset, t, source_grid, image_grid)

        monkeypatch.setattr(gauge, "build_gauge_maps", counted_maps)
        monkeypatch.setattr(gauge, "build_gauge_map", counted_map)
        from kdvgauge.solver import SolverConfig, solve

        u0 = gaussian_state(g, 0.5, 1.5)
        solve(u0, SolverConfig(t_final=0.01, dt=1e-3), system)
        assert alone == [0.0]
        assert [len(r) for r in rows] == [1, 8, 8, 4]  # 0, then the 20 stage times after it
        flat = [t for r in rows for t in r]
        assert flat == sorted(set(flat)) and len(flat) == 21
        assert not system.map_at._ahead  # the announcement is withdrawn
