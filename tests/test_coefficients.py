"""Coefficient sets, the beta split, quadrature, and the hypothesis checker."""

import numpy as np
import pytest
from scipy.integrate import quad

from kdvgauge.coefficients import (
    _GL_NODES,
    _GL_WEIGHTS,
    CoefficientSet,
    _AnchoredRule,
    check_hypotheses,
    softplus_split,
)
from kdvgauge.expressions import parse_coefficient
from kdvgauge.spectral import make_grid


def anchored(fn, points):
    """int_0^p fn for each p, by the one anchored rule on the points."""
    rule = _AnchoredRule(points)
    return rule.integrate(fn(rule.nodes))


class TestAnchoredCumulative:
    def test_gauss_legendre_rule_is_numpys(self):
        nodes, weights = np.polynomial.legendre.leggauss(5)
        assert _GL_NODES.tobytes() == nodes.tobytes()
        assert _GL_WEIGHTS.tobytes() == weights.tobytes()

    def test_identity_integrand(self):
        pts = np.linspace(-3, 5, 41)
        got = anchored(lambda y: np.ones_like(y), pts)
        assert np.abs(got - pts).max() < 1e-14

    def test_matches_adaptive_quadrature(self):
        # oracle: scipy adaptive quadrature of the same integrand from 0
        fn = lambda y: (2 + np.tanh(y)) ** (-1.0 / 3.0)
        pts = np.linspace(-20.0, 20.0, 257)
        got = anchored(fn, pts)
        for idx in (0, 64, 128, 200, 256):
            want, _ = quad(fn, 0.0, pts[idx], limit=200)
            assert abs(got[idx] - want) < 1e-9

    def test_anchor_exact_at_zero(self):
        pts = np.linspace(-1.0, 1.0, 65)  # contains 0
        got = anchored(lambda y: np.exp(y), pts)
        assert got[32] == 0.0

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            _AnchoredRule(np.array([1.0, 0.0]))

    def test_repeated_points(self):
        pts = np.array([-1.0, -1.0, 0.0, 2.0, 2.0])
        got = anchored(lambda y: np.ones_like(y), pts)
        assert np.allclose(got, pts)


class TestSplitBeta:
    def test_softplus_negative_beta(self):
        beta = parse_coefficient("-1")
        b1, b2 = softplus_split(beta, kappa=10.0)
        x = np.linspace(-5, 5, 11)
        assert np.abs(b1.eval(0.0, x)).max() <= 1e-4
        assert np.allclose(b2.eval(0.0, x), -1.0, atol=1e-4)

    def test_softplus_zero_beta(self):
        beta = parse_coefficient("0")
        b1, b2 = softplus_split(beta, kappa=10.0)
        assert b1.eval(0.0, 0.0) == pytest.approx(np.log(2.0) / 10.0, rel=1e-12)
        assert b2.eval(0.0, 0.0) == pytest.approx(-np.log(2.0) / 10.0, rel=1e-12)

    def test_softplus_invariants(self):
        beta = parse_coefficient("0.3*sin(x)")
        b1, b2 = softplus_split(beta, kappa=10.0)
        x = np.linspace(-6, 6, 101)
        assert np.abs(b1.eval(0.0, x) + b2.eval(0.0, x) - beta.eval(0.0, x)).max() < 1e-10
        assert b2.eval(0.0, x).max() <= 0.0

    def test_user_provided_sech_bound(self):
        # beta = sech^2 with beta1 = beta: the gauge integral is tanh, bounded by 2
        beta = parse_coefficient("sech(x)^2")
        pts = np.linspace(-30, 30, 129)
        integral = anchored(lambda y: beta.eval(0.0, y), pts)
        assert np.abs(integral).max() <= 2.0


class TestCoefficientSet:
    """The gate's split entry: beta1 + beta2 = beta and beta2 <= 0 on the samples."""

    def test_split_validation_passes(self):
        cs = CoefficientSet.from_strings(
            alpha="2+0.5*tanh(x/4)",
            beta="-0.2*sech(x/4)^2",
            beta1="0",
            beta2="-0.2*sech(x/4)^2",
            alpha0=0.4,
        )
        rep = check_hypotheses(cs, make_grid(20.0, 128), T=0.5, t_samples=2)
        assert rep.entry("split validity").passed

    def test_split_validation_rejects_mismatch(self):
        cs = CoefficientSet.from_strings(
            alpha="1", beta="1", beta1="0.5", beta2="0", alpha0=1.0
        )
        entry = check_hypotheses(cs, make_grid(1.0, 16), T=0.5, t_samples=2).entry(
            "split validity"
        )
        assert not entry.passed
        assert entry.extremal == 0.5
        assert "split defect 5.000e-01" in entry.note

    def test_split_validation_rejects_positive_beta2(self):
        # beta1 + beta2 = beta exactly: only the sign of beta2 fails
        cs = CoefficientSet.from_strings(
            alpha="1", beta="1", beta1="0", beta2="1", alpha0=1.0
        )
        entry = check_hypotheses(cs, make_grid(1.0, 16), T=0.5, t_samples=2).entry(
            "split validity"
        )
        assert not entry.passed
        assert entry.extremal == 0.0
        assert "positive beta2 1.000e+00" in entry.note

    def test_time_dependence_flag(self):
        assert CoefficientSet.from_strings(alpha="2+0.1*sin(t)").is_time_dependent
        assert not CoefficientSet.constant_kdv().is_time_dependent


class TestHypothesisChecker:
    def test_trivial_set_passes(self):
        cs = CoefficientSet.from_strings(alpha="1", beta="0")
        g = make_grid(8 * np.pi, 128)
        rep = check_hypotheses(cs, g, T=1.0, t_samples=3)
        assert rep.passed
        assert rep.entry("H2 drift of straightening").extremal == 0.0
        assert rep.entry("H3a gauge drift").extremal == 0.0

    def test_constant_positive_beta_fails_left_edge(self):
        # beta = 1 with beta1 = beta: -int_0^x beta1/alpha = -x grows at the
        # left boundary, so the one-sided gauge condition fails with the
        # unbounded-trend flag
        cs = CoefficientSet.from_strings(alpha="1", beta="1", beta1="1", beta2="0")
        g = make_grid(8 * np.pi, 128)
        rep = check_hypotheses(cs, g, T=0.5, t_samples=3)
        entry = rep.entry("H3b gauge bounded below")
        assert not entry.passed
        assert entry.boundary_growing
        assert entry.location[1] == pytest.approx(-g.half_width)
        assert entry.extremal == pytest.approx(g.half_width, rel=1e-9)

    def test_gauge_bounded_below_but_not_two_sided(self):
        # beta1 = tanh(x): int_0^x beta1/alpha = log cosh(x) >= 0 grows at both
        # edges, so H3b (-int bounded above) holds and H4 (|int| bounded) fails
        cs = CoefficientSet.from_strings(alpha="1", beta="tanh(x)", beta1="tanh(x)", beta2="0")
        g = make_grid(8 * np.pi, 128)
        rep = check_hypotheses(cs, g, T=0.5, t_samples=2)
        h3b = rep.entry("H3b gauge bounded below")
        assert h3b.passed
        assert h3b.extremal == 0.0
        h4 = rep.entry("H4 two-sided gauge")
        assert not h4.passed
        assert h4.boundary_growing
        assert h4.location[1] == pytest.approx(-g.half_width)
        assert h4.extremal == pytest.approx(np.log(np.cosh(g.half_width)), rel=1e-9)

    def test_time_independent_alpha_h2_identically_zero(self):
        cs = CoefficientSet.from_strings(alpha="2+0.5*tanh(x)", alpha0=0.4)
        g = make_grid(8 * np.pi, 128)
        rep = check_hypotheses(cs, g, T=1.0, t_samples=3)
        entry = rep.entry("H2 drift of straightening")
        assert entry.passed
        assert entry.extremal == 0.0
        assert "identically 0" in entry.note

    def test_coercivity_violation_detected(self):
        cs = CoefficientSet.from_strings(alpha="2+0.5*tanh(x/4)", alpha0=0.9)
        g = make_grid(8 * np.pi, 128)
        rep = check_hypotheses(cs, g, T=0.5, t_samples=2)
        assert not rep.entry("H1 coercivity").passed

    def test_localized_beta1_passes(self):
        cs = CoefficientSet.from_strings(
            alpha="1", beta="sech(x)^2", beta1="sech(x)^2", beta2="0"
        )
        g = make_grid(8 * np.pi, 128)
        rep = check_hypotheses(cs, g, T=0.5, t_samples=3)
        assert rep.passed

    def test_monotone_in_domain_size(self):
        # enlarging the window never turns a sup-type fail into a pass
        cs = CoefficientSet.from_strings(alpha="1", beta="1", beta1="1", beta2="0")
        for hw in (4 * np.pi, 8 * np.pi, 16 * np.pi):
            g = make_grid(hw, 128)
            rep = check_hypotheses(cs, g, T=0.5, t_samples=2)
            assert not rep.entry("H3b gauge bounded below").passed

    def test_time_dependent_drift_bounded(self):
        cs = CoefficientSet.from_strings(
            alpha="2+0.5*cos(t)*sech(x/4)^2",
            beta="0.2*sech(x/4)^2",
            beta1="0.2*sech(x/4)^2",
            beta2="0",
            alpha0=0.4,
        )
        g = make_grid(16 * np.pi, 256)
        rep = check_hypotheses(cs, g, T=1.0, t_samples=5)
        assert rep.passed
        assert rep.entry("H2 drift of straightening").extremal > 0.0

    def test_report_text_format(self):
        cs = CoefficientSet.from_strings(alpha="1")
        g = make_grid(8 * np.pi, 128)
        rep = check_hypotheses(cs, g, T=0.5)
        text = rep.format_text()
        assert "PASS" in text
        assert "H1 coercivity" in text
