import math

import mpmath
import numpy as np
import pytest

from pmqcc import (
    ChannelParams,
    ParameterError,
    ProtocolParams,
    branch_gain_avg,
    branch_qber_avg,
    tally_expectation,
)
from pmqcc.montecarlo import _branch_probability


def branch_clicks(a, phi, pd):
    """(one-click, R-only) probabilities of the simulator's click model."""
    p_one, p_right = _branch_probability(a, math.log1p(-pd), np.array(phi), np)
    return float(p_one), float(p_right)


class TestClickProbabilities:
    def test_matched_phase_dark_port_silent(self):
        p_one, p_right = branch_clicks(0.00866, 0.0, 0.0)
        assert p_right == 0.0
        assert p_one == pytest.approx(-math.expm1(-0.00866), rel=1e-14)
        assert p_one == pytest.approx(8.627e-3, rel=2e-3)

    def test_pi_phase_flips_ports(self):
        p_one, p_right = branch_clicks(0.00866, math.pi, 0.0)
        assert p_one - p_right == pytest.approx(0.0, abs=1e-15)
        assert p_right == pytest.approx(-math.expm1(-0.00866), rel=1e-12)


class TestBranchSuccess:
    def test_no_error_sources(self):
        _, p_right = branch_clicks(0.00866, 0.0, 0.0)
        assert p_right == 0.0

    def test_balanced_ports(self):
        p_one, p_right = branch_clicks(0.02, math.pi / 2.0, 0.0)
        assert p_right / p_one == pytest.approx(0.5, rel=1e-12)

    def test_gain_example(self):
        p_one, _ = branch_clicks(0.00866, 0.0, 7.2e-8)
        a, pd = 0.00866, 7.2e-8
        exact = (1.0 - pd) * (-math.expm1(-a) + 2.0 * pd * math.exp(-a))
        assert p_one == pytest.approx(exact, rel=1e-12)
        assert p_one == pytest.approx(8.627e-3, rel=2e-3)

    def test_zero_gain_convention(self):
        assert branch_clicks(0.0, 0.0, 0.0) == (0.0, 0.0)

    @pytest.mark.parametrize("a,phi,pd", [
        (0.00866, 0.0, 0.0), (0.05, 0.7, 1e-6), (0.3, 2.0, 1e-4), (1.0, math.pi, 0.01),
    ])
    def test_outcome_probabilities_total(self, a, phi, pd):
        one, _ = branch_clicks(a, phi, pd)
        left_silent = (1.0 - pd) * math.exp(-a * math.cos(phi / 2.0) ** 2)
        right_silent = (1.0 - pd) * math.exp(-a * math.sin(phi / 2.0) ** 2)
        both = (1.0 - left_silent) * (1.0 - right_silent)
        neither = left_silent * right_silent
        assert one + both + neither == pytest.approx(1.0, abs=1e-13)


class TestBranchAverages:
    def test_gain_vacuum(self):
        assert branch_gain_avg(0.0, 0.0) == 0.0

    @pytest.mark.parametrize("a, pd, message", [
        (-0.01, 0.0, "arrival_intensity must be >= 0, got -0.01"),
        (0.01, 1.0, "dark_count must lie in [0, 1), got 1.0"),
        (0.01, 0.9, "dark_count must be <= 0.5 for a branch gain in [0, 1], got 0.9"),
    ])
    def test_gain_domain(self, a, pd, message):
        with pytest.raises(ParameterError) as info:
            branch_gain_avg(a, pd)
        assert str(info.value) == message

    def test_gain_values(self):
        assert branch_gain_avg(0.0086645, 7.2e-8) == pytest.approx(0.008627214155625233, rel=1e-13)
        assert branch_gain_avg(0.01, 1e-7) == pytest.approx(0.009950364260798697, rel=1e-13)

    def test_qber_value(self):
        assert branch_qber_avg(0.0086645, 7.2e-8, 13) == pytest.approx(
            0.0069458806733298665, rel=1e-13
        )

    def test_qber_vanishes_without_error_sources(self):
        assert branch_qber_avg(0.0086645, 0.0, 10**6) < 1e-12

    def test_qber_monotone_in_dark_count(self):
        base = branch_qber_avg(0.01, 1e-7, 13)
        assert branch_qber_avg(0.01, 2e-7, 13) > base

    def test_qber_error_on_zero_gain(self):
        with pytest.raises(ParameterError):
            branch_qber_avg(0.0, 0.0, 13)


def oracle_qber(a, pd, m, phi0=None):
    """Exact slice-averaged branch QBER of the click model, from mpmath."""
    gain, wrong = mpmath_branch_average(a, pd, m, phi0)
    return wrong / gain


class TestQuadratureOracle:
    def test_gain_matches_closed_form(self):
        # slice-averaged closed form agrees with the exact average to 0.5%
        gain, _ = mpmath_branch_average(0.00866, 7.2e-8, 13, None)
        closed = branch_gain_avg(0.00866, 7.2e-8)
        assert gain == pytest.approx(closed, rel=5e-3)

    @pytest.mark.parametrize("a", [0.002, 0.01, 0.02])
    @pytest.mark.parametrize("pd", [0.0, 1e-6])
    @pytest.mark.parametrize("m", [8, 13, 32])
    def test_qber_matches_first_order_average(self, a, pd, m):
        # independent first-order oracle: averaging the wrong-port rate over
        # the phase density gives e^-a (p_d + a*I)/Q with
        # I = E[sin^2(phi/2)] = (1 - (M/pi)^3 sin^3(pi/M))/2
        avg_sin2 = (1.0 - (m / math.pi) ** 3 * math.sin(math.pi / m) ** 3) / 2.0
        wrong = (1.0 - pd) * math.exp(-a) * (pd + a * avg_sin2)
        expected = wrong / (branch_gain_avg(a, pd) * (1.0 - pd))
        assert oracle_qber(a, pd, m) == pytest.approx(expected, rel=2e-2)

    def test_closed_form_qber_undercounts_misalignment(self):
        # the tabulated closed form is not the exact average: over this
        # oracle's density (a uniform offset on top of the triangle) its
        # misalignment coefficient equals (2 pi / M) * E[sin^2(phi/2)], so in
        # misalignment-dominated regimes the quadrature truth sits a factor
        # M/(2 pi) above it (M/(3 pi) over the simulator's triangle alone).
        # The simulator is therefore validated against the exact click
        # model, not this closed form.
        for m in (8, 13, 32):
            exact = oracle_qber(0.01, 0.0, m)
            closed = branch_qber_avg(0.01, 0.0, m)
            assert exact / closed == pytest.approx(m / (2.0 * math.pi), rel=0.05)

    def test_qber_matches_closed_form_when_dark_dominated(self):
        # with p_d far above the misalignment term the two agree again
        a, pd, m = 1e-5, 1e-4, 13
        exact = oracle_qber(a, pd, m)
        closed = branch_qber_avg(a, pd, m)
        assert exact == pytest.approx(closed, rel=1e-2)

    def test_fixed_offset_average(self):
        # at phi_0 = 0 the misalignment integral tightens to
        # (1 - (M/pi)^2 sin^2(pi/M))/2
        a, m = 0.01, 13
        avg_sin2 = (1.0 - (m / math.pi) ** 2 * math.sin(math.pi / m) ** 2) / 2.0
        expected = math.exp(-a) * a * avg_sin2 / branch_gain_avg(a, 0.0)
        assert oracle_qber(a, 0.0, m, phi0=0.0) == pytest.approx(expected, rel=2e-2)


def mpmath_branch_average(a, pd, m, phi0):
    """(gain, wrong-port rate) at 25 digits.  With phi0 None the phase
    difference has the density of a uniform phi_0 on [-pi/M, pi/M) plus
    the triangle, a piecewise quadratic on [-3 pi/M, 3 pi/M]."""
    with mpmath.workdps(25):
        a, pd, h = mpmath.mpf(a), mpmath.mpf(pd), mpmath.pi / m

        def rates(phi):
            log_nodark = mpmath.log1p(-pd)
            left = log_nodark - a * mpmath.cos(phi / 2) ** 2
            right = log_nodark - a * mpmath.sin(phi / 2) ** 2
            right_only = mpmath.exp(left) * -mpmath.expm1(right)
            return right_only + mpmath.exp(right) * -mpmath.expm1(left), right_only

        if phi0 is not None:
            c = mpmath.mpf(phi0)

            def density(phi):
                return max(2 * h - abs(phi - c), 0) / (4 * h * h)

            cuts = [c - 2 * h, c, c + 2 * h]
        else:
            def triangle_cdf(y):
                y = min(max(y, -2 * h), 2 * h)
                return (y + 2 * h) ** 2 / (8 * h * h) if y <= 0 else 1 - (2 * h - y) ** 2 / (8 * h * h)

            def density(phi):
                return (triangle_cdf(phi + h) - triangle_cdf(phi - h)) / (2 * h)

            cuts = [-3 * h, -h, h, 3 * h]
        return tuple(
            float(mpmath.quad(lambda phi: rates(phi)[i] * density(phi), cuts, method="gauss-legendre"))
            for i in (0, 1)
        )


class TestGaussLegendreAverage:
    """The fixed-order rule behind ``tally_expectation`` against 25-digit
    mpmath for a in [1e-8, 5] and M in [2, 2e6]: with two parties the chain
    is one branch, whose in-slice difference has the triangular density at
    zero reference deviation, the only deviation ``simulate`` runs."""

    @pytest.mark.parametrize("phi0", [0.0])
    @pytest.mark.parametrize("m", [2, 14, 2_000_000])
    @pytest.mark.parametrize("pd", [0.0, 7.2e-8, 1e-6, 0.01])
    @pytest.mark.parametrize("a", [1e-8, 1e-3, 0.05, 1.0, 5.0])
    def test_against_references(self, a, pd, m, phi0):
        gain, wrong = mpmath_branch_average(a, pd, m, phi0)
        pp = ProtocolParams(n_parties=2, signal_intensity=a, slice_count=m)
        ch = ChannelParams(loss_rate=0.2, distance=0.0, detector_efficiency=1.0, dark_count=pd)
        success, pair_errors = tally_expectation(pp, ch)
        assert success == pytest.approx(gain, rel=1e-12)
        assert pair_errors[2] == pytest.approx(wrong / gain, rel=1e-12)
