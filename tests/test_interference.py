import math

import mpmath
import pytest
from scipy.integrate import quad

from pmqcc import (
    ParameterError,
    branch_gain_avg,
    branch_qber_avg,
    branch_success,
    click_probabilities,
    exact_branch_average,
    phase_delta_density,
)


class TestClickProbabilities:
    def test_matched_phase_dark_port_silent(self):
        cp = click_probabilities(0.00866, 0.0, 0.0)
        assert cp.p_right_click == 0.0
        assert cp.p_left_click == pytest.approx(-math.expm1(-0.00866), rel=1e-14)
        assert cp.p_left_click == pytest.approx(8.627e-3, rel=2e-3)

    def test_pi_phase_flips_ports(self):
        cp = click_probabilities(0.00866, math.pi, 0.0)
        assert cp.p_left_click == pytest.approx(0.0, abs=1e-15)
        assert cp.p_right_click == pytest.approx(-math.expm1(-0.00866), rel=1e-12)

    def test_marginals_sum_to_one(self):
        cp = click_probabilities(0.3, 1.1, 1e-6)
        assert cp.p_left_click + cp.p_left_silent == pytest.approx(1.0, abs=1e-15)
        assert cp.p_right_click + cp.p_right_silent == pytest.approx(1.0, abs=1e-15)

    def test_domain(self):
        with pytest.raises(ParameterError):
            click_probabilities(-0.1, 0.0, 0.0)
        with pytest.raises(ParameterError):
            click_probabilities(0.1, 0.0, 1.0)


class TestBranchSuccess:
    def test_no_error_sources(self):
        stats = branch_success(click_probabilities(0.00866, 0.0, 0.0))
        assert stats.qber == 0.0

    def test_balanced_ports(self):
        stats = branch_success(click_probabilities(0.02, math.pi / 2.0, 0.0))
        assert stats.qber == pytest.approx(0.5, rel=1e-12)

    def test_gain_example(self):
        stats = branch_success(click_probabilities(0.00866, 0.0, 7.2e-8))
        a, pd = 0.00866, 7.2e-8
        exact = (1.0 - pd) * (-math.expm1(-a) + 2.0 * pd * math.exp(-a))
        assert stats.gain == pytest.approx(exact, rel=1e-12)
        assert stats.gain == pytest.approx(8.627e-3, rel=2e-3)

    def test_zero_gain_convention(self):
        stats = branch_success(click_probabilities(0.0, 0.0, 0.0))
        assert stats.gain == 0.0 and stats.qber == 0.0

    @pytest.mark.parametrize("a,phi,pd", [
        (0.00866, 0.0, 0.0), (0.05, 0.7, 1e-6), (0.3, 2.0, 1e-4), (1.0, math.pi, 0.01),
    ])
    def test_outcome_probabilities_total(self, a, phi, pd):
        cp = click_probabilities(a, phi, pd)
        one = branch_success(cp).gain
        both = cp.p_left_click * cp.p_right_click
        neither = cp.p_left_silent * cp.p_right_silent
        assert one + both + neither == pytest.approx(1.0, abs=1e-13)


class TestBranchAverages:
    def test_gain_vacuum(self):
        assert branch_gain_avg(0.0, 0.0) == 0.0

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


class TestPhaseDensity:
    def test_peak(self):
        for m in (8, 13, 32):
            assert phase_delta_density(0.0, 0.0, m) == pytest.approx(m / (2.0 * math.pi), rel=1e-13)

    def test_endpoints_vanish(self):
        m = 13
        w = 2.0 * math.pi / m
        assert phase_delta_density(-w, 0.0, m) == 0.0
        assert phase_delta_density(w, 0.0, m) == 0.0

    @pytest.mark.parametrize("phi0", [0.0, 0.1, -0.2])
    def test_normalization(self, phi0):
        m = 13
        w = 2.0 * math.pi / m
        val, _ = quad(lambda p: phase_delta_density(p, phi0, m), phi0 - w, phi0 + w, points=[phi0])
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_offset_domain(self):
        with pytest.raises(ParameterError):
            phase_delta_density(0.0, 1.0, 13)


class TestQuadratureOracle:
    def test_gain_matches_closed_form(self):
        # slice-averaged closed form agrees with the exact average to 0.5%
        stats = exact_branch_average(0.00866, 7.2e-8, 13)
        closed = branch_gain_avg(0.00866, 7.2e-8)
        assert stats.gain == pytest.approx(closed, rel=5e-3)

    @pytest.mark.parametrize("a", [0.002, 0.01, 0.02])
    @pytest.mark.parametrize("pd", [0.0, 1e-6])
    @pytest.mark.parametrize("m", [8, 13, 32])
    def test_qber_matches_first_order_average(self, a, pd, m):
        # independent first-order oracle: averaging the wrong-port rate over
        # the phase density gives e^-a (p_d + a*I)/Q with
        # I = E[sin^2(phi/2)] = (1 - (M/pi)^3 sin^3(pi/M))/2
        stats = exact_branch_average(a, pd, m)
        avg_sin2 = (1.0 - (m / math.pi) ** 3 * math.sin(math.pi / m) ** 3) / 2.0
        wrong = (1.0 - pd) * math.exp(-a) * (pd + a * avg_sin2)
        expected = wrong / (branch_gain_avg(a, pd) * (1.0 - pd))
        assert stats.qber == pytest.approx(expected, rel=2e-2)

    def test_closed_form_qber_undercounts_misalignment(self):
        # the tabulated closed form is not the exact average: its
        # misalignment coefficient equals (2 pi / M) * E[sin^2(phi/2)], so in
        # misalignment-dominated regimes the quadrature truth sits a factor
        # M/(2 pi) above it.  The simulator is therefore validated against
        # the quadrature oracle, not this closed form.
        for m in (8, 13, 32):
            exact = exact_branch_average(0.01, 0.0, m).qber
            closed = branch_qber_avg(0.01, 0.0, m)
            assert exact / closed == pytest.approx(m / (2.0 * math.pi), rel=0.05)

    def test_qber_matches_closed_form_when_dark_dominated(self):
        # with p_d far above the misalignment term the two agree again
        a, pd, m = 1e-5, 1e-4, 13
        exact = exact_branch_average(a, pd, m).qber
        closed = branch_qber_avg(a, pd, m)
        assert exact == pytest.approx(closed, rel=1e-2)

    def test_fixed_offset_average(self):
        # at phi_0 = 0 the misalignment integral tightens to
        # (1 - (M/pi)^2 sin^2(pi/M))/2
        a, m = 0.01, 13
        stats = exact_branch_average(a, 0.0, m, reference_offset=0.0)
        avg_sin2 = (1.0 - (m / math.pi) ** 2 * math.sin(math.pi / m) ** 2) / 2.0
        expected = math.exp(-a) * a * avg_sin2 / branch_gain_avg(a, 0.0)
        assert stats.qber == pytest.approx(expected, rel=2e-2)


def quad_branch_average(a, pd, m, phi0):
    """(gain, wrong-port rate) by adaptive quadrature over the triangle,
    nested in a quadrature over phi_0 when phi0 is None."""
    w = 2.0 * math.pi / m

    def tri_average(p0, wrong):
        def integrand(phi):
            cp = click_probabilities(a, phi, pd)
            right_only = cp.p_left_silent * cp.p_right_click
            one = right_only + cp.p_left_click * cp.p_right_silent
            return (right_only if wrong else one) * phase_delta_density(phi, p0, m)

        return quad(integrand, p0 - w, p0 + w, points=[p0], epsabs=0.0, epsrel=1e-13, limit=200)[0]

    if phi0 is not None:
        return tri_average(phi0, False), tri_average(phi0, True)
    h = math.pi / m
    return tuple(
        quad(lambda p0: tri_average(p0, wrong), -h, h, epsabs=0.0, epsrel=1e-13, limit=200)[0] / (2.0 * h)
        for wrong in (False, True)
    )


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
    """The fixed-order rule against adaptive quadrature and 25-digit
    mpmath for a in [1e-8, 5] and M in [2, 2e6], the range its
    docstring claims."""

    @pytest.mark.parametrize("phi0_share", [0.0, 0.7, None])
    @pytest.mark.parametrize("m", [2, 14, 2_000_000])
    @pytest.mark.parametrize("a,pd", [(1e-8, 0.0), (1e-3, 7.2e-8), (0.05, 1e-6), (1.0, 0.0), (5.0, 0.01)])
    def test_against_references(self, a, pd, m, phi0_share):
        phi0 = None if phi0_share is None else phi0_share * math.pi / m
        stats = exact_branch_average(a, pd, m, reference_offset=phi0)
        for gain, wrong, rel in (
            (*mpmath_branch_average(a, pd, m, phi0), 1e-12),
            (*quad_branch_average(a, pd, m, phi0), 1e-9),
        ):
            assert stats.gain == pytest.approx(gain, rel=rel)
            assert stats.qber == pytest.approx(wrong / gain, rel=rel)

    def test_geometry_domain(self):
        with pytest.raises(ParameterError):
            exact_branch_average(0.01, 0.0, 1)
        with pytest.raises(ParameterError):
            exact_branch_average(0.01, 0.0, 13, reference_offset=1.0)
