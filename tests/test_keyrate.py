import inspect
import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from pmqcc import (
    ChannelParams,
    InsufficientDataError,
    ParameterError,
    ProtocolParams,
    branch_gain_avg,
    branch_qber_avg,
    marginal_qber,
    qber_star,
    rate_pmqcc,
    scaling_exponent,
    binary_entropy,
    transmittance,
)
from pmqcc import keyrate
from pmqcc.keyrate import (
    RateReport,
    chain_branches,
    intensity_terms,
    parity_phase_error,
    slice_constants,
    slice_rate,
)
from pmqcc.montecarlo import _branch_probability
from pmqcc.optimize import MU_BOUNDS
from tests.conftest import bench_channel_at
from tests.enumeration import enumerated_gain, exact_odd_error_share, parity_split


class TestMarginalQBER:
    def test_single_branch(self):
        assert marginal_qber(0.1, 2) == pytest.approx(0.1, rel=1e-14)

    def test_two_branches(self):
        assert marginal_qber(0.1, 3) == pytest.approx(0.18, rel=1e-12)

    def test_zero_error(self):
        for m in range(2, 7):
            assert marginal_qber(0.0, m) == 0.0

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=2, max_value=8),
    )
    def test_parity_identity(self, e, m):
        # odd-error composition equals the XOR parity formula
        expected = (1.0 - (1.0 - 2.0 * e) ** (m - 1)) / 2.0
        assert marginal_qber(e, m) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize(
        "e", [0.0, 5e-324, 1e-300, 1e-12, 1e-6, 0.007, 0.1, 0.5 - 2.0**-53, 0.5, 0.7, 1.0]
    )
    def test_matches_exact_odd_pattern_sum(self, e):
        # the closed form against the rational sum over odd-weight error
        # patterns, from the subnormals to e = 1
        for m in range(2, 13):
            exact = float(exact_odd_error_share(e, m - 1))
            assert abs(marginal_qber(e, m) - exact) <= 2 * math.ulp(exact)

    GRID = [0.0, 5e-324, 1e-300, 1e-12, *(k / 200 for k in range(1, 200)),
            0.5 - 2.0**-53, 0.5 + 2.0**-52, 1 - 1e-12, 1.0]

    def test_entropy_never_falls_with_pair_index(self):
        # the rate charges the leak at the farthest pair, m = N: H(E_m),
        # computed here from the exact odd-pattern sums, must not fall with
        # m anywhere in [0, 1], e > 1/2 included
        with mpmath.workdps(60):
            for e in self.GRID:
                entropies = []
                for m in range(2, 13):
                    x = exact_odd_error_share(e, m - 1)
                    x = mpmath.mpf(x.numerator) / x.denominator
                    entropies.append(-sum(p * mpmath.log(p, 2) for p in (x, 1 - x) if p > 0))
                assert all(b >= a for a, b in zip(entropies, entropies[1:])), e

    def test_farthest_pair_is_least_balanced_in_floats(self):
        # H depends on E_m only through |E_m - 1/2|, which the floats keep
        # from rising with m; the float entropy itself may then jitter by
        # an ulp where it rounds near its maximum 1
        for e in self.GRID:
            marginals = [marginal_qber(e, m) for m in range(2, 13)]
            gaps = [abs(x - 0.5) for x in marginals]
            assert all(b <= a for a, b in zip(gaps, gaps[1:])), e
            entropies = [binary_entropy(x) for x in marginals]
            assert entropies[-1] >= max(entropies) - 2 * math.ulp(1.0), e

    def test_domain(self):
        with pytest.raises(ParameterError):
            marginal_qber(0.1, 1)
        with pytest.raises(ParameterError):
            marginal_qber(1.2, 3)


class TestQberStar:
    def test_no_error_sources(self):
        assert qber_star(0.01, 0.0, 0.0) == 0.0

    def test_symmetric_misalignment(self):
        a = 0.01
        expected = math.exp(-a / 2.0) * -math.expm1(-a / 2.0) / branch_gain_avg(a, 0.0)
        assert qber_star(a, 0.0, 0.5) == pytest.approx(expected, rel=1e-12)

    def test_matches_click_model_at_equivalent_phase(self):
        # numerator equals the wrong-port probability at sin^2(phi/2) = e*
        a, pd, estar = 0.00866, 1e-7, 0.015
        phi = 2.0 * math.asin(math.sqrt(estar))
        _, wrong = _branch_probability(a, math.log1p(-pd), np.array(phi), np)
        expected = float(wrong) / branch_gain_avg(a, pd)
        assert qber_star(a, pd, estar) == pytest.approx(expected, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ParameterError):
            qber_star(0.01, 0.0, 0.7)
        with pytest.raises(ParameterError, match="branch gain underflowed to 0"):
            qber_star(0.0, 0.0, 0.1)


class TestRatePMQCC:
    def test_benchmark_50km(self, bench_channel, bench_protocol):
        report = rate_pmqcc(bench_protocol, bench_channel)
        assert report.rate == pytest.approx(2.698919965674259e-07, rel=1e-12)
        assert report.sifting_prefactor == pytest.approx((2.0 / 13.0) ** 2)
        assert not report.clamped

    def test_no_transmission_no_rate(self):
        pp = ProtocolParams(n_parties=3, signal_intensity=0.1, slice_count=14)
        ch = ChannelParams(loss_rate=0.2, distance=1e5, detector_efficiency=0.65, dark_count=0.0)
        report = rate_pmqcc(pp, ch)
        assert report.rate == 0.0 and report.gain == 0.0

    def test_negative_margin_is_clamped_when_the_rate_underflows(self):
        # P Q underflows at N=90, so the negative margin leaves a raw rate of -0.0
        pp = ProtocolParams(n_parties=90, signal_intensity=0.01, slice_count=55)
        report = rate_pmqcc(pp, ChannelParams(0.2, 0.0, 0.65, 7.2e-8))
        assert report.clamped
        assert math.copysign(1.0, report.rate) == 1.0 and report.rate == 0.0

    def test_two_party_degeneration(self, bench_channel):
        pp = ProtocolParams(n_parties=2, signal_intensity=0.1333, slice_count=14)
        report = rate_pmqcc(pp, bench_channel)
        assert report.sifting_prefactor == pytest.approx(2.0 / 14.0)
        assert len(report.marginal_qbers) == 1
        arrival = transmittance(bench_channel) * pp.signal_intensity
        assert report.marginal_qbers[0] == pytest.approx(
            branch_qber_avg(arrival, bench_channel.dark_count, 14), rel=1e-12
        )

    def test_max_marginal_at_farthest_pair(self, bench_channel):
        pp = ProtocolParams(n_parties=5, signal_intensity=0.1, slice_count=13)
        report = rate_pmqcc(pp, bench_channel)
        assert max(report.marginal_qbers) == report.marginal_qbers[-1]
        qs = report.marginal_qbers
        assert all(b >= a for a, b in zip(qs, qs[1:]))

    def test_monotone_in_dark_count_and_efficiency(self):
        pp = ProtocolParams(n_parties=3, signal_intensity=0.1333, slice_count=13)
        rates_pd = [
            rate_pmqcc(pp, ChannelParams(0.2, 100.0, 0.65, pd)).rate
            for pd in (0.0, 1e-8, 1e-7, 1e-6)
        ]
        assert all(a >= b for a, b in zip(rates_pd, rates_pd[1:]))
        rates_eta = [
            rate_pmqcc(pp, ChannelParams(0.2, 100.0, eta_d, 7.2e-8)).rate
            for eta_d in (0.2, 0.45, 0.65, 0.93)
        ]
        assert all(b >= a for a, b in zip(rates_eta, rates_eta[1:]))

    def test_gain_consistent_with_yield_oracle(self, bench_channel, bench_protocol):
        report = rate_pmqcc(bench_protocol, bench_channel)
        branches = chain_branches(
            3, bench_protocol.signal_intensity, transmittance(bench_channel), (False, False)
        )
        assert report.gain == pytest.approx(
            enumerated_gain(branches, bench_channel.dark_count), rel=5e-3
        )

    def test_dark_count_floor(self):
        # eta underflows to 0: only dark counts click, and the phase error is
        # the parity mass of the whole virtual source
        pp = ProtocolParams(n_parties=4, signal_intensity=0.1, slice_count=13)
        ch = ChannelParams(0.2, 1e5, 0.65, 1e-6)
        assert transmittance(ch) == 0.0
        report = rate_pmqcc(pp, ch)
        assert report.gain > 0.0
        assert report.phase_error == pytest.approx(parity_split(0.3).p_odd, rel=1e-12)


class TestRateStar:
    def test_prefactor_is_one(self, bench_channel):
        pp = ProtocolParams(
            n_parties=3, signal_intensity=0.1333, slice_count=13, signal_phase_misalignment=0.015
        )
        report = rate_pmqcc(pp, bench_channel, sliced=False)
        assert report.sifting_prefactor == 1.0

    def test_zero_misalignment_two_party(self):
        # e* = 0, p_d = 0, N = 2: R* collapses to Q (1 - H(E_X))
        pp = ProtocolParams(n_parties=2, signal_intensity=0.1, slice_count=14)
        ch = ChannelParams(0.2, 50.0, 0.65, 0.0)
        report = rate_pmqcc(pp, ch, sliced=False)
        from pmqcc import binary_entropy

        assert report.marginal_qbers == (0.0,)
        expected = report.gain * (1.0 - binary_entropy(report.phase_error))
        assert report.rate == pytest.approx(expected, rel=1e-12)

    def test_no_transmission(self):
        pp = ProtocolParams(n_parties=3, signal_intensity=0.1, slice_count=14,
                            signal_phase_misalignment=0.015)
        ch = ChannelParams(0.2, 1e5, 0.65, 0.0)
        assert rate_pmqcc(pp, ch, sliced=False).rate == 0.0

    def test_beats_sliced_protocol_at_benchmark(self, bench_channel):
        pp = ProtocolParams(
            n_parties=3, signal_intensity=0.1333, slice_count=13, signal_phase_misalignment=0.015
        )
        assert rate_pmqcc(pp, bench_channel, sliced=False).rate > rate_pmqcc(pp, bench_channel).rate


class TestRateReduced:
    def test_no_boundaries_degenerates(self, bench_channel, bench_protocol):
        full = rate_pmqcc(bench_protocol, bench_channel)
        red = rate_pmqcc(bench_protocol, bench_channel, boundaries=(False, False))
        assert red.rate == full.rate
        assert red.phase_error == full.phase_error

    def test_table_values(self):
        for distance, mu, expected in [
            (50.0, 0.1059, 1.705960609777983e-07),
            (100.0, 0.1032, 1.6151629922769103e-09),
        ]:
            pp = ProtocolParams(n_parties=3, signal_intensity=mu, slice_count=13)
            report = rate_pmqcc(pp, bench_channel_at(distance), boundaries=(False, True))
            assert report.rate == pytest.approx(expected, rel=1e-12)

    def test_boundary_lowers_rate(self, bench_channel, bench_protocol):
        full = rate_pmqcc(bench_protocol, bench_channel)
        red = rate_pmqcc(bench_protocol, bench_channel, boundaries=(False, True))
        assert red.rate < full.rate
        # gains agree (arrivals unchanged); the loss is in the phase error
        assert red.gain == pytest.approx(full.gain, rel=1e-12)
        assert red.phase_error > full.phase_error

    def test_dark_count_floor_uses_reduced_virtual_source(self):
        # a broken end sends mu instead of mu/2, so at eta = 0 the parity
        # mass is that of (N-1) mu + mu/2
        pp = ProtocolParams(n_parties=4, signal_intensity=0.1, slice_count=13)
        ch = ChannelParams(0.2, 1e5, 0.65, 1e-6)
        report = rate_pmqcc(pp, ch, boundaries=(False, True))
        assert report.phase_error == pytest.approx(parity_split(0.35).p_odd, rel=1e-12)


class TestScalingExponent:
    def test_benchmark_rows(self):
        slope = scaling_exponent([(50.0, 2.6989e-7), (100.0, 2.5332e-9), (150.0, 2.2928e-11)])
        assert slope == pytest.approx(-0.0407, abs=5e-4)

    def test_two_point_slope(self):
        slope = scaling_exponent([(50.0, 2.6989e-7), (150.0, 2.2928e-11)])
        assert slope == pytest.approx(-0.04070820620264733, rel=1e-9)

    def test_constant_rates(self):
        assert scaling_exponent([(10.0, 1e-5), (20.0, 1e-5), (30.0, 1e-5)]) == pytest.approx(0.0, abs=1e-12)

    def test_zero_rate_points_dropped(self):
        slope = scaling_exponent([(50.0, 2.6989e-7), (150.0, 2.2928e-11), (400.0, 0.0)])
        assert slope == pytest.approx(-0.04070820620264733, rel=1e-9)

    def test_insufficient_points(self):
        with pytest.raises(InsufficientDataError):
            scaling_exponent([(50.0, 1e-7)])
        with pytest.raises(InsufficientDataError):
            scaling_exponent([(50.0, 1e-7), (60.0, 0.0)])
        with pytest.raises(InsufficientDataError, match="at least 2 distinct distances"):
            scaling_exponent([(50.0, 1e-7), (50.0, 2e-7)])

    def test_matches_numpy_least_squares(self):
        rng = random.Random(3)
        for _ in range(50):
            points = [(rng.uniform(0.0, 300.0), 10.0 ** rng.uniform(-20.0, -2.0))
                      for _ in range(rng.randint(2, 12))]
            ls, rs = np.array(points).T
            expected = np.polyfit(ls, np.log10(rs), 1)[0]
            assert scaling_exponent(points) == pytest.approx(expected, rel=1e-9, abs=1e-12)


def reference_rate(pp, ch, sliced, boundaries, phase_error=None) -> float:
    """The rate assembly over the parameter records in one piece, as it read
    before the float kernel was split out of it."""
    n = pp.n_parties
    eta = transmittance(ch)
    arrival = eta * pp.signal_intensity
    prefactor = (2.0 / pp.slice_count) ** (n - 1) if sliced else 1.0
    branch_gain = branch_gain_avg(arrival, ch.dark_count)
    if branch_gain == 0.0:
        return 0.0
    gain = branch_gain ** (n - 1)
    if sliced:
        branch_e = branch_qber_avg(arrival, ch.dark_count, pp.slice_count)
    else:
        branch_e = qber_star(arrival, ch.dark_count, pp.signal_phase_misalignment)
    marginals = [marginal_qber(branch_e, m) for m in range(2, n + 1)]
    if phase_error is None:
        branches = chain_branches(n, pp.signal_intensity, eta, boundaries)
        phase_error = parity_phase_error(branches, ch.dark_count)
    leak = pp.ec_efficiency * max(binary_entropy(e) for e in marginals)
    return max(prefactor * gain * (1.0 - (leak + binary_entropy(phase_error))), 0.0)


class TestRateKernel:
    LAYOUTS = ((False, False), (False, True), (True, False), (True, True))

    def draw(self, rng):
        """A random rate point: N=2-12, mu over the optimizer's window,
        M=3-64, distances past where the rate reaches 0, p_d from 0 to
        1e-3, any broken ends, and the starred variant with its signal
        misalignment; a quarter of the draws charge a given phase error."""
        n = rng.randint(2, 12)
        star = rng.random() < 0.25
        pp = ProtocolParams(
            n_parties=n,
            signal_intensity=MU_BOUNDS[0] * (MU_BOUNDS[1] / MU_BOUNDS[0]) ** rng.random(),
            slice_count=rng.randint(3, 64),
            ec_efficiency=rng.choice((1.0, 1.16, 1.5)),
            signal_phase_misalignment=rng.uniform(0.0, 0.1) if star else 0.0,
        )
        ch = ChannelParams(0.2, rng.uniform(0.0, 500.0 / (n - 1)), 0.65,
                           rng.choice((0.0, 7.2e-8, 1e-3)))
        ends = rng.choice(self.LAYOUTS)
        given = rng.uniform(0.0, 0.5) if rng.random() < 0.25 else None
        return pp, ch, not star, ends, given

    def test_randomized_draws_are_bitwise(self):
        rng = random.Random(20)
        outcomes = set()
        for _ in range(400):
            pp, ch, sliced, ends, given = self.draw(rng)
            prefactor, misalignment = slice_constants(pp, sliced)
            terms = intensity_terms(
                pp.n_parties, pp.signal_intensity, ch.dark_count, transmittance(ch), ends, given
            )
            raw, e = slice_rate(terms, pp.ec_efficiency, prefactor, misalignment, sliced)
            report = rate_pmqcc(pp, ch, sliced=sliced, boundaries=ends, phase_error=given)
            assert max(raw, 0.0) == report.rate == reference_rate(pp, ch, sliced, ends, given)
            assert (report.gain, report.marginal_qbers, report.phase_error) == (
                terms[5], tuple(marginal_qber(e, k) for k in range(2, pp.n_parties + 1)), terms[6])
            outcomes.add("positive" if raw > 0.0 else "zero")
        assert outcomes == {"positive", "zero"}

    def test_intensity_terms_serve_every_slice_count(self):
        # the split the signal optimizer relies on: terms computed once at
        # an intensity give, for any M, the rate of the one-piece assembly
        rng = random.Random(21)
        for _ in range(200):
            pp, ch, sliced, ends, given = self.draw(rng)
            n, mu, f, pd, eta = (pp.n_parties, pp.signal_intensity, pp.ec_efficiency,
                                 ch.dark_count, transmittance(ch))
            terms = intensity_terms(n, mu, pd, eta, ends, given)
            for m in {pp.slice_count, 3, rng.randint(4, 64)}:
                pp_m = ProtocolParams(
                    pp.n_parties, pp.signal_intensity, m, pp.ec_efficiency, pp.decoy_intensities,
                    pp.signal_phase_misalignment,
                )
                prefactor, misalignment = slice_constants(pp_m, sliced)
                raw, e = slice_rate(terms, f, prefactor, misalignment, sliced)
                report = rate_pmqcc(pp_m, ch, sliced=sliced, boundaries=ends, phase_error=given)
                assert max(raw, 0.0) == report.rate == reference_rate(pp_m, ch, sliced, ends, given)
                arrival = eta * mu
                if sliced:
                    assert e == branch_qber_avg(arrival, pd, m)
                else:
                    assert e == qber_star(arrival, pd, pp.signal_phase_misalignment)
                assert (report.gain, report.marginal_qbers, report.phase_error) == (
                    terms[5], tuple(marginal_qber(e, k) for k in range(2, n + 1)), terms[6])

    @pytest.mark.parametrize("given", [None, 0.3])
    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_zero_light_splits_like_the_kernel(self, n, given):
        # no dark counts and an eta that underflows: the branch gain is 0
        ch = ChannelParams(0.2, 100_000.0, 0.65, 0.0)
        eta = transmittance(ch)
        terms = intensity_terms(n, 0.1, 0.0, eta, (False, True), given)
        assert terms[3] == 0.0
        for sliced, constants in ((True, ((2.0 / 13) ** (n - 1), 0.01)), (False, (1.0, 0.02))):
            assert slice_rate(terms, 1.16, *constants, sliced) == (0.0, 0.0)
            pp = ProtocolParams(n, 0.1, 13, signal_phase_misalignment=0.02)
            report = rate_pmqcc(pp, ch, sliced=sliced, boundaries=(False, True), phase_error=given)
            fields = (report.rate, report.gain, report.marginal_qbers, report.phase_error)
            assert fields == (0.0, 0.0, (0.0,) * (n - 1), 0.0)
            # +0.0 throughout, as the kernel's zero-gain return
            assert all(math.copysign(1.0, q) > 0.0 for q in report.marginal_qbers)

    def test_slice_step_checks_the_branch_qber(self):
        terms = intensity_terms(3, 0.1, 7.2e-8, 0.1, (False, False))
        # a misalignment past 1/2 is no slice count's; the sliced QBER
        # then leaves [0, 1]
        with pytest.raises(ParameterError, match="branch QBER"):
            slice_rate(terms, 1.16, 1.0, 200.0, True)

    def test_named_variants_are_the_kernel(self, bench_channel):
        pp = ProtocolParams(n_parties=4, signal_intensity=0.1, slice_count=13,
                            signal_phase_misalignment=0.02)
        eta = transmittance(bench_channel)
        pd = bench_channel.dark_count

        def kernel(sliced, ends):
            prefactor, misalignment = slice_constants(pp, sliced)
            terms = intensity_terms(4, 0.1, pd, eta, ends)
            raw = slice_rate(terms, pp.ec_efficiency, prefactor, misalignment, sliced)[0]
            return max(raw, 0.0)

        assert rate_pmqcc(pp, bench_channel).rate == kernel(True, (False, False))
        assert rate_pmqcc(pp, bench_channel, sliced=False).rate == kernel(False, (False, False))
        assert rate_pmqcc(pp, bench_channel, boundaries=(True, False)).rate == kernel(True, (True, False))

    def test_constants(self):
        pp = ProtocolParams(n_parties=3, signal_intensity=0.1, slice_count=2,
                            signal_phase_misalignment=0.02)
        assert slice_constants(pp, sliced=False) == (1.0, 0.02)
        with pytest.raises(ParameterError, match="slice_count >= 3"):
            slice_constants(pp)

    def test_rate_names_are_rate_assemblies(self):
        # bench/tracer.py averages every keyrate.rate_* call into
        # keyrate.call_us, so only a function that returns a RateReport
        # takes that prefix
        names = [name for name in keyrate.__all__ if name.startswith("rate_")]
        assert names
        for name in names:
            signature = inspect.signature(getattr(keyrate, name), eval_str=True)
            assert signature.return_annotation is RateReport, name
