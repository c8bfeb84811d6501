import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from pmqcc import (
    ChannelParams,
    DecoyGains,
    DegenerateGeometryError,
    InsufficientIntensitiesError,
    ParameterError,
    PMQCCError,
    ProtocolParams,
    decoy_bounds,
    n_cut_for,
    phase_error_upper,
    rate_lower,
    rate_pmqcc,
    simulate_decoy_gains,
    transmittance,
    yields_lower_general,
)
from pmqcc.decoy import _fused_dot
from pmqcc.keyrate import chain_branches, parity_phase_error
from tests.conftest import bench_channel_at
from tests.enumeration import enumerated_yields, poisson_weight, yield_probability
from tests.three_party_ladder import y2_lower_3party

ANCHOR_DECOYS = (0.0204583, 0.0182017, 9.27216e-5)
# seven nonzero decoys for N=6, so small that t_max**k underflows to 0
# within the sign guard's checked orders
TINY_DECOYS = (1e-10, 1e-11, 1e-12, 1e-13, 1e-14, 1e-15, 1e-16, 0.0)


def anchor_protocol():
    return ProtocolParams(
        n_parties=3, signal_intensity=0.104815, slice_count=13,
        decoy_intensities=ANCHOR_DECOYS + (0.0,),
    )


def forward_gains(intensities, scale, yield_fn, y0):
    """Map true yields to the observable gains through the Poisson mixture."""
    gains = []
    for x in intensities:
        t = scale * x
        k_max = 200
        gains.append(sum(poisson_weight(t, k) * yield_fn(k) for k in range(k_max)))
    return DecoyGains(intensities=tuple(intensities), gains=tuple(gains), vacuum_gain=y0)


class TestNCut:
    def test_rule(self):
        assert n_cut_for(3) == 2
        assert n_cut_for(4) == 4
        assert n_cut_for(5) == 4
        assert n_cut_for(6) == 6


class TestSimulatedGains:
    def test_vacuum_gain_dark_counts(self):
        pp = anchor_protocol()
        ch = bench_channel_at(150.0)
        g = simulate_decoy_gains(pp, ch)
        assert g.vacuum_gain == pytest.approx((2.0 * 7.2e-8 * (1.0 - 7.2e-8)) ** 2, rel=1e-12)
        assert g.vacuum_gain == pytest.approx(2.07e-14, rel=2e-3)

    def test_vacuum_gain_no_darks(self):
        pp = anchor_protocol()
        ch = ChannelParams(0.2, 150.0, 0.65, 0.0)
        assert simulate_decoy_gains(pp, ch).vacuum_gain == 0.0

    def test_gains_follow_branch_product(self):
        pp = anchor_protocol()
        ch = bench_channel_at(150.0)
        g = simulate_decoy_gains(pp, ch)
        from pmqcc import branch_gain_avg

        eta = transmittance(ch)
        for x, q in zip(g.intensities, g.gains):
            assert q == pytest.approx(branch_gain_avg(eta * x, ch.dark_count) ** 2, rel=1e-12)


class TestY2Closed:
    def test_vacuum_only_channel(self):
        # true yields c * delta_{k,0}: every scaled gain equals the vacuum
        # gain and the bound collapses to 0
        c = 0.37
        g = forward_gains(ANCHOR_DECOYS, 2.0, lambda k: c if k == 0 else 0.0, c)
        assert y2_lower_3party(g) == 0.0

    def test_all_zero_gains(self):
        g = DecoyGains(intensities=ANCHOR_DECOYS, gains=(0.0, 0.0, 0.0), vacuum_gain=0.0)
        assert y2_lower_3party(g) == 0.0

    def test_synthetic_truth_is_safe(self):
        yield_fn = lambda k: 1.0 - (1.0 - 1e-6) * 0.9**k
        g = forward_gains(ANCHOR_DECOYS, 2.0, yield_fn, yield_fn(0))
        bound = y2_lower_3party(g)
        assert bound <= yield_fn(2) * (1.0 + 1e-12)
        assert bound == pytest.approx(yield_fn(2), rel=5e-3)  # nearly tight here

    def test_exactness_anchor(self):
        # truth supported on k <= 3 (the eliminated orders): recovery is exact
        truth = {0: 0.01, 1: 0.002, 2: 0.19, 3: 0.3}
        yield_fn = lambda k: truth.get(k, 0.0)
        g = forward_gains(ANCHOR_DECOYS, 2.0, yield_fn, truth[0])
        assert y2_lower_3party(g) == pytest.approx(0.19, rel=1e-10)

    def test_wrong_count_rejected(self):
        g = DecoyGains(intensities=(0.02, 0.01), gains=(1e-8, 1e-9), vacuum_gain=0.0)
        with pytest.raises(InsufficientIntensitiesError):
            y2_lower_3party(g)

    def test_compressed_intensities_degenerate(self):
        # squeezing the decoys toward their mean collapses the elimination
        center = sum(ANCHOR_DECOYS) / 3.0
        squeezed = tuple(center + (x - center) * 1e-3 for x in ANCHOR_DECOYS)
        g = forward_gains(squeezed, 2.0, lambda k: 1.0 - 0.9**k, 0.0)
        with pytest.raises(DegenerateGeometryError):
            y2_lower_3party(g)


class TestGeneralLadder:
    def test_matches_closed_form_for_three_parties(self):
        pp = anchor_protocol()
        g = simulate_decoy_gains(pp, bench_channel_at(150.0))
        closed = y2_lower_3party(g)
        general = yields_lower_general(g, 2.0, 2).y_lower[2]
        assert general == pytest.approx(closed, rel=1e-12)

    def test_synthetic_safety_all_orders(self):
        yield_fn = lambda k: 1.0 - (1.0 - 1e-6) * 0.85**k
        decoys = (0.06, 0.035, 0.02, 0.012, 0.001)
        g = forward_gains(decoys, 3.0, yield_fn, yield_fn(0))
        bounds = yields_lower_general(g, 3.0, 4)
        assert set(bounds.y_lower) == {2, 4}
        for m, bound in bounds.y_lower.items():
            assert bound <= yield_fn(m) * (1.0 + 1e-12)
            assert bound > 0.0

    def test_insufficient_intensities(self):
        g = DecoyGains(intensities=(0.02, 0.01), gains=(1e-8, 1e-9), vacuum_gain=0.0)
        with pytest.raises(InsufficientIntensitiesError):
            yields_lower_general(g, 2.0, 2)

    def test_degenerate_compressed(self):
        center = sum(ANCHOR_DECOYS) / 3.0
        squeezed = tuple(center + (x - center) * 1e-3 for x in ANCHOR_DECOYS)
        g = forward_gains(squeezed, 2.0, lambda k: 1.0 - 0.9**k, 0.0)
        with pytest.raises(DegenerateGeometryError):
            yields_lower_general(g, 2.0, 2)


def fused_dot_oracle(c, x) -> float:
    """Left-to-right fused multiply-add from 0.0: each step's exact value
    a*b + acc rounded once (Fraction to float rounds correctly)."""
    acc = 0.0
    for ci, xi in zip(c, x):
        acc = float(Fraction(ci) * Fraction(xi) + Fraction(acc))
    return acc


def wide_float(rng: random.Random) -> float:
    """Zero a fifth of the time; otherwise either sign, at a magnitude
    near 1 or anywhere from 1e-160 to 1e150, so products reach subnormals
    and pass both ends of the range where Dekker's split is exact."""
    if rng.random() < 0.2:
        return 0.0
    exponent = rng.uniform(-160.0, 150.0) if rng.random() < 0.3 else rng.uniform(-3.0, 3.0)
    return rng.choice((-1.0, 1.0)) * rng.random() * 10.0**exponent


class TestFusedDot:
    @pytest.mark.parametrize("length", range(1, 14))
    def test_matches_sequential_fma_oracle(self, length):
        rng = random.Random(length)
        for _ in range(400):
            c = [wide_float(rng) for _ in range(length)]
            x = [wide_float(rng) for _ in range(length)]
            assert _fused_dot(c, x) == fused_dot_oracle(c, x)

    @pytest.mark.parametrize("a_exp,b_exp,s_exp", [
        pytest.param(-500, -520, -1020, id="subnormal-product"),
        pytest.param(-480, -485, -965, id="below-the-split"),
        pytest.param(500, 495, 995, id="above-the-split"),
        pytest.param(995, -990, 5, id="huge-factor"),
    ])
    def test_matches_oracle_beyond_the_exact_split(self, a_exp, b_exp, s_exp):
        rng = random.Random(a_exp - b_exp)
        for _ in range(300):
            a, b, s = (rng.uniform(-2.0, 2.0) * 2.0**e for e in (a_exp, b_exp, s_exp))
            assert _fused_dot([1.0, a], [s, b]) == fused_dot_oracle([1.0, a], [s, b])

    def test_rounds_each_step_once(self):
        # -p + a*b leaves exactly the rounding error of p = a*b, which a
        # separately rounded product would cancel to 0
        rng = random.Random(7)
        for _ in range(200):
            a, b = rng.uniform(-1.0, 1.0), rng.uniform(-1e3, 1e3)
            error = float(Fraction(a) * Fraction(b) - Fraction(a * b))
            assert _fused_dot([1.0, a], [-(a * b), b]) == error
            assert fused_dot_oracle([1.0, a], [-(a * b), b]) == error


class TestPhaseErrorUpper:
    def test_vacuous_bound(self):
        assert phase_error_upper({2: 0.0}, 0.1, 1e-6, 0.0, 3) == 1.0

    def test_infinite_decoy_surrogate(self):
        # feeding the true even yields as bounds leaves exactly the dropped
        # even tail as the gap above the true phase-error rate
        branches = chain_branches(3, 0.104815, 6.5e-4, (False, False))
        yields = enumerated_yields(branches, 7.2e-8)
        t = 2.0 * 0.104815
        q_oracle = sum(poisson_weight(t, k) * y for k, y in enumerate(yields))
        e_x = parity_phase_error(branches, 7.2e-8)
        y_true = {2: yields[2]}
        e_x_u = phase_error_upper(y_true, 0.104815, q_oracle, yields[0], 3)
        assert e_x_u >= e_x
        dropped = sum(poisson_weight(t, k) * yields[k] for k in range(4, len(yields), 2))
        assert e_x_u - e_x == pytest.approx(dropped / q_oracle, rel=1e-6)

    def test_zero_gain_rejected(self):
        with pytest.raises(ParameterError):
            phase_error_upper({2: 0.1}, 0.1, 0.0, 0.0, 3)


class TestRateLower:
    def test_anchor_value(self):
        report = rate_lower(anchor_protocol(), bench_channel_at(150.0))
        assert report.rate == pytest.approx(1.7327692835214716e-11, rel=1e-12)
        assert report.rate == pytest.approx(1.7327e-11, rel=5e-3)

    def test_bounds_interior_at_anchor(self):
        bounds = decoy_bounds(anchor_protocol(), bench_channel_at(150.0))
        assert 0.0 < bounds.y_lower[2] < 1.0
        assert 0.0 < bounds.phase_error_upper < 1.0
        assert bounds.y_lower[2] == pytest.approx(2.1127418995325462e-07, rel=1e-12)
        assert bounds.phase_error_upper == pytest.approx(0.19238153205320252, rel=1e-12)

    def test_never_beats_infinite_decoy(self):
        for distance in (50.0, 100.0, 150.0):
            for mu in (0.08, 0.104815, 0.13):
                pp = ProtocolParams(
                    n_parties=3, signal_intensity=mu, slice_count=13,
                    decoy_intensities=ANCHOR_DECOYS + (0.0,),
                )
                ch = bench_channel_at(distance)
                assert rate_lower(pp, ch).rate <= rate_pmqcc(pp, ch).rate + 1e-30

    def test_missing_vacuum_rejected(self):
        pp = ProtocolParams(
            n_parties=3, signal_intensity=0.104815, slice_count=13,
            decoy_intensities=ANCHOR_DECOYS,
        )
        with pytest.raises(InsufficientIntensitiesError):
            rate_lower(pp, bench_channel_at(150.0))

    def test_too_few_decoys_rejected(self):
        pp = ProtocolParams(
            n_parties=3, signal_intensity=0.104815, slice_count=13,
            decoy_intensities=(0.02, 0.002, 0.0),
        )
        with pytest.raises(InsufficientIntensitiesError):
            rate_lower(pp, bench_channel_at(150.0))

    def test_four_party_ladder_runs_and_is_safe(self):
        pp = ProtocolParams(
            n_parties=4, signal_intensity=0.1, slice_count=13,
            decoy_intensities=(0.05, 0.03, 0.018, 0.01, 0.001, 0.0),
        )
        ch = bench_channel_at(50.0)
        bounds = decoy_bounds(pp, ch)
        assert set(bounds.y_lower) == {2, 4}
        branches = chain_branches(4, 0.1, transmittance(ch), (False, False))
        e_x = parity_phase_error(branches, ch.dark_count)
        assert bounds.y_lower[2] <= yield_probability(branches, ch.dark_count, 2) * (1.0 + 1e-12)
        assert bounds.y_lower[4] <= yield_probability(branches, ch.dark_count, 4) * (1.0 + 1e-12)
        assert bounds.phase_error_upper >= e_x
        # with three branches the odd orders dominate the gain, pushing the
        # true phase error above 1/2 where H is decreasing; the privacy term
        # is then charged at 1/2
        assert e_x > 0.5
        assert rate_lower(pp, ch).phase_error == 0.5

    def test_underflowing_decoys_raise_a_typed_error(self):
        # the sign guard divides by t_max**k, and used to raise a bare
        # ZeroDivisionError here
        pp = ProtocolParams(n_parties=6, signal_intensity=0.1, slice_count=13,
                            decoy_intensities=TINY_DECOYS)
        with pytest.raises(DegenerateGeometryError, match="underflows"):
            rate_lower(pp, bench_channel_at(10.0))

    def test_overflowing_decoys_raise_a_typed_error(self):
        for decoys in ((40.0, 30.0, 20.0, 0.0), (800.0, 700.0, 600.0, 0.0)):
            pp = ProtocolParams(n_parties=3, signal_intensity=1000.0, slice_count=13,
                                decoy_intensities=decoys)
            with pytest.raises(DegenerateGeometryError, match="overflows"):
                rate_lower(pp, bench_channel_at(10.0))

    def test_random_decoy_sets_fail_typed_only(self):
        # N=3-8, decoys log-uniform from 1e-16 up to the signal: every
        # draw certifies a rate no higher than the exact one or raises a
        # PMQCCError
        rng = random.Random(1016)
        outcomes = Counter()
        for _ in range(600):
            n = rng.randint(3, 8)
            mu = 10.0 ** rng.uniform(-3.0, 0.0)
            decoys = sorted(
                {10.0 ** rng.uniform(-16.0, math.log10(mu)) for _ in range(n_cut_for(n) + 1)},
                reverse=True,
            )
            pp = ProtocolParams(n_parties=n, signal_intensity=mu, slice_count=13,
                                decoy_intensities=(*decoys, 0.0))
            ch = bench_channel_at(rng.uniform(0.0, 100.0))
            try:
                rate = rate_lower(pp, ch).rate
            except PMQCCError as exc:
                outcomes[type(exc).__name__] += 1
                continue
            assert rate <= rate_pmqcc(pp, ch).rate
            outcomes["positive" if rate > 0.0 else "zero"] += 1
        assert outcomes.keys() == {"positive", "zero", "DegenerateGeometryError"}

    @pytest.mark.parametrize("n", [4, 5])
    def test_never_beats_exact_rate_beyond_three_parties(self, n):
        # an upper bound above 1/2 used to lower H(E_X^U) below H(E_X)
        decoys = (0.05, 0.03, 0.018, 0.01, 0.001, 0.0)
        for distance in (0.0, 10.0, 25.0, 50.0):
            for mu in (0.1, 0.2, 0.4):
                pp = ProtocolParams(
                    n_parties=n, signal_intensity=mu, slice_count=13, decoy_intensities=decoys
                )
                ch = bench_channel_at(distance)
                assert rate_lower(pp, ch).rate <= rate_pmqcc(pp, ch).rate
