import math

import numpy as np
import pytest

from pmqcc import (
    ChannelParams,
    InsufficientDataError,
    ParameterError,
    ProtocolParams,
    SimConfig,
    SimTally,
    estimate,
    run_rounds,
    tally_expectation,
    transmittance,
)
from pmqcc.montecarlo import MODES, _branch_probabilities, _candidate_bound
from tests.transfer_matrix import expected_tally


def protocol(m=14, mu=0.1333, n=3):
    return ProtocolParams(n_parties=n, signal_intensity=mu, slice_count=m)


def channel(distance=10.0, pd=7.2e-8):
    return ChannelParams(loss_rate=0.2, distance=distance, detector_efficiency=0.65, dark_count=pd)


class TestConfigValidation:
    def test_odd_slice_count_rejected(self):
        sc = SimConfig(rounds=100, seed=1)
        with pytest.raises(ParameterError):
            run_rounds(protocol(m=13), channel(), sc)

    def test_bad_mode(self):
        with pytest.raises(ParameterError):
            SimConfig(rounds=100, seed=1, mode="bogus")

    def test_offset_arity(self):
        sc = SimConfig(rounds=100, seed=1, reference_offsets=(0.1,))
        with pytest.raises(ParameterError):
            run_rounds(protocol(), channel(), sc)


class TestDeterminism:
    def test_identical_runs(self):
        sc = SimConfig(rounds=200_000, seed=42)
        t1 = run_rounds(protocol(), channel(), sc)
        t2 = run_rounds(protocol(), channel(), sc)
        assert t1.to_dict() == t2.to_dict()

    def test_worker_count_invariance(self):
        sc = SimConfig(rounds=300_000, seed=7)
        t1 = run_rounds(protocol(), channel(), sc, workers=1)
        t3 = run_rounds(protocol(), channel(), sc, workers=3)
        assert t1.to_dict() == t3.to_dict()

    def test_seed_changes_tally(self):
        t1 = run_rounds(protocol(), channel(), SimConfig(rounds=100_000, seed=1))
        t2 = run_rounds(protocol(), channel(), SimConfig(rounds=100_000, seed=2))
        assert t1.to_dict() != t2.to_dict()


class TestTally:
    def test_counts_nest(self):
        tally = run_rounds(protocol(), channel(), SimConfig(rounds=150_000, seed=3))
        assert tally.success <= tally.sifted <= tally.sent
        assert sum(tally.pattern_counts.values()) == tally.success
        assert set(len(k) for k in tally.pattern_counts) == {2}

    def test_json_export_schema(self):
        import json

        tally = run_rounds(protocol(), channel(), SimConfig(rounds=50_000, seed=3))
        payload = json.loads(json.dumps(tally.to_dict()))
        for key in ("sent", "sifted", "success", "pattern_counts", "pair_errors",
                    "seed", "mode", "n_parties", "slice_count", "sifting_probability"):
            assert key in payload
        assert payload["seed"] == 3
        assert set(payload["pattern_counts"]) <= {"LL", "LR", "RL", "RR"}

    def test_merge_is_union(self):
        a = run_rounds(protocol(), channel(), SimConfig(rounds=80_000, seed=5))
        b = run_rounds(protocol(), channel(), SimConfig(rounds=90_000, seed=6))
        ab = a.merge(b)
        ba = b.merge(a)
        d_ab, d_ba = ab.to_dict(), ba.to_dict()
        d_ab.pop("seed"), d_ba.pop("seed")  # run metadata follows the left operand
        assert d_ab == d_ba  # counts merge commutatively
        assert ab.sent == a.sent + b.sent
        assert ab.success == a.success + b.success
        for key in set(a.pattern_counts) | set(b.pattern_counts):
            assert ab.pattern_counts[key] == a.pattern_counts.get(key, 0) + b.pattern_counts.get(key, 0)

    def test_merge_rejects_mismatched_configs(self):
        a = run_rounds(protocol(), channel(), SimConfig(rounds=1000, seed=5))
        b = run_rounds(protocol(m=16), channel(), SimConfig(rounds=1000, seed=5))
        with pytest.raises(ParameterError):
            a.merge(b)


class TestSifting:
    def test_full_random_fraction(self):
        # each adjacent pair passes with probability 2/M (offset 0 or M/2),
        # pairs are independent: fraction (2/M)^(N-1)
        m, n, rounds = 8, 3, 1_000_000
        tally = run_rounds(
            protocol(m=m), channel(), SimConfig(rounds=rounds, seed=11, mode="full-random")
        )
        expected = (2.0 / m) ** (n - 1)
        sigma = math.sqrt(expected * (1.0 - expected) / rounds)
        assert abs(tally.sifted / rounds - expected) < 3.0 * sigma

    def test_forced_matching_sifts_everything(self):
        tally = run_rounds(protocol(), channel(), SimConfig(rounds=50_000, seed=12))
        assert tally.sifted == tally.sent
        assert tally.sifting_probability == pytest.approx((2.0 / 14.0) ** 2)


class TestAgreementWithAnalytics:
    def test_gain_and_qbers_within_3_sigma(self):
        pp, ch = protocol(), channel()
        tally = run_rounds(pp, ch, SimConfig(rounds=400_000, seed=21))
        est = estimate(tally)
        gain, pair_errors = tally_expectation(pp, ch)
        assert abs(est.gain - gain) < 3.0 * math.sqrt(gain * (1.0 - gain) / tally.sifted)
        for m in (2, 3):
            expected = pair_errors[m]
            sigma = math.sqrt(expected * (1.0 - expected) / tally.success)
            assert abs(est.pair_qbers[m] - expected) < 3.0 * sigma

    def test_exact_matching_without_darks_is_error_free(self):
        pp = protocol(m=2_000_000)
        ch = channel(pd=0.0)
        tally = run_rounds(pp, ch, SimConfig(rounds=300_000, seed=31))
        assert tally.success > 0
        assert all(v == 0 for v in tally.pair_errors.values())


def at_arrival(n: int, arrival: float, dark_count: float, slice_count: int):
    """Records whose channel delivers exactly ``arrival`` per branch."""
    pp = ProtocolParams(n_parties=n, signal_intensity=arrival, slice_count=slice_count)
    ch = ChannelParams(loss_rate=0.2, distance=0.0, detector_efficiency=1.0, dark_count=dark_count)
    return pp, ch


class TestTallyExpectation:
    @pytest.mark.parametrize("n,a,pd,m", [
        (3, 0.0547, 7.2e-8, 14), (3, 0.325, 7.2e-8, 6), (4, 3.0, 0.01, 2),
        (5, 0.195, 7.2e-8, 4), (6, 0.1, 1e-6, 8),
    ])
    def test_chains_match_transfer_matrix(self, n, a, pd, m):
        success, pair_errors = tally_expectation(*at_arrival(n, a, pd, m))
        expect = expected_tally(n, a, pd, m, k=2048)
        assert success == pytest.approx(expect["success"], rel=1e-6)
        assert pair_errors.keys() == expect["pair_error"].keys()
        for p, q in expect["pair_error"].items():
            assert pair_errors[p] == pytest.approx(q, rel=1e-6)

    def test_no_light_and_no_darks(self):
        success, pair_errors = tally_expectation(protocol(m=4), channel(distance=20_000.0, pd=0.0))
        assert success == 0.0 and pair_errors == {2: 0.0, 3: 0.0}


def within_5_sigma(count: int, trials: int, p: float) -> bool:
    return abs(count - trials * p) <= 5.0 * math.sqrt(trials * p * (1.0 - p))


class TestThinning:
    @pytest.mark.parametrize("a", [0.0, 1e-9, 0.05, 1.0, 10.0])
    @pytest.mark.parametrize("pd", [0.0, 7.2e-8, 0.1])
    def test_one_click_probability_is_bounded_tightly(self, a, pd):
        phi = np.linspace(-2.0 * math.pi, 2.0 * math.pi, 4001)
        p_one, p_right = _branch_probabilities(a, pd, phi)
        bound = _candidate_bound(a, pd)
        # up to a few ulps of rounding in the two evaluations
        assert np.all(p_one <= bound * (1.0 + 4.0 * np.finfo(float).eps))
        assert np.all(p_right <= p_one)
        assert p_one[2000] == pytest.approx(bound, rel=1e-15)  # phi = 0

    @pytest.mark.parametrize("n", [3, 4])
    def test_high_arrival_counts_match_transfer_matrix(self, n):
        # a = 3 at M = 2: p_one / c spans 0.36-1 and the wrong-port rate is
        # large, so both the acceptance and the R-port rule are exercised
        pp = protocol(m=2, mu=3.0, n=n)
        ch = ChannelParams(loss_rate=0.2, distance=0.0, detector_efficiency=1.0, dark_count=0.01)
        tally = run_rounds(pp, ch, SimConfig(rounds=200_000, seed=61))
        expect = expected_tally(n, 3.0, 0.01, 2)
        assert within_5_sigma(tally.success, tally.sifted, expect["success"])
        assert len(tally.pattern_counts) == 2 ** (n - 1)
        for count in tally.pattern_counts.values():
            assert within_5_sigma(count, tally.success, expect["pattern"])
        for p, q in expect["pair_error"].items():
            assert within_5_sigma(tally.pair_errors[p], tally.success, q)

    def test_modes_agree_on_success_per_sifted_round(self):
        pp = protocol(m=4, mu=3.0)
        ch = ChannelParams(loss_rate=0.2, distance=0.0, detector_efficiency=1.0, dark_count=0.01)
        forced = run_rounds(pp, ch, SimConfig(rounds=100_000, seed=62))
        full = run_rounds(pp, ch, SimConfig(rounds=400_000, seed=63, mode="full-random"))
        p_forced, p_full = forced.success / forced.sifted, full.success / full.sifted
        pooled = (forced.success + full.success) / (forced.sifted + full.sifted)
        sigma = math.sqrt(pooled * (1.0 - pooled) * (1.0 / forced.sifted + 1.0 / full.sifted))
        assert abs(p_forced - p_full) < 5.0 * sigma

    @pytest.mark.parametrize("mode", MODES)
    def test_no_light_and_no_darks_never_succeeds(self, mode):
        ch = ChannelParams(loss_rate=0.2, distance=20_000.0, detector_efficiency=0.65, dark_count=0.0)
        assert transmittance(ch) == 0.0
        tally = run_rounds(protocol(m=4), ch, SimConfig(rounds=200_000, seed=64, mode=mode))
        assert tally.sifted > 0
        assert tally.success == 0 and tally.pattern_counts == {}


class TestCompensation:
    def test_compensated_offsets_match_baseline(self):
        # physical deviations equal to whole slices, cancelled by the
        # adjusted indices j_a = -delta M / (2 pi): QBER statistics must be
        # indistinguishable from the aligned run
        m = 16
        deltas = (2.0 * math.pi * 5.0 / m, 2.0 * math.pi * 3.0 / m)
        comp = (-5 % m, -3 % m)
        pp, ch = protocol(m=m), channel()
        base = run_rounds(pp, ch, SimConfig(rounds=400_000, seed=41))
        shifted = run_rounds(
            pp, ch,
            SimConfig(rounds=400_000, seed=41, reference_offsets=deltas, compensation_indices=comp),
        )
        eb, es = estimate(base), estimate(shifted)
        for m_idx in (2, 3):
            p = eb.pair_qbers[m_idx]
            sigma = math.sqrt(max(p * (1.0 - p), 1e-12) / base.success)
            assert abs(es.pair_qbers[m_idx] - p) < 3.0 * sigma

    def test_uncompensated_offset_degrades_qber(self):
        m = 16
        deltas = (2.0 * math.pi * 5.0 / m, 0.0)
        pp, ch = protocol(m=m), channel()
        base = run_rounds(pp, ch, SimConfig(rounds=200_000, seed=51))
        shifted = run_rounds(
            pp, ch, SimConfig(rounds=200_000, seed=51, reference_offsets=deltas)
        )
        assert estimate(shifted).pair_qbers[2] > 10.0 * estimate(base).pair_qbers[2]


class TestEstimate:
    def test_insufficient_data(self):
        tally = SimTally(n_parties=3, slice_count=14, sent=100, sifted=100, success=0)
        with pytest.raises(InsufficientDataError):
            estimate(tally)

    def test_synthetic_tally_arithmetic(self):
        tally = SimTally(
            n_parties=3, slice_count=14, sent=10_000_000, sifted=500_000, success=10_000,
            pair_errors={2: 120, 3: 180},
        )
        est = estimate(tally)
        assert est.pair_qbers[3] == pytest.approx(0.018)
        assert est.pair_qbers[2] == pytest.approx(0.012)
        assert est.gain == pytest.approx(0.02)
        assert 0.0 < est.pair_halfwidths[3] < 0.005
        assert est.phase_error is None

    def test_merged_estimates_match_union(self):
        a = SimTally(n_parties=3, slice_count=14, sent=1000, sifted=500, success=100,
                     pair_errors={2: 5, 3: 9})
        b = SimTally(n_parties=3, slice_count=14, sent=3000, sifted=1500, success=300,
                     pair_errors={2: 10, 3: 21}, pattern_counts={"LL": 300})
        merged = estimate(a.merge(b))
        assert merged.gain == pytest.approx(400 / 2000)
        assert merged.pair_qbers[2] == pytest.approx(15 / 400)
        assert merged.pair_qbers[3] == pytest.approx(30 / 400)
