import json
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from pmqcc import montecarlo
from pmqcc import (
    ChannelParams,
    InsufficientDataError,
    ParameterError,
    ProtocolParams,
    SimConfig,
    SimTally,
    run_rounds,
    tally_expectation,
    transmittance,
)
from pmqcc.montecarlo import (
    MODES,
    _binomial,
    _branch_probability,
    _candidate_bound,
)
from tests.transfer_matrix import expected_tally


def protocol(m=14, mu=0.1333, n=3):
    return ProtocolParams(n_parties=n, signal_intensity=mu, slice_count=m)


def channel(distance=10.0, pd=7.2e-8):
    return ChannelParams(loss_rate=0.2, distance=distance, detector_efficiency=0.65, dark_count=pd)


def pinned_fields(tally, counts: dict) -> dict:
    """The fields of ``tally`` that ``counts`` pins, as ``simulate``
    writes them: the pins key ``pair_errors`` by strings."""
    return json.loads(json.dumps({key: getattr(tally, key) for key in counts}))


class TestConfigValidation:
    def test_odd_slice_count_rejected(self):
        sc = SimConfig(rounds=100, seed=1)
        with pytest.raises(ParameterError):
            run_rounds(protocol(m=13), channel(), sc)

    def test_no_workers_rejected(self):
        with pytest.raises(ParameterError, match="workers must be >= 1, got 0"):
            run_rounds(protocol(), channel(), SimConfig(rounds=100, seed=1), workers=0)

    def test_bad_mode(self):
        with pytest.raises(ParameterError):
            SimConfig(rounds=100, seed=1, mode="bogus")

    def test_offset_arity(self):
        sc = SimConfig(rounds=100, seed=1, reference_offsets=(0.1,))
        with pytest.raises(ParameterError):
            run_rounds(protocol(), channel(), sc)

    def test_more_than_32_parties_rejected(self):
        # a success's id holds 2 (N - 1) bits in an int64
        with pytest.raises(ParameterError, match="at most 32 parties"):
            run_rounds(protocol(n=33), channel(), SimConfig(rounds=100, seed=1))


class TestDeterminism:
    def test_identical_runs(self):
        sc = SimConfig(rounds=200_000, seed=42)
        t1 = run_rounds(protocol(), channel(), sc)
        t2 = run_rounds(protocol(), channel(), sc)
        assert t1 == t2

    def test_worker_count_invariance(self):
        sc = SimConfig(rounds=300_000, seed=7)
        t1 = run_rounds(protocol(), channel(), sc, workers=1)
        t3 = run_rounds(protocol(), channel(), sc, workers=3)
        assert t1 == t3

    def test_seed_changes_tally(self):
        t1 = run_rounds(protocol(), channel(), SimConfig(rounds=100_000, seed=1))
        t2 = run_rounds(protocol(), channel(), SimConfig(rounds=100_000, seed=2))
        assert t1 != t2


class TestTally:
    def test_counts_nest(self):
        tally = run_rounds(protocol(), channel(), SimConfig(rounds=150_000, seed=3))
        assert tally.success <= tally.sifted <= tally.sent
        assert sum(tally.pattern_counts.values()) == tally.success
        assert set(len(k) for k in tally.pattern_counts) == {2}

    def test_json_export_schema(self, tmp_path, capsys):
        from pmqcc.cli import main

        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "parties": 3, "distance_km": 10.0, "alpha_db_per_km": 0.2, "detector_efficiency": 0.65,
            "dark_count": 7.2e-8, "slices": 14, "mu": 0.1333, "seed": 3, "rounds": 50_000,
        }))
        assert main(["simulate", str(config)]) == 0
        payload = json.loads(capsys.readouterr().out)["tally"]
        for key in ("sent", "sifted", "success", "pattern_counts", "pair_errors",
                    "seed", "mode", "n_parties", "slice_count", "sifting_probability"):
            assert key in payload
        assert payload["seed"] == 3
        assert set(payload["pattern_counts"]) <= {"LL", "LR", "RL", "RR"}


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
        gain, pair_errors = tally_expectation(pp, ch)
        assert abs(tally.gain - gain) < 3.0 * math.sqrt(gain * (1.0 - gain) / tally.sifted)
        for m in (2, 3):
            expected = pair_errors[m]
            sigma = math.sqrt(expected * (1.0 - expected) / tally.success)
            assert abs(tally.pair_qbers[m] - expected) < 3.0 * sigma

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

    @pytest.mark.parametrize("m", [4, 6, 14, 32, 64])
    def test_two_parties_match_the_mean_misalignment_closed_form(self, m):
        # a second oracle, independent of the transfer matrix: at N=2 the
        # pair QBER is the branch QBER (p_d + a e_avg) e^-a / Q, with
        # Q = 1 - e^-a + 2 p_d e^-a and e_avg = (1 - (M/pi)^2 sin^2(pi/M)) / 2
        # the mean of s = sin^2(phi/2) over the triangular density of the
        # phase difference.  P(only R) = e^-a (a s + a^2 s^2 / 2 + ...),
        # P(one click) = Q (1 - a s + ...) and, on the triangle,
        # E[s^2] = (12/5) e_avg E[s], so the exact QBER lies above the
        # closed form by 2.2 a e_avg relative to first order; 2.3 leaves
        # room for the higher orders at a <= 0.65.
        e_avg = (1.0 - (m / math.pi) ** 2 * math.sin(math.pi / m) ** 2) / 2.0
        for distance in (0.0, 50.0, 100.0, 200.0):
            for mu in (0.01, 0.1, 1.0):
                pp, ch = protocol(m=m, mu=mu, n=2), channel(distance=distance)
                a, pd = transmittance(ch) * mu, ch.dark_count
                gain = -math.expm1(-a) + 2.0 * pd * math.exp(-a)
                closed = (pd + a * e_avg) * math.exp(-a) / gain
                gap = tally_expectation(pp, ch)[1][2] / closed - 1.0
                assert -1e-12 <= gap <= 2.3 * a * e_avg + 1e-12, (distance, mu)


def within_5_sigma(count: int, trials: int, p: float) -> bool:
    return abs(count - trials * p) <= 5.0 * math.sqrt(trials * p * (1.0 - p))


class TestThinning:
    @pytest.mark.parametrize("a", [0.0, 1e-9, 0.05, 1.0, 10.0])
    @pytest.mark.parametrize("pd", [0.0, 7.2e-8, 0.1])
    def test_one_click_probability_is_bounded_tightly(self, a, pd):
        phi = np.linspace(-2.0 * math.pi, 2.0 * math.pi, 4001)
        vectorized = _branch_probability(a, math.log1p(-pd), phi, np)
        # the stdlib kernel's calls on math, on the same grid
        scalar = np.array([_branch_probability(a, math.log1p(-pd), x) for x in phi]).T
        bound = _candidate_bound(a, pd)
        for p_one, p_right in (vectorized, scalar):
            # up to a few ulps of rounding in the two evaluations
            assert np.all(p_one <= bound * (1.0 + 4.0 * np.finfo(float).eps))
            assert np.all(p_right <= p_one)
            assert p_one[2000] == pytest.approx(bound, rel=1e-15)  # phi = 0
        for twin, reference in zip(scalar, vectorized):
            assert np.all(np.abs(twin - reference) <= 4.0 * np.spacing(np.abs(reference)))

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


def binomial_pmf(n: int, p: float, k: int) -> float:
    return math.exp(
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * math.log(p) + (n - k) * math.log1p(-p)
    )


def chi_square_bound(df: int, z: float = 5.0) -> float:
    """The chi-square quantile ~z sigma above its mean (Wilson-Hilferty)."""
    h = 2.0 / (9.0 * df)
    return df * (1.0 - h + z * math.sqrt(h)) ** 3


class TestBinomial:
    # the chunk-sized (n, p) of the stdlib kernel: candidate counts at
    # N=3 and N=4 in both sampling regimes, and the p > 1/2 reflection
    @pytest.mark.parametrize("n,p", [
        (65_536, 0.111), (7_282, 0.0038), (65_536, 0.0021), (65_536, 1e-4), (20, 0.9),
    ])
    def test_matches_the_exact_distribution(self, n, p):
        rng = random.Random(f"binomial:{n}:{p}")
        draws = [_binomial(rng, n, p) for _ in range(20_000)]
        size = len(draws)
        mean = n * p
        var = n * p * (1.0 - p)
        fourth = var * (1.0 + 3.0 * (n - 2) * p * (1.0 - p))  # central moment
        sample_mean = sum(draws) / size
        sample_var = sum((k - sample_mean) ** 2 for k in draws) / (size - 1)
        assert abs(sample_mean - mean) <= 5.0 * math.sqrt(var / size)
        assert abs(sample_var - var) <= 5.0 * math.sqrt((fourth - var * var) / size)

        # chi-square over bins of k holding an expected count of at least 5
        observed = [0] * (n + 1)
        for k in draws:
            observed[k] += 1
        bins, expected, seen = [], 0.0, 0
        for k in range(n + 1):
            expected += size * binomial_pmf(n, p, k)
            seen += observed[k]
            if expected >= 5.0:
                bins.append((expected, seen))
                expected, seen = 0.0, 0
        last_expected, last_seen = bins.pop()
        bins.append((last_expected + expected, last_seen + seen))
        chi_square = sum((o - e) ** 2 / e for e, o in bins)
        assert len(bins) > 5
        assert chi_square <= chi_square_bound(len(bins) - 1)

    def test_edge_cases(self):
        rng = random.Random(5)
        assert _binomial(rng, 1000, 0.0) == 0
        assert _binomial(rng, 1000, 1.0) == 1000
        assert _binomial(rng, 0, 0.3) == 0


def expected_candidates(pp: ProtocolParams, ch: ChannelParams, sc: SimConfig) -> float:
    n = pp.n_parties
    sifting = (2.0 / pp.slice_count) ** (n - 1) if sc.mode == "full-random" else 1.0
    bound = _candidate_bound(transmittance(ch) * pp.signal_intensity, ch.dark_count)
    return sc.rounds * sifting * bound ** (n - 1)


class TestKernels:
    """Runs below ``_numpy_threshold`` expected candidates take the stdlib
    kernel, the others the numpy kernel."""

    # (N, chunks, E[K], the kernel whose `simulate` process was faster by
    # 20 ms or more), timed with the kernel forced on 2 cores
    TIMED = [
        (3, 16, 228_440, "numpy"),
        (3, 25, 50_000, "stdlib"), (3, 35, 70_000, "stdlib"), (3, 44, 90_000, "stdlib"),
        (3, 245, 64_543, "stdlib"), (3, 245, 89_915, "stdlib"), (3, 245, 119_098, "stdlib"),
        (3, 567, 100_000, "stdlib"), (3, 736, 130_000, "stdlib"), (3, 906, 160_000, "stdlib"),
        (3, 3057, 60_000, "stdlib"), (3, 6114, 120_000, "stdlib"),
        (4, 6, 40_000, "stdlib"), (4, 9, 60_000, "stdlib"),
        (4, 2231, 40_000, "stdlib"), (4, 3347, 60_000, "stdlib"),
    ]

    @pytest.mark.parametrize("n,chunks,candidates,faster", TIMED)
    def test_threshold_picks_the_faster_kernel(self, n, chunks, candidates, faster):
        numpy = candidates >= montecarlo._numpy_threshold(n, chunks)
        assert ("numpy" if numpy else "stdlib") == faster

    def test_stdlib_kernel_runs_on_one_thread(self, monkeypatch):
        # it holds the interpreter lock, so a pool would only add contention
        def no_pool(*args, **kwargs):
            raise AssertionError("the stdlib kernel started a thread pool")

        # the simulator imports the pool where it starts one
        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", no_pool)
        pp, ch = protocol(m=16), channel()
        sc = SimConfig(rounds=200_000, seed=5)
        assert expected_candidates(pp, ch, sc) < montecarlo._numpy_threshold(3, 4)
        assert run_rounds(pp, ch, sc, workers=2) == run_rounds(pp, ch, sc)

    # the corners of the bench's monte-carlo draws (bench/workloads.py):
    # (N, M, km, rounds, mode) at mu 0.16, the top of its draw, and at each
    # draw's least distance, where E[K] is largest
    BENCH_CORNERS = [
        (3, 14, 10.0, 16_000_000, "forced-matching"),
        (4, 10, 0.0, 10_000_000, "forced-matching"),
        (3, 6, 5.0, 36_000_000, "full-random"),
    ]

    @pytest.mark.parametrize("n,m,distance,rounds,mode", BENCH_CORNERS)
    def test_bench_draws_take_the_stdlib_kernel(self, n, m, distance, rounds, mode):
        # importing numpy takes a process to ~27 MB RSS, against ~16 MB for
        # a stdlib `simulate`; the bench's peak_rss_mb, bounded at 5 %,
        # reads ~20 MB, the peak of `bench/run.py` itself, which a numpy
        # op would exceed
        pp, ch = protocol(m=m, mu=0.16, n=n), channel(distance=distance)
        sc = SimConfig(rounds=rounds, seed=1, mode=mode)
        chunks = -(-rounds // montecarlo.CHUNK_SIZE)
        assert expected_candidates(pp, ch, sc) < montecarlo._numpy_threshold(n, chunks)

    @pytest.mark.parametrize("n", [3, 4])
    def test_stdlib_kernel_at_high_arrival_matches_transfer_matrix(self, monkeypatch, n):
        # TestThinning's high-arrival runs take the numpy kernel
        monkeypatch.setattr(montecarlo, "NUMPY_CANDIDATES", math.inf)
        pp = protocol(m=2, mu=3.0, n=n)
        ch = ChannelParams(loss_rate=0.2, distance=0.0, detector_efficiency=1.0, dark_count=0.01)
        tally = run_rounds(pp, ch, SimConfig(rounds=60_000, seed=65))
        expect = expected_tally(n, 3.0, 0.01, 2)
        assert within_5_sigma(tally.success, tally.sifted, expect["success"])
        assert len(tally.pattern_counts) == 2 ** (n - 1)
        for count in tally.pattern_counts.values():
            assert within_5_sigma(count, tally.success, expect["pattern"])
        for p, q in expect["pair_error"].items():
            assert within_5_sigma(tally.pair_errors[p], tally.success, q)

    @pytest.mark.parametrize("kernel", ["stdlib", "numpy"])
    def test_branches_share_their_parties_positions(self, monkeypatch, kernel):
        # at N=6, M=6, a=10 a candidate succeeds with probability 0.196 when
        # branch l sees u_{l+1} - u_l, and 7 % more often when every branch
        # measured its party against party 1 instead
        monkeypatch.setattr(montecarlo, "NUMPY_CANDIDATES", math.inf if kernel == "stdlib" else 0)
        pp = protocol(m=6, mu=10.0, n=6)
        ch = ChannelParams(loss_rate=0.2, distance=0.0, detector_efficiency=1.0, dark_count=0.01)
        tally = run_rounds(pp, ch, SimConfig(rounds=100_000, seed=68))
        success, pair_errors = tally_expectation(pp, ch)
        assert within_5_sigma(tally.success, tally.sifted, success)
        for p, q in pair_errors.items():
            assert within_5_sigma(tally.pair_errors[p], tally.success, q)

    # tallies of runs above the crossover, recorded from the numpy kernel:
    # the N=3 one before the stdlib kernel existed, the N=4 one (E[K] ~167k,
    # crossover ~100k at 4 chunks) when the crossover was refitted
    PINNED = [
        (
            (3, 1.0, 14, 0.65, 7.2e-8),
            {"rounds": 1_000_000, "seed": 2718},
            {"sent": 1_000_000, "sifted": 1_000_000, "success": 226_569,
             "pattern_counts": {"LL": 56_492, "LR": 56_813, "RL": 56_569, "RR": 56_695},
             "pair_errors": {"2": 1371, "3": 2748}},
        ),
        (
            (4, 3.0, 2, 1.0, 0.01),
            {"rounds": 200_000, "seed": 2718, "mode": "full-random",
             "reference_offsets": (0.1, 0.0, -0.2), "compensation_indices": (1, 0, 1)},
            {"sent": 200_000, "sifted": 200_000, "success": 50_044,
             "pattern_counts": {"LLL": 6343, "LLR": 6205, "LRL": 6175, "LRR": 6342,
                                "RLL": 6288, "RLR": 6153, "RRL": 6210, "RRR": 6328},
             "pair_errors": {"2": 39_099, "3": 34_753, "4": 18_336}},
        ),
    ]

    @pytest.mark.parametrize("record,run,counts", PINNED, ids=["n3-0km-mu1", "n4-full-random-offsets"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_numpy_kernel_tallies_are_pinned(self, record, run, counts, workers):
        n, mu, m, efficiency, pd = record
        pp = ProtocolParams(n_parties=n, signal_intensity=mu, slice_count=m)
        ch = ChannelParams(loss_rate=0.2, distance=0.0, detector_efficiency=efficiency, dark_count=pd)
        sc = SimConfig(**run)
        chunks = -(-sc.rounds // montecarlo.CHUNK_SIZE)
        assert expected_candidates(pp, ch, sc) >= montecarlo._numpy_threshold(n, chunks)
        assert pinned_fields(run_rounds(pp, ch, sc, workers=workers), counts) == counts

    def test_pool_is_capped_at_the_core_count(self, monkeypatch):
        # a fake pool that runs its tasks in the calling thread: it records
        # the thread count it was asked for and its tasks, and never starts
        # a thread
        pools = []

        class InlinePool:
            def __init__(self, max_workers):
                self.max_workers, self.tasks = max_workers, 0
                pools.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                items = list(items)
                self.tasks += len(items)
                return map(fn, items)

        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", InlinePool)
        record, run, counts = self.PINNED[0]
        n, mu, m, efficiency, pd = record
        pp = ProtocolParams(n_parties=n, signal_intensity=mu, slice_count=m)
        ch = ChannelParams(loss_rate=0.2, distance=0.0, detector_efficiency=efficiency, dark_count=pd)
        sc = SimConfig(**run)
        tally = run_rounds(pp, ch, sc, workers=10_000)
        (pool,) = pools
        assert pool.max_workers <= os.cpu_count()
        # one task per thread, each summing its share of the chunks, so no
        # finished chunk waits in a future
        assert pool.tasks == pool.max_workers
        assert tally == run_rounds(pp, ch, sc, workers=1)
        assert pinned_fields(tally, counts) == counts

    @pytest.mark.parametrize("kernel,workers", [("stdlib", 1), ("numpy", 1), ("numpy", 2)])
    def test_memory_does_not_grow_with_the_chunk_count(self, monkeypatch, kernel, workers):
        # no candidates at all, in chunks of 64 rounds: ten times the
        # chunks may not raise the traced peak, where keeping every chunk's
        # vectors would add over 200 kB.  A first run fills numpy's own
        # caches, which are bounded.
        import tracemalloc

        monkeypatch.setattr(montecarlo, "CHUNK_SIZE", 64)
        if kernel == "numpy":
            monkeypatch.setattr(montecarlo, "NUMPY_CANDIDATES", 0.0)
        pp = protocol(mu=1e-6)
        ch = ChannelParams(loss_rate=0.2, distance=100.0, detector_efficiency=0.65, dark_count=0.0)
        run_rounds(pp, ch, SimConfig(rounds=64 * 1000, seed=3), workers=workers)
        peaks = []
        for chunks in (100, 1000):
            tracemalloc.start()
            try:
                run_rounds(pp, ch, SimConfig(rounds=64 * chunks, seed=3), workers=workers)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 16_384

    def test_memory_does_not_grow_with_the_party_count(self):
        # one chunk without light at N=24, where a count for every L/R or
        # wrong-port pattern would take 2^23 entries
        import tracemalloc

        pp = protocol(mu=1e-6, n=24)
        ch = ChannelParams(loss_rate=0.2, distance=100.0, detector_efficiency=0.65, dark_count=0.0)
        tracemalloc.start()
        try:
            tally = run_rounds(pp, ch, SimConfig(rounds=montecarlo.CHUNK_SIZE, seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tally.success == 0
        assert peak < 1 << 20

    @pytest.mark.parametrize("record,run,counts", PINNED, ids=["n3-0km-mu1", "n4-full-random-offsets"])
    def test_numpy_kernel_tallies_hold_on_the_baseline_path(self, record, run, counts):
        # the pins were recorded where numpy dispatches its AVX-512
        # (X86_V4) exp, cos and sin, whose last bits differ now and then
        # from the baseline path's
        script = "\n".join([
            "import json, sys",
            "from pmqcc import ChannelParams, ProtocolParams, SimConfig, run_rounds",
            f"n, mu, m, efficiency, pd = {record!r}",
            "pp = ProtocolParams(n_parties=n, signal_intensity=mu, slice_count=m)",
            "ch = ChannelParams(loss_rate=0.2, distance=0.0, detector_efficiency=efficiency, dark_count=pd)",
            f"sc = SimConfig(**{run!r})",
            "tallies = [run_rounds(pp, ch, sc, workers=w) for w in (1, 2)]",
            "print(json.dumps([{key: getattr(t, key) for key in t.__slots__} for t in tallies]))",
        ])
        env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V4"}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        for tally in json.loads(proc.stdout):
            assert {key: tally[key] for key in counts} == counts

    # tallies of runs below the crossover, recorded from the stdlib kernel
    # while it still had its own chunk function
    PINNED_STDLIB = [
        (
            (3, 0.5, 16, 0.65, 7.2e-8),
            {"rounds": 200_000, "seed": 31},
            {"sent": 200_000, "sifted": 200_000, "success": 15_565,
             "pattern_counts": {"LL": 3879, "LR": 3846, "RL": 3947, "RR": 3893},
             "pair_errors": {"2": 83, "3": 168}},
        ),
        (
            (4, 3.0, 4, 1.0, 0.01),
            {"rounds": 150_000, "seed": 31, "mode": "full-random"},
            {"sent": 150_000, "sifted": 19_007, "success": 8097,
             "pattern_counts": {"LLL": 1019, "LLR": 949, "LRL": 1038, "LRR": 1052,
                                "RLL": 1012, "RLR": 982, "RRL": 1037, "RRR": 1008},
             "pair_errors": {"2": 178, "3": 378, "4": 567}},
        ),
        (
            (4, 1.0, 8, 0.65, 7.2e-8),
            {"rounds": 100_000, "seed": 31,
             "reference_offsets": (0.1, 0.0, -0.2), "compensation_indices": (1, 0, 1)},
            {"sent": 100_000, "sifted": 100_000, "success": 9334,
             "pattern_counts": {"LLL": 1138, "LLR": 1175, "LRL": 1179, "LRR": 1249,
                                "RLL": 1155, "RLR": 1143, "RRL": 1127, "RRR": 1168},
             "pair_errors": {"2": 1637, "3": 1751, "4": 2291}},
        ),
        (
            (3, 1.0, 6, 0.65, 7.2e-8),
            {"rounds": 300_000, "seed": 31, "mode": "full-random",
             "reference_offsets": (0.3, -0.7), "compensation_indices": (1, 4)},
            {"sent": 300_000, "sifted": 33_399, "success": 6410,
             "pattern_counts": {"LL": 1569, "LR": 1693, "RL": 1615, "RR": 1533},
             "pair_errors": {"2": 2422, "3": 3856}},
        ),
    ]

    @pytest.mark.parametrize(
        "record,run,counts", PINNED_STDLIB,
        ids=["n3-0km-mu0.5", "n4-full-random", "n4-offsets", "n3-full-random-offsets"],
    )
    @pytest.mark.parametrize("workers", [1, 2])
    def test_stdlib_kernel_tallies_are_pinned(self, record, run, counts, workers):
        n, mu, m, efficiency, pd = record
        pp = ProtocolParams(n_parties=n, signal_intensity=mu, slice_count=m)
        ch = ChannelParams(loss_rate=0.2, distance=0.0, detector_efficiency=efficiency, dark_count=pd)
        sc = SimConfig(**run)
        chunks = -(-sc.rounds // montecarlo.CHUNK_SIZE)
        assert expected_candidates(pp, ch, sc) < montecarlo._numpy_threshold(n, chunks)
        assert pinned_fields(run_rounds(pp, ch, sc, workers=workers), counts) == counts


class TestStdlibRows:
    """Row key = b_l + 2 h_l + 4 b_{l+1} of branch l holds that key's
    whole-slice step, turn and the id bits of an L and of an R click."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_rows_hold_each_keys_step_turn_and_id_bits(self, n):
        rng = random.Random(f"rows:{n}")
        m = 2 * rng.randint(2, 10)
        deviations = tuple(rng.uniform(-math.pi, math.pi) for _ in range(n - 1))
        comp = tuple(rng.randrange(1, m) for _ in range(n - 1))
        branches = montecarlo._stdlib_setting(m, 0.3, 7.2e-8, deviations, comp)[3]
        assert len(branches) == n - 1
        for l, rows in enumerate(branches):
            assert len(rows) == 8
            for key, (step, turn, left_bits, right_bits) in enumerate(rows):
                b_l, h_l, b_next = key & 1, (key >> 1) & 1, key >> 2
                assert step == comp[l] + h_l * (m // 2)
                assert turn == math.pi * (b_next - b_l) + deviations[l]
                # an R click sets bit l; a click on the port that differs
                # from the parity of the key's bits sets bit l + N - 1
                for port, bits in ((0, left_bits), (1, right_bits)):
                    wrong = int(port != (b_l + h_l + b_next) % 2)
                    assert bits == port << l | wrong << (l + n - 1), (l, key, port)


class TestBracketTable:
    """The stdlib kernel decides a branch on its cell's brackets and runs
    ``_branch_probability`` only when the uniform falls inside one."""

    # at a = 1490 the probabilities near x = 1/2 are subnormal, where a
    # rounding error is a whole unit of the last place: only the absolute
    # margin covers it
    @pytest.mark.parametrize("a", [1e-9, 1e-4, 0.05, 1.0, 10.0, 50.0, 1490.0])
    @pytest.mark.parametrize("pd", [0.0, 7.2e-8, 0.01, 0.5])
    def test_cells_bracket_the_exact_probabilities(self, a, pd):
        log_nodark = math.log1p(-pd)
        table = montecarlo._bracket_table(a, log_nodark)
        k = montecarlo.BRACKET_CELLS
        rng = random.Random(f"brackets:{a}:{pd}")
        # every cell edge and two random points in each cell, each as a
        # phase on either side of 0 and some whole turns away
        xs = [i / k for i in range(k + 1)] + [(i + rng.random()) / k for i in range(k) for _ in range(2)]
        for x in xs:
            half = math.acos(math.sqrt(x))
            for phase in (2.0 * half, 2.0 * math.pi * rng.randint(-3, 3) - 2.0 * half):
                cos_half = math.cos(phase / 2.0)
                one_low, one_high, right_low, right_high = table[int(cos_half * cos_half * k)]
                p_one, p_right = _branch_probability(a, log_nodark, phase)
                assert one_low <= p_one <= one_high, (x, phase)
                assert right_low <= p_right <= right_high, (x, phase)

    def test_tallies_equal_the_exact_path(self, monkeypatch):
        # unbounded brackets send every branch to _branch_probability
        monkeypatch.setattr(montecarlo, "NUMPY_CANDIDATES", math.inf)
        rng = random.Random("exact-path")
        runs = []
        for _ in range(100):
            n, m = rng.randint(2, 6), 2 * rng.randint(1, 10)
            pp, ch = at_arrival(n, 10.0 ** rng.uniform(-6.0, math.log10(50.0)),
                                rng.choice((0.0, 7.2e-8, 0.01, 0.3)), m)
            offsets = {}
            if rng.random() < 0.5:
                offsets = {"reference_offsets": [rng.uniform(-math.pi, math.pi) for _ in range(n - 1)],
                           "compensation_indices": [rng.randrange(m) for _ in range(n - 1)]}
            mode = rng.choice(MODES)
            # at most ~1500 expected candidates, so the exact runs stay quick
            per_round = expected_candidates(pp, ch, SimConfig(rounds=1, seed=0, mode=mode))
            rounds = max(100, min(rng.choice((1000, 30_000, 70_000)), int(1500 / per_round)))
            runs.append((pp, ch, SimConfig(rounds=rounds, seed=rng.randrange(2**64), mode=mode, **offsets)))
        squeezed = [run_rounds(*run) for run in runs]
        unbounded = [(-math.inf, math.inf, -math.inf, math.inf)] * (montecarlo.BRACKET_CELLS + 1)
        monkeypatch.setattr(montecarlo, "_bracket_table", lambda arrival, log_nodark: unbounded)
        assert squeezed == [run_rounds(*run) for run in runs]
        assert sum(tally.success for tally in squeezed) > 0

    def test_few_branches_take_the_exact_path(self, monkeypatch):
        # a run that evaluated _branch_probability on every branch would
        # give the same bytes, only slower: count the exact calls instead
        calls = []
        exact = montecarlo._branch_probability

        def counted(*args):
            calls.append(args)
            return exact(*args)

        class CountingRandom:
            def __init__(self, seed):
                self.rng, self.uniforms = random.Random(seed), 0

            def random(self):
                self.uniforms += 1
                return self.rng.random()

            def getrandbits(self, k):
                return self.rng.getrandbits(k)

        monkeypatch.setattr(montecarlo, "_branch_probability", counted)
        # the bench's paired config: N=3, M=14, 10 km, forced matching
        pp, ch = protocol(m=14, mu=0.13, n=3), channel(distance=10.0)
        arrival = transmittance(ch) * pp.signal_intensity
        setting = montecarlo._stdlib_setting(pp.slice_count, arrival, ch.dark_count, (0.0, 0.0), (0, 0))
        rng, candidates = CountingRandom(1), 40_000
        montecarlo._draw_stdlib(rng, candidates, 3, _candidate_bound(arrival, ch.dark_count), {}, *setting)
        # one uniform per candidate, two per branch it reaches
        branch_draws = (rng.uniforms - candidates) // 2
        assert branch_draws > candidates
        assert len(calls) < 0.01 * branch_draws


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
        for m_idx in (2, 3):
            p = base.pair_qbers[m_idx]
            sigma = math.sqrt(max(p * (1.0 - p), 1e-12) / base.success)
            assert abs(shifted.pair_qbers[m_idx] - p) < 3.0 * sigma

    @pytest.mark.parametrize("offsets,compensated", [
        pytest.param((0.3, -1.1, 2.5), True, id="compensated"),
        pytest.param((0.9, 2.0, -0.4), False, id="uncompensated"),
    ])
    def test_counts_match_transfer_matrix(self, monkeypatch, offsets, compensated):
        # the uncompensated branches see phases far from 0 (mod pi), so
        # their draws land in cells well inside (0, 1) of x = cos^2(phi/2)
        monkeypatch.setattr(montecarlo, "NUMPY_CANDIDATES", math.inf)
        m = 8
        comp = tuple(round(-d * m / (2.0 * math.pi)) % m for d in offsets) if compensated else ()
        pp, ch = at_arrival(4, 1.0, 0.01, m)
        sc = SimConfig(rounds=60_000, seed=71, reference_offsets=offsets, compensation_indices=comp)
        tally = run_rounds(pp, ch, sc)
        expect = expected_tally(4, 1.0, 0.01, m, deviations=offsets, compensation=comp)
        assert within_5_sigma(tally.success, tally.sifted, expect["success"])
        assert len(tally.pattern_counts) == 8
        for count in tally.pattern_counts.values():
            assert within_5_sigma(count, tally.success, expect["pattern"])
        for p, q in expect["pair_error"].items():
            assert within_5_sigma(tally.pair_errors[p], tally.success, q)

    def test_uncompensated_offset_degrades_qber(self):
        m = 16
        deltas = (2.0 * math.pi * 5.0 / m, 0.0)
        pp, ch = protocol(m=m), channel()
        base = run_rounds(pp, ch, SimConfig(rounds=200_000, seed=51))
        shifted = run_rounds(
            pp, ch, SimConfig(rounds=200_000, seed=51, reference_offsets=deltas)
        )
        assert shifted.pair_qbers[2] > 10.0 * base.pair_qbers[2]


class TestEstimate:
    """The tally's ``gain`` and ``pair_qbers`` properties."""

    def test_insufficient_data(self):
        for sifted, success in ((100, 0), (0, 0), (0, 5)):
            tally = SimTally(n_parties=3, slice_count=14, sent=100, sifted=sifted, success=success)
            for name in ("gain", "pair_qbers"):
                with pytest.raises(InsufficientDataError) as info:
                    getattr(tally, name)
                assert str(info.value) == "tally holds no successful events to estimate from"

    @pytest.mark.parametrize("n,m,mode,seed", [
        (3, 14, "forced-matching", 21), (4, 8, "full-random", 22), (5, 4, "forced-matching", 23),
    ])
    def test_properties_are_the_count_ratios(self, n, m, mode, seed):
        # bit for bit the divisions of the tally's own counts
        pp, ch = protocol(m=m, mu=0.5, n=n), channel(distance=0.0)
        tally = run_rounds(pp, ch, SimConfig(rounds=50_000, seed=seed, mode=mode))
        assert tally.success > 0
        assert tally.gain == tally.success / tally.sifted
        assert tally.pair_qbers == {
            p: tally.pair_errors.get(p, 0) / tally.success for p in range(2, n + 1)
        }

    def test_synthetic_tally_arithmetic(self):
        tally = SimTally(
            n_parties=3, slice_count=14, sent=10_000_000, sifted=500_000, success=10_000,
            pair_errors={2: 120, 3: 180},
        )
        assert tally.pair_qbers[3] == pytest.approx(0.018)
        assert tally.pair_qbers[2] == pytest.approx(0.012)
        assert tally.gain == pytest.approx(0.02)
        # a pair that no error reached reads 0
        sparse = SimTally(n_parties=4, slice_count=2, sifted=8, success=4, pair_errors={3: 1})
        assert sparse.pair_qbers == {2: 0.0, 3: 0.25, 4: 0.0}

    def test_merged_estimates_match_union(self):
        # the union of a (1000 sent, 500 sifted, 100 successes, pair errors
        # 5 and 9) and b (3000, 1500, 300, 10 and 21)
        union = SimTally(n_parties=3, slice_count=14, sent=4000, sifted=2000, success=400,
                         pair_errors={2: 15, 3: 30}, pattern_counts={"LL": 300})
        assert union.gain == pytest.approx(400 / 2000)
        assert union.pair_qbers[2] == pytest.approx(15 / 400)
        assert union.pair_qbers[3] == pytest.approx(30 / 400)
