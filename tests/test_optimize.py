import math
import operator
import random
import sys

import pytest

import pmqcc.decoy
import pmqcc.keyrate
import pmqcc.optimize

from pmqcc import (
    ChannelParams,
    ParameterError,
    optimize_decoys,
    optimize_signal,
    rate_lower,
    rate_pmqcc,
)
from pmqcc.core import DegenerateGeometryError, ProtocolParams, transmittance
from pmqcc.decoy import n_cut_for
from pmqcc.optimize import COARSE_GRID, COARSE_POINTS, DECOY_GRID, DECOY_RATIOS, MU_BOUNDS
from tests.conftest import bench_channel_at

# (N, km, the --protocol whose rate the options select, options) ->
# repr-exact (best_rate, mu, M, evaluations),
# recorded before the signal search moved onto the float rate kernel; the
# two 0 km pins moved in their last bits when the coarse grid stopped
# copying numpy's geomspace bits.  The sliced counts fell (3471 -> 987,
# 3394 -> 1786, 3406 -> 1241, 3423 -> 975) when the search began to skip
# the slice counts that cannot win; no (rate, mu, M) moved
SIGNAL_PINS = [
    (3, 0.0, "pmqcc-star", {"sliced": False}, (0.004662954994628381, 0.32228186275069476, 13, 58)),
    (4, 0.0, "pmqcc-star", {"sliced": False}, (0.00036245414901835203, 0.3281938145491478, 13, 58)),
    (3, 50.0, "pmqcc", {}, (2.6989203981946936e-07, 0.13325153946430002, 13, 987)),
    (6, 5.0, "pmqcc", {}, (3.074864647534463e-13, 0.10112536483043255, 18, 1786)),
    (4, 20.0, "reduced", {"boundaries": (True, False)}, (3.968709193709239e-09, 0.10133041148481194, 15, 1241)),
    (3, 100.0, "reduced", {"boundaries": (False, True)}, (1.6151632361571763e-09, 0.1031781854365203, 13, 975)),
    (5, 10.0, "pmqcc-star", {"sliced": False, "signal_phase_misalignment": 0.015},
     (1.0579727209971773e-08, 0.04747187828944102, 13, 54)),
]


class TestOptimizeSignal:
    def test_benchmark_recovery_50km(self):
        result = optimize_signal(bench_channel_at(50.0), 3)
        assert result.best_params.slice_count == 13
        assert result.best_params.signal_intensity == pytest.approx(0.1333, abs=5e-3)
        assert result.best_rate == pytest.approx(2.6989e-7, rel=1e-3)

    def test_reevaluation_is_bitwise(self):
        ch = bench_channel_at(80.0)
        result = optimize_signal(ch, 3, m_values=range(11, 16))
        assert result.best_rate == rate_pmqcc(result.best_params, ch).rate

    def test_reevaluation_star(self):
        ch = ChannelParams(0.2, 60.0, 0.93, 1e-7)
        result = optimize_signal(ch, 3, sliced=False, signal_phase_misalignment=0.015)
        assert result.best_rate == rate_pmqcc(result.best_params, ch, sliced=False).rate
        assert result.best_rate > 0.0

    def test_reevaluation_reduced(self):
        ch = bench_channel_at(50.0)
        result = optimize_signal(ch, 3, boundaries=(False, True), m_values=range(11, 16))
        assert result.best_rate == rate_pmqcc(result.best_params, ch, boundaries=(False, True)).rate
        assert result.best_params.signal_intensity == pytest.approx(0.1059, abs=5e-3)

    def test_infeasible_channel_flagged(self):
        # the slice-free rate is 0 on the whole coarse grid, so is every
        # sliced one: one grid decides the search
        result = optimize_signal(bench_channel_at(10_000.0), 3, m_values=range(10, 20))
        assert result.flagged_zero
        assert result.best_rate == 0.0
        assert result.best_params is None
        assert result.evaluations == COARSE_POINTS

    @pytest.mark.parametrize("n", [85, 88])
    def test_subnormal_rate_is_no_optimum(self, n):
        # every rate here underflows to a subnormal with a few significant
        # bits, at best 3.3e-310 at N=85 and 4e-323 at N=88
        result = optimize_signal(bench_channel_at(0.0), n)
        assert result.flagged_zero and result.best_rate == 0.0

    def test_every_slice_count_is_validated_skipped_or_not(self):
        # 64.5 would be skipped by the bound at 50 km, and is still refused
        with pytest.raises(ParameterError):
            optimize_signal(bench_channel_at(50.0), 3, m_values=[13, 64.5])

    def test_monotone_in_distance(self):
        rates = [
            optimize_signal(bench_channel_at(l), 3, m_values=range(11, 20)).best_rate
            for l in (50.0, 100.0, 150.0)
        ]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_slice_count_bracket(self):
        for distance in (50.0, 200.0):
            result = optimize_signal(bench_channel_at(distance), 3)
            assert 8 <= result.best_params.slice_count <= 32

    @pytest.mark.parametrize("n, km, protocol, options, expected", SIGNAL_PINS)
    def test_pinned_optima(self, n, km, protocol, options, expected):
        result = optimize_signal(ChannelParams(0.2, km, 0.65, 7.2e-8), n, **options)
        best = result.best_params
        found = (result.best_rate, best.signal_intensity, best.slice_count, result.evaluations)
        assert found == expected, protocol

    def test_phase_error_once_per_intensity(self, monkeypatch):
        # the intensity terms are shared by every M: each mu pays for its
        # O(N) phase error once, not once per (mu, M) evaluation
        seen = []
        phase_error = pmqcc.keyrate.parity_phase_error

        def counting(branches, pd):
            seen.append(branches[0][0])  # mu, on the unbroken chain
            return phase_error(branches, pd)

        monkeypatch.setattr(pmqcc.keyrate, "parity_phase_error", counting)
        result = optimize_signal(bench_channel_at(50.0), 3)
        search, reevaluation = seen[:-1], seen[-1]
        assert reevaluation == result.best_params.signal_intensity
        assert len(search) == len(set(search)) == 287
        assert set(COARSE_GRID) <= set(search)
        assert result.evaluations == 987 > 3 * len(search)

    def test_reported_rate_is_a_scored_one(self, monkeypatch):
        # the report's rate, re-run through rate_pmqcc, is bit for bit a
        # rate the search scored, sliced or not, over every end pattern
        scored = []
        slice_rate = pmqcc.optimize.slice_rate

        def recording(*args):
            out = slice_rate(*args)
            scored.append(out[0])
            return out

        monkeypatch.setattr(pmqcc.optimize, "slice_rate", recording)
        rng = random.Random(33)
        feasible = set()
        for _ in range(100):
            n = rng.randint(2, 8)
            sliced = rng.choice([True, False])
            ends = rng.choice([(False, False), (False, True), (True, False), (True, True)])
            ch = ChannelParams(0.2, rng.uniform(0.0, 400.0 / (n - 1)), 0.65, rng.choice([0.0, 7.2e-8, 1e-5]))
            scored.clear()
            result = optimize_signal(ch, n, sliced=sliced, boundaries=ends,
                                     signal_phase_misalignment=rng.uniform(0.0, 0.05))
            if not result.flagged_zero:
                assert result.best_rate in scored, (ch, n, sliced, ends)
                feasible.add((sliced, ends))
        assert len(feasible) == 2 * 4

    def test_coarse_grid_is_geometric_over_the_bounds(self):
        assert len(COARSE_GRID) == COARSE_POINTS
        assert (COARSE_GRID[0], COARSE_GRID[-1]) == MU_BOUNDS
        ratio = (MU_BOUNDS[1] / MU_BOUNDS[0]) ** (1.0 / (COARSE_POINTS - 1))
        for a, b in zip(COARSE_GRID, COARSE_GRID[1:]):
            assert b / a == pytest.approx(ratio, rel=1e-15)

    def test_skipping_slice_counts_changes_no_optimum(self):
        # the search that skips the slice counts its ceiling rules out
        # returns, repr for repr, the first strict maximum over every M
        # scored alone; and every M's rate is below (2/M)^(N-1) max G
        # even without the slack, the inequality the skipping rests on
        results = []
        for ch, n, options in EXHAUSTIVE_CONFIGS:
            result = optimize_signal(ch, n, **options)
            singles = [(m, optimize_signal(ch, n, m_values=[m], **options)) for m in SLICE_COUNTS]
            best = None
            for _, single in singles:
                if not single.flagged_zero and (best is None or single.best_rate > best.best_rate):
                    best = single
            assert summary(result) == summary(best), (ch, n, options)
            top = slice_free_maximum(ch, n, options)
            for m, single in singles:
                assert single.best_rate <= (2.0 / m) ** (n - 1) * top, (ch, n, options, m)
            results.append(result)
        # the draws hold infeasible rows, rates that underflow to
        # subnormals (N=88), which no search returns, and skipped M
        assert any(r.flagged_zero for r in results)
        assert not any(0.0 < r.best_rate < sys.float_info.min for r in results)
        assert any(
            not r.flagged_zero and r.evaluations < len(SLICE_COUNTS) * COARSE_POINTS for r in results
        )


SLICE_COUNTS = range(4, 65)
SEARCH_SHAPES = [
    {},
    {"boundaries": (False, True)},
    {"boundaries": (True, False)},
    {"boundaries": (True, True)},
]


def exhaustive_configs() -> list:
    """Seeded signal searches: N=2-12 at 0-320 km, past where the rate
    reaches 0 for p_d > 0, and N=80-88 at 0 km, where rates run down to
    subnormals; p_d 0, the bench's 7.2e-8 or log-uniform over 1e-9-1e-4."""
    rng = random.Random(24)
    configs = []
    for n in list(range(2, 13)) * 2 + [80, 83, 85, 88]:
        km = 0.0 if n >= 80 else round(rng.uniform(0.0, 320.0), 3)
        pd = rng.choice([0.0, 7.2e-8, float(f"{10 ** rng.uniform(-9.0, -4.0):.3g}")])
        configs.append((ChannelParams(0.2, km, 0.65, pd), n, rng.choice(SEARCH_SHAPES)))
    return configs


EXHAUSTIVE_CONFIGS = exhaustive_configs()


def slice_free_maximum(ch, n, options) -> float:
    """max G, G(mu) the rate at prefactor 1 and e_delta = 0, as the
    signal search estimates it."""
    eta = transmittance(ch)
    ends = options.get("boundaries", (False, False))

    def slice_free(mu: float) -> float:
        terms = pmqcc.keyrate.intensity_terms(n, mu, ch.dark_count, eta, ends)
        return max(pmqcc.keyrate.slice_rate(terms, 1.16, 1.0, 0.0, True)[0], 0.0)

    return pmqcc.optimize._maximize_scalar(slice_free)[1]


def summary(result) -> tuple:
    """repr-exact (best_rate, mu, M, flagged_zero) of a signal search."""
    if result is None or result.flagged_zero:
        return repr(0.0), None, None, True
    best = result.best_params
    return repr(result.best_rate), repr(best.signal_intensity), best.slice_count, False


def scale_configs() -> list:
    """12 seeded decoy searches at N=3-9 on the benchmark channel, each
    drawn where its certified rate is positive."""
    rng = random.Random(36)
    domain = {3: (150.0, 0.05, 0.15, 10), 5: (50.0, 0.05, 0.1, 15), 7: (15.0, 0.03, 0.06, 15),
              9: (6.0, 0.03, 0.04, 14)}
    configs = []
    for n in (3, 5, 7, 9) * 3:
        km, mu_lo, mu_hi, m_lo = domain[n]
        configs.append((bench_channel_at(round(rng.uniform(0.0, km), 3)), n,
                        round(rng.uniform(mu_lo, mu_hi), 6), rng.randint(m_lo, 20)))
    return configs


SCALE_CONFIGS = scale_configs()


def geometric_rate(ch, n, mu, m, v, ratio) -> float:
    """Certified rate of the geometric decoy set 10^v mu ratio^-i, as the
    decoy search scores it."""
    top = 10.0 ** v * mu
    decoys = tuple(top * ratio ** -i for i in range(n_cut_for(n) + 1)) + (0.0,)
    pp = ProtocolParams(n_parties=n, signal_intensity=mu, slice_count=m, decoy_intensities=decoys)
    try:
        return rate_lower(pp, ch).rate
    except DegenerateGeometryError:
        return 0.0


class TestOptimizeDecoys:
    def test_anchor_is_attainable(self):
        ch = bench_channel_at(150.0)
        result = optimize_decoys(ch, 3, 0.104815, 13)
        assert not result.flagged_zero
        assert result.best_rate >= 1.7e-11

    def test_reevaluation_is_bitwise(self):
        ch = bench_channel_at(150.0)
        result = optimize_decoys(ch, 3, 0.104815, 13)
        assert result.best_rate == rate_lower(result.best_params, ch).rate

    def test_ordering_constraints_hold(self):
        result = optimize_decoys(bench_channel_at(150.0), 3, 0.104815, 13)
        decs = result.best_params.decoy_intensities
        assert decs[-1] == 0.0
        nonzero = decs[:-1]
        assert all(a > b for a, b in zip(nonzero, nonzero[1:]))
        assert nonzero[0] < 0.104815

    def test_underflowing_search_scores_zero(self):
        # at this signal every decoy set searched lies below 1e-11, where
        # t_max**k used to underflow in a sign guard; each set now
        # certifies 0
        result = optimize_decoys(bench_channel_at(10.0), 6, 1e-11, 13)
        assert result.flagged_zero and result.best_rate == 0.0 and result.evaluations > 0

    def test_typed_error_scores_zero(self, monkeypatch):
        # at mu 2000 the larger decoy sets overflow e**t in the ladder:
        # those sets raise a DegenerateGeometryError, score 0, and the
        # search ends flagged after both coarse grids rather than in the
        # error
        errors = []

        def recorded(pp, ch):
            try:
                return rate_lower(pp, ch)
            except DegenerateGeometryError as exc:
                errors.append(str(exc))
                raise

        monkeypatch.setattr(pmqcc.optimize, "rate_lower", recorded)
        result = optimize_decoys(bench_channel_at(10.0), 3, 2000.0, 13)
        assert result.flagged_zero and result.best_rate == 0.0 and result.evaluations == 80
        assert len(errors) == 10
        assert all(message.startswith("decoy intensities too large: e**") for message in errors)

    def test_subnormal_rate_is_no_optimum(self):
        # without dark counts the certified rate falls 4 decades per 100 km
        # and is subnormal at 7600 km (1.95e-309 at best)
        result = optimize_decoys(ChannelParams(0.2, 7600.0, 0.65, 0.0), 3, 0.1, 13)
        assert result.flagged_zero and result.best_rate == 0.0

    def test_searches_beyond_seventeen_parties_run(self):
        # N=18 needs 19 decoys and N=24 needs 25; a geometric set has no
        # cap on N, and a search whose every set scores 0 stops after the
        # coarse grid of each ratio
        for n in (18, 24):
            result = optimize_decoys(bench_channel_at(0.0), n, 0.1, 13)
            assert result.flagged_zero and result.best_rate == 0.0
            assert result.evaluations == len(DECOY_RATIOS) * len(DECOY_GRID)

    def test_all_zero_search_stops_after_the_coarse_grids(self):
        # at N=5, 20 km every decoy set certifies 0: no golden section
        # follows either coarse grid
        result = optimize_decoys(bench_channel_at(20.0), 5, 0.1, 13)
        assert result.flagged_zero
        assert result.evaluations == len(DECOY_RATIOS) * len(DECOY_GRID)

    def test_positive_rate_is_found_where_fixed_starts_saw_none(self):
        # the restarted descent reported no rate here after 19 evaluations:
        # every start, its first decoy at mu/8 to mu/2, certified 0, while
        # decoys near 2e-4 mu certify ~1.39e-9 (exact rate 1.81e-7)
        ch = bench_channel_at(44.829)
        result = optimize_decoys(ch, 3, 0.114607, 9)
        assert not result.flagged_zero
        assert 0.0 < result.best_rate <= rate_pmqcc(result.best_params, ch).rate

    @pytest.mark.parametrize("config", SCALE_CONFIGS, ids=lambda c: f"N{c[1]}-{c[0].distance}km")
    def test_search_reaches_the_best_scale(self, config):
        # a dense scan of v over the grid's span, per ratio, finds nothing
        # the grid and golden section miss, and the result stays sound
        ch, n, mu, m = config
        result = optimize_decoys(*config)
        assert not result.flagged_zero
        lo, hi = DECOY_GRID[0], DECOY_GRID[-1]
        dense = max(
            geometric_rate(ch, n, mu, m, lo + k * (hi - lo) / 599, ratio)
            for ratio in DECOY_RATIOS for k in range(600)
        )
        assert result.best_rate >= (1.0 - 1e-6) * dense
        assert result.best_rate <= rate_pmqcc(result.best_params, ch).rate

    def test_search_does_not_depend_on_how_a_dot_is_summed(self, monkeypatch):
        # the golden section stops at DECOY_TOL decades, far above what the
        # rounding of a dot can move, so two summation orders take the
        # same path over the bench's decoy-search domain and agree on the
        # rate
        runs = {}
        for name, dot in (("fsum", lambda c, x: math.fsum(map(operator.mul, c, x))),
                          ("left-to-right", lambda c, x: sum(map(operator.mul, c, x)))):
            monkeypatch.setattr(pmqcc.decoy, "_dot", dot)
            runs[name] = [optimize_decoys(*config) for config in DOT_CONFIGS]
        for config, fsum, plain in zip(DOT_CONFIGS, runs["fsum"], runs["left-to-right"]):
            assert not fsum.flagged_zero
            assert (plain.best_params, plain.evaluations) == (fsum.best_params, fsum.evaluations)
            assert plain.best_rate == pytest.approx(fsum.best_rate, rel=1e-9, abs=0.0)
            ch = config[0]
            for result in (fsum, plain):
                assert 0.0 < result.best_rate <= rate_pmqcc(result.best_params, ch).rate


def dot_configs() -> list:
    """40 seeded N=3 decoy searches from the bench's decoy-search domain:
    0-150 km, mu 0.1-0.16, M 13-16."""
    rng = random.Random(16)
    return [
        (bench_channel_at(round(rng.uniform(0.0, 150.0), 3)), 3,
         round(rng.uniform(0.1, 0.16), 6), rng.randint(13, 16))
        for _ in range(40)
    ]


DOT_CONFIGS = dot_configs()
