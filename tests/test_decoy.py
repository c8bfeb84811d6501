import math
import random
import sys
from collections import Counter
from fractions import Fraction

import mpmath
import pytest

from pmqcc import (
    ChannelParams,
    DecoyGains,
    DegenerateGeometryError,
    InsufficientIntensitiesError,
    ParameterError,
    PMQCCError,
    ProtocolParams,
    n_cut_for,
    phase_error_upper,
    rate_lower,
    rate_pmqcc,
    simulate_decoy_gains,
    transmittance,
    yields_lower_general,
)
from pmqcc.decoy import _dot, _rung_combination, check_decoy_set
from pmqcc.keyrate import chain_branches, parity_phase_error
from tests.conftest import bench_channel_at
from tests.enumeration import enumerated_yields, poisson_weight, yield_probability
from tests.three_party_ladder import y2_lower_3party

ANCHOR_DECOYS = (0.0204583, 0.0182017, 9.27216e-5)
# seven nonzero decoys for N=6, so small that every rung certifies 0 at
# 10 km (t_max**k underflowed in a per-order sign guard before)
TINY_DECOYS = (1e-10, 1e-11, 1e-12, 1e-13, 1e-14, 1e-15, 1e-16, 0.0)
# five nonzero decoys 1 % apart for N=5: spaced widely enough for the
# ladder, but the Y_4 rung cancels away its digits once the gains shrink
CLUSTERED_DECOYS = (0.005, 0.00495, 0.0049005, 0.004851495, 0.00480298, 0.0)


def anchor_protocol():
    return ProtocolParams(
        n_parties=3, signal_intensity=0.104815, slice_count=13,
        decoy_intensities=ANCHOR_DECOYS + (0.0,),
    )


def y_lower_of(pp: ProtocolParams, ch: ChannelParams) -> dict:
    """The yield bounds {m: Y_m^L} that ``rate_lower`` charges, from the
    public steps."""
    n = pp.n_parties
    return yields_lower_general(simulate_decoy_gains(pp, ch), n - 1, n_cut_for(n))


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
        with pytest.raises(ParameterError, match="n_parties must be >= 2, got 1"):
            n_cut_for(1)


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
        general = yields_lower_general(g, 2.0, 2)[2]
        assert general == pytest.approx(closed, rel=1e-12)

    def test_synthetic_safety_all_orders(self):
        yield_fn = lambda k: 1.0 - (1.0 - 1e-6) * 0.85**k
        decoys = (0.06, 0.035, 0.02, 0.012, 0.001)
        g = forward_gains(decoys, 3.0, yield_fn, yield_fn(0))
        bounds = yields_lower_general(g, 3.0, 4)
        assert set(bounds) == {2, 4}
        for m, bound in bounds.items():
            assert bound <= yield_fn(m) * (1.0 + 1e-12)
            assert bound > 0.0

    def test_insufficient_intensities(self):
        g = DecoyGains(intensities=(0.02, 0.01), gains=(1e-8, 1e-9), vacuum_gain=0.0)
        with pytest.raises(InsufficientIntensitiesError):
            yields_lower_general(g, 2.0, 2)

    @pytest.mark.parametrize("n_cut", [3, 0])
    def test_n_cut_must_be_even_and_at_least_two(self, n_cut):
        g = forward_gains(ANCHOR_DECOYS, 2.0, lambda k: 1.0 - 0.9**k, 0.0)
        with pytest.raises(ParameterError, match=f"n_cut must be a positive even integer, got {n_cut}"):
            yields_lower_general(g, 2.0, n_cut)

    def test_degenerate_compressed(self):
        center = sum(ANCHOR_DECOYS) / 3.0
        squeezed = tuple(center + (x - center) * 1e-3 for x in ANCHOR_DECOYS)
        g = forward_gains(squeezed, 2.0, lambda k: 1.0 - 0.9**k, 0.0)
        with pytest.raises(DegenerateGeometryError):
            yields_lower_general(g, 2.0, 2)


def wide_float(rng: random.Random) -> float:
    """Zero a fifth of the time; otherwise either sign, at a magnitude
    near 1 or anywhere from 1e-160 to 1e150, so products reach subnormals."""
    if rng.random() < 0.2:
        return 0.0
    exponent = rng.uniform(-160.0, 150.0) if rng.random() < 0.3 else rng.uniform(-3.0, 3.0)
    return rng.choice((-1.0, 1.0)) * rng.random() * 10.0**exponent


class TestLadderArithmetic:
    def test_sums_the_products_with_one_rounding(self):
        rng = random.Random(5)
        for length in range(1, 14):
            for _ in range(100):
                c = [wide_float(rng) for _ in range(length)]
                x = [wide_float(rng) for _ in range(length)]
                exact = sum(Fraction(ci * xi) for ci, xi in zip(c, x))
                assert _dot(c, x) == float(exact)

    # c0: the smallest intensity's difference product, 1e-250 * 1e-200,
    # underflows to 0; c1: a NaN intensity makes every coefficient NaN;
    # c2: 5e-162 * 4.5e-161 is subnormal, with too few bits to bound the
    # rounding of c
    @pytest.mark.parametrize("ts", [[1.0, 1e-200, 1e-250], [1.0, math.nan], [1.0, 1e-160, 1e-161]],
                             ids=["c0", "c1", "c2"])
    def test_a_collapsed_combination_raises_a_typed_error(self, ts):
        with pytest.raises(DegenerateGeometryError, match="collapsed"):
            _rung_combination(ts)

    def test_a_sum_beyond_the_float_range_raises_a_typed_error(self):
        with pytest.raises(DegenerateGeometryError, match="overflows"):
            _dot([1.0, 1.0], [1e308, 1e308])
        # products past the range, of one sign and of both
        for c in ([1e300, 1.0], [1e300, -1e300]):
            with pytest.raises(DegenerateGeometryError, match="overflows"):
                _dot(c, [1e300, 1e300])


def exact_rung(ts) -> list:
    """The rung combination in exact arithmetic on rational ts:
    c_i = -(sum_{j != i} t_j) / (t_i prod_{j != i} (t_i - t_j))."""
    return [
        -(sum(ts) - ti) / (ti * math.prod(ti - tj for j, tj in enumerate(ts) if j != i))
        for i, ti in enumerate(ts)
    ]


# the benchmark's decoy fractions of mu for N=4 and N=5: five decoys
# 1.5-4 % apart
BENCH_FRACTIONS_45 = (0.9827, 0.9511, 0.9099, 0.8966, 0.8825)
# (N, mu, nonzero decoys, km) on honest gains
ACCURACY_CONFIGS = [
    (3, 0.104815, ANCHOR_DECOYS, 150.0),
    (3, 0.1, (0.05, 0.03, 0.001), 50.0),
    (4, 0.13, tuple(round(0.13 * x, 9) for x in BENCH_FRACTIONS_45), 20.0),
    (5, 0.1, tuple(round(0.1 * x, 9) for x in BENCH_FRACTIONS_45), 10.0),
    (5, 0.1, (0.05, 0.03, 0.018, 0.01, 0.001), 10.0),
    (7, 0.05, (0.04, 0.03, 0.02, 0.012, 0.008, 0.004, 0.001), 5.0),
    (9, 0.05, (0.06, 0.045, 0.035, 0.025, 0.018, 0.012, 0.008, 0.004, 0.001), 0.0),
]


def ladder_values(pp: ProtocolParams, ch: ChannelParams) -> tuple:
    """The float t and A = e^t Q - Q_0 of the n_cut + 1 smallest nonzero
    decoys, as the ladder forms them on honest gains."""
    g = simulate_decoy_gains(pp, ch)
    n_cut = n_cut_for(pp.n_parties)
    ts = [(pp.n_parties - 1) * x for x in g.intensities[-(n_cut + 1):]]
    a_values = [math.exp(t) * q - g.vacuum_gain for t, q in zip(ts, g.gains[-(n_cut + 1):])]
    return ts, a_values


def exact_rung_terms(ts, a_values, m: int) -> list:
    """m! c_i A_i of the Y_m rung in exact arithmetic on the float t and A."""
    c = exact_rung([Fraction(t) for t in ts[-(m + 1):]])
    return [math.factorial(m) * ci * Fraction(a) for ci, a in zip(c, a_values[-(m + 1):])]


def geometric_decoy_sets(seed: int, count: int) -> list:
    """(N, nonzero decoys, km): N=3-12 with the n_cut + 1 decoys in a
    geometric run, adjacent ones 0.3-200 % apart (log-uniform), the
    largest 1e-3 to 1, at 0-200 km."""
    rng = random.Random(seed)
    sets = []
    for _ in range(count):
        n = rng.randint(3, 12)
        ratio = 1.0 + 10.0 ** rng.uniform(math.log10(0.003), math.log10(2.0))
        top = 10.0 ** rng.uniform(-3.0, 0.0)
        sets.append((n, tuple(top / ratio**j for j in range(n_cut_for(n) + 1)), rng.uniform(0.0, 200.0)))
    return sets


def random_decoy_draws(seed: int, count: int):
    """(pp, ch): N=3-8 with the vacuum and n_cut + 1 nonzero decoys,
    log-uniform from 1e-16 up to the signal, at 0-100 km."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(3, 8)
        mu = 10.0 ** rng.uniform(-3.0, 0.0)
        decoys = sorted(
            {10.0 ** rng.uniform(-16.0, math.log10(mu)) for _ in range(n_cut_for(n) + 1)},
            reverse=True,
        )
        pp = ProtocolParams(n_parties=n, signal_intensity=mu, slice_count=13,
                            decoy_intensities=(*decoys, 0.0))
        yield pp, bench_channel_at(rng.uniform(0.0, 100.0))


def geometric_decoy_draws(seed: int, count: int, signal_seed: int):
    """(pp, ch): the N <= 8 sets of ``geometric_decoy_sets(seed, count)``
    with the vacuum, at a signal 1.05-20 times the largest decoy
    (log-uniform, from ``signal_seed``), so that many of them certify."""
    rng = random.Random(signal_seed)
    for n, decoys, km in geometric_decoy_sets(seed, count):
        if n > 8:
            continue
        mu = decoys[0] * 10.0 ** rng.uniform(math.log10(1.05), math.log10(20.0))
        pp = ProtocolParams(n_parties=n, signal_intensity=mu, slice_count=13,
                            decoy_intensities=(*decoys, 0.0))
        yield pp, bench_channel_at(km)


# sets that per-order float guards used to reject: N=8 decoys 0.13 %
# apart, the tiny N=6 set, the clustered N=5 set far out, and N=3
# decoys whose t**162 overflowed
GUARDED_DECOY_SETS = [
    *((8, tuple(round(top * (1.0 - 0.0013) ** j, 12) for j in range(9)), km)
      for top in (1.8, 12.85) for km in (0.0, 100.0)),
    (6, TINY_DECOYS[:-1], 10.0),
    (5, CLUSTERED_DECOYS[:-1], 200.0),
    (3, (40.0, 30.0, 20.0), 10.0),
]


class TestRungCombination:
    @pytest.mark.parametrize("m", range(2, 9))
    def test_exact_identities(self, m):
        # orders {1..m-1, m+1} cancel, order m has coefficient 1, every
        # higher order and the largest intensity's coefficient are negative;
        # the float combination is the exact one on t 2^-e, 2^e the power of
        # two of t_max: exact nodes, so Sum c_i t_i^m = 2^(e m), c_i within
        # its 3m roundings, and the factor exactly m! 2^(-e m)
        rng = random.Random(m)
        for _ in range(20):
            scale = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
            ts = [scale * k for k in sorted(rng.sample(range(1, 100), m + 1), reverse=True)]
            c = exact_rung(ts)
            order = lambda k: sum(ci * t**k for ci, t in zip(c, ts))
            assert [order(k) for k in [*range(1, m), m + 1]] == [0] * m
            assert order(m) == 1
            assert all(order(k) < 0 for k in range(m + 2, m + 11))
            assert c[0] < 0
            floats = [float(t) for t in ts]
            power = Fraction(2) ** math.frexp(floats[0])[1]
            expected = exact_rung([Fraction(t) / power for t in floats])
            assert sum(ci * Fraction(t) ** m for ci, t in zip(expected, floats)) == power**m
            tolerance = (3 * m + 1) * Fraction(sys.float_info.epsilon) / 2
            got, factor = _rung_combination(floats)
            assert Fraction(factor) == math.factorial(m) / power**m
            for ci, want in zip(got, expected):
                assert abs(Fraction(ci) - want) <= tolerance * abs(want)

    @pytest.mark.parametrize("n, mu, decoys, km", ACCURACY_CONFIGS)
    def test_bounds_are_within_four_condition_numbers_of_exact(self, n, mu, decoys, km):
        # one-sided against the exact rung on the same float t and A: no
        # bound above it, and none further below than the rounding term,
        # (3m+8) kappa eps, plus 2 kappa eps, kappa = sum|c_i A_i| /
        # |sum c_i A_i| (the test keeps the name of the two-sided 4 kappa
        # eps envelope it replaced)
        pp = ProtocolParams(n_parties=n, signal_intensity=mu, slice_count=13,
                            decoy_intensities=decoys + (0.0,))
        ch = bench_channel_at(km)
        y_lower = y_lower_of(pp, ch)
        ts, a_values = ladder_values(pp, ch)
        for m, bound in y_lower.items():
            terms = exact_rung_terms(ts, a_values, m)
            exact = sum(terms)
            kappa = sum(map(abs, terms)) / abs(exact)
            clamped = min(max(exact, Fraction(0)), Fraction(1))
            slack = (3 * m + 10) * kappa * Fraction(sys.float_info.epsilon) * abs(exact)
            assert clamped - slack <= Fraction(bound) <= clamped
        assert 0 < y_lower[n_cut_for(n)] < 1

    def test_no_bound_above_the_exact_rung(self):
        # every rung of 600 seeded geometric sets and of sets that per-order
        # float guards used to reject certifies at most the exact rung on
        # the same float t and A, clamped to [0, 1]
        rungs = Counter()
        for n, decoys, km in [*geometric_decoy_sets(26, 600), *GUARDED_DECOY_SETS]:
            pp = ProtocolParams(n_parties=n, signal_intensity=decoys[0], slice_count=13,
                                decoy_intensities=(*decoys, 0.0))
            ch = bench_channel_at(km)
            ts, a_values = ladder_values(pp, ch)
            for m, bound in y_lower_of(pp, ch).items():
                exact = sum(exact_rung_terms(ts, a_values, m))
                assert Fraction(bound) <= min(max(exact, Fraction(0)), Fraction(1))
                rungs["positive" if bound > 0.0 else "zero"] += 1
        assert rungs.total() >= 2000 and rungs["positive"] > 0


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

    def test_finite_weights_are_the_direct_product(self):
        rng = random.Random(11)
        for _ in range(500):
            n = rng.randint(2, 20)
            mu, q_mu, q_vacuum = 10.0 ** rng.uniform(-4, 2), rng.uniform(1e-9, 1.0), rng.uniform(0.0, 1e-3)
            y_lower = {m: rng.random() for m in range(2, n_cut_for(n) + 1, 2)}
            t = (n - 1) * mu
            expected = 1.0 - math.exp(-t) * q_vacuum / q_mu
            for m, y_l in sorted(y_lower.items()):
                expected -= math.exp(-t) * t**m / math.factorial(m) * y_l / q_mu
            assert phase_error_upper(y_lower, mu, q_mu, q_vacuum, n) == min(max(expected, 0.0), 1.0)

    @pytest.mark.parametrize("t, m", [(1.4e154, 2), (150.0, 150), (200.0, 180)])
    def test_weight_past_the_float_range_of_t_to_the_m(self, t, m):
        # t**m overflows (and 180! exceeds the float range); the Poisson
        # weight e^-t t^m / m! itself is 0 or of order 1/sqrt(t)
        weight = 1.0 - phase_error_upper({m: 1.0}, t, 1.0, 0.0, 2)
        exact = mpmath.exp(-t) * mpmath.mpf(t) ** m / mpmath.factorial(m)
        assert weight == pytest.approx(float(exact), rel=1e-11, abs=1e-300)

    def test_weight_at_an_infinite_t(self):
        # t = 2 * 1e308 overflows to inf, where every weight is 0
        assert phase_error_upper({2: 1.0}, 1e308, 1.0, 0.5, 3) == 1.0


class TestRateLower:
    def test_anchor_value(self):
        report = rate_lower(anchor_protocol(), bench_channel_at(150.0))
        assert report.rate == pytest.approx(1.7327692835214716e-11, rel=1e-12)
        assert report.rate == pytest.approx(1.7327e-11, rel=5e-3)

    def test_bounds_interior_at_anchor(self):
        y_lower = y_lower_of(anchor_protocol(), bench_channel_at(150.0))
        # E_X^U is below 1/2, so the report charges it uncapped
        e_x_u = rate_lower(anchor_protocol(), bench_channel_at(150.0)).phase_error
        assert 0.0 < y_lower[2] < 1.0
        assert 0.0 < e_x_u < 1.0
        assert y_lower[2] == pytest.approx(2.1127418995325462e-07, rel=1e-12)
        assert e_x_u == pytest.approx(0.19238153205320252, rel=1e-12)

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

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_a_set_one_decoy_short_fails_each_gate_alike(self, n):
        # the ladder is the one count check: the distance-free check, the
        # public yield bounds and the rate raise the same error
        decoys = tuple(0.05 * 0.6**j for j in range(n_cut_for(n)))
        pp = ProtocolParams(n_parties=n, signal_intensity=0.1, slice_count=13,
                            decoy_intensities=(*decoys, 0.0))
        ch = bench_channel_at(10.0)
        gates = (
            lambda: check_decoy_set(pp),
            lambda: yields_lower_general(simulate_decoy_gains(pp, ch), n - 1, n_cut_for(n)),
            lambda: rate_lower(pp, ch),
        )
        messages = set()
        for gate in gates:
            with pytest.raises(InsufficientIntensitiesError) as info:
                gate()
            messages.add(str(info.value))
        m = n_cut_for(n)
        assert messages == {f"bounding Y_{m} needs {m + 1} nonzero decoys plus vacuum, got {m}"}

    def test_four_party_ladder_runs_and_is_safe(self):
        pp = ProtocolParams(
            n_parties=4, signal_intensity=0.1, slice_count=13,
            decoy_intensities=(0.05, 0.03, 0.018, 0.01, 0.001, 0.0),
        )
        ch = bench_channel_at(50.0)
        y_lower = y_lower_of(pp, ch)
        assert set(y_lower) == {2, 4}
        branches = chain_branches(4, 0.1, transmittance(ch), (False, False))
        e_x = parity_phase_error(branches, ch.dark_count)
        assert y_lower[2] <= yield_probability(branches, ch.dark_count, 2) * (1.0 + 1e-12)
        assert y_lower[4] <= yield_probability(branches, ch.dark_count, 4) * (1.0 + 1e-12)
        # the raw bound, which the report caps at 1/2
        e_x_u = phase_error_upper(
            y_lower, 0.1, rate_pmqcc(pp, ch).gain, simulate_decoy_gains(pp, ch).vacuum_gain, 4
        )
        assert e_x_u >= e_x
        # with three branches the odd orders dominate the gain, pushing the
        # true phase error above 1/2 where H is decreasing; the privacy term
        # is then charged at 1/2
        assert e_x > 0.5
        assert rate_lower(pp, ch).phase_error == 0.5

    def test_underflowing_decoys_raise_a_typed_error(self):
        # t_max**k underflowed in the per-order sign guards, which first
        # raised a bare ZeroDivisionError here and then a typed error; the
        # rung needs no such power, and each one certifies 0
        pp = ProtocolParams(n_parties=6, signal_intensity=0.1, slice_count=13,
                            decoy_intensities=TINY_DECOYS)
        ch = bench_channel_at(10.0)
        assert y_lower_of(pp, ch) == {2: 0.0, 4: 0.0, 6: 0.0}
        report = rate_lower(pp, ch)
        assert (report.rate, report.clamped) == (0.0, True)
        assert report.rate <= rate_pmqcc(pp, ch).rate

    def test_cancellation_guard_depends_on_the_distance(self):
        # the Y_4 rung cancels 2.7e8-fold at 0 km and 1.1e9-fold at 200 km
        # (a cancellation cap of 1e9 used to reject the latter): the
        # rounding term lowers the 0 km bound by 1.2e-6 relative, and
        # leaves no rate at 200 km
        pp = ProtocolParams(n_parties=5, signal_intensity=0.1, slice_count=13,
                            decoy_intensities=CLUSTERED_DECOYS)
        near, far = bench_channel_at(0.0), bench_channel_at(200.0)
        assert rate_lower(pp, near).rate == pytest.approx(3.64172770906e-11, rel=1e-11)
        assert rate_lower(pp, near).rate <= rate_pmqcc(pp, near).rate
        report = rate_lower(pp, far)
        assert (report.rate, report.clamped) == (0.0, True)
        assert report.rate <= rate_pmqcc(pp, far).rate

    @pytest.mark.parametrize("top", [1.8, 12.85], ids=["denominator", "order-sign"])
    def test_clustered_decoys_fail_a_gain_free_guard(self, top):
        # N=8, nine nonzero decoys 0.13 % apart: the float g_m (top 1.8) or
        # the order-155 sign (top 12.85) used to be noise and reject the
        # set; no guard reads them now, and every rung certifies 0
        decoys = tuple(round(top * (1.0 - 0.0013) ** j, 12) for j in range(9))
        pp = ProtocolParams(n_parties=8, signal_intensity=0.1, slice_count=13,
                            decoy_intensities=(*decoys, 0.0))
        ch = bench_channel_at(0.0)
        check_decoy_set(pp)
        assert y_lower_of(pp, ch) == {2: 0.0, 4: 0.0, 6: 0.0, 8: 0.0}
        report = rate_lower(pp, ch)
        assert (report.rate, report.clamped) == (0.0, True)
        assert report.rate <= rate_pmqcc(pp, ch).rate

    def test_overflowing_decoys_raise_a_typed_error(self):
        # e**1600 overflows; t = 80 is in range now that no sign guard
        # takes t**162, and certifies 0.  The raw rate there is +0 (H(1/2)
        # is 1 and H(E_N) falls below the rounding of 1), so it is not
        # clamped
        pp = ProtocolParams(n_parties=3, signal_intensity=1000.0, slice_count=13,
                            decoy_intensities=(800.0, 700.0, 600.0, 0.0))
        with pytest.raises(DegenerateGeometryError, match="overflows"):
            rate_lower(pp, bench_channel_at(10.0))
        # e**708 is in range, but its product with the rung's c_i is not
        pp = ProtocolParams(n_parties=3, signal_intensity=1000.0, slice_count=13,
                            decoy_intensities=(354.0, 353.0, 1.0, 0.0))
        with pytest.raises(DegenerateGeometryError, match="combination overflows"):
            rate_lower(pp, bench_channel_at(10.0))
        pp = ProtocolParams(n_parties=3, signal_intensity=1000.0, slice_count=13,
                            decoy_intensities=(40.0, 30.0, 20.0, 0.0))
        ch = bench_channel_at(10.0)
        assert y_lower_of(pp, ch) == {2: 0.0}
        report = rate_lower(pp, ch)
        assert (report.rate, report.clamped) == (0.0, False)
        assert report.rate <= rate_pmqcc(pp, ch).rate
        # t_max = 6e-160: the rung's factor m! 2**(-e m) is 2! * 2**1056
        pp = ProtocolParams(n_parties=3, signal_intensity=0.1333, slice_count=13,
                            decoy_intensities=(3e-160, 2e-160, 1e-160, 0.0))
        with pytest.raises(DegenerateGeometryError) as info:
            check_decoy_set(pp)
        assert str(info.value) == "rung factor 2! * 2**1056 under- or overflows"

    def test_random_decoy_sets_fail_typed_only(self):
        # N=3-8, decoys log-uniform from 1e-16 up to the signal: every
        # draw certifies a rate no higher than the exact one or raises a
        # PMQCCError.  No ladder check reads the gains, so the
        # distance-free check raises exactly when the rate does, with the
        # same error
        outcomes = Counter()
        for pp, ch in random_decoy_draws(1016, 600):
            try:
                check_decoy_set(pp)
                checked = None
            except PMQCCError as exc:
                checked = repr(exc)
            try:
                rate = rate_lower(pp, ch).rate
            except PMQCCError as exc:
                outcomes[type(exc).__name__] += 1
                assert checked == repr(exc)
                continue
            assert checked is None
            assert rate <= rate_pmqcc(pp, ch).rate
            outcomes["positive" if rate > 0.0 else "zero"] += 1
        assert outcomes.keys() == {"positive", "zero", "DegenerateGeometryError"}

    def test_geometric_draws_certify_without_beating_the_exact_rate(self):
        # random_decoy_draws certify a positive rate on few draws, where
        # rate <= exact is mostly 0 <= exact; geometric sets below the
        # signal certify on many, at every odd N the draws reach
        positive = Counter()
        for pp, ch in geometric_decoy_draws(26, 600, 5):
            rate = rate_lower(pp, ch).rate
            assert rate <= rate_pmqcc(pp, ch).rate
            positive[pp.n_parties] += rate > 0.0
        assert positive.total() >= 50
        assert {3, 5, 7} <= {n for n, count in positive.items() if count}

    def test_is_the_public_steps_composed(self):
        # the report is the exact rate's assembly charged with the capped
        # E_X^U of the public steps, bit for bit, or both raise the same error
        def composed(pp, ch):
            e_x_u = phase_error_upper(
                y_lower_of(pp, ch), pp.signal_intensity, rate_pmqcc(pp, ch).gain,
                simulate_decoy_gains(pp, ch).vacuum_gain, pp.n_parties,
            )
            return rate_pmqcc(pp, ch, phase_error=min(e_x_u, 0.5))

        outcomes = Counter()
        for pp, ch in random_decoy_draws(1016, 600):
            results = []
            for rate in (rate_lower, composed):
                try:
                    results.append(rate(pp, ch))
                except PMQCCError as exc:
                    results.append(exc)
            got, want = results
            if isinstance(want, PMQCCError):
                assert (type(got), str(got)) == (type(want), str(want))
                outcomes[type(want).__name__] += 1
                continue
            assert repr(got) == repr(want) and got == want
            outcomes["positive" if got.rate > 0.0 else "zero"] += 1
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
