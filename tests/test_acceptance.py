"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 1 checks the engine against its frozen benchmark table.  The
200 km row of that table is known to be inconsistent with the other four
rows and with the recovered optimal parameters (the engine that matches
rows 1-4 to 0.003% and returns the table's own optimal mu and M at every
distance produces 5.62054e-14 there, against the frozen 2.6206e-14 -- a
single-leading-digit discrepancy).  The frozen value is kept and the row
fails honestly; see README.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from pmqcc import (
    ChannelParams,
    DecoyGains,
    DegenerateGeometryError,
    ProtocolParams,
    SimConfig,
    branch_gain_avg,
    n_cut_for,
    optimize_signal,
    phase_error_upper,
    rate_lower,
    rate_pmqcc,
    run_rounds,
    scaling_exponent,
    tally_expectation,
    yields_lower_general,
)
from pmqcc.keyrate import chain_branches, parity_phase_error
from tests.conftest import bench_channel_at
from tests.enumeration import enumerated_gain, yield_probability
from tests.three_party_ladder import y2_lower_3party

# benchmark channel: 0.2 dB/km, eta_d = 0.65, p_d = 7.2e-8, f = 1.16
TABLE_I = [
    # (L_km, mu, M, reference rate)
    (50.0, 0.1333, 13, 2.6989e-7),
    (80.0, 0.1299, 13, 1.6227e-8),
    (100.0, 0.1291, 13, 2.5332e-9),
    (150.0, 0.1263, 13, 2.2928e-11),
    (200.0, 0.1239, 17, 2.6206e-14),
]

TABLE_REDUCED = [
    (50.0, 0.1059, 13, 1.7060e-7),
    (100.0, 0.1032, 13, 1.6152e-9),
]

ANCHOR = {
    "distance": 150.0,
    "mu": 0.104815,
    "decoys": (0.0204583, 0.0182017, 9.27216e-5, 0.0),
    "M": 13,
    "rate": 1.7327e-11,
}


def conclude(tag: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{tag}: {detail}"


@pytest.mark.parametrize("distance,mu,slices,reference", TABLE_I)
def test_c01_benchmark_table(distance, mu, slices, reference):
    pp = ProtocolParams(n_parties=3, signal_intensity=mu, slice_count=slices)
    start = time.perf_counter()
    rate = rate_pmqcc(pp, bench_channel_at(distance)).rate
    elapsed = time.perf_counter() - start
    rel = abs(rate - reference) / reference
    assert elapsed < 1.0
    conclude(
        f"1[L={distance:g}]",
        rel <= 0.03,
        f"rate={rate:.5e} reference={reference:.4e} rel={rel:.2%} ({elapsed*1e3:.0f} ms)",
    )


@pytest.mark.parametrize("distance,mu,slices,reference", TABLE_REDUCED)
def test_c02_reduced_table(distance, mu, slices, reference):
    pp = ProtocolParams(n_parties=3, signal_intensity=mu, slice_count=slices)
    start = time.perf_counter()
    rate = rate_pmqcc(pp, bench_channel_at(distance), boundaries=(False, True)).rate
    elapsed = time.perf_counter() - start
    rel = abs(rate - reference) / reference
    assert elapsed < 1.0
    conclude(
        f"2[L={distance:g}]",
        rel <= 0.05,
        f"rate={rate:.5e} reference={reference:.4e} rel={rel:.2%} ({elapsed*1e3:.0f} ms)",
    )


def test_c03_four_decoy_anchor():
    pp = ProtocolParams(
        n_parties=3,
        signal_intensity=ANCHOR["mu"],
        slice_count=ANCHOR["M"],
        decoy_intensities=ANCHOR["decoys"],
    )
    start = time.perf_counter()
    rate = rate_lower(pp, bench_channel_at(ANCHOR["distance"])).rate
    elapsed = time.perf_counter() - start
    rel = abs(rate - ANCHOR["rate"]) / ANCHOR["rate"]
    assert elapsed < 1.0
    conclude(
        "3", rel <= 0.05,
        f"rate_lower={rate:.5e} reference={ANCHOR['rate']:.4e} rel={rel:.2%} ({elapsed*1e3:.0f} ms)",
    )


def test_c04_scaling_exponents():
    start = time.perf_counter()
    distances = [50.0, 75.0, 100.0, 125.0, 150.0]
    slopes = {}
    for n, expected, tol in ((3, -0.040, 0.002), (4, -0.060, 0.003)):
        points = []
        for distance in distances:
            result = optimize_signal(bench_channel_at(distance), n)
            points.append((distance, result.best_rate))
        slopes[n] = scaling_exponent(points)
        assert abs(slopes[n] - expected) <= tol, (n, slopes[n])
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    conclude(
        "4", True,
        f"slope(N=3)={slopes[3]:.4f}/km slope(N=4)={slopes[4]:.4f}/km ({elapsed:.1f} s)",
    )


def test_c05_oracle_gain_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for mu in (0.05, 0.1333, 0.3):
        for eta in (0.0065, 0.065, 0.5):
            for pd in (0.0, 1e-7):
                for n in (2, 3, 4):
                    branches = chain_branches(n, mu, eta, (False, False))
                    oracle = enumerated_gain(branches, pd)
                    analytic = branch_gain_avg(eta * mu, pd) ** (n - 1)
                    worst = max(worst, abs(oracle / analytic - 1.0))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    conclude("5", worst <= 0.005, f"worst relative gap {worst:.2e} over 54 grid points ({elapsed:.1f} s)")


def test_c06_decoy_safety_randomized():
    start = time.perf_counter()
    rng = np.random.default_rng(20240)
    violations = 0
    for _ in range(200):
        eta = 10.0 ** rng.uniform(-4.0, -0.05)
        pd = 10.0 ** rng.uniform(-9.0, -6.0)
        mu = 10.0 ** rng.uniform(-2.0, math.log10(0.5))
        nu = mu / rng.uniform(1.5, 8.0)
        om = nu / rng.uniform(1.05, 3.0)
        ta = om / rng.uniform(5.0, 300.0)

        gains = DecoyGains(
            intensities=(nu, om, ta),
            gains=tuple(branch_gain_avg(eta * x, pd) ** 2 for x in (nu, om, ta)),
            vacuum_gain=(2.0 * pd * (1.0 - pd)) ** 2,
        )
        y2_low = y2_lower_3party(gains)
        q_mu = branch_gain_avg(eta * mu, pd) ** 2
        e_x_up = phase_error_upper({2: y2_low}, mu, q_mu, gains.vacuum_gain, 3)

        branches = chain_branches(3, mu, eta, (False, False))
        if y2_low > yield_probability(branches, pd, 2) * (1.0 + 1e-9):
            violations += 1
        if e_x_up < parity_phase_error(branches, pd) * (1.0 - 1e-9):
            violations += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    conclude("6", violations == 0, f"{violations} violations over 200 random channels ({elapsed:.1f} s)")


@pytest.mark.parametrize("n_parties", [4, 5])
def test_c06_decoy_safety_randomized_general_ladder(n_parties):
    start = time.perf_counter()
    n_cut = n_cut_for(n_parties)
    rng = np.random.default_rng(20240 + n_parties)
    violations = checked = skipped = 0
    for _ in range(200):
        eta = 10.0 ** rng.uniform(-4.0, -0.05)
        pd = 10.0 ** rng.uniform(-9.0, -6.0)
        mu = 10.0 ** rng.uniform(-2.0, math.log10(0.5))
        decoys = [mu / rng.uniform(1.5, 8.0)]
        for _ in range(n_cut - 1):
            decoys.append(decoys[-1] / rng.uniform(1.3, 3.0))
        decoys.append(decoys[-1] / rng.uniform(5.0, 300.0))

        gains = DecoyGains(
            intensities=tuple(decoys),
            gains=tuple(branch_gain_avg(eta * x, pd) ** (n_parties - 1) for x in decoys),
            vacuum_gain=(2.0 * pd * (1.0 - pd)) ** (n_parties - 1),
        )
        try:
            y_low = yields_lower_general(gains, float(n_parties - 1), n_cut)
        except DegenerateGeometryError:
            skipped += 1
            continue
        checked += 1
        q_mu = branch_gain_avg(eta * mu, pd) ** (n_parties - 1)
        e_x_up = phase_error_upper(y_low, mu, q_mu, gains.vacuum_gain, n_parties)

        branches = chain_branches(n_parties, mu, eta, (False, False))
        for m, bound in y_low.items():
            if bound > yield_probability(branches, pd, m) * (1.0 + 1e-9):
                violations += 1
        if e_x_up < parity_phase_error(branches, pd) * (1.0 - 1e-9):
            violations += 1
    elapsed = time.perf_counter() - start
    assert checked >= 150, f"only {checked} of 200 draws passed the ladder's own checks"
    assert elapsed < 120.0
    conclude(
        "6", violations == 0,
        f"N={n_parties}: {violations} violations over {checked} checked random channels "
        f"({skipped} degenerate skipped, {elapsed:.1f} s)",
    )


def test_c07_monte_carlo_agreement():
    start = time.perf_counter()
    pp = ProtocolParams(n_parties=3, signal_intensity=0.1333, slice_count=14)
    ch = bench_channel_at(10.0)
    tally = run_rounds(pp, ch, SimConfig(rounds=1_000_000, seed=8))

    gain, pair_errors = tally_expectation(pp, ch)
    sig_gain = abs(tally.gain - gain) / math.sqrt(gain * (1.0 - gain) / tally.sifted)
    sigmas = {"gain": sig_gain}
    for m in (2, 3):
        expected = pair_errors[m]
        se = math.sqrt(expected * (1.0 - expected) / tally.success)
        sigmas[f"E{m}"] = abs(tally.pair_qbers[m] - expected) / se

    # no dark counts, essentially exact slice matching: no error mechanism
    clean = run_rounds(
        ProtocolParams(n_parties=3, signal_intensity=0.1333, slice_count=2_000_000),
        ChannelParams(0.2, 10.0, 0.65, 0.0),
        SimConfig(rounds=400_000, seed=7),
    )
    zero_errors = all(v == 0 for v in clean.pair_errors.values()) and clean.success > 0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    ok = all(s < 3.0 for s in sigmas.values()) and zero_errors
    conclude(
        "7", ok,
        "sigma distances "
        + " ".join(f"{k}={v:.2f}" for k, v in sigmas.items())
        + f"; clean-run errors={sum(clean.pair_errors.values())} ({elapsed:.1f} s)",
    )


def test_c08_star_ordering_over_grid():
    """Both variants compared at a common source configuration per
    distance: the signal intensity that is optimal for the
    post-selection-free variant (slice count left free for the sliced
    one).  Where no intensity gives the free variant a positive rate,
    no source point is selected and both rates are 0."""
    start = time.perf_counter()
    ch_kwargs = dict(loss_rate=0.2, detector_efficiency=0.93, dark_count=1e-7)
    failures = []
    for distance in range(0, 301, 10):
        ch = ChannelParams(distance=float(distance), **ch_kwargs)
        star_opt = optimize_signal(ch, 3, sliced=False, signal_phase_misalignment=0.015)
        if star_opt.flagged_zero:
            continue  # no operating point: both rates are 0
        mu = star_opt.best_params.signal_intensity
        star_rate = star_opt.best_rate
        sliced = 0.0
        for m in range(4, 65):
            pp = ProtocolParams(
                n_parties=3, signal_intensity=mu, slice_count=m,
                signal_phase_misalignment=0.015,
            )
            sliced = max(sliced, rate_pmqcc(pp, ch).rate)
        if star_rate < sliced:
            failures.append((distance, star_rate, sliced))
    elapsed = time.perf_counter() - start
    conclude(
        "8", not failures,
        f"no ordering violations on the 0-300 km grid ({elapsed:.1f} s)"
        if not failures else f"violations at {failures}",
    )


def test_c09_optimizer_recovery():
    start = time.perf_counter()
    rows = []
    ok = True
    for distance, mu_ref, m_ref, _ in TABLE_I:
        result = optimize_signal(bench_channel_at(distance), 3)
        mu_star = result.best_params.signal_intensity
        m_star = result.best_params.slice_count
        rows.append(f"L={distance:g}: M={m_star} mu={mu_star:.4f}")
        ok = ok and m_star == m_ref and abs(mu_star - mu_ref) <= 0.005
    elapsed = time.perf_counter() - start
    conclude("9", ok, "; ".join(rows) + f" ({elapsed:.1f} s)")


def test_c10_cli_simulation_determinism(tmp_path):
    config = {
        "parties": 3,
        "distance_km": 10.0,
        "alpha_db_per_km": 0.2,
        "detector_efficiency": 0.65,
        "dark_count": 7.2e-8,
        "slices": 14,
        "mu": 0.1333,
        "seed": 424242,
        "rounds": 200_000,
        "mode": "forced-matching",
    }
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps(config))

    def run(workers):
        proc = subprocess.run(
            [sys.executable, "-m", "pmqcc.cli", "simulate", str(cfg), "--workers", str(workers)],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    first = run(1)
    second = run(1)
    third = run(3)
    ok = first == second == third
    conclude("10", ok, f"{len(first)} output bytes identical across runs and worker counts")
