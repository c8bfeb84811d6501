"""Self-tests of the benchmark's oracle, tracer and import-time parser.

Run from the repository root:  python -m pytest -q bench
"""

from __future__ import annotations

import json
import math
import sys
import time
from itertools import product
from pathlib import Path

import pytest

import checks
import oracle
import tracer as tracing
import workloads

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

PD = 7.2e-8


def poisson_sum_phase_error(a: float, ts, pd: float, k_max: int = 60) -> float:
    """E_X as the odd-photon-number share of sum_k P_t(k) Y_k, with Y_k
    enumerated over the branch occupations of k photons."""
    total_t = sum(ts)
    weights = [t / total_t for t in ts]
    survivals = [a / t for t in ts]
    odd = even = 0.0
    for k in range(k_max + 1):
        y_k = 0.0
        for occupation in product(range(k + 1), repeat=len(ts) - 1):
            last = k - sum(occupation)
            if last < 0:
                continue
            ns = (*occupation, last)
            p = math.factorial(k)
            for n, w, s in zip(ns, weights, survivals):
                p *= w**n / math.factorial(n) * (1.0 - pd) * (1.0 - (1.0 - 2.0 * pd) * (1.0 - s) ** n)
            y_k += p
        mass = math.exp(-total_t) * total_t**k / math.factorial(k) * y_k
        if k % 2:
            odd += mass
        else:
            even += mass
    return odd / (odd + even)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("broken", [(False, False), (False, True), (True, True)])
@pytest.mark.parametrize("distance", [0.0, 100.0, 250.0])
def test_phase_error_matches_poisson_sum(n, broken, distance):
    mu = 0.13
    a = oracle.transmittance(0.2, distance, 0.65) * mu
    ts = oracle.virtual_intensities(n, mu, broken)
    assert oracle.phase_error(a, ts, PD) == pytest.approx(poisson_sum_phase_error(a, ts, PD), rel=1e-10)


def test_reduced_chain_virtual_intensities():
    assert oracle.virtual_intensities(4, 0.1, (False, True)) == pytest.approx([0.1, 0.1, 0.15])
    assert oracle.virtual_intensities(2, 0.1, (True, True)) == pytest.approx([0.2])


def test_rate_oracle_reproduces_benchmark_row():
    cfg = {"parties": 3, "dark_count": PD, "alpha_db_per_km": 0.2, "detector_efficiency": 0.65, "f": 1.16}
    assert oracle.rate(cfg, "pmqcc", 0.1333, 13, 50.0)["rate"] == pytest.approx(2.6989e-7, rel=1e-4)


def test_mc_oracle_single_branch_against_triangular_quadrature():
    a, m = 0.05, 14
    w = 2.0 * math.pi / m

    def click(delta):
        ls = (1.0 - PD) * math.exp(-a * math.cos(delta / 2.0) ** 2)
        rs = (1.0 - PD) * math.exp(-a * math.sin(delta / 2.0) ** 2)
        return (1.0 - ls) * rs + ls * (1.0 - rs)

    steps = 20000
    h = 2.0 * w / steps
    # the difference of two uniform in-slice positions is triangular
    quad = sum(click(-w + (i + 0.5) * h) * (w - abs(-w + (i + 0.5) * h)) / w**2 for i in range(steps)) * h
    assert oracle.mc_expectations(2, a, PD, m)["success"] == pytest.approx(quad, rel=1e-5)


@pytest.mark.parametrize("distance", [0.0, 60.0, 140.0])
def test_decoy_witness_is_a_lower_bound(distance):
    cfg = {**workloads.CHANNEL, "parties": 3}
    mu = 0.13
    witness = oracle.decoy_witness_rate(cfg, mu, 13, distance, workloads.decoy_set(3, mu))
    assert 0.0 < witness <= oracle.rate(cfg, "pmqcc", mu, 13, distance)["rate"]


def test_decoy_witness_certifies_nothing_above_half_phase_error():
    cfg = {**workloads.CHANNEL, "parties": 4}
    assert oracle.rate(cfg, "pmqcc", 0.13, 13, 5.0)["phase_error"] > 0.5
    assert oracle.decoy_witness_rate(cfg, 0.13, 13, 5.0, workloads.decoy_set(4, 0.13)) == 0.0


def test_failed_decoy_search_is_refuted_on_every_point_query_seed(tmp_path):
    zero = json.dumps({"target": "decoys", "best_rate": 0.0, "evaluations": 90, "flagged_zero": True}).encode()
    for seed in range(20):
        ops = workloads.generate("point-queries", seed, str(tmp_path / str(seed)))
        searches = [op for op in ops if op.kind == "optimize"]
        assert searches and all(checks.check(op, 0, zero) for op in searches)


def test_workloads_are_seeded(tmp_path):
    first = workloads.generate("point-queries", 3, str(tmp_path / "a"))
    again = workloads.generate("point-queries", 3, str(tmp_path / "b"))
    other = workloads.generate("point-queries", 4, str(tmp_path / "c"))
    assert [op.config for op in first] == [op.config for op in again]
    assert [op.config for op in first] != [op.config for op in other]


def test_positive_rate_against_oracle_zero_fails():
    op = workloads.Op(kind="rate", argv=["rate", "cfg"], config={
        **workloads.CHANNEL, "parties": 8, "distance_km": 100.0, "slices": 13, "mu": 0.13})
    exact = oracle.rate(op.config, "pmqcc", 0.13, 13, 100.0)
    assert exact["rate"] == 0.0
    out = {"rate": 1e-28, "gain": exact["gain"], "marginal_qbers": [exact["qber_max"]] * 7,
           "phase_error": exact["phase_error"]}
    assert checks.check(op, 0, json.dumps(out).encode())
    assert not checks.check(op, 0, json.dumps({**out, "rate": 0.0}).encode())


def test_tracer_self_times_add_up_and_catch_imported_names(tmp_path):
    from pmqcc import ChannelParams, cli, keyrate, optimize

    original = optimize.rate_pmqcc
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**workloads.CHANNEL, "parties": 3, "distance_km": 20.0, "slices": 13, "mu": 0.13}))
    tr = tracing.Tracer()
    tr.install()
    walls = []
    try:
        assert optimize.rate_pmqcc is not original
        for argv in (["rate", str(cfg)], ["optimize", str(cfg), "--target", "decoys"]):
            t0 = time.perf_counter()
            assert cli.main(argv) == 0
            walls.append(time.perf_counter() - t0)
        optimize.optimize_signal(ChannelParams(0.2, 20.0, 0.65, PD), 3, m_values=range(12, 14))
    finally:
        tr.uninstall()
    assert optimize.rate_pmqcc is original and keyrate.rate_pmqcc is original

    totals = tracing.layer_totals(tr)
    roots = [i for i, p in enumerate(tr.parent) if p < 0]
    root_time = sum(tr.end[i] - tr.start[i] for i in roots) / 1e9
    self_time = sum(totals[f"{name}.self_s"] for name in tracing.LAYERS)
    assert self_time == pytest.approx(root_time, rel=1e-9)
    cli_time = sum(tr.end[i] - tr.start[i] for i in roots if tr.names[tr.func[i]] == "pmqcc.cli.main") / 1e9
    assert cli_time == pytest.approx(sum(walls), rel=0.01)

    by_name = {name: f for f, name in enumerate(tr.names)}
    rate_calls = [i for i, f in enumerate(tr.func) if f == by_name["pmqcc.keyrate.rate_pmqcc"]]
    signal = by_name["pmqcc.optimize.optimize_signal"]
    assert any(tr.func[tr.parent[i]] == signal for i in rate_calls)
    assert totals["optimize.evaluations"] > 0 and totals["keyrate.calls"] > 0


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |     numpy._core
import time:        50 |        150 |   numpy
import time:        20 |         20 |     _decimal
import time:        30 |         50 |   scipy.special
import time:        10 |        210 | pmqcc.core
import time:        40 |         40 |   scipy.integrate
import time:         5 |         45 | pmqcc.interference
"""


def test_parse_importtime_families_and_cumulative():
    out = tracing.parse_importtime(IMPORTTIME)
    assert out["core.import_s"] == pytest.approx(210e-6)
    assert out["interference.import_s"] == pytest.approx(45e-6)
    assert out["import.numpy_s"] == pytest.approx(150e-6)
    assert out["import.scipy_s"] == pytest.approx(90e-6)
    assert out["cli.import_s"] == 0.0


# Outputs of the program at the commit that added this benchmark, in the
# two defect domains the workloads stay out of (see workloads.MAX_KM).
# The checks must keep failing them.
N8_CURVE = (
    "L_km,rate,gain,qber_max,phase_error,mu,M,flag\n"
    "4.50000000000e+01,1.29065909459e-23,3.04868864552e-17,5.86702179512e-02,"
    "1.12631619289e-01,5.35316768465e-02,12,ok\n"
)
N4_DECOY_LOWER = {"rate": 1.83861137705e-08, "gain": 3.62011617552e-05,
                  "marginal_qbers": [6.85339779978e-03, 1.36128574768e-02, 2.02796666216e-02],
                  "phase_error": 8.13245643944e-01}


def test_checks_fail_recorded_outputs_of_known_defects():
    cfg = {**workloads.CHANNEL, "parties": 8, "slices": 13, "mu": 0.08}
    curve = workloads._curve(cfg, "pmqcc", "signal", 1, 45.0, 10.0)
    assert len(checks.check(curve, 0, N8_CURVE.encode())) == 1

    cfg = {**workloads.CHANNEL, "parties": 4, "slices": 13, "mu": 0.13, "distance_km": 20.0,
           "decoys": workloads.decoy_set(4, 0.13)}
    rate = workloads.Op(kind="rate", argv=["rate", "cfg"], config=cfg, protocol="decoy-lower")
    [msg] = checks.check(rate, 0, json.dumps(N4_DECOY_LOWER).encode())
    assert "exceeds exact rate" in msg
