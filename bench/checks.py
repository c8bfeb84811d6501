"""Output checks for each CLI invocation, against the independent oracle.

Each check returns a list of failure messages, one per failed operation
(a curve row counts as one operation).  Tolerances:

* ``RTOL``: rates, gains, QBERs and phase errors agree with the oracle to
  this relative tolerance.  The CLI prints 12 significant digits and a
  correct implementation agrees with the oracle to ~1e-10, so 1e-6 only
  flags real errors.  An oracle rate of exactly 0 admits only a rate
  within ``ZERO_BAND`` of the prefactor-times-gain scale, where the sign
  of the raw rate is floating-point noise.
* ``SIGMA``: Monte Carlo counts lie within this many binomial standard
  deviations of the oracle expectation.

A decoy search that reports no positive rate fails when the oracle's
decoy witness certifies a rate above ``ZERO_BAND`` of the scale with the
workload's own decoy set at the same mu and M.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math

import oracle
import workloads

RTOL = 1e-6
ZERO_BAND = 1e-12
SIGMA = 5.0

CSV_HEADER = ["L_km", "rate", "gain", "qber_max", "phase_error", "mu", "M", "flag"]


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= RTOL * abs(ref)


def _rate_ok(value: float, ref: dict) -> bool:
    if ref["rate"] == 0.0:
        return 0.0 <= value <= ZERO_BAND * ref["scale"]
    return _close(value, ref["rate"])


def _point(cfg, protocol, mu, m, distance, rate, gain, qber_max, phase_error) -> list:
    """Mismatches of one rate point against the oracle; ``decoy-lower``
    must not exceed the exact rate and its phase-error bound must not
    undercut the exact phase error."""
    exact = oracle.rate(cfg, "pmqcc" if protocol == "decoy-lower" else protocol, mu, m, distance)
    bad = []
    if not _close(gain, exact["gain"]):
        bad.append(f"gain {gain!r} vs oracle {exact['gain']!r}")
    if not _close(qber_max, exact["qber_max"]):
        bad.append(f"qber_max {qber_max!r} vs oracle {exact['qber_max']!r}")
    if protocol == "decoy-lower":
        if rate > exact["rate"] * (1.0 + RTOL) + ZERO_BAND * exact["scale"]:
            bad.append(f"decoy lower bound {rate!r} exceeds exact rate {exact['rate']!r}")
        if phase_error < exact["phase_error"] * (1.0 - RTOL):
            bad.append(f"phase-error bound {phase_error!r} below exact {exact['phase_error']!r}")
    else:
        if not _rate_ok(rate, exact):
            bad.append(f"rate {rate!r} vs oracle {exact['rate']!r}")
        if not _close(phase_error, exact["phase_error"]):
            bad.append(f"phase_error {phase_error!r} vs oracle {exact['phase_error']!r}")
    return bad


def check_rate(op, text: str) -> list:
    out = json.loads(text)
    cfg = op.config
    bad = _point(cfg, op.protocol, float(cfg["mu"]), int(cfg["slices"]), float(cfg["distance_km"]),
                 out["rate"], out["gain"], max(out["marginal_qbers"]), out["phase_error"])
    n = int(cfg["parties"])
    if len(out["marginal_qbers"]) != n - 1:
        bad.append(f"{len(out['marginal_qbers'])} marginal QBERs for N={n}")
    return ["; ".join(bad)] if bad else []


def _refuted_zero(cfg: dict, mu: float, m: int, distance: float) -> list:
    """Failure if the workload's decoy set certifies a positive rate."""
    witness = oracle.decoy_witness_rate(cfg, mu, m, distance, workloads.decoy_set(int(cfg["parties"]), mu))
    scale = oracle.rate(cfg, "pmqcc", mu, m, distance)["scale"]
    return [f"no positive rate, but the workload decoy set certifies {witness!r}"] if witness > ZERO_BAND * scale else []


def check_optimize(op, text: str) -> list:
    """Decoy optimization: the certified optimum is a valid decoy set
    whose rate does not exceed the exact rate.  A search that reports no
    positive rate fails if the decoy witness refutes it."""
    out = json.loads(text)
    cfg = op.config
    if out["flagged_zero"]:
        if out["best_rate"] != 0.0:
            return [f"flagged_zero with rate {out['best_rate']!r}"]
        return _refuted_zero(cfg, float(cfg["mu"]), int(cfg["slices"]), float(cfg["distance_km"]))
    n = int(cfg["parties"])
    decoys = out["decoys"]
    bad = []
    if out["mu"] != float(cfg["mu"]) or out["M"] != int(cfg["slices"]):
        bad.append("optimized decoys changed mu or M")
    n_cut = n - 1 if n % 2 else n
    if len(decoys) != n_cut + 2 or decoys[-1] != 0.0 or any(a <= b for a, b in zip(decoys, decoys[1:])):
        bad.append(f"malformed decoy set {decoys}")
    if not out["evaluations"] > 0 or not out["best_rate"] > 0.0:
        bad.append("no evaluations or no positive rate")
    exact = oracle.rate(cfg, "pmqcc", float(cfg["mu"]), int(cfg["slices"]), float(cfg["distance_km"]))
    if out["best_rate"] > exact["rate"] * (1.0 + RTOL) + ZERO_BAND * exact["scale"]:
        bad.append(f"certified rate {out['best_rate']!r} exceeds exact rate {exact['rate']!r}")
    return ["; ".join(bad)] if bad else []


def _curve_distances(op) -> list:
    """The CLI's own distance stepping, reproduced: repeated addition."""
    args = dict(zip(op.argv[2::2], op.argv[3::2]))
    length, l_max, step = float(args["--l-min"]), float(args["--l-max"]), float(args["--l-step"])
    out = []
    while length <= l_max + 1e-9:
        out.append(length)
        length += step
    return out


def _infeasible_everywhere(cfg: dict, protocol: str, distance: float) -> bool:
    """True if the exact rate is 0 on the optimizer's own coarse grid."""
    mus = [1e-3 * 1000.0 ** (i / 39) for i in range(40)]
    slices = [13] if protocol == "pmqcc-star" else range(4, 65)
    return all(oracle.rate(cfg, protocol, mu, m, distance)["rate"] <= 0.0 for m in slices for mu in mus)


def check_curve(op, text: str) -> list:
    """One message per failed row; a malformed table fails every row."""
    rows = list(csv.reader(io.StringIO(text)))
    distances = _curve_distances(op)
    if not rows or rows[0] != CSV_HEADER or not len(rows) - 1 == len(distances) == op.rows:
        return [f"malformed curve output ({len(rows)} lines)"] * op.rows
    cfg = op.config
    objective = "pmqcc" if op.protocol == "decoy-lower" else op.protocol
    failures = []
    for row, distance in zip(rows[1:], distances):
        length, rate, gain, qber_max, phase_error, mu = (float(x) for x in row[:6])
        m, flag = int(row[6]), row[7]
        where = f"row L={length}"
        if not math.isclose(length, distance, rel_tol=1e-11, abs_tol=1e-9):
            failures.append(f"{where}: expected distance {distance}")
        elif flag == "infeasible":
            # M=0 marks a failed signal search, M>0 a failed decoy search
            if m == 0 and not _infeasible_everywhere(cfg, objective, distance):
                failures.append(f"{where}: infeasible but the exact rate is positive somewhere")
            elif m != 0:
                failures += [f"{where}: {msg}" for msg in _refuted_zero(cfg, mu, m, distance)]
        elif flag in ("ok", "clamped"):
            bad = _point(cfg, op.protocol, mu, m, distance, rate, gain, qber_max, phase_error)
            if bad:
                failures.append(f"{where}: " + "; ".join(bad))
        else:
            failures.append(f"{where}: flag {flag}")
    return failures


_mc_expectations = functools.cache(oracle.mc_expectations)


def _binomial_ok(count: int, trials: int, p: float) -> bool:
    sd = math.sqrt(trials * p * (1.0 - p))
    return abs(count - trials * p) <= SIGMA * sd + 0.5


def check_simulate(op, text: str) -> list:
    out = json.loads(text)
    cfg = op.config
    tally = out["tally"]
    n, m = int(cfg["parties"]), int(cfg["slices"])
    eta = oracle.transmittance(float(cfg["alpha_db_per_km"]), float(cfg["distance_km"]),
                               float(cfg["detector_efficiency"]))
    expect = _mc_expectations(n, eta * float(cfg["mu"]), float(cfg["dark_count"]), m)
    sift_p = (2.0 / m) ** (n - 1)
    bad = []
    if tally["sent"] != int(cfg["rounds"]) or tally["mode"] != cfg["mode"]:
        bad.append("tally does not match the config")
    if cfg["mode"] == "forced-matching":
        if tally["sifted"] != tally["sent"] or not math.isclose(tally["sifting_probability"], sift_p, rel_tol=1e-11):
            bad.append("forced matching must sift every round at probability (2/M)^(N-1)")
    elif not _binomial_ok(tally["sifted"], tally["sent"], sift_p):
        bad.append(f"sifted {tally['sifted']} of {tally['sent']} vs p={sift_p}")
    if sum(tally["pattern_counts"].values()) != tally["success"]:
        bad.append("pattern counts do not sum to successes")
    if not _binomial_ok(tally["success"], tally["sifted"], expect["success"]):
        bad.append(f"success {tally['success']} of {tally['sifted']} vs p={expect['success']:.6g}")
    for p, q in expect["pair_error"].items():
        errors = tally["pair_errors"][str(p)]
        if not _binomial_ok(errors, tally["success"], q):
            bad.append(f"pair {p}: {errors} errors of {tally['success']} vs q={q:.6g}")
    return ["; ".join(bad)] if bad else []


CHECKS = {
    "rate": check_rate,
    "optimize": check_optimize,
    "curve": check_curve,
    "simulate": check_simulate,
}


def operations(op) -> int:
    """Operations one invocation counts for: its curve rows, or 1."""
    return op.rows if op.kind == "curve" else 1


def check(op, code: int, stdout: bytes, paired_stdout: bytes | None = None) -> list:
    """Failure messages for one invocation, at most ``operations(op)``."""
    if code != 0:
        failures = [f"exit code {code}"] * operations(op)
    elif paired_stdout is not None and stdout != paired_stdout:
        failures = [f"--workers {op.workers} output differs from its paired run"]
    else:
        try:
            failures = CHECKS[op.kind](op, stdout.decode("utf-8"))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            failures = [f"unparsable output: {type(exc).__name__}: {exc}"] * operations(op)
    where = f"{op.kind} N={op.config['parties']} {op.protocol}"
    return [f"{where}: {msg}" for msg in failures]
