"""Command-line surface: single-point rates, rate-distance curves, decoy
bounds, Monte Carlo runs and parameter optimization, emitting JSON or
CSV with all floats in 12-significant-digit scientific notation so
outputs are byte-stable across runs.

Exit codes: 0 ok, 2 configuration/validation failure, 3 computation
failure (degenerate decoys, insufficient data, ...); errors are emitted
as a machine-readable JSON object on stderr.

``rate``, ``curve`` and ``optimize`` build their parameters through one
function, ``_setup``, which runs the distance-free checks in one order,
so a config fails each of them with the same error before any output; a
curve row whose rate then fails at its own distance is flagged
``error:<type>``.

A process imports only the layers its command runs: the decoy
estimator, the optimizers and the simulator are imported inside the
commands that use them, so a plain rate loads ``core``, ``errors``,
``interference`` and ``keyrate`` alone.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .core import ChannelParams, ProtocolParams
from .errors import ParameterError, PMQCCError
from .keyrate import OBJECTIVES, RateReport, objective_rate, rate_constants

__all__ = ["main"]

INT_KEYS = ("parties", "slices", "seed", "rounds")
FLOAT_KEYS = (
    "distance_km",
    "alpha_db_per_km",
    "detector_efficiency",
    "dark_count",
    "f",
    "mu",
    "signal_phase_misalignment",
)
CONFIG_KEYS = {*INT_KEYS, *FLOAT_KEYS, "decoys", "boundaries", "mode"}

PROTOCOLS = (*OBJECTIVES, "decoy-lower")

CSV_HEADER = "L_km,rate,gain,qber_max,phase_error,mu,M,flag"

# the most rows a curve may have; a wider range fails before any row is
# computed rather than running until it is killed
MAX_CURVE_ROWS = 100_000


def _fmt(x) -> str:
    """12-significant-digit scientific notation (a valid JSON number)."""
    return f"{float(x):.11e}"


def _dump_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, floats via ``_fmt``."""
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{pad_in}{json.dumps(str(k))}: {_dump_json(v, indent + 1)}"
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad_in}{_dump_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt(obj)
    return json.dumps(obj)


class ConfigError(ParameterError):
    """Configuration file failed validation."""


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    # every command checks the types of every number in the file, also of
    # keys it does not read (curve takes its distances from the command line)
    for key in INT_KEYS:
        if key in raw:
            _int(raw, key)
    for key in FLOAT_KEYS:
        if key in raw:
            _float(raw, key)
    _decoys(raw)
    return raw


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _float(cfg: dict, key: str, default=None) -> float:
    """The config's ``key`` as a float; a value that is not a JSON number
    fails as a ``ConfigError`` naming the key."""
    value = cfg.get(key, default)
    if not _is_number(value):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _int(cfg: dict, key: str) -> int:
    """The config's ``key`` as an int.  An integral number such as 3, 3.0
    or 1e6 passes; 3.7 fails as a ``ConfigError`` naming the key."""
    value = cfg[key]
    if not _is_number(value) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _decoys(cfg: dict) -> tuple:
    """The config's decoy intensities, a list of numbers, as floats."""
    decoys = cfg.get("decoys", ())
    if not isinstance(decoys, (list, tuple)) or not all(map(_is_number, decoys)):
        raise ConfigError(f"decoys must be a list of numbers, got {decoys!r}")
    return tuple(map(float, decoys))


def _require(cfg: dict, keys) -> None:
    missing = [k for k in keys if k not in cfg]
    if missing:
        raise ConfigError(f"config is missing required keys: {missing}")


def build_channel(cfg: dict) -> ChannelParams:
    _require(cfg, ["distance_km", "alpha_db_per_km", "detector_efficiency", "dark_count"])
    return ChannelParams(
        loss_rate=_float(cfg, "alpha_db_per_km"),
        distance=_float(cfg, "distance_km"),
        detector_efficiency=_float(cfg, "detector_efficiency"),
        dark_count=_float(cfg, "dark_count"),
    )


def build_protocol(cfg: dict) -> ProtocolParams:
    _require(cfg, ["parties", "mu", "slices", "f"])
    return ProtocolParams(
        n_parties=_int(cfg, "parties"),
        signal_intensity=_float(cfg, "mu"),
        slice_count=_int(cfg, "slices"),
        ec_efficiency=_float(cfg, "f"),
        decoy_intensities=_decoys(cfg),
        signal_phase_misalignment=_float(cfg, "signal_phase_misalignment", 0.0),
    )


def parse_boundaries(cfg: dict) -> tuple:
    marks = cfg.get("boundaries", ["right"])
    if not isinstance(marks, list) or any(m not in ("left", "right") for m in marks):
        raise ConfigError('boundaries must be a list drawn from ["left", "right"]')
    return ("left" in marks, "right" in marks)


def _setup(cfg: dict, protocol: str, search: str = "none") -> tuple:
    """(protocol record, channel, broken ends) of a command, after every
    check that holds at every distance, in one order: the record, the
    channel, the decoy set of ``decoy-lower`` or the boundaries of any
    other protocol, the slice count and, when the decoys are searched,
    the decoy search.  ``search`` (``none``, ``signal``, ``decoys`` or
    ``signal+decoys``) names what an optimizer picks: the record holds
    placeholders there, mu = 1 and M = 4 for the signal, no decoys."""
    if "signal" in search:
        cfg = {**cfg, "mu": 1.0, "slices": 4}
    if "decoys" in search:
        cfg = {**cfg, "decoys": ()}
    pp = build_protocol(cfg)
    ch = build_channel(cfg)
    ends = (False, False)
    if protocol != "decoy-lower":
        ends = parse_boundaries(cfg)
    elif "decoys" not in search:
        from .decoy import check_decoy_set

        check_decoy_set(pp)
    rate_constants(pp, sliced=protocol != "pmqcc-star")
    if "decoys" in search:
        from .optimize import check_decoy_search

        check_decoy_search(pp.n_parties)
    return pp, ch, ends


def compute_rate(protocol: str, pp: ProtocolParams, ch: ChannelParams, ends: tuple) -> RateReport:
    if protocol == "decoy-lower":
        from .decoy import rate_lower

        return rate_lower(pp, ch)
    return objective_rate(protocol, pp, ch, ends)


def report_dict(report: RateReport) -> dict:
    return {
        "rate": report.rate,
        "gain": report.gain,
        "marginal_qbers": list(report.marginal_qbers),
        "phase_error": report.phase_error,
        "sifting_prefactor": report.sifting_prefactor,
        "clamped": report.clamped,
    }


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_rate(args) -> int:
    cfg = load_config(args.config)
    pp, ch, ends = _setup(cfg, args.protocol)
    report = compute_rate(args.protocol, pp, ch, ends)
    payload = {"protocol": args.protocol, **report_dict(report), "config": cfg}
    _emit(_dump_json(payload) + "\n", args.out)
    return 0


def _zero_row(length: float, mu: float, slices: int, flag: str) -> str:
    """Curve row with zero rate, gain, QBER and phase error."""
    return f"{_fmt(length)},{_fmt(0)},{_fmt(0)},{_fmt(0)},{_fmt(0)},{_fmt(mu)},{slices},{flag}"


def _curve_row(
    length: float, protocol: str, search: str, fixed: ProtocolParams, channel: ChannelParams, ends: tuple
) -> str:
    """One CSV row: the rate of ``fixed`` and ``channel``, the record and
    the channel of ``_setup``, at ``length`` with the fields ``search``
    names picked there."""
    ch = ChannelParams(channel.loss_rate, length, channel.detector_efficiency, channel.dark_count)
    pp = fixed
    try:
        if search != "none":
            from .optimize import optimize_decoys, optimize_signal

            objective = protocol if protocol != "decoy-lower" else "pmqcc"
            result = optimize_signal(
                ch, pp.n_parties, objective, ec_efficiency=pp.ec_efficiency,
                signal_phase_misalignment=pp.signal_phase_misalignment, boundaries=ends,
            )
            if result.flagged_zero:
                return _zero_row(length, 0, 0, "infeasible")
            best = result.best_params
            pp = ProtocolParams(pp.n_parties, best.signal_intensity, best.slice_count,
                                pp.ec_efficiency, pp.decoy_intensities, pp.signal_phase_misalignment)
            if search == "signal+decoys":
                dec = optimize_decoys(
                    ch, pp.n_parties, pp.signal_intensity, pp.slice_count, ec_efficiency=pp.ec_efficiency
                )
                if dec.flagged_zero:
                    return _zero_row(length, pp.signal_intensity, pp.slice_count, "infeasible")
                pp = dec.best_params
        report = compute_rate(protocol, pp, ch, ends)
    except PMQCCError as exc:
        return _zero_row(length, 0, 0, f"error:{type(exc).__name__}")
    flag = "clamped" if report.clamped else "ok"
    return (
        f"{_fmt(length)},{_fmt(report.rate)},{_fmt(report.gain)},"
        f"{_fmt(max(report.marginal_qbers))},{_fmt(report.phase_error)},"
        f"{_fmt(pp.signal_intensity)},{pp.slice_count},{flag}"
    )


def cmd_curve(args) -> int:
    cfg = load_config(args.config)
    if not all(map(math.isfinite, (args.l_min, args.l_max, args.l_step))):
        raise ConfigError("l-min, l-max and l-step must be finite")
    if args.l_min > args.l_max or args.l_step <= 0:
        raise ConfigError("need l-min <= l-max and a positive l-step")
    lengths, length = [], args.l_min
    while length <= args.l_max + 1e-9:
        if len(lengths) == MAX_CURVE_ROWS:
            raise ConfigError(f"the distance range needs more than {MAX_CURVE_ROWS} rows")
        if length + args.l_step == length:
            raise ConfigError(f"an l-step of {args.l_step} leaves the distance {length} unchanged")
        lengths.append(length)
        length += args.l_step
    if args.optimize == "signal+decoys" and args.protocol != "decoy-lower":
        raise ConfigError("--optimize signal+decoys needs --protocol decoy-lower")
    # checked once, at l-min: a config that rate rejects fails here with the
    # same error instead of flagging every row
    fixed, ch, ends = _setup({**cfg, "distance_km": args.l_min}, args.protocol, args.optimize)
    rows = (_curve_row(length, args.protocol, args.optimize, fixed, ch, ends) for length in lengths)
    _emit("\n".join([CSV_HEADER, *rows]) + "\n", args.out)
    return 0


def cmd_simulate(args) -> int:
    from .montecarlo import SimConfig, estimate, run_rounds, tally_expectation

    cfg = load_config(args.config)
    _require(cfg, ["parties", "mu", "slices", "seed", "rounds"])
    cfg.setdefault("f", 1.16)
    pp = build_protocol(cfg)
    ch = build_channel(cfg)
    sc = SimConfig(
        rounds=_int(cfg, "rounds"),
        seed=_int(cfg, "seed"),
        mode=cfg.get("mode", "forced-matching"),
    )
    tally = run_rounds(pp, ch, sc, workers=args.workers)
    est = estimate(tally)

    gain_analytic, pair_errors = tally_expectation(pp, ch)

    def sigma(emp: float, ana: float, trials: int) -> float:
        se = math.sqrt(ana * (1.0 - ana) / trials)
        return abs(emp - ana) / se if se > 0.0 else 0.0

    comparison = {
        "gain": {
            "analytic": gain_analytic,
            "empirical": est.gain,
            "sigma": sigma(est.gain, gain_analytic, tally.sifted),
        },
        "pair_qber": {},
    }
    for m, ana in pair_errors.items():
        comparison["pair_qber"][str(m)] = {
            "analytic": ana,
            "empirical": est.pair_qbers[m],
            "sigma": sigma(est.pair_qbers[m], ana, tally.success),
        }
    payload = {"config": cfg, "tally": tally.to_dict(), "comparison": comparison}
    _emit(_dump_json(payload) + "\n", args.out)
    return 0


def cmd_optimize(args) -> int:
    from .optimize import optimize_decoys, optimize_signal

    cfg = load_config(args.config)
    pp, ch, ends = _setup(cfg, args.protocol, args.target)
    if args.target == "signal":
        result = optimize_signal(
            ch, pp.n_parties, args.protocol, ec_efficiency=pp.ec_efficiency,
            signal_phase_misalignment=pp.signal_phase_misalignment, boundaries=ends,
        )
    else:
        result = optimize_decoys(
            ch, pp.n_parties, pp.signal_intensity, pp.slice_count, ec_efficiency=pp.ec_efficiency
        )
    payload = {
        "target": args.target,
        "best_rate": result.best_rate,
        "evaluations": result.evaluations,
        "flagged_zero": result.flagged_zero,
    }
    if result.best_params is not None:
        payload["mu"] = result.best_params.signal_intensity
        payload["M"] = result.best_params.slice_count
        payload["decoys"] = list(result.best_params.decoy_intensities)
    _emit(_dump_json(payload) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmqcc",
        description="Phase-matching quantum conferencing: rates, bounds, simulation, optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rate = sub.add_parser("rate", help="single-point rate report (JSON)")
    p_rate.add_argument("config")
    p_rate.add_argument("--protocol", choices=PROTOCOLS, default="pmqcc")
    p_rate.add_argument("--out", default=None)
    p_rate.set_defaults(func=cmd_rate)

    p_curve = sub.add_parser("curve", help="rate-distance curve (CSV)")
    p_curve.add_argument("config")
    p_curve.add_argument("--protocol", choices=PROTOCOLS, default="pmqcc")
    p_curve.add_argument("--l-min", type=float, required=True)
    p_curve.add_argument("--l-max", type=float, required=True)
    p_curve.add_argument("--l-step", type=float, required=True)
    p_curve.add_argument("--optimize", choices=("none", "signal", "signal+decoys"), default="none")
    p_curve.add_argument("--out", default=None)
    p_curve.set_defaults(func=cmd_curve)

    p_sim = sub.add_parser("simulate", help="round-level Monte Carlo run (JSON)")
    p_sim.add_argument("config")
    p_sim.add_argument("--workers", type=int, default=1)
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_opt = sub.add_parser("optimize", help="parameter optimization (JSON)")
    p_opt.add_argument("config")
    p_opt.add_argument("--target", choices=("signal", "decoys"), default="signal")
    p_opt.add_argument("--protocol", choices=OBJECTIVES, default="pmqcc")
    p_opt.add_argument("--out", default=None)
    p_opt.set_defaults(func=cmd_optimize)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PMQCCError as exc:
        sys.stderr.write(_dump_json({"error": {"type": type(exc).__name__, "message": str(exc)}}) + "\n")
        # ConfigError is a ParameterError
        return 2 if isinstance(exc, ParameterError) else 3


if __name__ == "__main__":
    sys.exit(main())
