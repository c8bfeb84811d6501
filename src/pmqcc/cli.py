"""Command-line surface: single-point rates, rate-distance curves, decoy
bounds, Monte Carlo runs and parameter optimization, emitting JSON or
CSV with all floats in 12-significant-digit scientific notation so
outputs are byte-stable across runs.

Exit codes: 0 ok, 2 configuration/validation failure, 3 computation
failure (degenerate decoys, insufficient data, ...); errors are emitted
as a machine-readable JSON object on stderr.

Every command reads its config with ``load_config`` first, and that is
the config's one type check, of every number in the file; the builders
only convert the checked values.

``PROTOCOLS`` is the one table of protocol names: ``_setup`` reads it
once into ``rate_pmqcc``'s variant arguments, all the library sees, and
the command's rate function, and runs the distance-free checks of
``rate``, ``curve`` and ``optimize`` in one order, so a config fails
each of them with the same error before any output; a curve row whose
rate then fails at its own distance is flagged ``error:<type>``.

A process imports only the layers its command runs: the decoy
estimator, the optimizers and the simulator are imported inside the
functions that use them, so a plain rate loads ``core``, ``interference``
and ``keyrate`` alone, and a signal search adds ``optimize`` alone.  The
rate layers are imported inside the functions that run them too, so
``simulate`` loads ``core`` and ``montecarlo`` alone.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .core import ChannelParams, ParameterError, PMQCCError, ProtocolParams

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

# --protocol -> (sliced, the config's boundaries break the chain's ends,
# the decoy ladder certifies the phase error)
PROTOCOLS = {
    "pmqcc": (True, False, False),
    "pmqcc-star": (False, False, False),
    "reduced": (True, True, False),
    "decoy-lower": (True, False, True),
}

CSV_HEADER = "L_km,rate,gain,qber_max,phase_error,mu,M,flag"


def _csv_row(length: float, mu: float, slices: int, flag: str, report=None) -> str:
    """A curve row in the columns of ``CSV_HEADER``: the rate, gain,
    largest marginal QBER and phase error of ``report``, or zeros."""
    values = (0, 0, 0, 0)
    if report is not None:
        values = (report.rate, report.gain, max(report.marginal_qbers), report.phase_error)
    return ",".join([*map(_fmt, (length, *values, mu)), str(slices), flag])


# the most rows a curve may have; a wider range fails before any row is
# computed rather than running until it is killed
MAX_CURVE_ROWS = 100_000

# the most parties a config may name; a rate builds a branch and prints a
# QBER per party, so a larger N fails before any work rather than exhausting memory
MAX_PARTIES = 100_000


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


def _fields(record) -> dict:
    """A record's fields by name, as its ``__slots__`` list them."""
    return {name: getattr(record, name) for name in record.__slots__}


class ConfigError(ParameterError):
    """Configuration file failed validation."""


def _finite(literal: str) -> float:
    """A JSON number or constant (``NaN``, ``Infinity``) as a float, which
    must be finite: the echoed config has to stay JSON."""
    value = float(literal)
    if not math.isfinite(value):
        raise ConfigError(f"config numbers must be finite, got {literal}")
    return value


def _parse_int(literal: str) -> int:
    """A JSON integer literal as an int, which a float must hold: the
    commands read numbers as floats.  A literal past Python's limit on
    the digits of an int fails here too."""
    try:
        value = int(literal)
    except ValueError:
        value = math.inf
    if abs(value) > sys.float_info.max:
        raise ConfigError(f"config numbers must be finite, got an integer of {len(literal.lstrip('-'))} digits")
    return value


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_constant=_finite, parse_float=_finite, parse_int=_parse_int)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    # every number, also of keys a command does not read (curve takes its
    # distances from the command line); 3.0 and 1e6 count as integers
    for key in INT_KEYS:
        value = raw.get(key, 0)
        if not _is_number(value) or (isinstance(value, float) and not value.is_integer()):
            raise ConfigError(f"{key} must be an integer, got {value!r}")
    for key in FLOAT_KEYS:
        value = raw.get(key, 0.0)
        if not _is_number(value):
            raise ConfigError(f"{key} must be a number, got {value!r}")
    decoys = raw.get("decoys", [])
    if not isinstance(decoys, list) or not all(map(_is_number, decoys)):
        raise ConfigError(f"decoys must be a list of numbers, got {decoys!r}")
    return raw


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _require(cfg: dict, keys) -> None:
    missing = [k for k in keys if k not in cfg]
    if missing:
        raise ConfigError(f"config is missing required keys: {missing}")


def build_channel(cfg: dict) -> ChannelParams:
    _require(cfg, ["distance_km", "alpha_db_per_km", "detector_efficiency", "dark_count"])
    return ChannelParams(
        loss_rate=float(cfg["alpha_db_per_km"]),
        distance=float(cfg["distance_km"]),
        detector_efficiency=float(cfg["detector_efficiency"]),
        dark_count=float(cfg["dark_count"]),
    )


def build_protocol(cfg: dict) -> ProtocolParams:
    _require(cfg, ["parties", "mu", "slices", "f"])
    n_parties = int(cfg["parties"])
    if n_parties > MAX_PARTIES:
        raise ConfigError(f"parties must be at most {MAX_PARTIES}, got {cfg['parties']!r}")
    return ProtocolParams(
        n_parties=n_parties,
        signal_intensity=float(cfg["mu"]),
        slice_count=int(cfg["slices"]),
        ec_efficiency=float(cfg["f"]),
        decoy_intensities=tuple(map(float, cfg.get("decoys", ()))),
        signal_phase_misalignment=float(cfg.get("signal_phase_misalignment", 0.0)),
    )


def parse_boundaries(cfg: dict) -> tuple:
    marks = cfg.get("boundaries", ["right"])
    if not isinstance(marks, list) or any(m not in ("left", "right") for m in marks):
        raise ConfigError('boundaries must be a list drawn from ["left", "right"]')
    return ("left" in marks, "right" in marks)


def _setup(cfg: dict, protocol: str, targets: tuple = ()) -> tuple:
    """(record, channel, ``rate_pmqcc``'s variant kwargs, the rate
    function: ``decoy.rate_lower`` or ``rate_pmqcc`` with the variant) of
    a command, after every check that holds at every distance, in one
    order: the record, the channel, the boundaries of an exact protocol,
    the slice count, the dark count's domain of the branch gain and,
    unless the decoys are searched, the decoy set of a certified one.
    ``targets`` names the searches of ``_search`` that pick fields: the
    record holds placeholders there, mu = 1 and M = 4 for ``"signal"``,
    no decoys for ``"decoys"``."""
    from .interference import branch_gain_avg
    from .keyrate import rate_pmqcc, slice_constants

    sliced, breaks_ends, certified = PROTOCOLS[protocol]
    if "signal" in targets:
        cfg = {**cfg, "mu": 1.0, "slices": 4}
    if "decoys" in targets:
        cfg = {**cfg, "decoys": ()}
    pp = build_protocol(cfg)
    ch = build_channel(cfg)
    # every exact rate checks the boundaries, and only the reduced one reads them
    ends = (False, False) if certified else parse_boundaries(cfg)
    slice_constants(pp, sliced)
    branch_gain_avg(0.0, ch.dark_count)
    variant = {"sliced": sliced, "boundaries": ends if breaks_ends else (False, False)}
    if certified:
        from .decoy import check_decoy_set, rate_lower

        if "decoys" not in targets:
            check_decoy_set(pp)
        return pp, ch, variant, rate_lower
    return pp, ch, variant, functools.partial(rate_pmqcc, **variant)


def _search(target: str, variant: dict, pp: ProtocolParams, ch: ChannelParams):
    """The ``OptimizationResult`` of the ``"signal"`` or ``"decoys"`` search
    from ``pp`` at ``ch``.  The signal search scores the exact rate of
    ``variant``, also for a certified protocol; the decoy search scores
    the certified rate of the symmetric chain."""
    from .optimize import optimize_decoys, optimize_signal

    if target == "signal":
        return optimize_signal(ch, pp.n_parties, **variant, ec_efficiency=pp.ec_efficiency,
                               signal_phase_misalignment=pp.signal_phase_misalignment)
    return optimize_decoys(ch, pp.n_parties, pp.signal_intensity, pp.slice_count,
                           ec_efficiency=pp.ec_efficiency)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def cmd_rate(args) -> int:
    cfg = load_config(args.config)
    pp, ch, _, rate = _setup(cfg, args.protocol)
    report = rate(pp, ch)
    payload = {"protocol": args.protocol, **_fields(report), "config": cfg}
    _emit(_dump_json(payload) + "\n", args.out)
    return 0


def _curve_row(
    length: float, targets: tuple, fixed: ProtocolParams, channel: ChannelParams, variant: dict, rate
) -> str:
    """One CSV row: ``rate`` at ``length`` from ``_setup``'s record and
    channel, after each of ``targets`` is searched there with its
    variant; a search that fails ends it ``infeasible``."""
    ch = ChannelParams(channel.loss_rate, length, channel.detector_efficiency, channel.dark_count)
    pp = fixed
    try:
        for target in targets:
            result = _search(target, variant, pp, ch)
            if result.flagged_zero:
                mu, slices = (0, 0) if target == "signal" else (pp.signal_intensity, pp.slice_count)
                return _csv_row(length, mu, slices, "infeasible")
            best = result.best_params
            decoys = best.decoy_intensities if target == "decoys" else pp.decoy_intensities
            pp = ProtocolParams(pp.n_parties, best.signal_intensity, best.slice_count,
                                pp.ec_efficiency, decoys, pp.signal_phase_misalignment)
        report = rate(pp, ch)
    except PMQCCError as exc:
        return _csv_row(length, 0, 0, f"error:{type(exc).__name__}")
    flag = "clamped" if report.clamped else "ok"
    return _csv_row(length, pp.signal_intensity, pp.slice_count, flag, report)


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
    _, _, certified = PROTOCOLS[args.protocol]
    if args.optimize == "signal+decoys" and not certified:
        raise ConfigError("--optimize signal+decoys needs --protocol decoy-lower")
    # checked once, at l-min: a config that rate rejects fails here with the
    # same error instead of flagging every row
    targets = () if args.optimize == "none" else tuple(args.optimize.split("+"))
    fixed, ch, variant, rate = _setup({**cfg, "distance_km": args.l_min}, args.protocol, targets)
    rows = (_curve_row(length, targets, fixed, ch, variant, rate) for length in lengths)
    _emit("\n".join([CSV_HEADER, *rows]) + "\n", args.out)
    return 0


def cmd_simulate(args) -> int:
    from .montecarlo import SimConfig, run_rounds, tally_expectation

    cfg = load_config(args.config)
    _require(cfg, ["parties", "mu", "slices", "seed", "rounds"])
    cfg.setdefault("f", 1.16)
    pp = build_protocol(cfg)
    ch = build_channel(cfg)
    sc = SimConfig(
        rounds=int(cfg["rounds"]),
        seed=int(cfg["seed"]),
        mode=cfg.get("mode", "forced-matching"),
    )
    tally = run_rounds(pp, ch, sc, workers=args.workers)
    gain, pair_qbers = tally.gain, tally.pair_qbers

    gain_analytic, pair_errors = tally_expectation(pp, ch)

    def entry(ana: float, emp: float, trials: int) -> dict:
        # the distance in binomial standard errors at the analytic value
        se = math.sqrt(ana * (1.0 - ana) / trials)
        return {"analytic": ana, "empirical": emp, "sigma": abs(emp - ana) / se if se > 0.0 else 0.0}

    comparison = {
        "gain": entry(gain_analytic, gain, tally.sifted),
        "pair_qber": {str(p): entry(ana, pair_qbers[p], tally.success) for p, ana in pair_errors.items()},
    }
    payload = {"config": cfg, "tally": _fields(tally), "comparison": comparison}
    _emit(_dump_json(payload) + "\n", args.out)
    return 0


def cmd_optimize(args) -> int:
    cfg = load_config(args.config)
    pp, ch, variant, _ = _setup(cfg, args.protocol, (args.target,))
    if args.target == "decoys" and args.protocol != "pmqcc":
        raise ConfigError(f"the decoy search certifies the pmqcc chain, not --protocol {args.protocol}")
    result = _search(args.target, variant, pp, ch)
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
    p_rate.add_argument("--protocol", choices=tuple(PROTOCOLS), default="pmqcc")
    p_rate.add_argument("--out", default=None)
    p_rate.set_defaults(func=cmd_rate)

    p_curve = sub.add_parser("curve", help="rate-distance curve (CSV)")
    p_curve.add_argument("config")
    p_curve.add_argument("--protocol", choices=tuple(PROTOCOLS), default="pmqcc")
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
    # no decoy-lower: --target signal scores and reports the exact rate of
    # --protocol, and --target decoys always certifies the pmqcc chain
    p_opt.add_argument("--protocol", choices=[p for p, row in PROTOCOLS.items() if not row[2]], default="pmqcc")
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
