"""pmqcc benchmark: wall time of real ``pmqcc`` CLI processes.

Usage, from the repository root:

    python3 bench/run.py --workload point-queries --seed 1 --seconds 20 --trace 0

One client runs one CLI process at a time (a closed loop), as a script
that waits for each result does.  The workload's cycle of invocations is
repeated until ``--seconds`` is used up, never stopping mid-cycle, so
every run measures the same mix.  Every output is checked against the
independent oracle in ``oracle.py``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` one cycle is replayed in-process through
``pmqcc.cli.main(argv)``, untraced and then traced, and the last line
carries the per-layer metrics.  Earlier lines give a readable report and
the run context; spans and results go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from importlib import metadata

import checks
import tracer as tracing
import workloads

SETUP_SPAWNS = 7
PROCESS_TIMEOUT_S = 150.0
# per-layer self times must add up to the traced wall time within this share
SELF_TIME_TOLERANCE = 0.01
OUT_DIR = ".bench_out"


class Spawner:
    """Runs child processes one at a time and measures each one."""

    def __init__(self, root: str, scratch: str):
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.stdout_path = os.path.join(scratch, "child.stdout")
        self.stderr_path = os.path.join(scratch, "child.stderr")

    def run(self, args: list) -> dict:
        """Exit code, wall seconds, max RSS in MB, stdout and stderr."""
        with open(self.stdout_path, "w+b") as out, open(self.stderr_path, "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err, env=self.env)
            killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return {"code": proc.returncode, "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0,
                    "stdout": out.read(), "stderr": err.read()}


def context(args) -> dict:
    """Seed, versions and core count; the children run this interpreter."""
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"), "nproc": len(os.sched_getaffinity(0))}


def import_probe(spawner: Spawner, module: str, *flags) -> dict:
    probe = spawner.run([*flags, "-c", f"import {module}"])
    if probe["code"] != 0:
        raise SystemExit(f"cannot import {module} from src/: {probe['stderr'].decode(errors='replace')}")
    return probe


@dataclass
class Result:
    """``metrics`` (name to value, units from BENCHMARK.json) go to the
    result line; ``extra`` (name to value and unit) only to the report.
    ``failures`` holds one message per failed operation, plus any failed
    self-check of the benchmark itself, which counts in no operation."""

    metrics: dict
    extra: dict
    attempted: int
    failed: int
    failures: list
    log: list


def process_log(results: list) -> list:
    return [{"op": i, "argv": op.argv, "code": r["code"], "wall_s": r["wall_s"], "rss_mb": r["rss_mb"]}
            for i, op, r in results]


def check_all(results: list) -> tuple:
    """Operations attempted and failure messages over all invocations."""
    first_stdout: dict = {}
    attempted, failures = 0, []
    for op_index, op, res in results:
        partner = first_stdout.get(op.pair) if op.pair is not None else None
        failures += checks.check(op, res["code"], res["stdout"], partner)
        first_stdout.setdefault(op_index, res["stdout"])
        attempted += checks.operations(op)
    return attempted, failures


def run_cycles(spawner: Spawner, ops: list, seconds: float) -> tuple:
    """Whole cycles until the next one would overrun ``seconds`` by more
    than half a cycle; returns the per-invocation results and wall time."""
    results = []
    t_start = time.perf_counter()
    cycles = 0
    while True:
        for i, op in enumerate(ops):
            results.append((i, op, spawner.run(["-m", "pmqcc.cli", *op.argv])))
        cycles += 1
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / cycles / 2.0 >= seconds:
            return results, elapsed


def end_to_end(spawner: Spawner, ops: list, seconds: float) -> Result:
    # untimed: the first import in a fresh checkout writes the bytecode cache
    import_probe(spawner, "pmqcc")
    setup = [import_probe(spawner, "pmqcc")["wall_s"] for _ in range(SETUP_SPAWNS)]
    results, wall = run_cycles(spawner, ops, seconds)
    walls = [r["wall_s"] for _, _, r in results]
    metrics = {
        "setup_s": statistics.median(setup),
        "query_p50_s": statistics.median(walls),
        "queries_per_s": len(results) / wall,
        "peak_rss_mb": max(r["rss_mb"] for _, _, r in results),
    }
    attempted, failures = check_all(results)
    extra = {"error_share": (len(failures) / attempted, "ratio"), "invocations": (len(results), "count")}
    curve = [(op.rows, r["wall_s"]) for _, op, r in results if op.kind == "curve"]
    if curve:
        extra["curve_rows_per_s"] = (sum(n for n, _ in curve) / sum(w for _, w in curve), "rows/s")
    sims = [(op.config["rounds"], r["wall_s"]) for _, op, r in results if op.kind == "simulate"]
    if sims:
        extra["mc_rounds_per_s"] = (sum(n for n, _ in sims) / sum(w for _, w in sims), "rounds/s")
    return Result(metrics, extra, attempted, len(failures), failures, process_log(results))


def _call_cli(argv: list) -> tuple:
    """In-process ``pmqcc.cli.main(argv)``: stdout bytes and wall seconds."""
    from pmqcc import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        cli.main(list(argv))
        wall = time.perf_counter() - t0
    return buf.getvalue().encode("utf-8"), wall


def replay(ops: list, tr) -> tuple:
    """Each invocation in-process, untraced and then traced, back to back
    so that drifting machine speed affects both alike."""
    plain, traced = [], []
    for i, op in enumerate(ops):
        plain.append(_call_cli(op.argv))
        tr.current_op = i
        tr.install()
        try:
            traced.append(_call_cli(op.argv))
        finally:
            tr.uninstall()
    return plain, traced


def per_layer(spawner: Spawner, ops: list, root: str, out_dir: str) -> Result:
    probe = import_probe(spawner, "pmqcc.cli", "-X", "importtime")
    values = tracing.parse_importtime(probe["stderr"].decode("utf-8", errors="replace"))

    results = [(i, op, spawner.run(["-m", "pmqcc.cli", *op.argv])) for i, op in enumerate(ops)]
    attempted, failures = check_all(results)

    sys.path.insert(0, os.path.join(root, "src"))
    tr = tracing.Tracer()
    plain, traced = replay(ops, tr)
    tr.write(os.path.join(out_dir, "spans"), [op.argv for op in ops])
    for i, op, res in results:
        if plain[i][0] != res["stdout"] or traced[i][0] != res["stdout"]:
            failures.append(f"{op.kind} op{i:02d}: in-process replay stdout differs from the CLI process")
    plain_wall = sum(w for _, w in plain)
    traced_wall = sum(w for _, w in traced)

    values.update(tracing.layer_totals(tr))
    by_op = tracing.rounds_per_s_by_op(tr)
    speedups = [by_op[i] / by_op[op.pair] for i, op in enumerate(ops)
                if op.pair is not None and i in by_op and op.pair in by_op]
    values["montecarlo.speedup_2w"] = statistics.median(speedups) if speedups else 0.0
    values["trace.overhead_share"] = traced_wall / plain_wall - 1.0

    self_total = sum(values[f"{name}.self_s"] for name in tracing.LAYERS)
    gap = abs(self_total - traced_wall) / traced_wall
    extra = {"trace.self_time_gap": (gap, "ratio"), "trace.spans": (len(tr.start), "count")}
    failed = len(failures)
    if gap > SELF_TIME_TOLERANCE:
        failures.append(f"layer self times miss the traced wall time by {gap:.2%}")
    return Result(values, extra, attempted, failed, failures, process_log(results))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run unwinds, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pmqcc", "cli.py")):
        print("run from the repository root: src/pmqcc/cli.py not found", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    out_dir = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(out_dir, exist_ok=True)
    spawner = Spawner(root, out_dir)
    ops = workloads.generate(args.workload, args.seed, os.path.join(out_dir, "configs"))
    if args.trace:
        res = per_layer(spawner, ops, root, out_dir)
    else:
        res = end_to_end(spawner, ops, args.seconds)
    ctx = context(args)
    mismatch = units.keys() ^ res.metrics.keys()
    if mismatch:
        raise SystemExit(f"metrics and BENCHMARK.json disagree on: {', '.join(sorted(mismatch))}")
    metrics = {k: (v, units[k]) for k, v in res.metrics.items()}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    report = {**metrics, **res.extra}
    for name, (value, unit) in report.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    print(f"  operations {res.attempted} attempted, {res.failed} failed")
    for msg, times in sorted(Counter(res.failures).items()):
        print(f"  FAIL {msg}" + (f" (x{times})" if times > 1 else ""))
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"context": ctx, "report": report, "attempted": res.attempted, "failed": res.failed,
                   "failures": res.failures, "processes": res.log}, fh, indent=1)
    print(json.dumps({"context": ctx}))
    print(json.dumps({
        "correct": not res.failures,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
