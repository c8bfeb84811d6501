"""Layer-boundary tracing from outside the program, and the import probe.

``Tracer.install`` wraps every function listed in a layer module's
``__all__`` and rebinds it, by identity, in every loaded ``pmqcc.*``
namespace, so a name imported with ``from .keyrate import rate_pmqcc``
is caught as well.  Spans (function, parent span, operation, start, end)
go into flat typed arrays: an optimized-curve replay makes about a
million boundary calls.  Only the main thread is traced; calls from
worker threads pass straight through.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from array import array

PACKAGE = "pmqcc"
LAYERS = ("cli", "core", "interference", "yields", "keyrate", "decoy", "optimize", "montecarlo")

# result attributes recorded at the boundary of these layers
OBSERVED = {"optimize": ("evaluations",), "montecarlo": ("sent", "success")}


class Tracer:
    def __init__(self):
        self.names: list = []
        self.layer_of: list = []
        self.func = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.errors: list = []  # (span, exception type name)
        self.observed: list = []  # (span, {attribute: value})
        self.current_op = -1
        self._stack: list = []
        self._patches: list = []
        self._wrappers: dict | None = None

    def _wrap(self, fn, layer: int):
        fid = len(self.names)
        self.names.append(f"{fn.__module__}.{fn.__qualname__}")
        self.layer_of.append(layer)
        funcs, parents, ops, starts, ends = self.func, self.parent, self.op, self.start, self.end
        stack, errors, observed = self._stack, self.errors, self.observed
        attrs = OBSERVED.get(LAYERS[layer])
        clock, get_ident = time.perf_counter_ns, threading.get_ident
        main_ident = threading.main_thread().ident
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if get_ident() != main_ident:
                return fn(*args, **kwargs)
            idx = len(starts)
            funcs.append(fid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.current_op)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = clock()
                stack.pop()
                errors.append((idx, type(exc).__name__))
                raise
            ends[idx] = clock()
            stack.pop()
            if attrs is not None:
                observed.append((idx, {a: getattr(result, a) for a in attrs if hasattr(result, a)}))
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every layer function to its wrapper; wrappers are built
        once, so spans from repeated installs share function ids."""
        if self._wrappers is None:
            self._wrappers = {}
            for layer, name in enumerate(LAYERS):
                module = importlib.import_module(f"{PACKAGE}.{name}")
                for attr in module.__all__:
                    fn = getattr(module, attr)
                    if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                        self._wrappers[id(fn)] = (fn, self._wrap(fn, layer))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    namespace[key] = hit[1]
                    self._patches.append((namespace, key, value))

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._patches):
            namespace[key] = original
        self._patches.clear()

    def write(self, path_stem: str, ops: list) -> None:
        """Spans as raw columns in native byte order in ``<stem>.bin``,
        described by ``<stem>.json``."""
        columns = [("func", self.func), ("parent", self.parent), ("op", self.op),
                   ("start_ns", self.start), ("end_ns", self.end)]
        with open(path_stem + ".bin", "wb") as fh:
            for _, col in columns:
                col.tofile(fh)
        header = {
            "spans": len(self.start),
            "columns": [{"name": n, "typecode": c.typecode, "itemsize": c.itemsize} for n, c in columns],
            "functions": self.names,
            "function_layer": [LAYERS[i] for i in self.layer_of],
            "errors": self.errors,
            "observed": self.observed,
            "ops": ops,
        }
        with open(path_stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh)


def layer_totals(tracer: Tracer) -> dict:
    """Per-layer calls, self time (span minus its child spans) and the
    derived counters, from the recorded spans."""
    n = len(tracer.start)
    layer_of_span = [tracer.layer_of[f] for f in tracer.func]
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    excl = list(dur)
    outermost = [True] * n
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            excl[p] -= dur[i]
            outermost[i] = layer_of_span[p] != layer_of_span[i]
    calls = [0] * len(LAYERS)
    self_ns = [0] * len(LAYERS)
    for layer, x in zip(layer_of_span, excl):
        calls[layer] += 1
        self_ns[layer] += x
    out = {}
    for i, name in enumerate(LAYERS):
        out[f"{name}.calls"] = calls[i]
        out[f"{name}.self_s"] = self_ns[i] / 1e9

    decoy = LAYERS.index("decoy")
    decoy_calls = sum(1 for i in range(n) if outermost[i] and layer_of_span[i] == decoy)
    rejected = sum(1 for i, kind in tracer.errors
                   if kind == "DegenerateGeometryError" and outermost[i] and layer_of_span[i] == decoy)
    out["decoy.rejected"] = rejected
    out["decoy.accept_ratio"] = (decoy_calls - rejected) / decoy_calls if decoy_calls else 0.0

    rate_fids = {f for f, name in enumerate(tracer.names)
                 if name.startswith(f"{PACKAGE}.keyrate.rate_")}
    rate_durs = [d for f, d in zip(tracer.func, dur) if f in rate_fids]
    out["keyrate.call_us"] = sum(rate_durs) / len(rate_durs) / 1e3 if rate_durs else 0.0

    evaluations, opt_ns, sent, success, mc_ns = 0, 0, 0, 0, 0
    for i, values in tracer.observed:
        if not outermost[i]:
            continue
        if "evaluations" in values:
            evaluations += values["evaluations"]
            opt_ns += dur[i]
        if "sent" in values:
            sent += values["sent"]
            success += values["success"]
            mc_ns += dur[i]
    out["optimize.evaluations"] = evaluations
    out["optimize.evals_per_s"] = evaluations / (opt_ns / 1e9) if opt_ns else 0.0
    out["montecarlo.rounds_per_s"] = sent / (mc_ns / 1e9) if mc_ns else 0.0
    out["montecarlo.success_per_sent"] = success / sent if sent else 0.0
    return out


def rounds_per_s_by_op(tracer: Tracer) -> dict:
    """Simulated rounds per second of ``run_rounds``, per operation."""
    sent, ns = {}, {}
    for i, values in tracer.observed:
        if "sent" in values:
            op = tracer.op[i]
            sent[op] = sent.get(op, 0) + values["sent"]
            ns[op] = ns.get(op, 0) + tracer.end[i] - tracer.start[i]
    return {op: sent[op] / (ns[op] / 1e9) for op in sent if ns[op]}


def parse_importtime(text: str) -> dict:
    """Import seconds from ``python -X importtime`` output.

    ``<layer>.import_s`` is the cumulative time of ``pmqcc.<layer>``,
    which includes whatever that module imported first.  ``import.numpy_s``
    and ``import.scipy_s`` are the self times of every module imported on
    behalf of numpy or scipy: modules named ``numpy*``/``scipy*`` and the
    modules they pulled in, each counted once and scipy's numpy excluded.
    """
    nodes = []  # (name, self_us, cumulative_us, children)
    pending = []  # (level, node index), children awaiting their parent
    for line in text.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        level = (len(name) - len(name.lstrip()) - 1) // 2
        children = []
        while pending and pending[-1][0] > level:
            children.append(pending.pop()[1])
        nodes.append((name.strip(), int(self_us), int(cum_us), children))
        pending.append((level, len(nodes) - 1))

    family_us = {"numpy": 0, "scipy": 0}

    def visit(idx, family):
        name, self_us, _, children = nodes[idx]
        top = name.split(".")[0]
        family = top if top in family_us else family
        if family is not None:
            family_us[family] += self_us
        for child in children:
            visit(child, family)

    for _, idx in pending:
        visit(idx, None)
    cumulative = {name: cum for name, _, cum, _ in nodes}
    out = {f"{layer}.import_s": cumulative.get(f"{PACKAGE}.{layer}", 0) / 1e6 for layer in LAYERS}
    out["import.numpy_s"] = family_us["numpy"] / 1e6
    out["import.scipy_s"] = family_us["scipy"] / 1e6
    return out
