"""Run ``alp.cli.main`` with every layer wrapped in timing spans.

Usage: ``python traced_cli.py STATS_JSON -- <alp cli arguments>``, with the
checkout's ``src/`` on ``PYTHONPATH``. The program's source is never edited:
the public functions and methods of each layer module are replaced, from
outside, by wrappers that count calls and time them, and every module-level
reference to a wrapped function is rebound to its wrapper. Spans nest per
thread, so each span also knows its self time (its duration minus the time
of the spans it directly encloses). Busy times add up across threads, so
with several workers a layer's seconds can exceed the wall time.

After the command returns, the aggregates are written to STATS_JSON and the
process exits with the command's exit code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import statistics
import sys
import threading
import time
import weakref

LAYERS = ("io", "geo", "lppm", "metrics", "optimizer", "pipeline", "cli")

# Called once per input record; wrapping them would charge their callers
# with tracing overhead that scales with the input size.
PER_RECORD = {"io.parse_timestamp_ms", "geo.utc_day"}


class Tracer:
    """Per-thread span stacks and per-name aggregates (calls, seconds, self seconds)."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables = []
        self.anneal_s = []
        self.records = {"metrics.extract_pois": 0, "lppm.apply_lppm": 0, "io.records_in": 0}
        self.bytes_out = 0
        self.cost_keys = set()
        self._units = weakref.WeakKeyDictionary()
        self._serials = itertools.count()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.table = {}
            with self._lock:
                self._tables.append(local.table)
        return local

    def span(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = self._state()
            frame = [0.0]  # seconds spent in directly enclosed spans
            local.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                local.stack.pop()
                if local.stack:
                    local.stack[-1][0] += duration
                entry = local.table.setdefault(name, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[0]
            if after is not None:
                result = after(args, result, duration)
            return result

        return wrapper

    def totals(self) -> dict:
        merged: dict = {}
        with self._lock:
            for table in self._tables:
                for name, (calls, s, self_s) in table.items():
                    entry = merged.setdefault(name, [0, 0.0, 0.0])
                    entry[0] += calls
                    entry[1] += s
                    entry[2] += self_s
        return merged

    # --- hooks that read arguments or results -----------------------------

    def after_extract_pois(self, args, result, duration):
        with self._lock:
            self.records["metrics.extract_pois"] += len(args[0])
        return result

    def after_apply(self, args, result, duration):
        with self._lock:
            self.records["lppm.apply_lppm"] += len(result)
        return result

    def after_load(self, args, result, duration):
        with self._lock:
            self.records["io.records_in"] += result.total_records()
        return result

    def after_write(self, args, result, duration):
        with self._lock:
            self.bytes_out += os.path.getsize(result)
        return result

    def after_anneal(self, args, result, duration):
        with self._lock:
            self.anneal_s.append(duration)
        return result

    def before_cost(self, fn):
        """Record the (unit, state) pair of every cost call before timing it."""

        @functools.wraps(fn)
        def wrapper(cost_fn, state, *args, **kwargs):
            with self._lock:
                if cost_fn not in self._units:
                    self._units[cost_fn] = next(self._serials)
                unit = self._units[cost_fn]
                self.cost_keys.add((unit, tuple(sorted(state.assignment.items()))))
            return fn(cost_fn, state, *args, **kwargs)

        return wrapper

    def after_bind(self, args, result, duration):
        """Time the bound evaluator closure under the evaluator's own name."""
        return self.span(f"metrics.{args[0].name}.evaluate", result)


def install(tracer: Tracer) -> None:
    """Wrap the public functions and methods of every layer module."""
    hooks = {
        "metrics.extract_pois": tracer.after_extract_pois,
        "lppm.apply_lppm": tracer.after_apply,
        "io.load_dataset": tracer.after_load,
        "io.write_dataset_csv": tracer.after_write,
        "io.write_json": tracer.after_write,
        "io.write_rows_csv": tracer.after_write,
        "optimizer.anneal": tracer.after_anneal,
    }
    replaced = {}
    for layer in LAYERS:
        module = importlib.import_module(f"alp.{layer}")
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                span_name = f"{layer}.{name}"
                if span_name not in PER_RECORD:
                    replaced[obj] = tracer.span(span_name, obj, hooks.get(span_name))
            elif inspect.isclass(obj):
                for attr, fn in list(vars(obj).items()):
                    if not inspect.isfunction(fn) or (attr.startswith("_") and attr != "__call__"):
                        continue
                    span_name = f"{layer}.{name}.{attr}"
                    after = tracer.after_bind if attr == "bind" else None
                    wrapped = tracer.span(span_name, fn, after)
                    if span_name == "optimizer.ObjectiveCost.__call__":
                        wrapped = tracer.before_cost(wrapped)
                    setattr(obj, attr, wrapped)
    # Modules hold their own references to imported functions
    # (``from .lppm import apply_lppm``); rebind every one of them.
    for module_name, module in list(sys.modules.items()):
        if module_name == "alp" or module_name.startswith("alp."):
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(module, name, replaced[obj])


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer figures the benchmark reports, from the aggregates."""
    totals = tracer.totals()

    def calls(name):
        return totals.get(name, [0, 0.0, 0.0])[0]

    def seconds(name):
        return totals.get(name, [0, 0.0, 0.0])[1]

    binds = [name for name in totals if name.startswith("metrics.") and name.endswith(".bind")]
    cost_calls = calls("optimizer.ObjectiveCost.__call__")
    apply_calls = calls("lppm.apply_lppm")
    anneal = sorted(tracer.anneal_s)
    out = {
        "metrics.extract_pois.calls": calls("metrics.extract_pois"),
        "metrics.extract_pois.s": seconds("metrics.extract_pois"),
        "metrics.extract_pois.records": tracer.records["metrics.extract_pois"],
        "metrics.pois.s": seconds("metrics.pois.evaluate"),
        "metrics.distortion.s": seconds("metrics.distortion.evaluate"),
        "metrics.coverage.s": seconds("metrics.coverage.evaluate"),
        "metrics.bind.calls": sum(calls(name) for name in binds),
        "metrics.bind.s": sum(seconds(name) for name in binds),
        "lppm.apply.calls": apply_calls,
        "lppm.apply.s": seconds("lppm.apply_lppm"),
        "lppm.records_out": tracer.records["lppm.apply_lppm"],
        "lppm.apply_per_cost": apply_calls / cost_calls if cost_calls else 0.0,
        "optimizer.anneal.calls": len(anneal),
        "optimizer.anneal.s_p50": statistics.median(anneal) if anneal else 0.0,
        "optimizer.anneal.s_max": anneal[-1] if anneal else 0.0,
        "optimizer.cost.calls": cost_calls,
        "optimizer.cost.s": seconds("optimizer.ObjectiveCost.__call__"),
        "optimizer.cost.self_s": totals.get("optimizer.ObjectiveCost.__call__", [0, 0.0, 0.0])[2],
        "optimizer.cost.distinct_frac": len(tracer.cost_keys) / cost_calls if cost_calls else 0.0,
        "io.load_dataset.s": seconds("io.load_dataset"),
        "io.write.s": sum(seconds(f"io.{name}")
                          for name in ("write_dataset_csv", "write_json", "write_rows_csv")),
        "io.records_in": tracer.records["io.records_in"],
        "io.bytes_out": tracer.bytes_out,
        "geo.latlon_arrays.calls": calls("geo.Trace.latlon_arrays"),
        "geo.latlon_arrays.s": seconds("geo.Trace.latlon_arrays"),
        "pipeline.split_daily_batches.s": seconds("pipeline.split_daily_batches"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(entry[2] for name, entry in totals.items()
                                     if name.split(".", 1)[0] == layer)
    return out


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced_cli.py STATS_JSON -- <alp cli arguments>", file=sys.stderr)
        return 2
    stats_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    cli = importlib.import_module("alp.cli")
    code = cli.main(cli_args)
    spans = {name: {"calls": c, "s": s, "self_s": self_s}
             for name, (c, s, self_s) in sorted(tracer.totals().items())}
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump({"layers": layer_metrics(tracer), "spans": spans}, fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
