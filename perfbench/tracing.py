"""Span recording around the library's public calls, and the per-layer metrics.

Tracing is installed from outside: every binding of a traced public function
in a loaded patstats module is replaced by a wrapper that records one span
(name, start, end, parent) and the layer's work counters, so calls between
layers (the CLI into the calculators, the threshold into the series builder,
the search into the oracle) nest under their caller.  Spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter
from pathlib import Path

import reference

LAYERS = ("oracle", "genfunc", "bounds", "asymptotics", "search", "cli")

TRACED = {
    "oracle": ("count", "count_full", "count_abelian", "count_partial", "total_count",
               "mean_exact"),
    "genfunc": ("ogf_build", "ogf_bivariate", "coeff"),
    "bounds": ("exact_avoidance_threshold", "double_uparrow", "zimin_upper", "zimin_lower",
               "avoidance_threshold"),
    "asymptotics": ("abelian_constant", "mean_asymptotic", "abelian_rs_approx_mean"),
    "search": ("find_avoiding", "exact_ramsey_length"),
    "cli": ("main",),
}

PER_LAYER = (
    ("oracle.total_count.s", "s"), ("oracle.total_count.calls", "count"),
    ("oracle.words", "count"), ("oracle.words_per_s", "1/s"),
    ("oracle.count.s", "s"), ("oracle.count.calls", "count"),
    ("oracle.mp.s", "s"), ("oracle.mp_speedup", "ratio"),
    ("genfunc.ogf_build.s", "s"), ("genfunc.ogf_build.calls", "count"),
    ("genfunc.coeffs", "count"), ("genfunc.coeffs_per_s", "1/s"),
    ("genfunc.ogf_bivariate.s", "s"), ("genfunc.ogf_bivariate.calls", "count"),
    ("bounds.exact_avoidance_threshold.s", "s"),
    ("bounds.exact_avoidance_threshold.calls", "count"),
    ("bounds.double_uparrow.s", "s"), ("bounds.zimin_upper.s", "s"),
    ("bounds.zimin_lower.s", "s"), ("bounds.avoidance_threshold.s", "s"),
    ("asymptotics.abelian_constant.s", "s"), ("asymptotics.abelian_constant.calls", "count"),
    ("asymptotics.abelian_terms", "count"), ("asymptotics.tolerance_errors", "count"),
    ("asymptotics.mean_asymptotic.s", "s"),
    ("search.find_avoiding.s", "s"), ("search.find_avoiding.calls", "count"),
    ("search.nodes", "count"), ("search.nodes_per_s", "1/s"), ("search.yield", "ratio"),
    ("search.exact_ramsey_length.s", "s"), ("search.budget_exceeded", "count"),
    ("cli.main.s", "s"), ("cli.main.calls", "count"), ("cli.overhead_s", "s"),
    ("cli.nonzero_exit", "count"),
) + tuple((f"{layer}.busy_frac", "ratio") for layer in LAYERS) \
  + (("trace_overhead_frac", "ratio"),)


class Tracer:
    """Records spans and counters while installed; restores the library on uninstall."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, task id]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.task_id = -1
        self.paused = False  # set while the benchmark times a call it must not count

    # ------------------------------------------------------------ span recording

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.task_id])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.end(idx)
                tracer._count(name, signature.bind(*args, **kwargs), None, exc, idx)
                raise
            tracer.end(idx)
            tracer._count(name, signature.bind(*args, **kwargs), result, None, idx)
            return result

        return traced

    def install(self, lib) -> None:
        originals = {}
        for layer, names in TRACED.items():
            module = getattr(lib, layer)
            for fname in names:
                fn = getattr(module, fname)
                originals[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "patstats" and not modname.startswith("patstats."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, originals[id(value)][1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    # ------------------------------------------------------------ work counters

    def _count(self, name: str, bound, result, exc, idx: int) -> None:
        args = bound.arguments
        c = self.counts
        if name == "oracle.total_count":
            c["oracle.words"] += reference.population(args["kind"].value, args["n"], args["m"],
                                                      args.get("holes"))
            if args.get("workers", 1) > 1:
                start, end = self.spans[idx][1:3]
                c["oracle.mp.s"] += (end - start) / 1e9
        elif name in ("genfunc.ogf_build", "genfunc.ogf_bivariate"):
            c["genfunc.coeffs"] += args["order"] + 1
        elif name == "asymptotics.abelian_constant":
            if exc is None:
                c["asymptotics.abelian_terms"] += result.terms
            elif type(exc).__name__ == "ToleranceError":
                c["asymptotics.abelian_terms"] += exc.terms
                c["asymptotics.tolerance_errors"] += 1
        elif name == "search.find_avoiding" and exc is None:
            c["search.nodes"] += result.nodes
            if result.witness is not None:
                c["search.witness_chars"] += len(result.witness)
            if result.status.value == "budget-exceeded":
                c["search.budget_exceeded"] += 1
        elif name == "search.exact_ramsey_length" and exc is not None:
            if type(exc).__name__ == "BudgetExceededError":
                c["search.budget_exceeded"] += 1
        elif name == "cli.main" and exc is None and result != 0:
            c["cli.nonzero_exit"] += 1

    # ------------------------------------------------------------ results

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [{"name": n, "start_ns": s, "end_ns": e, "parent": p, "task": t}
                for n, s, e, p, t in self.spans]
        path.write_text(json.dumps({"spans": rows, "counts": dict(self.counts)}))

    def metrics(self, cycles: int, untraced_busy_s: float, mp_speedup: float) -> dict:
        """Per-layer metrics from the recorded spans.

        Root spans named 'task' time one workload task each; root spans named
        'direct' time the library call behind a CLI task, made with recording
        paused, and only feed cli.overhead_s.  Times and counts are per cycle
        of the catalogue, so they do not grow with the number of cycles a run
        completes; rates, ratios and fractions are over the whole traced pass.
        """
        inclusive: Counter = Counter()
        calls: Counter = Counter()
        self_time: Counter = Counter()
        child_time = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        busy = 0
        direct = 0
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            duration = end - start
            if name == "task":
                busy += duration
            elif name == "direct":
                direct += duration
            else:
                inclusive[name] += duration
                calls[name] += 1
                self_time[name.split(".")[0]] += duration - child_time[idx]
        seconds = {name: ns / 1e9 for name, ns in inclusive.items()}
        c = self.counts

        def rate(count_key: str, *seconds_keys: str) -> float:
            spent = sum(seconds.get(key, 0.0) for key in seconds_keys)
            return c[count_key] / spent if spent else 0.0

        values = {
            "oracle.words_per_s": rate("oracle.words", "oracle.total_count"),
            "oracle.mp.s": c["oracle.mp.s"] / cycles,
            "oracle.mp_speedup": mp_speedup,
            "genfunc.coeffs_per_s": rate("genfunc.coeffs", "genfunc.ogf_build",
                                         "genfunc.ogf_bivariate"),
            "search.nodes_per_s": rate("search.nodes", "search.find_avoiding"),
            "search.yield": (c["search.witness_chars"] / c["search.nodes"]
                             if c["search.nodes"] else 0.0),
            "cli.overhead_s": (inclusive["cli.main"] - direct) / 1e9 / cycles if direct else 0.0,
            "trace_overhead_frac": busy / 1e9 / untraced_busy_s - 1,
        }
        for layer in LAYERS:
            values[f"{layer}.busy_frac"] = self_time[layer] / busy if busy else 0.0
        out = {}
        for name, unit in PER_LAYER:
            if name in values:
                value = values[name]
            elif name.endswith(".s"):
                value = seconds.get(name[:-2], 0.0) / cycles
            elif name.endswith(".calls"):
                value = calls[name[:-6]] / cycles
            else:
                value = c[name] / cycles
            out[name] = {"value": value, "unit": unit}
        return out
