"""patstats benchmark: one closed-loop workload per run, checked answers, JSON metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ./src.  The run
sets up (the import once, then input generation from the seed and warm-up
five times, reporting the median), then repeats whole cycles of the workload's
catalogue until S seconds have passed, checks every answer against the
independent references, and prints one JSON object as its last line.

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the run
spends half of S untraced, then repeats the same cycles with a span recorded
around every public library call; it prints the per-layer metrics derived
from the spans, including the traced-vs-untraced difference, and writes the
spans to .bench_out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

from tracing import Tracer
from workloads import FAILED, OK, WORKER_LEG, WORKLOADS, raised

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5


def import_library():
    """Import patstats from the checkout's src/; returns a namespace of its modules."""
    src = ROOT / "src"
    if not (src / "patstats" / "__init__.py").is_file():
        raise ImportError(f"no patstats package under {src}")
    sys.path.insert(0, str(src))
    package = importlib.import_module("patstats")
    for name in ("oracle", "genfunc", "bounds", "asymptotics", "search", "cli", "words",
                 "reproduce"):
        setattr(package, name, importlib.import_module(f"patstats.{name}"))
    return package


def clear_caches() -> None:
    """Empty the library's memo caches, so every task computes as a fresh question would."""
    for modname, module in list(sys.modules.items()):
        if modname == "patstats" or modname.startswith("patstats."):
            for value in list(vars(module).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def setup(lib, workload, seed: int) -> tuple[list, float]:
    """Generate the inputs and warm up, SETUP_REPEATS times; the median time and the tasks."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        rng = random.Random(seed)
        tasks = workload.build(lib, rng)
        rng.shuffle(tasks)
        clear_caches()
        workload.warmup(lib)
        times.append(time.perf_counter() - start)
    return tasks, statistics.median(times)


def run_cycles(tasks, seconds: float | None, cycles: int | None = None,
               tracer: Tracer | None = None) -> list[tuple[int, int, object]]:
    """Whole cycles over the tasks until `seconds` pass (or `cycles` are done).

    Returns (task index, latency in ns, digest) per task run.  Caches are
    cleared and garbage collected between tasks, outside the timed call.
    """
    results = []
    start = time.perf_counter()
    done = 0
    while True:
        for i, task in enumerate(tasks):
            clear_caches()
            gc.collect()
            if tracer is not None:
                tracer.task_id = len(results)
                span = tracer.begin("task")
            t0 = time.perf_counter_ns()
            try:
                value = task.call()
                error = None
            except Exception as exc:  # a failed task is recorded and checked, not fatal
                error = exc
            t1 = time.perf_counter_ns()
            if tracer is not None:
                tracer.end(span)
                if task.direct is not None:
                    clear_caches()
                    direct_span(tracer, task.direct)
            if error is None:
                try:
                    digest = task.digest(value)
                except Exception as exc:  # an answer of the wrong shape fails its check
                    digest = raised(exc)
            else:
                digest = raised(error)
            results.append((i, t1 - t0, digest))
        done += 1
        if done == cycles or (cycles is None and time.perf_counter() - start >= seconds):
            return results


def direct_span(tracer: Tracer, call) -> None:
    """Time the library call behind a CLI task, with span recording paused."""
    tracer.paused = True
    span = tracer.begin("direct")
    try:
        call()
    except Exception:  # the CLI task already recorded how this input fails
        pass
    finally:
        tracer.end(span)
        tracer.paused = False


def check(tasks, results) -> tuple[int, list[str], list[str]]:
    """Check every answer; returns (failed task runs, unexpected problems, known defects hit)."""
    verdicts = {}
    problems = []
    defects = set()
    for i, task in enumerate(tasks):
        digests = [d for j, _, d in results if j == i]
        if any(d != digests[0] for d in digests):
            problems.append(f"{task.name}: answers differ between cycles")
        status, why = task.check(digests[0])
        verdicts[i] = status
        if status == FAILED and task.defect:
            defects.add(f"{task.name}: {task.defect} ({why})")
        elif status != OK:
            problems.append(f"{task.name}: {status}: {why}")
    failed = sum(verdicts[i] != OK for i, _, _ in results)
    return failed, problems, sorted(defects)


def tail(latencies: list[float], pct: int) -> tuple[float, int, int]:
    """Latency at the pct-th percentile (nearest rank), lowered until at least
    10 tasks lie beyond it; returns the latency, the percentile and that count."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in range(pct, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return ordered[rank - 1], p, n - rank
    return ordered[-1], 100, 0


def mp_speedup(tasks, results) -> float:
    """Median latency of the worker leg's totals at 1 worker over that at 2 workers."""
    legs = {task.name: [ns for j, ns, _ in results if j == i] for i, task in enumerate(tasks)
            if task.name in WORKER_LEG}
    if len(legs) != 2:
        return 0.0
    one, two = (statistics.median(legs[name]) for name in WORKER_LEG)
    return one / two


def write_details(path: Path, summary: dict, tasks, results) -> None:
    """Per-question latencies (median, min, max over the run) beside the summary."""
    per_task = []
    for i, task in enumerate(tasks):
        ns = sorted(n for j, n, _ in results if j == i)
        per_task.append({"task": task.name, "runs": len(ns),
                         "median_s": statistics.median(ns) / 1e9,
                         "min_s": ns[0] / 1e9, "max_s": ns[-1] / 1e9})
    per_task.sort(key=lambda row: row["median_s"])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"summary": summary, "tasks": per_task}, indent=1))


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]

    start = time.perf_counter()
    try:
        lib = import_library()
    except ImportError as exc:
        print(f"error: cannot import the library: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start
    tasks, prepare_s = setup(lib, workload, args.seed)
    setup_s = import_s + prepare_s

    if args.trace:
        untraced = run_cycles(tasks, args.seconds / 2)
        tracer = Tracer()
        tracer.install(lib)
        try:
            traced = run_cycles(tasks, None, cycles=len(untraced) // len(tasks),
                                tracer=tracer)
        finally:
            tracer.uninstall()
        timed, results = untraced, untraced + traced
    else:
        timed = results = run_cycles(tasks, args.seconds)
    rss = peak_rss_mb()

    failed, problems, defects = check(tasks, results)
    latencies = [ns / 1e9 for _, ns, _ in timed]
    tail_s, tail_pct, beyond = tail(latencies, workload.tail_pct)
    speedup = mp_speedup(tasks, timed)
    summary = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "tasks": len(timed), "cycles": len(timed) // len(tasks),
        "busy_s": sum(latencies), "failed_frac": failed / len(results),
        "task_tail_percentile": tail_pct, "tasks_beyond_tail": beyond,
        "mp_speedup": speedup, "known_defects": defects, "problems": problems,
        "python": platform.python_version(), "nproc": os.cpu_count(),
    }
    print(json.dumps({"summary": summary}))
    out = ROOT / ".bench_out"
    write_details(out / f"run-{workload.name}-seed{args.seed}-trace{args.trace}.json",
                  summary, tasks, timed)
    if args.trace:
        tracer.write(out / f"trace-{workload.name}-seed{args.seed}.json")
        metrics = tracer.metrics(len(traced) // len(tasks), sum(latencies), speedup)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "tasks_per_s": {"value": len(latencies) / sum(latencies), "unit": "1/s"},
            "task_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "task_tail_s": {"value": tail_s, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
    print(json.dumps({"correct": not problems, "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
