#!/usr/bin/env python3
"""Before/after timings of the oracle totals, the avoidance search, the series
builders, the bound calculators and the abelian constant.

Each row times one call with time.perf_counter, best of REPEAT runs (one run
for the oracle totals, which take seconds to minutes), with every functools
cache of the library emptied before each run so a run costs what a fresh
script pays.  A row records its inputs, a hash of the result (so the two sides
can be seen to give the same answer) and a work counter.

    python scripts/bench.py                        # rows for the library on sys.path
    python scripts/bench.py --before OLD --after NEW --out BENCH.json

OLD and NEW are checkouts of this repository; each side runs in its own
interpreter with that checkout's src/ on PYTHONPATH, and the comparison adds
the wall time of each checkout's tier-1 test command.
"""

import argparse
import contextlib
import functools
import gc
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import time

UPARROW = [(3, 3), (3, 4), (2, 5)]
ZIMIN_UPPER = [(2, 4), (4, 4)]
ABELIAN = [(12, 2, 1e-9), (11, 2, 1e-9), (11, 2, 1e-8), (10, 2, 1e-7), (10, 3, 1e-6),
           (11, 3, 1e-7), (12, 3, 1e-8), (12, 4, 1e-6)]
# patterns whose repeated variables share one multiplicity: (pattern, m, n, eps)
ABELIAN_MEANS = [("aabbcc", 11, 1000, 1e-9)]
REPEAT = 3
# (kind or None for the bivariate series, pattern, m, order)
SERIES = [("FULL", "abab", 3, 2000), ("ABELIAN", "abab", 4, 300), (None, "aba", 2, 60)]
THRESHOLD = ("FULL", "abab", 3, 2000)  # kind, pattern, m, n_max
# (kind, pattern, n, m): the oracle totals of the ROADMAP baseline table
TOTALS = [("FULL", "aba", 16, 2), ("ABELIAN", "aba", 14, 2), ("PARTIAL_COLLAPSED", "aba", 10, 2)]
FIND = ("FULL", "abab", 3, 40)  # kind, pattern, m, length
RAMSEY = ("FULL", "aba", 3, 12)  # kind, pattern, m, n_max
README_COMMAND = ["bounds", "uparrow", "-x", "3", "-y", "3"]
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _bound_row(name: str, value, secs: float) -> dict:
    # hex keeps clear of the interpreter's limit on decimal int-to-str conversion
    if value.exact is None:
        digest = _digest(f"overflow {value.overflow_cap}")
        work = {"overflow_cap": value.overflow_cap}
    else:
        digest, work = _digest(format(value.exact, "x")), {"bits": value.exact.bit_length()}
    return {"name": name, "layer": "bounds", "result_sha256": digest, "work": work,
            "seconds": secs}


def _series_row(name: str, coeffs, order: int, secs: float) -> dict:
    # int() also reads the Fraction coefficients of earlier checkouts
    digest = _digest(" ".join(format(int(c), "x") for c in coeffs))
    return {"name": name, "layer": "series", "result_sha256": digest,
            "work": {"order": order}, "seconds": secs}


def _clear_caches() -> None:
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("patstats"):
            for obj in vars(module).values():
                if isinstance(obj, functools._lru_cache_wrapper):
                    obj.cache_clear()
    gc.collect()


def _best(call, repeat=REPEAT):
    best = None
    for _ in range(repeat):
        _clear_caches()
        start = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def _search_nodes(call) -> int:
    """Nodes a search visits: each node asks once whether it closes an occurrence."""
    from patstats import search
    inner = search._closes_occurrence
    nodes = 0

    def counted(*args):
        nonlocal nodes
        nodes += 1
        return inner(*args)

    search._closes_occurrence = counted
    try:
        call()
    finally:
        search._closes_occurrence = inner
    return nodes


def measure() -> list[dict]:
    from patstats import asymptotics, bounds, cli, genfunc, oracle, search
    from patstats.oracle import CountKind
    from patstats.words import Pattern

    rows = []
    for kind, text, n, m in TOTALS:
        total, secs = _best(lambda: oracle.total_count(CountKind[kind], n, m,
                                                       Pattern.from_text(text)), repeat=1)
        rows.append({"name": f"total_count({kind}, {text!r}, n={n}, m={m})", "layer": "oracle",
                     "result_sha256": _digest(format(total, "x")),
                     "work": {"words": oracle.population_size(CountKind[kind], n, m)},
                     "seconds": secs})
    kind, text, m, length = FIND
    outcome, secs = _best(lambda: search.find_avoiding(CountKind[kind], Pattern.from_text(text),
                                                       m, length))
    witness = None if outcome.witness is None else outcome.witness.to_text()
    rows.append({"name": f"find_avoiding({kind}, {text!r}, {m}, {length})", "layer": "search",
                 "result_sha256": _digest(f"{outcome.status.value} {witness}"),
                 "work": {"nodes": outcome.nodes}, "seconds": secs})
    kind, text, m, n_max = RAMSEY

    def ramsey():
        return search.exact_ramsey_length(CountKind[kind], Pattern.from_text(text), m, n_max)
    value, secs = _best(ramsey)
    rows.append({"name": f"exact_ramsey_length({kind}, {text!r}, {m}, {n_max})",
                 "layer": "search", "result_sha256": _digest(str(value)),
                 "work": {"nodes": _search_nodes(ramsey)}, "seconds": secs})
    for kind, text, m, order in SERIES:
        p = Pattern.from_text(text)
        if kind is None:
            series, secs = _best(lambda: genfunc.ogf_bivariate(p, m, order))
            coeffs = [series.coeff_hole(n, h) for n in range(order + 1) for h in range(n + 1)]
            name = f"ogf_bivariate({text!r}, {m}, {order})"
        else:
            series, secs = _best(lambda: genfunc.ogf_build(CountKind[kind], p, m, order))
            coeffs = [series.coeff(n) for n in range(order + 1)]
            name = f"ogf_build({kind}, {text!r}, {m}, {order})"
        rows.append(_series_row(name, coeffs, order, secs))
    kind, text, m, n_max = THRESHOLD
    threshold, secs = _best(lambda: bounds.exact_avoidance_threshold(
        CountKind[kind], Pattern.from_text(text), m, n_max))
    rows.append(_series_row(f"exact_avoidance_threshold({kind}, {text!r}, {m}, {n_max})",
                            [threshold], n_max, secs))
    for x, y in UPARROW:
        rows.append(_bound_row(f"double_uparrow({x}, {y})",
                               *_best(lambda: bounds.double_uparrow(x, y))))
    for m, i in ZIMIN_UPPER:
        rows.append(_bound_row(f"zimin_upper({m}, {i})",
                               *_best(lambda: bounds.zimin_upper(m, i))))
    for m, k, eps in ABELIAN:
        const, secs = _best(lambda: asymptotics.abelian_constant(m, k, eps))
        digest = _digest(f"{const.value.hex()} {const.terms} {const.tail_bound.hex()}")
        rows.append({"name": f"abelian_constant({m}, {k}, {eps!r})", "layer": "asymptotics",
                     "result_sha256": digest, "work": {"terms": const.terms},
                     "seconds": secs})
    for text, m, n, eps in ABELIAN_MEANS:
        mean, secs = _best(lambda: asymptotics.mean_asymptotic(
            asymptotics.MeanKind.ABELIAN, Pattern.from_text(text), m, n, eps=eps))
        rows.append({"name": f"mean_asymptotic(ABELIAN, {text!r}, {m}, {n}, eps={eps!r})",
                     "layer": "asymptotics", "result_sha256": _digest(mean.value.hex()),
                     "work": {"terms": [c.terms for c in mean.abelian_factors]},
                     "seconds": secs})

    def readme_command():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(README_COMMAND)
        return code, json.loads(out.getvalue())["result"]

    (code, result), secs = _best(readme_command)
    rows.append({"name": "patstats " + " ".join(README_COMMAND), "layer": "end-to-end",
                 "result_sha256": _digest(f"{code} {result}"), "work": {"exit": code},
                 "seconds": secs})
    return rows


def _side(tree: str) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    out = subprocess.run([sys.executable, os.path.abspath(__file__)],
                         env=env, cwd=tree, check=True, capture_output=True, text=True)
    rows = json.loads(out.stdout)
    start = time.perf_counter()
    run = subprocess.run(TIER1, env=env, cwd=tree, capture_output=True, text=True)
    secs = time.perf_counter() - start
    summary = run.stdout.strip().splitlines()[-1] if run.stdout.strip() else ""
    rows.append({"name": "tier-1 suite", "layer": "end-to-end",
                 "result_sha256": None, "work": {"summary": summary}, "seconds": secs})
    return rows


def compare(before: str, after: str) -> dict:
    old, new = _side(before), _side(after)
    rows = []
    for a, b in zip(old, new):
        assert a["name"] == b["name"]
        rows.append({"name": a["name"], "layer": a["layer"],
                     "same_result": a["result_sha256"] == b["result_sha256"]
                     if a["result_sha256"] else None,
                     "before": {k: a[k] for k in ("result_sha256", "work", "seconds")},
                     "after": {k: b[k] for k in ("result_sha256", "work", "seconds")},
                     "speedup": a["seconds"] / b["seconds"]})
    return {"method": f"time.perf_counter, best of {REPEAT} (the oracle totals: one run),"
                      " caches emptied before each run; the tier-1 suite runs once per side",
            "machine": {"python": platform.python_version(), "platform": platform.platform(),
                        "nproc": os.cpu_count()},
            "rows": rows}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--before", help="checkout measured as the before side")
    ap.add_argument("--after", help="checkout measured as the after side")
    ap.add_argument("--out", help="write the comparison here instead of stdout")
    args = ap.parse_args()
    if bool(args.before) != bool(args.after):
        ap.error("--before and --after go together")
    report = compare(args.before, args.after) if args.before else measure()
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    main()
