#!/usr/bin/env python3
"""Before/after timings of the oracle totals, the avoidance search, the series
builders, the bound calculators, the decimal output of a bound and the abelian
constant, and every command-line example of the README, run in-process
through cli.main.

A measurement pass times each row's call with time.perf_counter after a
garbage collection.  A call that takes under LOOP_BELOW seconds varies too
much from one timed run to the next, so such a row is timed as the mean of
LOOP further calls, each after a collection.  Every row, the oracle totals
too, keeps its fastest time over REPEAT passes.  A row records its inputs, a
hash of the result (so the two sides can be seen to give the same answer) and
a work counter.  Rows that print a leading-term mean carry the printed floats
instead, and the comparison reports their relative difference: a mean is a
float evaluation, and the same value computed in another order may differ in
its last bits.  So do the abelian constants with k >= 3, whose truncation
point moves with the tail bound (the value moves within eps); an abelian
constant that raises ToleranceError records the error and its term count.

    python scripts/bench.py                        # rows for the library on sys.path
    python scripts/bench.py --before OLD --after NEW --out BENCH.json

OLD and NEW are checkouts of this repository; each pass of each side runs in
its own interpreter with that checkout's src/ on PYTHONPATH.  Each pass runs
the two sides back to back, and which side goes first alternates from pass to
pass, so drift of the host's speed falls on both sides alike.  The comparison
adds the wall time of each checkout's tier-1 test command.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import subprocess
import sys
import time

UPARROW = [(3, 3), (3, 4), (2, 5)]
ZIMIN_UPPER = [(2, 4), (4, 4)]
# (m, k, eps); checkouts whose tail bound ignores k raise ToleranceError on (8, 3, 1e-9)
# and (4, 4, 1e-6); (5, 2, 1e-3) sums 882 squared-variable terms
ABELIAN = [(12, 2, 1e-9), (11, 2, 1e-9), (11, 2, 1e-8), (10, 2, 1e-7), (10, 3, 1e-6),
           (11, 3, 1e-7), (12, 3, 1e-8), (12, 4, 1e-6), (8, 3, 1e-9), (4, 4, 1e-6),
           (5, 2, 1e-3)]
# patterns whose repeated variables share one multiplicity: (pattern, m, n, eps)
ABELIAN_MEANS = [("aabbcc", 11, 1000, 1e-9)]
REPEAT = 3
LOOP, LOOP_BELOW = 10, 0.02  # calls per timed run of a row faster than LOOP_BELOW seconds
# (kind or None for the bivariate series, pattern, m, order)
SERIES = [("FULL", "abab", 3, 2000), ("ABELIAN", "abab", 4, 300), ("ABELIAN", "aba", 4, 300),
          ("ABELIAN", "abacaba", 4, 300), (None, "aba", 2, 60)]
# kind, pattern, m, n_max; the ABELIAN scan stops at n = 10
THRESHOLDS = [("FULL", "abab", 3, 2000), ("ABELIAN", "abab", 4, 2000)]
PRINTED = (7, 3)  # double_uparrow(x, y) printed in full: 695,975 digits
# (kind, pattern, n, m, holes, workers): the oracle totals of the ROADMAP baseline
# table, three at m = 3 and 4, where the letter permutations leave fewer words to
# walk, three of the benchmark's small partial totals, where the per-word set-up
# weighs most, and one for a pattern that does not read the same reversed, so every
# word in first-occurrence form is walked; then the first three again in a pool of
# two worker processes
TOTALS = [("FULL", "aba", 16, 2, None, 1), ("ABELIAN", "aba", 14, 2, None, 1),
          ("PARTIAL_COLLAPSED", "aba", 10, 2, None, 1), ("FULL", "aba", 11, 3, None, 1),
          ("FULL", "abab", 9, 4, None, 1), ("PARTIAL_COLLAPSED", "abba", 7, 4, None, 1),
          ("PARTIAL_COLLAPSED", "aba", 7, 2, None, 1),
          ("PARTIAL_MORPHISM", "abba", 7, 2, None, 1), ("PARTIAL_COLLAPSED", "abba", 8, 2, 3, 1),
          ("FULL", "aab", 12, 2, None, 1), ("FULL", "aba", 16, 2, None, 2),
          ("ABELIAN", "aba", 14, 2, None, 2), ("PARTIAL_COLLAPSED", "aba", 10, 2, None, 2)]
# the ROADMAP baseline searches, (kind, pattern, m, length, holes) and (kind,
# pattern, m, n_max); the second of each builds long prefixes
FINDS = [("FULL", "abab", 3, 40, None), ("FULL", "abab", 3, 300, None)]
RAMSEYS = [("FULL", "aba", 3, 12), ("FULL", "abacaba", 2, 30)]
# the occurrence kernel: count mode on fixed binary words (kind, pattern, length),
# anchored mode through the searches (kind, pattern, m, length or n_max, holes)
KERNEL_COUNTS = [("FULL", "abab", 100), ("ABELIAN", "aba", 70)]
KERNEL_RAMSEY = ("FULL", "abab", 2, 25)
KERNEL_FIND = ("PARTIAL_COLLAPSED", "aa", 3, 14, 1)
README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
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


def readme_commands() -> list[list[str]]:
    """The argv of each `patstats ...` example line of the README that prints JSON
    (the CSV example prints the same record as another one)."""
    with open(README) as fh:
        return [line.split("#")[0].split()[1:] for line in fh
                if line.startswith("patstats ") and "--format csv" not in line]


def _cli_row(cli, argv: list[str]) -> dict:
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, json.loads(out.getvalue())["result"]

    (code, result), secs = _timed(run)
    row = {"name": "patstats " + " ".join(argv), "layer": "end-to-end",
           "result_sha256": _digest(f"{code} {result}"), "work": {"exit": code},
           "seconds": secs}
    if argv[0] == "stats":
        row.update(result_sha256=None, values=[result])
    elif argv[0] == "reproduce":
        # each line's name and verdict, and the exact lines' values, are hashed
        floats = [line["computed"] for line in result if isinstance(line["computed"], float)]
        exact = [(line["name"], line["ok"], line["computed"]) for line in result
                 if not isinstance(line["computed"], float)]
        verdicts = [(line["name"], line["ok"]) for line in result]
        row.update(result_sha256=_digest(f"{code} {verdicts} {exact}"), values=floats)
    return row


def _timed(call):
    """The result of call and its time, or the mean time of LOOP more calls
    when it takes under LOOP_BELOW seconds; a garbage collection before each call."""
    gc.collect()
    start = time.perf_counter()
    result = call()
    secs = time.perf_counter() - start
    if secs < LOOP_BELOW:
        secs = 0.0
        for _ in range(LOOP):
            gc.collect()
            start = time.perf_counter()
            call()
            secs += time.perf_counter() - start
        secs /= LOOP
    return result, secs


def measure() -> list[dict]:
    """One measurement pass, each row timed by _timed."""
    from patstats import asymptotics, bounds, cli, genfunc, oracle, search
    from patstats.errors import ToleranceError
    from patstats.oracle import CountKind
    from patstats.words import Pattern, Word

    rows = []
    for kind, text, n, m, holes, workers in TOTALS:
        total, secs = _timed(lambda: oracle.total_count(CountKind[kind], n, m,
                                                        Pattern.from_text(text), holes=holes,
                                                        workers=workers))
        rows.append({"name": f"total_count({kind}, {text!r}, n={n}, m={m}"
                             + (f", holes={holes}" if holes is not None else "")
                             + (f", workers={workers})" if workers > 1 else ")"),
                     "layer": "oracle", "result_sha256": _digest(format(total, "x")),
                     "work": {"words": oracle.population_size(CountKind[kind], n, m, holes)},
                     "seconds": secs})
    for layer, (kind, text, m, length, holes) in ([("search", find) for find in FINDS]
                                                  + [("kernel", KERNEL_FIND)]):
        outcome, secs = _timed(lambda: search.find_avoiding(
            CountKind[kind], Pattern.from_text(text), m, length, holes=holes))
        witness = None if outcome.witness is None else outcome.witness.to_text()
        rows.append({"name": f"find_avoiding({kind}, {text!r}, {m}, {length}"
                             + (f", holes={holes})" if holes is not None else ")"),
                     "layer": layer, "result_sha256": _digest(f"{outcome.status.value} {witness}"),
                     "work": {"nodes": outcome.nodes}, "seconds": secs})
    for layer, (kind, text, m, n_max) in ([("search", ramsey) for ramsey in RAMSEYS]
                                          + [("kernel", KERNEL_RAMSEY)]):
        p = Pattern.from_text(text)
        value, secs = _timed(lambda: search.exact_ramsey_length(CountKind[kind], p, m, n_max))
        # find_avoiding runs the same search and reports its nodes
        nodes = search.find_avoiding(CountKind[kind], p, m, n_max).nodes
        rows.append({"name": f"exact_ramsey_length({kind}, {text!r}, {m}, {n_max})",
                     "layer": layer, "result_sha256": _digest(str(value)),
                     "work": {"nodes": nodes}, "seconds": secs})
    for kind, text, length in KERNEL_COUNTS:
        rng = random.Random(f"{kind} {text}")
        word = Word(tuple(rng.randrange(2) for _ in range(length)), 2)
        total, secs = _timed(lambda: oracle.count(CountKind[kind], word, Pattern.from_text(text)))
        rows.append({"name": f"count({kind}, {text!r}, {length} letters, m=2)", "layer": "kernel",
                     "result_sha256": _digest(format(total, "x")),
                     "work": {"occurrences": total}, "seconds": secs})
    for kind, text, m, order in SERIES:
        p = Pattern.from_text(text)
        if kind is None:
            series, secs = _timed(lambda: genfunc.ogf_bivariate(p, m, order))
            coeffs = [series.coeff_hole(n, h) for n in range(order + 1) for h in range(n + 1)]
            name = f"ogf_bivariate({text!r}, {m}, {order})"
        else:
            series, secs = _timed(lambda: genfunc.ogf_build(CountKind[kind], p, m, order))
            coeffs = [series.coeff(n) for n in range(order + 1)]
            name = f"ogf_build({kind}, {text!r}, {m}, {order})"
        rows.append(_series_row(name, coeffs, order, secs))
    for kind, text, m, n_max in THRESHOLDS:
        threshold, secs = _timed(lambda: bounds.exact_avoidance_threshold(
            CountKind[kind], Pattern.from_text(text), m, n_max))
        rows.append(_series_row(f"exact_avoidance_threshold({kind}, {text!r}, {m}, {n_max})",
                                [threshold], n_max, secs))
    for x, y in UPARROW:
        rows.append(_bound_row(f"double_uparrow({x}, {y})",
                               *_timed(lambda: bounds.double_uparrow(x, y))))
    for m, i in ZIMIN_UPPER:
        rows.append(_bound_row(f"zimin_upper({m}, {i})",
                               *_timed(lambda: bounds.zimin_upper(m, i))))
    x, y = PRINTED
    bound = bounds.double_uparrow(x, y)
    printed, secs = _timed(lambda: str(bound))
    rows.append({"name": f"str(double_uparrow({x}, {y}))", "layer": "bounds",
                 "result_sha256": _digest(printed), "work": {"digits": len(printed)},
                 "seconds": secs})
    for m, k, eps in ABELIAN:
        def constant():
            try:
                return asymptotics.abelian_constant(m, k, eps)
            except ToleranceError as exc:
                return exc

        const, secs = _timed(constant)
        row = {"name": f"abelian_constant({m}, {k}, {eps!r})", "layer": "asymptotics",
               "result_sha256": None, "work": {"terms": const.terms}, "seconds": secs}
        if isinstance(const, ToleranceError):
            row["error"] = str(const)
        elif k == 2:
            row["result_sha256"] = _digest(
                f"{const.value.hex()} {const.terms} {const.tail_bound.hex()}")
        else:  # truncated where the k-dependent tail bound allows, so the value moves within eps
            row["values"] = [const.value]
        rows.append(row)
    for text, m, n, eps in ABELIAN_MEANS:
        mean, secs = _timed(lambda: asymptotics.mean_asymptotic(
            asymptotics.MeanKind.ABELIAN, Pattern.from_text(text), m, n, eps=eps))
        rows.append({"name": f"mean_asymptotic(ABELIAN, {text!r}, {m}, {n}, eps={eps!r})",
                     "layer": "asymptotics", "result_sha256": None, "values": [mean.value],
                     "work": {"terms": [c.terms for c in mean.abelian_factors]},
                     "seconds": secs})
    rows.extend(_cli_row(cli, argv) for argv in readme_commands())
    return rows


def _fastest(passes: list[list[dict]]) -> list[dict]:
    """Each row's fastest run over the passes, in first-pass order."""
    best = {}
    for row in (row for rows in passes for row in rows):
        if row["name"] not in best or row["seconds"] < best[row["name"]]["seconds"]:
            best[row["name"]] = row
    return list(best.values())


def _env(tree: str) -> dict:
    return dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))


def _pass(tree: str) -> list[dict]:
    code = (f"import json, runpy; measure = runpy.run_path({os.path.abspath(__file__)!r})"
            f"['measure']; print(json.dumps(measure()))")
    out = subprocess.run([sys.executable, "-c", code], env=_env(tree), cwd=tree,
                         check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def _tier1(tree: str) -> dict:
    start = time.perf_counter()
    run = subprocess.run(TIER1, env=_env(tree), cwd=tree, capture_output=True, text=True)
    secs = time.perf_counter() - start
    summary = run.stdout.strip().splitlines()[-1] if run.stdout.strip() else ""
    return {"name": "tier-1 suite", "layer": "end-to-end",
            "result_sha256": None, "work": {"summary": summary}, "seconds": secs}


def compare(before: str, after: str) -> dict:
    trees = (before, after)
    passes = ([], [])
    for i in range(REPEAT):
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            passes[side].append(_pass(trees[side]))
    old, new = (_fastest(passes[side]) + [_tier1(trees[side])] for side in (0, 1))
    rows = []
    for a, b in zip(old, new):
        assert a["name"] == b["name"]
        row = {"name": a["name"], "layer": a["layer"]}
        if a["result_sha256"]:
            row["same_result"] = a["result_sha256"] == b["result_sha256"]
        if "values" in a and "values" in b:
            row["relative_difference"] = max(
                (abs(y - x) / abs(x) for x, y in zip(a["values"], b["values"], strict=True)),
                default=0.0)
        keys = ("result_sha256", "values", "error", "work", "seconds")
        row["before"] = {k: a[k] for k in keys if k in a}
        row["after"] = {k: b[k] for k in keys if k in b}
        row["speedup"] = a["seconds"] / b["seconds"]
        rows.append(row)
    return {"method": f"time.perf_counter, fastest of {REPEAT} passes per side, each row timed"
                      f" once per pass, as the mean of {LOOP} calls after a first one when that"
                      f" takes under {LOOP_BELOW} s, the two sides back to back in each pass"
                      " with the first side alternating, a garbage collection before each call;"
                      " rows that print a leading-term mean report the relative difference of"
                      " the printed floats; the tier-1 suite runs once per side",
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
    if args.before:
        report = compare(args.before, args.after)
    else:
        report = _fastest([measure() for _ in range(REPEAT)])
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    main()
