#!/usr/bin/env python3
"""Before/after timings of the oracle totals, the avoidance search, the series
builders, the bound calculators, the decimal output of a bound and the abelian
constant, and every command-line example of the README, run in-process
through cli.main.

    python scripts/bench.py --before OLD --after NEW --out BENCH.json
    python scripts/bench.py --before TREE --after TREE   # one tree against itself

OLD and NEW are checkouts of this repository.  The comparison loads the
src/patstats of both into this one interpreter, under two package names, so
the two sides run side by side in the same process; the package's imports are
relative, so each side's modules come from its own tree, and a load that
reaches a module outside it stops the script.  To time one tree, pass it as
both sides.

Every row is timed by one rule.  Its call is built once per side.  A first
call per side gives the row's result, and its time the number of calls that
make one sample of about SAMPLE seconds; both sides use that number.  Then
ROUNDS rounds time one sample per side, the sides in turn with the first side
alternating from round to round, and a garbage collection before each sample.
A side's seconds is the median of its samples, in seconds per call, reported
with their first and third quartiles and the samples themselves, so a speedup
can be read against the spread.  The speedup is the median over the rounds of
the before sample over the after sample, reported with the first and third
quartiles of those ratios: the two were taken back to back, so a change of the
host's speed between rounds falls on both alike and cancels in their ratio,
though not in the ratio of the two sides' seconds.  A pool row's workers are
forked from this interpreter and inherit both packages.

A row records its inputs, a hash of the result (so the two sides can be seen
to give the same answer) and a work counter.  Rows that print a leading-term
mean carry the printed floats instead, and the comparison reports their
relative difference: a mean is a float evaluation, and the same value computed
in another order may differ in its last bits.  So do the abelian constants with
k >= 3, whose truncation point moves with the tail bound (the value moves
within eps); an abelian constant that raises ToleranceError records the error
and its term count.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib.util
import io
import json
import os
import platform
import random
import statistics
import sys
import time
from functools import partial

UPARROW = [(3, 3), (3, 4), (2, 5)]
ZIMIN_UPPER = [(2, 4), (4, 4)]
# (m, k, eps); (8, 3, 1e-9) and (4, 4, 1e-6) sum the most terms of the k >= 3 rows (65
# and 148), (5, 2, 1e-3) sums 882 squared-variable terms, and (4, 2, 1e-3) raises
# ToleranceError after 1 term (the m = 4 factor reaches no tolerance), so one row
# records an error for the two sides to agree on
ABELIAN = [(12, 2, 1e-9), (11, 2, 1e-9), (11, 2, 1e-8), (10, 2, 1e-7), (10, 3, 1e-6),
           (11, 3, 1e-7), (12, 3, 1e-8), (12, 4, 1e-6), (8, 3, 1e-9), (4, 4, 1e-6),
           (5, 2, 1e-3), (4, 2, 1e-3)]
# patterns whose repeated variables share one multiplicity: (pattern, m, n, eps)
ABELIAN_MEANS = [("aabbcc", 11, 1000, 1e-9)]
# timed samples per side, and the length of one sample: a call timed alone for
# under a few milliseconds varies too much from one timing to the next
ROUNDS, SAMPLE = 11, 0.002
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


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _bound(value) -> dict:
    # hex keeps clear of the interpreter's limit on decimal int-to-str conversion
    if value.exact is None:
        return {"result_sha256": _digest(f"overflow {value.overflow_cap}"),
                "work": {"overflow_cap": value.overflow_cap}}
    return {"result_sha256": _digest(format(value.exact, "x")),
            "work": {"bits": value.exact.bit_length()}}


def _series(coeffs, order: int) -> dict:
    # int() also reads the Fraction coefficients of earlier checkouts
    return {"result_sha256": _digest(" ".join(format(int(c), "x") for c in coeffs)),
            "work": {"order": order}}


def _found(outcome) -> dict:
    witness = None if outcome.witness is None else outcome.witness.to_text()
    return {"result_sha256": _digest(f"{outcome.status.value} {witness}"),
            "work": {"nodes": outcome.nodes}}


def readme_commands() -> list[list[str]]:
    """The argv of each `patstats ...` example line of the README that prints JSON
    (the CSV example prints the same record as another one)."""
    with open(README) as fh:
        return [line.split("#")[0].split()[1:] for line in fh
                if line.startswith("patstats ") and "--format csv" not in line]


def _run_cli(cli, argv: list[str]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())["result"]


def _cli(argv: list[str], ran) -> dict:
    code, result = ran
    row = {"result_sha256": _digest(f"{code} {result}"), "work": {"exit": code}}
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


def rows(ps) -> list[tuple]:
    """The rows of the package ps, with its cli module imported, as (name,
    layer, call, record): call() does the timed work and record(result) gives
    the row's result hash, work counter and values or error."""
    asymptotics, bounds, oracle, search = ps.asymptotics, ps.bounds, ps.oracle, ps.search
    CountKind, Pattern = ps.CountKind, ps.Pattern
    out = []
    for kind, text, n, m, holes, workers in TOTALS:
        words = oracle.population_size(CountKind[kind], n, m, holes)
        out.append((f"total_count({kind}, {text!r}, n={n}, m={m}"
                    + (f", holes={holes}" if holes is not None else "")
                    + (f", workers={workers})" if workers > 1 else ")"), "oracle",
                    partial(oracle.total_count, CountKind[kind], n, m, Pattern.from_text(text),
                            holes=holes, workers=workers),
                    lambda total, words=words: {"result_sha256": _digest(format(total, "x")),
                                                "work": {"words": words}}))
    for layer, (kind, text, m, length, holes) in ([("search", find) for find in FINDS]
                                                  + [("kernel", KERNEL_FIND)]):
        out.append((f"find_avoiding({kind}, {text!r}, {m}, {length}"
                    + (f", holes={holes})" if holes is not None else ")"), layer,
                    partial(search.find_avoiding, CountKind[kind], Pattern.from_text(text), m,
                            length, holes=holes), _found))
    for layer, (kind, text, m, n_max) in ([("search", ramsey) for ramsey in RAMSEYS]
                                          + [("kernel", KERNEL_RAMSEY)]):
        p = Pattern.from_text(text)
        # find_avoiding runs the same search and reports its nodes
        nodes = search.find_avoiding(CountKind[kind], p, m, n_max).nodes
        out.append((f"exact_ramsey_length({kind}, {text!r}, {m}, {n_max})", layer,
                    partial(search.exact_ramsey_length, CountKind[kind], p, m, n_max),
                    lambda value, nodes=nodes: {"result_sha256": _digest(str(value)),
                                                "work": {"nodes": nodes}}))
    for kind, text, length in KERNEL_COUNTS:
        rng = random.Random(f"{kind} {text}")
        word = ps.Word(tuple(rng.randrange(2) for _ in range(length)), 2)
        out.append((f"count({kind}, {text!r}, {length} letters, m=2)", "kernel",
                    partial(oracle.count, CountKind[kind], word, Pattern.from_text(text)),
                    lambda total: {"result_sha256": _digest(format(total, "x")),
                                   "work": {"occurrences": total}}))
    for kind, text, m, order in SERIES:
        p = Pattern.from_text(text)
        if kind is None:
            out.append((f"ogf_bivariate({text!r}, {m}, {order})", "series",
                        partial(ps.genfunc.ogf_bivariate, p, m, order),
                        lambda s, order=order: _series(
                            [s.coeff_hole(n, h) for n in range(order + 1) for h in range(n + 1)],
                            order)))
        else:
            out.append((f"ogf_build({kind}, {text!r}, {m}, {order})", "series",
                        partial(ps.genfunc.ogf_build, CountKind[kind], p, m, order),
                        lambda s, order=order: _series([s.coeff(n) for n in range(order + 1)],
                                                       order)))
    for kind, text, m, n_max in THRESHOLDS:
        out.append((f"exact_avoidance_threshold({kind}, {text!r}, {m}, {n_max})", "series",
                    partial(bounds.exact_avoidance_threshold, CountKind[kind],
                            Pattern.from_text(text), m, n_max),
                    lambda threshold, n_max=n_max: _series([threshold], n_max)))
    out.extend((f"double_uparrow({x}, {y})", "bounds", partial(bounds.double_uparrow, x, y),
                _bound) for x, y in UPARROW)
    out.extend((f"zimin_upper({m}, {i})", "bounds", partial(bounds.zimin_upper, m, i), _bound)
               for m, i in ZIMIN_UPPER)
    x, y = PRINTED
    out.append((f"str(double_uparrow({x}, {y}))", "bounds",
                partial(str, bounds.double_uparrow(x, y)),
                lambda printed: {"result_sha256": _digest(printed),
                                 "work": {"digits": len(printed)}}))
    for m, k, eps in ABELIAN:
        def constant(m=m, k=k, eps=eps):
            try:
                return asymptotics.abelian_constant(m, k, eps)
            except ps.ToleranceError as exc:
                return exc

        def record(const, k=k) -> dict:
            row = {"result_sha256": None, "work": {"terms": const.terms}}
            if isinstance(const, ps.ToleranceError):
                row["error"] = str(const)
            elif k == 2:
                row["result_sha256"] = _digest(
                    f"{const.value.hex()} {const.terms} {const.tail_bound.hex()}")
            else:  # cut where the k-dependent tail bound allows: the value moves within eps
                row["values"] = [const.value]
            return row

        out.append((f"abelian_constant({m}, {k}, {eps!r})", "asymptotics", constant, record))
    for text, m, n, eps in ABELIAN_MEANS:
        out.append((f"mean_asymptotic(ABELIAN, {text!r}, {m}, {n}, eps={eps!r})", "asymptotics",
                    partial(asymptotics.mean_asymptotic, asymptotics.MeanKind.ABELIAN,
                            Pattern.from_text(text), m, n, eps=eps),
                    lambda mean: {"result_sha256": None, "values": [mean.value],
                                  "work": {"terms": [c.terms for c in mean.abelian_factors]}}))
    out.extend(("patstats " + " ".join(argv), "end-to-end", partial(_run_cli, ps.cli, argv),
                partial(_cli, argv)) for argv in readme_commands())
    return out


def _sample(call, batch: int):
    """The result of the last of batch calls, and their mean time after a
    garbage collection."""
    gc.collect()
    start = time.perf_counter()
    for _ in range(batch):
        result = call()
    return result, (time.perf_counter() - start) / batch


def _timed(calls: list) -> tuple[list, list[list[float]]]:
    """The result of each side's call and its samples, in seconds per call."""
    results, first = zip(*(_sample(call, 1) for call in calls))
    batch = max(1, round(SAMPLE / max(first)))  # calls per sample, the same on each side
    samples = [[] for _ in calls]
    for i in range(ROUNDS):
        for side in range(len(calls)) if i % 2 == 0 else reversed(range(len(calls))):
            samples[side].append(_sample(calls[side], batch)[1])
    return results, samples


def measure(packages: list) -> list[list[dict]]:
    """Each package's rows, each row's sides timed together by _timed."""
    sides = [[] for _ in packages]
    for specs in zip(*(rows(ps) for ps in packages), strict=True):
        results, samples = _timed([call for _, _, call, _ in specs])
        for out, (name, layer, _, record), result, times in zip(sides, specs, results, samples):
            low, median, high = statistics.quantiles(times, n=4)
            out.append({"name": name, "layer": layer, **record(result), "seconds": median,
                        "quartiles": [low, high], "samples": times})
    return sides


def _load(tree: str, alias: str):
    """The src/patstats of checkout tree, with its cli module, imported as the
    package alias.  Exits if that imported a module named patstats or a module
    of the alias from outside the tree."""
    src = os.path.join(os.path.abspath(tree), "src", "patstats")
    spec = importlib.util.spec_from_file_location(alias, os.path.join(src, "__init__.py"),
                                                  submodule_search_locations=[src])
    ps = sys.modules[alias] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ps)
    importlib.import_module(alias + ".cli")
    strays = [name for name, module in sys.modules.items() if name.partition(".")[0] == "patstats"
              or name.partition(".")[0] == alias and not module.__file__.startswith(src + os.sep)]
    if strays:
        sys.exit(f"bench.py: loading {src} as {alias} imported modules that are not"
                 f" its own: {', '.join(strays)}")
    return ps


def compare(before: str, after: str) -> dict:
    old, new = measure([_load(before, "patstats_before"), _load(after, "patstats_after")])
    rows = []
    for a, b in zip(old, new):
        row = {"name": a["name"], "layer": a["layer"]}
        if a["result_sha256"]:
            row["same_result"] = a["result_sha256"] == b["result_sha256"]
        if "values" in a and "values" in b:
            row["relative_difference"] = max(
                (abs(y - x) / abs(x) for x, y in zip(a["values"], b["values"], strict=True)),
                default=0.0)
        keys = ("result_sha256", "values", "error", "work", "seconds", "quartiles", "samples")
        row["before"] = {k: a[k] for k in keys if k in a}
        row["after"] = {k: b[k] for k in keys if k in b}
        # each round's two samples ran back to back, so their ratio is free of drift
        low, row["speedup"], high = statistics.quantiles(
            [x / y for x, y in zip(a["samples"], b["samples"])], n=4)
        row["speedup_quartiles"] = [low, high]
        rows.append(row)
    return {"method": f"time.perf_counter, both checkouts in one interpreter; {ROUNDS} rounds"
                      f" of one sample per side of about {SAMPLE} s (calls per sample from a first"
                      " call), first side alternating, a garbage collection before each sample;"
                      " seconds the median sample, speedup the median ratio of a round's two"
                      " with the quartiles of those ratios; rows that print a leading-term mean"
                      " report the relative difference of the printed floats",
            "machine": {"python": platform.python_version(), "platform": platform.platform(),
                        "nproc": os.cpu_count()},
            "rows": rows}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--before", required=True, help="checkout measured as the before side")
    ap.add_argument("--after", required=True, help="checkout measured as the after side")
    ap.add_argument("--out", help="write the comparison here instead of stdout")
    args = ap.parse_args()
    text = json.dumps(compare(args.before, args.after), indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    main()
