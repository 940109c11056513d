"""The four question catalogues, the two workloads built from them, and the
checks on their answers.

Each workload is a closed loop with one caller: a researcher's script asking
the library one question after another.  A cycle asks every question of the
workload's catalogues once, in an order drawn from the seed; the run repeats
whole cycles, so every run asks the same mix of questions.  The seed also
draws the concrete inputs where the catalogue leaves a choice: the random
words of the per-word counts and, for the series, the pattern within its
signature class (the series depends on the signature only, so the cost does
not depend on the draw).

Sizes are set so that one cycle takes 2-9 seconds on a 2-core machine: a
50-second run then holds several cycles, and each question is asked often
enough for a median and a tail.

A task's answer is reduced to a small digest outside the timed region; the
digests are compared across cycles (the library is deterministic) and checked
against the independent references in reference.py after the timed loop.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import reference as ref

OK, FAILED, WRONG = "ok", "failed", "wrong"

# Abelian constants sum_l M(l, m, k)/m^(kl), pinned because the library's
# tolerances need more terms than a check inside a run can afford.
# Provenance: `python3 perfbench/reference.py m,k,terms` (exponential
# generating function in 40-digit decimals plus a power-law tail estimate).
# Each value below agrees to about 1e-13 relative between `terms` and
# 2 * `terms`, except (4, 2): its terms decay like l^(-3/2), the estimate moves
# like terms^(-3/2) (0.79287590 at 1000, 0.79287957 at 2000 terms), and the
# pin is the Richardson extrapolation of those two, good to about 1e-5.
ABELIAN_CONSTANTS = {
    (12, 2): 0.10115372621625018,    # 600 terms
    (11, 2): 0.11272913824396981,    # 800 terms
    (10, 2): 0.12737221213445293,    # 800 terms
    (10, 3): 0.010402741759026208,   # 400 terms
    (11, 3): 0.008537487668080039,   # 300 terms
    (12, 3): 0.007136235149269392,   # 300 terms
    (12, 4): 0.0005812217261937513,  # 300 terms
    (8, 3): 0.016637058544448108,    # 600 terms
    (4, 2): 0.79288158,              # 1000 and 2000 terms, extrapolated
}

# Float closed forms evaluated in double precision: no stated tolerance, so
# they must agree with the exact-rational reference to rounding.
FLOAT_RTOL = 1e-12


@dataclass
class Task:
    """One catalogue question.

    call      the timed call into the library;
    digest    reduces its answer (or the exception it raised) to a small,
              comparable value, outside the timed region;
    check     maps a digest to (OK | FAILED | WRONG, reason), after the loop;
    defect    names the known defect for a task that fails at the seed;
    direct    the library call behind a CLI task, for cli.overhead_s.
    """

    name: str
    call: Callable[[], object]
    digest: Callable[[object], object]
    check: Callable[[object], tuple[str, str]]
    defect: str | None = None
    direct: Callable[[], object] | None = None


@dataclass
class Workload:
    """tail_pct is fixed per workload so that runs completing different numbers
    of cycles report the same point of the same task mix.  It leaves at least
    10 tasks beyond it in the shortest 50-second run seen while the benchmark
    was defined, and falls inside a group of questions of similar cost, so
    that it does not jump between two questions as the cycle count changes."""

    name: str
    why: str
    build: Callable  # (lib, rng) -> list[Task]
    warmup: Callable  # (lib) -> None, cheap calls through every code path used
    tail_pct: int


def raised(exc: BaseException) -> tuple:
    return ("raised", type(exc).__name__, str(exc)[:200])


def expect_equal(expected) -> Callable[[object], tuple[str, str]]:
    def check(got):
        if isinstance(got, tuple) and got and got[0] == "raised":
            return FAILED, f"{got[1]}: {got[2]}"
        if got != expected:
            return WRONG, f"got {str(got)[:80]}, expected {str(expected)[:80]}"
        return OK, ""
    return check


def within(expected: float, rtol: float, got: float) -> bool:
    return abs(got - expected) <= rtol * abs(expected)


# ---------------------------------------------------------------- enumerate

# The two tasks whose latency ratio is mp_speedup: one total at 1 and at 2 workers.
WORKER_LEG = ("total_count full aba n=10 m=2", "total_count full aba n=10 m=2 workers=2")


def build_enumerate(lib, rng: random.Random) -> list[Task]:
    K = lib.oracle.CountKind
    P = lib.words.Pattern.from_text
    tasks = []
    totals = [  # kind, pattern, n, m, holes, workers
        ("full", "aba", 10, 2, None, 1),
        ("full", "aba", 10, 2, None, 2),  # WORKER_LEG: the same totals at 2 workers
        ("abelian", "aba", 9, 2, None, 1),
        ("partial-collapsed", "aba", 7, 2, None, 1),
        ("partial-morphism", "abba", 7, 2, None, 1),
        ("partial-collapsed", "abba", 8, 2, 3, 1),
    ]
    for kind, pat, n, m, holes, workers in totals:
        def call(kind=kind, pat=pat, n=n, m=m, holes=holes, workers=workers):
            return lib.oracle.total_count(K(kind), n, m, P(pat), holes=holes, workers=workers)
        name = f"total_count {kind} {pat} n={n} m={m}" + (f" holes={holes}" if holes else "") \
            + (f" workers={workers}" if workers > 1 else "")
        tasks.append(Task(name, call, lambda v: v,
                          lambda got, a=(kind, pat, n, m, holes): expect_equal(ref.total(*a))(got)))
    words = [  # kind, pattern, word length, alphabet
        ("full", "abab", 100, 2), ("full", "abab", 100, 2), ("full", "abab", 100, 2),
        ("abelian", "aba", 70, 2), ("abelian", "aba", 70, 2),
    ]
    for i, (kind, pat, length, m) in enumerate(words):
        letters = tuple(rng.randrange(m) for _ in range(length))

        def call(kind=kind, pat=pat, letters=letters, m=m):
            return lib.oracle.count(K(kind), lib.words.Word(letters, m), P(pat))
        tasks.append(Task(f"count {kind} {pat} random word #{i} len={length} m={m}", call,
                          lambda v: v,
                          lambda got, a=(kind, letters, pat, m): expect_equal(ref.count(*a))(got)))
    return tasks


def warm_enumerate(lib) -> None:
    K = lib.oracle.CountKind
    p = lib.words.Pattern.from_text("aba")
    for kind in K:
        lib.oracle.total_count(kind, 4, 2, p)
    lib.oracle.total_count(K.PARTIAL_COLLAPSED, 4, 2, p, holes=1)
    lib.oracle.total_count(K.FULL, 5, 2, p, workers=2)
    lib.oracle.count(K.ABELIAN, lib.words.Word((0, 1, 0, 1), 2), p)


# ---------------------------------------------------------------- series

SIGNATURE_CLASSES = {"abab": ("abab", "abba", "aabb"), "aba": ("aba", "aab", "abb")}


def series_digest(series) -> tuple:
    return tuple(series.coeff(i) for i in range(series.order + 1))


def check_series(kind: str, pat: str, m: int, order: int):
    return lambda got: expect_equal(tuple(ref.occurrence_series(kind, pat, m, order)))(got)


def build_series(lib, rng: random.Random) -> list[Task]:
    K = lib.oracle.CountKind
    P = lib.words.Pattern.from_text
    tasks = []
    builds = [("full", "abab", 3, 250), ("partial-collapsed", "abab", 2, 200),
              ("abelian", "abab", 4, 200)]
    for kind, cls, m, order in builds:
        pat = rng.choice(SIGNATURE_CLASSES[cls])

        def call(kind=kind, pat=pat, m=m, order=order):
            return lib.genfunc.ogf_build(K(kind), P(pat), m, order)
        tasks.append(Task(f"ogf_build {kind} {pat} m={m} order={order}", call,
                          series_digest, check_series(kind, pat, m, order)))
    pat = rng.choice(SIGNATURE_CLASSES["aba"])
    order = 20

    def bivariate(pat=pat):
        return lib.genfunc.ogf_bivariate(P(pat), 2, order)

    def bivariate_digest(series):
        return tuple(tuple(series.coeff_hole(n, h) for h in range(n + 1))
                     for n in range(order + 1))

    def bivariate_check(got, pat=pat):
        expected = tuple(tuple(row) for row in ref.hole_series("partial-collapsed", pat, 2, order))
        return expect_equal(expected)(got)
    tasks.append(Task(f"ogf_bivariate {pat} m=2 order={order}", bivariate, bivariate_digest,
                      bivariate_check))
    pat = rng.choice(SIGNATURE_CLASSES["abab"])
    n_max = 250

    def threshold(pat=pat):
        return lib.bounds.exact_avoidance_threshold(K.FULL, P(pat), 3, n_max)
    tasks.append(Task(f"exact_avoidance_threshold full {pat} m=3 n_max={n_max}", threshold,
                      lambda v: v,
                      lambda got, pat=pat: expect_equal(
                          ref.avoidance_threshold("full", pat, 3, n_max))(got)))
    return tasks


def warm_series(lib) -> None:
    K = lib.oracle.CountKind
    p = lib.words.Pattern.from_text("abab")
    for kind in (K.FULL, K.PARTIAL_COLLAPSED, K.ABELIAN):
        lib.genfunc.ogf_build(kind, p, 2, 8)
    lib.genfunc.ogf_bivariate(p, 2, 4).coeff_hole(4, 1)
    lib.bounds.exact_avoidance_threshold(K.FULL, p, 2, 8)


# ---------------------------------------------------------------- search

def build_search(lib, rng: random.Random) -> list[Task]:
    K = lib.oracle.CountKind
    P = lib.words.Pattern.from_text
    tasks = []
    finds = [  # kind, pattern, m, length, holes
        ("full", "abab", 3, 50, None),
        ("full", "abab", 3, 40, None),
        ("full", "aa", 3, 40, None),
        ("abelian", "aa", 4, 30, None),
        ("partial-collapsed", "aa", 3, 14, 1),
    ]
    for kind, pat, m, length, holes in finds:
        def call(kind=kind, pat=pat, m=m, length=length, holes=holes):
            return lib.search.find_avoiding(K(kind), P(pat), m, length, holes=holes)

        def digest(outcome):
            witness = outcome.witness
            chars = None if witness is None else getattr(witness, "letters", None) or witness.chars
            return (outcome.status.value, chars, outcome.nodes)

        def check(got, kind=kind, pat=pat, m=m, length=length, holes=holes):
            if got[0] == "raised":
                return FAILED, f"{got[1]}: {got[2]}"
            status, chars, _ = got
            if holes is not None:
                expected = "exhausted" if ref.partial_square_forced(length, holes) else "found"
                return (OK, "") if status == expected else (WRONG, f"status {status}")
            if status != "found" or chars is None or len(chars) != length:
                return WRONG, f"status {status}, witness {chars}"
            if not all(0 <= c < m for c in chars) or ref.count(kind, chars, pat, m) != 0:
                return WRONG, f"witness {chars} does not avoid {pat}"
            return OK, ""
        name = f"find_avoiding {kind} {pat} m={m} n={length}" + (f" holes={holes}" if holes else "")
        tasks.append(Task(name, call, digest, check))
    ramsey = [  # kind, pattern, m, n_max, known value and where it comes from
        ("full", "aba", 2, 10, 5),     # 2m + 1
        ("full", "aba", 3, 12, 7),     # 2m + 1
        ("abelian", "aa", 3, 12, 8),   # longest ternary abelian-square-free word has length 7
        ("full", "abab", 2, 25, 19),   # longest binary word without a square of period >= 2: 18
    ]
    for kind, pat, m, n_max, known in ramsey:
        def call(kind=kind, pat=pat, m=m, n_max=n_max):
            return lib.search.exact_ramsey_length(K(kind), P(pat), m, n_max)

        def check(got, kind=kind, pat=pat, m=m, n_max=n_max, known=known):
            status, why = expect_equal(known)(got)
            if status == OK and ref.longest_avoiding(kind, pat, m, n_max) + 1 != known:
                return WRONG, "reference search disagrees with the pinned value"
            return status, why
        tasks.append(Task(f"exact_ramsey_length {kind} {pat} m={m} n_max={n_max}", call,
                          lambda v: v, check))
    return tasks


def warm_search(lib) -> None:
    K = lib.oracle.CountKind
    P = lib.words.Pattern.from_text
    lib.search.find_avoiding(K.FULL, P("abab"), 3, 8)
    lib.search.find_avoiding(K.ABELIAN, P("aa"), 4, 6)
    lib.search.find_avoiding(K.PARTIAL_COLLAPSED, P("aa"), 3, 3, holes=1)
    lib.search.exact_ramsey_length(K.FULL, P("aba"), 2, 10)


# ---------------------------------------------------------------- closed_form

def run_cli(lib, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = lib.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def cli_digest(value, keep=lambda result: result) -> tuple:
    """(exit code, the record's result reduced by keep, first stderr line)."""
    rc, out, err = value
    try:
        result = keep(json.loads(out)["result"]) if out.strip() else None
    except (ValueError, KeyError, TypeError) as exc:
        result = ("unreadable record", f"{type(exc).__name__}: {exc}")
    return (rc, result, err.strip().splitlines()[0][:200] if err.strip() else "")


def cli_check(expect_rc: int, judge: Callable[[object], str | None]):
    """judge(result) returns None when the record's result is right, else why not."""
    def check(got):
        if got[0] == "raised":
            return FAILED, f"{got[1]}: {got[2]}"
        rc, result, err = got
        if rc != expect_rc:
            return FAILED, f"exit {rc}: {err}"
        try:
            problem = judge(result)
        except (KeyError, TypeError) as exc:
            problem = f"unexpected result {str(result)[:60]} ({type(exc).__name__})"
        return (WRONG, problem) if problem else (OK, "")
    return check


def result_is(expected: str) -> Callable[[object], str | None]:
    return lambda result: None if result == expected else f"result {str(result)[:60]}"


def result_near(expected: float, rtol: float) -> Callable[[object], str | None]:
    return lambda result: None if within(expected, rtol, result) \
        else f"result {result!r} not within {rtol} of {expected!r}"


def overflow_at(cap: int) -> Callable[[object], str | None]:
    return result_is({"overflow_beyond_digits": cap})


def big_result_is(expected: int) -> Callable[[object], str | None]:
    """Compare a decimal string longer than Python's default int/str digit limit."""
    def judge(result):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            ok = result == str(expected)
        finally:
            sys.set_int_max_str_digits(limit)
        return None if ok else f"result {str(result)[:60]}..."
    return judge


def zimin_upper_recursive(m: int, i: int) -> int:
    bound = 2 * m + 1
    for _ in range(i - 2):
        bound = m ** bound * (bound + 1) + bound
    return bound


def tetration_digits_exceed(x: int, y: int, cap: int) -> bool:
    """Does the tower of y copies of x have more than cap digits?  (log10 of the top exponent.)"""
    value = 1
    for _ in range(y - 1):
        value = x ** value
    return value * math.log10(x) >= cap


def reproduce_rows(rows: list) -> list:
    """Name and pass/fail of each reference line; other fields may carry timings."""
    return [(row["name"], row["ok"]) for row in rows]


def reproduce_judge(rows: list) -> str | None:
    failing = [name for name, ok in rows if not ok]
    if len(rows) != 10 or failing != ["mean-density-abacaba-m12-n100-d1/10"]:
        return f"{len(rows)} rows, failing {failing}"
    return None


def abelian_stats(m: int, k: int, eps: float, n: int = 100) -> tuple[list[str], float]:
    """CLI argv and reference for the abelian mean of a^k: n * constant(m, k)."""
    argv = ["stats", "--kind", "abelian", "-p", "a" * k, "-m", str(m), "-n", str(n),
            "--eps", repr(eps)]
    return argv, n * ABELIAN_CONSTANTS[(m, k)]


def build_closed_form(lib, rng: random.Random) -> list[Task]:
    """Twenty-four questions take a few milliseconds, mostly CLI parsing and
    output; thirteen take 0.05-1.4 s, and the series questions 0.1-0.4 s.  The
    cheap ones are the majority even with the series questions added, so the
    median task is a cheap CLI question: CLI overhead moves task_p50_s, and
    the calculators and series move tasks_per_s and task_tail_s."""
    K = lib.oracle.CountKind
    M = lib.asymptotics.MeanKind
    P = lib.words.Pattern.from_text
    cap = lib.bounds.DEFAULT_DIGIT_CAP
    abacaba = ref.multiplicities("abacaba")
    tenth = Fraction(1, 10)
    uparrow_25_defect = "bounds uparrow -x 2 -y 5 exits 1 at the 4300-digit int-to-str limit"
    tolerance_defect = "abelian constant at m=4 raises ToleranceError even at eps=1e-3"
    entries = [
        # argv, expected exit, judge, the library call behind it, known defect
        ("oracle count --kind full -w 11111111 -p aba -m 2", 0,
         result_is(str(ref.count("full", (1,) * 8, "aba", 2))),
         lambda: lib.oracle.count(K.FULL, lib.words.Word((1,) * 8, 2), P("aba")), None),
        ("oracle mean --kind full -p aa -m 2 -n 2", 0,
         result_is(str(Fraction(ref.total("full", "aa", 2, 2), ref.population("full", 2, 2)))),
         lambda: lib.oracle.mean_exact(K.FULL, 2, 2, P("aa")), None),
        ("coeff --kind partial -p aa -m 2 -n 2", 0,
         result_is(str(ref.total("partial-collapsed", "aa", 2, 2))),
         lambda: lib.genfunc.coeff(lib.genfunc.ogf_build(K.PARTIAL_COLLAPSED, P("aa"), 2, 2), 2),
         None),
        ("coeff --kind bivariate -p aa -m 2 -n 2 --holes 1", 0,
         result_is(str(ref.total("partial-collapsed", "aa", 2, 2, holes=1))),
         lambda: lib.genfunc.ogf_bivariate(P("aa"), 2, 2).coeff_hole(2, 1), None),
        ("stats --kind full -p abacaba -m 12 -n 100", 0,
         result_near(float(ref.leading_mean("full", abacaba, 12, 100)), FLOAT_RTOL),
         lambda: lib.asymptotics.mean_asymptotic(M.FULL, P("abacaba"), 12, 100), None),
        ("bounds zimin-lower --kind density -m 12 -i 3 -d 1/10", 0,
         result_near(ref.first_moment_threshold("density", ref.zimin_multiplicities(3), 12, tenth),
                     FLOAT_RTOL),
         lambda: lib.bounds.zimin_lower(M.DENSITY, 12, 3, d=tenth), None),
        ("bounds uparrow -x 3 -y 3", 0, result_is(str(3 ** 3 ** 3)),
         lambda: lib.bounds.double_uparrow(3, 3), None),
        ("bounds exact-threshold --kind full -p aa -m 2 --n-max 10", 0,
         result_is(str(ref.avoidance_threshold("full", "aa", 2, 10))),
         lambda: lib.bounds.exact_avoidance_threshold(K.FULL, P("aa"), 2, 10), None),
        ("search find --kind full -p aba -m 2 -n 4", 0,
         lambda result: None if result["witness"] == "aabb" and result["status"] == "found"
         and ref.count("full", (0, 0, 1, 1), "aba", 2) == 0 else f"result {result}",
         lambda: lib.search.find_avoiding(K.FULL, P("aba"), 2, 4), None),
        ("search ramsey --kind full -p aba -m 2 --n-max 10", 0,
         lambda result: None if result["ramsey_length"] == ref.longest_avoiding(
             "full", "aba", 2, 10) + 1 else f"result {result}",
         lambda: lib.search.exact_ramsey_length(K.FULL, P("aba"), 2, 10), None),
        ("reproduce", 2, reproduce_judge, lambda: lib.reproduce.reproduce_report(), None),
        # More leading-term means and first-moment bounds through the CLI.
        ("stats --kind partial -p abacaba -m 12 -n 100", 0,
         result_near(float(ref.leading_mean("partial", abacaba, 12, 100)), FLOAT_RTOL),
         lambda: lib.asymptotics.mean_asymptotic(M.PARTIAL, P("abacaba"), 12, 100), None),
        ("stats --kind strict -p abacaba -m 12 -n 100", 0,
         result_near(float(ref.leading_mean("strict", abacaba, 12, 100)), FLOAT_RTOL),
         lambda: lib.asymptotics.mean_asymptotic(M.STRICT, P("abacaba"), 12, 100), None),
        ("stats --kind density -p abacaba -m 12 -n 100 -d 1/10", 0,
         result_near(float(ref.leading_mean("density", abacaba, 12, 100, tenth)), FLOAT_RTOL),
         lambda: lib.asymptotics.mean_asymptotic(M.DENSITY, P("abacaba"), 12, 100, d=tenth), None),
        ("stats --kind abelian-rs -p aba -m 12 -n 100", 0,  # zeta's stated tol is 1e-12
         result_near(ref.abelian_envelope_mean(ref.multiplicities("aba"), 12, 100),
                     1e-12 + FLOAT_RTOL),
         lambda: lib.asymptotics.abelian_rs_approx_mean(P("aba"), 12, 100), None),
        ("bounds threshold --kind full -p abacaba -m 12", 0,
         result_near(ref.first_moment_threshold("full", abacaba, 12), FLOAT_RTOL),
         lambda: lib.bounds.avoidance_threshold(M.FULL, P("abacaba"), 12), None),
        ("bounds threshold --kind partial -p abacaba -m 12", 0,
         result_near(ref.first_moment_threshold("partial", abacaba, 12), FLOAT_RTOL),
         lambda: lib.bounds.avoidance_threshold(M.PARTIAL, P("abacaba"), 12), None),
        ("bounds threshold --kind density -p abacaba -m 12 -d 1/10", 0,
         result_near(ref.first_moment_threshold("density", abacaba, 12, tenth), FLOAT_RTOL),
         lambda: lib.bounds.avoidance_threshold(M.DENSITY, P("abacaba"), 12, d=tenth), None),
        ("bounds threshold --kind strict -p abacaba -m 12", 0,
         result_near(ref.first_moment_threshold("strict", abacaba, 12), FLOAT_RTOL),
         lambda: lib.bounds.avoidance_threshold(M.STRICT, P("abacaba"), 12), None),
        ("coeff --kind full -p abab -m 3 -n 20", 0,
         result_is(str(ref.total("full", "abab", 20, 3))),
         lambda: lib.genfunc.coeff(lib.genfunc.ogf_build(K.FULL, P("abab"), 3, 20), 20), None),
        ("coeff --kind abelian -p abab -m 4 -n 12", 0,
         result_is(str(ref.total("abelian", "abab", 12, 4))),
         lambda: lib.genfunc.coeff(lib.genfunc.ogf_build(K.ABELIAN, P("abab"), 4, 12), 12), None),
        ("oracle total --kind full -p aba -m 2 -n 6", 0,
         result_is(str(ref.total("full", "aba", 6, 2))),
         lambda: lib.oracle.total_count(K.FULL, 6, 2, P("aba")), None),
        ("bounds zimin-lower --kind full -m 12 -i 3", 0,
         result_near(ref.first_moment_threshold("full", ref.zimin_multiplicities(3), 12),
                     FLOAT_RTOL),
         lambda: lib.bounds.zimin_lower(M.FULL, 12, 3), None),
        # Bound calculators near the digit cap.
        ("bounds uparrow -x 3 -y 4", 0,
         overflow_at(cap) if tetration_digits_exceed(3, 4, cap) else result_is(str(3 ** 3 ** 27)),
         lambda: lib.bounds.double_uparrow(3, 4), None),
        ("bounds zimin-upper -m 2 -i 4", 0, result_is(str(zimin_upper_recursive(2, 4))),
         lambda: lib.bounds.zimin_upper(2, 4), None),
        ("bounds zimin-upper -m 4 -i 4", 0, overflow_at(cap),  # 4^2621449 has 1.58M digits
         lambda: lib.bounds.zimin_upper(4, 4), None),
        ("bounds uparrow -x 2 -y 5", 0, big_result_is(2 ** 65536),
         lambda: lib.bounds.double_uparrow(2, 5), uparrow_25_defect),
    ]
    tasks = []
    for argv_text, rc, judge, direct, defect in entries:
        argv = argv_text.split()
        digest = (lambda v: cli_digest(v, reproduce_rows)) if argv == ["reproduce"] else cli_digest
        tasks.append(Task(argv_text, lambda argv=argv: run_cli(lib, argv), digest,
                          cli_check(rc, judge), defect, direct))
    grid = [(12, 2, 1e-9), (11, 2, 1e-9), (11, 2, 1e-8), (10, 2, 1e-7), (10, 3, 1e-6),
            (11, 3, 1e-7), (12, 3, 1e-8), (12, 4, 1e-6)]
    for m, k, eps, defect in [(m, k, eps, None) for m, k, eps in grid] \
            + [(4, 2, 1e-3, tolerance_defect)]:
        argv, expected = abelian_stats(m, k, eps)
        tasks.append(Task(" ".join(argv), lambda argv=argv: run_cli(lib, argv), cli_digest,
                          cli_check(0, result_near(expected, eps)), defect,
                          lambda m=m, k=k, eps=eps: lib.asymptotics.mean_asymptotic(
                              M.ABELIAN, P("a" * k), m, 100, eps=eps)))

    def constant_8_3():
        return lib.asymptotics.abelian_constant(8, 3, 1e-9)

    def constant_check(got):
        if got[0] == "raised":
            return FAILED, f"{got[1]}: {got[2]}"
        return (OK, "") if within(ABELIAN_CONSTANTS[(8, 3)], 1e-9, got[1]) \
            else (WRONG, f"value {got[1]!r}")
    tasks.append(Task("abelian_constant(8, 3, 1e-9)", constant_8_3,
                      lambda c: ("value", c.value, c.terms), constant_check,
                      "abelian constant at m=8, k=3 raises ToleranceError at eps=1e-9"))
    return tasks


def warm_closed_form(lib) -> None:
    for argv in ("oracle count --kind full -w 0110 -p aa -m 2",
                 "stats --kind abelian -p aa -m 12 -n 10 --eps 1e-3",
                 "bounds uparrow -x 2 -y 2 --cap 10",
                 "bounds zimin-upper -m 2 -i 3 --cap 10",
                 "bounds zimin-lower --kind full -m 4 -i 3",
                 "search ramsey --kind full -p aba -m 2 --n-max 10"):
        run_cli(lib, argv.split())


def build_walks(lib, rng: random.Random) -> list[Task]:
    return build_enumerate(lib, rng) + build_search(lib, rng)


def warm_walks(lib) -> None:
    warm_enumerate(lib)
    warm_search(lib)


def build_formulas(lib, rng: random.Random) -> list[Task]:
    return build_series(lib, rng) + build_closed_form(lib, rng)


def warm_formulas(lib) -> None:
    warm_series(lib)
    warm_closed_form(lib)


# Two workloads, each of two catalogues, so that a run can last 50 s: on the
# machine the benchmark was defined on, CPU speed drifts by 10-25% over tens
# of seconds, and shorter runs of four workloads did not stay within bounds.
WORKLOADS = {
    "walks": Workload(
        "walks",
        "the occurrence walk in count mode (oracle totals and counts, 2 workers) and exists mode "
        "(avoidance search); the series, asymptotics and CLI are not used",
        build_walks, warm_walks, tail_pct=97),
    "formulas": Workload(
        "formulas",
        "exact series, the exact threshold, and the CLI on README commands, abelian means and bound "
        "calculators near the digit cap; the oracle and search only answer tiny README questions",
        build_formulas, warm_formulas, tail_pct=93),
}
