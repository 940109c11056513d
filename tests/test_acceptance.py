"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Two criteria compare leading terms, which the method only promises in the
limit, so they check exactly that much:

- criterion 5 reads the bundled reference values as truncated prints (every
  float line is its recomputed value cut after the last printed digit), so a
  computed value reproduces its reference when it lies in
  [reference, reference + one unit in the last printed digit);
- the abelian leg of criterion 6 converges like 1 - a n^(-1/2) (about 0.67 at
  n = 60 over four letters), so one extrapolation step from n = 60 and n = 240
  removes the n^(-1/2) term before the 5% comparison, and the gap itself must
  shrink at that rate.
"""

from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

import pytest

from patstats.asymptotics import MeanKind, mean_asymptotic
from patstats.bounds import exact_avoidance_threshold, zimin_upper
from patstats.genfunc import coeff, ogf_bivariate, ogf_build
from patstats.oracle import (CountKind, count_abelian, count_full,
                             count_partial, total_count)
from patstats.reproduce import reproduce_report
from patstats.search import SearchStatus, exact_ramsey_length, find_avoiding
from patstats.words import Pattern, PartialWord, Word
from patstats import bounds, double_uparrow

FULL = CountKind.FULL
ABELIAN = CountKind.ABELIAN
COLLAPSED = CountKind.PARTIAL_COLLAPSED

GRID_PATTERNS = ("a", "aa", "ab", "aba", "aab", "abab", "abba")


def _report(name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
          + (f"  [{detail}]" if detail else ""))
    assert ok, f"{name}: {detail}"


@lru_cache(maxsize=None)
def brute_total(kind: CountKind, text: str, m: int, n: int, holes=None) -> int:
    return total_count(kind, n, m, Pattern.from_text(text), holes=holes)


def test_criterion_1_oracle_golden_values():
    failures = []
    if count_full(Word.from_text("11111111", 2), Pattern.from_text("aba")) != 34:
        failures.append("ones/aba != 34")
    if count_full(Word.from_text("tennessee", 26), Pattern.from_text("abaca")) < 1:
        failures.append("tennessee misses abaca")
    if count_abelian(Word.from_text("valhalla", 26), Pattern.from_text("abaa")) < 1:
        failures.append("valhalla misses abelian abaa")
    velveta = PartialWord.from_text("velve.ta", 26)
    if count_partial(velveta, Pattern.from_text("abab"), CountKind.PARTIAL_MORPHISM) < 1:
        failures.append("velve.ta misses abab")
    _report("1 oracle-golden-values", not failures, "; ".join(failures))


def test_criterion_2_series_equal_brute_force_grid():
    mismatches = []
    for kind in (FULL, COLLAPSED, ABELIAN):
        for text in GRID_PATTERNS:
            p = Pattern.from_text(text)
            for m in (1, 2, 3):
                n_max = 8 if m <= 2 else 6
                series = ogf_build(kind, p, m, n_max)
                for n in range(1, n_max + 1):
                    got = coeff(series, n)
                    want = brute_total(kind, text, m, n)
                    if got != want:
                        mismatches.append(f"{kind.value}/{text}/m={m}/n={n}: "
                                          f"{got} != {want}")
    _report("2 series-vs-oracle-grid", not mismatches, "; ".join(mismatches[:4]))


def test_criterion_3_bivariate_equal_brute_force():
    mismatches = []
    for text in ("aa", "aba"):
        p = Pattern.from_text(text)
        biv = ogf_bivariate(p, 2, 6)
        uni = ogf_build(COLLAPSED, p, 2, 6)
        for n in range(1, 7):
            for h in range(n + 1):
                got = biv.coeff_hole(n, h)
                want = brute_total(COLLAPSED, text, 2, n, h)
                if got != want:
                    mismatches.append(f"{text}/n={n}/h={h}: {got} != {want}")
            if sum(biv.coeff(n)) != uni.coeff(n):
                mismatches.append(f"{text}/n={n}: u=1 marginal mismatch")
    _report("3 bivariate-vs-oracle", not mismatches, "; ".join(mismatches[:4]))


def test_criterion_4_strict_decomposition():
    mismatches = []
    for text in GRID_PATTERNS:
        p = Pattern.from_text(text)
        for m in (1, 2, 3):
            n_max = 8 if m <= 2 else 6
            part = ogf_build(COLLAPSED, p, m, n_max)
            full = ogf_build(FULL, p, m, n_max)
            for n in range(1, n_max + 1):
                strictly = sum(brute_total(COLLAPSED, text, m, n, h)
                               for h in range(1, n + 1))
                if coeff(part, n) - coeff(full, n) != strictly:
                    mismatches.append(f"{text}/m={m}/n={n}")
    _report("4 strict-decomposition", not mismatches, "; ".join(mismatches[:4]))


def test_criterion_5_reference_value_reproduction():
    bad = []
    for r in reproduce_report():
        if r["tolerance"] == 0:
            if int(r["computed"]) != r["reference"]:
                bad.append(f"{r['name']}: {r['computed']} != {r['reference']}")
            continue
        printed = Decimal(repr(r["reference"]))
        unit = Decimal(1).scaleb(printed.as_tuple().exponent)
        if not printed <= Decimal(r["computed"]) < printed + unit:
            bad.append(f"{r['name']}: {r['computed']} outside "
                       f"[{printed}, {printed + unit})")
    _report("5 reference-reproduction", not bad, "; ".join(bad))


def test_criterion_6_asymptotic_convergence():
    problems = []
    aba = Pattern.from_text("aba")

    series = ogf_build(FULL, aba, 2, 400)
    exact = Fraction(series.coeff(400), 2 ** 400)
    ratio = float(exact) / mean_asymptotic(MeanKind.FULL, aba, 2, 400).value
    if abs(ratio - 1) > 0.05:
        problems.append(f"full ratio {ratio:.4f}")

    series = ogf_build(COLLAPSED, aba, 2, 400)
    exact = Fraction(series.coeff(400), 3 ** 400)
    ratio = float(exact) / mean_asymptotic(MeanKind.PARTIAL, aba, 2, 400).value
    if abs(ratio - 1) > 0.05:
        problems.append(f"partial ratio {ratio:.4f}")

    # strict vs partial: identical asymptotics, ratio of exact means -> 1
    strict_exact = Fraction(series.coeff(400) - ogf_build(FULL, aba, 2, 400).coeff(400),
                            3 ** 400 - 2 ** 400)
    if mean_asymptotic(MeanKind.STRICT, aba, 2, 400).value != \
            mean_asymptotic(MeanKind.PARTIAL, aba, 2, 400).value:
        problems.append("strict != partial asymptotic")
    ratio = float(strict_exact / exact)
    if abs(ratio - 1) > 0.05:
        problems.append(f"strict/partial exact ratio {ratio:.4f}")

    # abelian leg: block-anagram probabilities decay like l^(-3/2) over four
    # letters, so exact/asymptotic tends to 1 only like 1 - a n^(-1/2).  One
    # Richardson step with n and 4n cancels that term in exact(n)/(n^2/2);
    # the gap itself must halve when n quadruples.
    series = ogf_build(ABELIAN, aba, 4, 240)
    exact = {n: Fraction(series.coeff(n), 4 ** n) for n in (60, 240)}
    asym = {n: mean_asymptotic(MeanKind.ABELIAN, aba, 4, n, eps=0.05).value
            for n in (60, 240)}
    ratio = {n: float(exact[n]) / asym[n] for n in (60, 240)}
    scaled = {n: exact[n] / Fraction(n * n, 2) for n in (60, 240)}
    extrapolated = float((2 * scaled[240] - scaled[60]) * 60 ** 2 / 2) / asym[60]
    if abs(extrapolated - 1) > 0.05:
        problems.append(f"abelian extrapolated ratio {extrapolated:.4f}")
    rate = (1 - ratio[240]) / (1 - ratio[60])
    if not 0.4 <= rate <= 0.6:
        problems.append(f"abelian gap rate {rate:.3f} (ratios {ratio[60]:.4f}, "
                        f"{ratio[240]:.4f})")

    _report("6 asymptotic-convergence", not problems, "; ".join(problems))


def test_criterion_7_exact_ramsey_lengths():
    problems = []
    aba = Pattern.from_text("aba")
    if exact_ramsey_length(FULL, aba, 2, 10) != 5:
        problems.append("L(2) != 5")
    if exact_ramsey_length(FULL, aba, 3, 12) != 7:
        problems.append("L(3) != 7")
    if find_avoiding(FULL, aba, 2, 4).status is not SearchStatus.FOUND:
        problems.append("length 4 not found")
    if find_avoiding(FULL, aba, 2, 5).status is not SearchStatus.EXHAUSTED:
        problems.append("length 5 not exhausted")
    _report("7 exact-ramsey-lengths", not problems, "; ".join(problems))


def test_criterion_8_bounds_consistency():
    problems = []
    if double_uparrow(3, 3).exact != 7625597484987:
        problems.append("3^^3")
    if zimin_upper(2, 3, "recursive").exact != 197:
        problems.append("recursive(2,3) != 197")
    for m in (2, 3, 4):
        for i in (2, 3):
            rec = zimin_upper(m, i, "recursive")
            tet = zimin_upper(m, i, "tetration")
            if not (rec.is_exact and (not tet.is_exact or rec.exact < tet.exact)):
                problems.append(f"rec !< tet at m={m}, i={i}")
    for m in range(2, 65):
        for k in range(2, 65):
            if not m * 2 ** k - m + 1 < (m + 1) ** k:
                problems.append(f"pole inequality fails at m={m}, k={k}")
    _report("8 bounds-consistency", not problems, "; ".join(problems[:4]))


def test_criterion_9_first_moment_pipeline():
    problems = []
    for text in ("aa", "aba", "aab"):
        p = Pattern.from_text(text)
        for m in (2, 3):
            threshold = exact_avoidance_threshold(FULL, p, m, 10)
            for n in range(1, threshold + 1):
                if find_avoiding(FULL, p, m, n).status is not SearchStatus.FOUND:
                    problems.append(f"{text}/m={m}/n={n}")
    _report("9 first-moment-pipeline", not problems, "; ".join(problems[:4]))
