import os
import subprocess
import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import patstats
from patstats.errors import BudgetExceededError
from patstats.oracle import (CountKind, count, count_abelian, count_full, count_partial,
                             mean_exact, population_size, total_count)
from patstats.words import HOLE, Pattern, PartialWord, Word
from references import completions

FULL = CountKind.FULL
ABELIAN = CountKind.ABELIAN
MORPH = CountKind.PARTIAL_MORPHISM
COLLAPSED = CountKind.PARTIAL_COLLAPSED


def P(text):
    return Pattern.from_text(text)


def W(text, m=2):
    return Word.from_text(text, m)


def PW(text, m=2):
    return PartialWord.from_text(text, m)


# --- golden and hand-enumerated values -------------------------------------

def test_count_full_single_variable_is_factor_count():
    assert count_full(W("abc", 3), P("a")) == 6


def test_count_full_aaa_aa():
    assert count_full(W("aaa"), P("aa")) == 2


def test_count_abelian_distinct_letters():
    assert count_abelian(W("ab"), P("aa")) == 0


def test_count_abelian_aabb_ab():
    # no constraint links distinct variables: every (position, split) counts
    assert count_abelian(W("aabb"), P("ab")) == 10


def test_count_partial_two_holes_aa():
    w = PW("..")
    assert count_partial(w, P("aa"), MORPH) == 2
    assert count_partial(w, P("aa"), COLLAPSED) == 1


def test_count_partial_rejects_full_kind():
    with pytest.raises(ValueError):
        count_partial(PW(".."), P("aa"), FULL)


@pytest.mark.parametrize("kind", [MORPH, COLLAPSED], ids=lambda k: k.value)
def test_count_partial_takes_a_full_word(kind):
    # a full word is a partial word without holes, as count already reads it
    w = Word((0, 1, 0), 2)
    assert count_partial(w, P("aba"), kind) == count(kind, w, P("aba")) == 1
    assert count_partial(w, P("aa"), kind) == 0


# --- totals and means -------------------------------------------------------

def test_total_full_aa():
    assert total_count(FULL, 3, 2, P("aa")) == 8


def test_total_partial_collapsed_aa():
    assert total_count(COLLAPSED, 2, 2, P("aa")) == 7


def test_total_abelian_aa():
    assert total_count(ABELIAN, 2, 2, P("aa")) == 2


def test_total_rejects_holes_for_full_kinds():
    with pytest.raises(ValueError):
        total_count(FULL, 2, 2, P("aa"), holes=1)


@pytest.mark.parametrize("workers", [0, -3])
def test_total_rejects_fewer_than_one_worker(workers):
    with pytest.raises(ValueError, match="workers"):
        total_count(FULL, 3, 2, P("aa"), workers=workers)
    with pytest.raises(ValueError, match="workers"):
        mean_exact(FULL, 3, 2, P("aa"), workers=workers)


def test_total_walks_a_word_past_the_recursion_limit():
    # one word of 1,200 letters: the traversal of its prefixes is a loop, and
    # aa starts floor(r / 2) occurrences r letters from the end
    assert total_count(FULL, 1200, 1, P("aa")) == 360_000


def test_total_budget_error():
    with pytest.raises(BudgetExceededError):
        total_count(FULL, 10, 2, P("aa"), budget=100)


def test_total_by_hole_count_decomposes_population():
    # exact-h enumerations partition the full partial-word space
    n, m, p = 4, 2, P("ab")
    whole = total_count(MORPH, n, m, p)
    assert whole == sum(total_count(MORPH, n, m, p, holes=h) for h in range(n + 1))


def test_importing_the_package_loads_no_process_pool():
    # the pool machinery is imported by the first multi-worker total, not before
    code = ("import sys, patstats, patstats.cli, patstats.reproduce; print(sorted("
            "name for name in sys.modules if name.startswith(('multiprocessing', 'concurrent'))))")
    src = os.path.dirname(os.path.dirname(patstats.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"


def test_mean_exact_full_aa():
    assert mean_exact(FULL, 2, 2, P("aa")) == Fraction(1, 2)


def test_mean_exact_short_word_is_zero():
    assert mean_exact(FULL, 1, 5, P("ab")) == 0


def test_mean_exact_strict_identity():
    assert mean_exact(COLLAPSED, 2, 2, P("aa"), strict=True) == 1


def test_mean_exact_strict_rejects_holes():
    with pytest.raises(ValueError):
        mean_exact(COLLAPSED, 2, 2, P("aa"), holes=1, strict=True)
    with pytest.raises(ValueError):
        mean_exact(FULL, 2, 2, P("aa"), strict=True)


def test_count_full_single_var_formula():
    for n in range(1, 9):
        w = Word(tuple([0] * n), 2)
        assert count_full(w, P("a")) == n * (n + 1) // 2


# --- invariants (randomized) ------------------------------------------------

PATTERNS = [P(t) for t in ("a", "aa", "ab", "aba", "aab", "abab", "abba")]


@st.composite
def words(draw, max_m=3, max_n=7):
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    letters = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    return Word(tuple(letters), m)


@st.composite
def partials(draw, max_m=3, max_n=6):
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    chars = draw(st.lists(st.integers(-1, m - 1), min_size=n, max_size=n))
    return PartialWord(tuple(chars), m)


@given(words(), st.sampled_from(PATTERNS))
@settings(max_examples=60)
def test_hole_free_word_counts_agree_across_conventions(w, p):
    pw = PartialWord(w.letters, w.m)
    reference = count_full(w, p)
    assert count_partial(pw, p, MORPH) == reference
    assert count_partial(pw, p, COLLAPSED) == reference


@given(words(), st.sampled_from(PATTERNS))
@settings(max_examples=60)
def test_full_counts_never_exceed_abelian(w, p):
    assert count_full(w, p) <= count_abelian(w, p)


@given(words(), st.sampled_from([P("a"), P("ab"), P("abc")]))
@settings(max_examples=40)
def test_abelian_equals_full_without_repeats(w, p):
    assert count_abelian(w, p) == count_full(w, p)


@given(partials(), st.sampled_from(PATTERNS), st.data())
@settings(max_examples=60)
def test_hole_substitution_is_monotone_for_morphism_counts(w, p, data):
    letter_positions = [i for i, c in enumerate(w.chars) if c != HOLE]
    if not letter_positions:
        return
    i = data.draw(st.sampled_from(letter_positions))
    chars = list(w.chars)
    chars[i] = HOLE
    holier = PartialWord(tuple(chars), w.m)
    assert count_partial(holier, p, MORPH) >= count_partial(w, p, MORPH)


@given(partials(max_n=5), st.sampled_from(PATTERNS))
@settings(max_examples=40)
def test_any_encountering_completion_forces_partial_encounter(w, p):
    if any(count_full(c, p) >= 1 for c in completions(w)):
        assert count_partial(w, p, MORPH) >= 1


@given(partials(), st.sampled_from(PATTERNS))
@settings(max_examples=60)
def test_morphism_counts_dominate_collapsed(w, p):
    assert count_partial(w, p, MORPH) >= count_partial(w, p, COLLAPSED)


@pytest.mark.parametrize("kind", [MORPH, COLLAPSED])
@pytest.mark.parametrize("pat", ["aa", "aba"])
def test_strict_decomposition_exact(kind, pat):
    p = P(pat)
    for n in range(1, 5):
        whole = total_count(kind, n, 2, p)
        holefree = total_count(kind, n, 2, p, holes=0)
        strictly = sum(total_count(kind, n, 2, p, holes=h) for h in range(1, n + 1))
        assert whole == holefree + strictly
        assert holefree == total_count(FULL, n, 2, p)


def _count_morphism_naive(w: PartialWord, p: Pattern) -> int:
    """Enumerate all (position, concrete image assignment) pairs directly."""
    n, m, syms = len(w), w.m, p.symbols
    k = len(syms)
    total = 0

    def assignments(idx, images):
        if idx == max(syms) + 1:
            yield dict(images)
            return
        for length in range(1, n + 1):
            for img in product(range(m), repeat=length):
                images[idx] = img
                yield from assignments(idx + 1, images)
        images.pop(idx, None)

    for images in assignments(0, {}):
        target = []
        for s in syms:
            target.extend(images[s])
        if len(target) > n:
            continue
        for start in range(n - len(target) + 1):
            seg = w.chars[start:start + len(target)]
            if all(c == HOLE or c == t for c, t in zip(seg, target)):
                total += 1
    return total


@pytest.mark.parametrize("pat", ["aa", "ab", "aba", "aab"])
def test_overlay_product_matches_naive_morphism_enumeration(pat):
    p = P(pat)
    for n in range(1, 6):
        for chars in product((-1, 0, 1), repeat=n):
            w = PartialWord(chars, 2)
            assert count_partial(w, p, MORPH) == _count_morphism_naive(w, p)


def test_population_sizes():
    assert population_size(FULL, 3, 2) == 8
    assert population_size(COLLAPSED, 3, 2) == 27
    assert population_size(MORPH, 4, 2, holes=1) == 4 * 8
    # the shapes total_count rejects, with its messages
    with pytest.raises(ValueError, match=r"hole count must lie in \[0, n\]"):
        population_size(COLLAPSED, 3, 2, holes=5)
    with pytest.raises(ValueError, match=r"hole count must lie in \[0, n\]"):
        population_size(COLLAPSED, 3, 2, holes=-1)
    with pytest.raises(ValueError, match="hole count only applies to partial kinds"):
        population_size(FULL, 3, 2, holes=1)
