import json
from itertools import product

import pytest

from patstats import search
from patstats.cli import main
from patstats.errors import BudgetExceededError
from patstats.oracle import CountKind, count, count_abelian, count_full
from patstats.search import SearchStatus, exact_ramsey_length, find_avoiding
from patstats.words import HOLE, Pattern, PartialWord, Word
from references import all_words

FULL = CountKind.FULL
ABELIAN = CountKind.ABELIAN
MORPH = CountKind.PARTIAL_MORPHISM
COLLAPSED = CountKind.PARTIAL_COLLAPSED


def P(text):
    return Pattern.from_text(text)


def test_find_square_free_binary():
    outcome = find_avoiding(FULL, P("aa"), 2, 3)
    assert outcome.status is SearchStatus.FOUND
    assert outcome.witness.to_text() == "aba"
    assert count_full(outcome.witness, P("aa")) == 0


def test_exhaustion_is_complete_at_desk_scale():
    # every binary word of length 5 really does encounter aba
    p = P("aba")
    for letters in product(range(2), repeat=5):
        assert count_full(Word(letters, 2), p) >= 1


def test_budget_exceeded_outcome():
    with pytest.raises(BudgetExceededError) as err:
        find_avoiding(FULL, P("aba"), 2, 4, budget=2)
    assert (err.value.needed, err.value.budget) == (3, 2)


def test_found_witnesses_verify_for_all_kinds():
    # note squares are hopeless for any partial word with a hole: the hole is
    # compatible with either neighbour, so those cases use the cube pattern
    cases = [
        (FULL, P("aa"), 2, 3, None),
        (ABELIAN, P("aa"), 3, 5, None),
        (MORPH, P("aaa"), 2, 3, 1),
        (COLLAPSED, P("aa"), 3, 4, 0),
        (COLLAPSED, P("aaa"), 2, 4, 1),
    ]
    for kind, p, m, length, holes in cases:
        outcome = find_avoiding(kind, p, m, length, holes=holes)
        assert outcome.status is SearchStatus.FOUND, (kind, p)
        assert count(kind, outcome.witness, p) == 0
        if holes is not None:
            assert outcome.witness.chars.count(HOLE) == holes


def test_square_with_any_hole_is_unavoidable():
    # a hole and its letter neighbour always form a compatible square
    for m in (2, 3):
        outcome = find_avoiding(MORPH, P("aa"), m, 4, holes=1)
        assert outcome.status is SearchStatus.EXHAUSTED


def test_hole_budget_respected_even_when_all_holes():
    outcome = find_avoiding(MORPH, P("aaa"), 2, 2, holes=2)
    assert outcome.status is SearchStatus.FOUND
    assert outcome.witness.to_text() == ".."


def test_abelian_search_is_stricter_than_full():
    # an abelian-avoiding witness is also nonabelian-avoiding
    outcome = find_avoiding(ABELIAN, P("aa"), 3, 7)
    assert outcome.status is SearchStatus.FOUND
    w = outcome.witness
    assert count_abelian(w, P("aa")) == 0
    assert count_full(w, P("aa")) == 0


def _least_avoiding(kind, p, m, n, holes):
    """The least word of the shape avoiding p in the order a < b < ... < hole,
    by brute force over every word, or None."""
    partial = kind in (MORPH, COLLAPSED)
    for chars in all_words(n, m, partial, holes):
        w = PartialWord(chars, m) if partial else Word(chars, m)
        if count(kind, w, p) == 0:
            return w.to_text()
    return None


def test_witness_is_the_least_avoiding_word():
    # the README's claim, on every kind and hole count at desk scale
    for kind, text, m, n in product((FULL, ABELIAN, MORPH, COLLAPSED),
                                    ("aa", "aba", "abab", "abba", "aab"),
                                    range(1, 4), range(1, 7)):
        for holes in (None, 0, 1, 2) if kind in (MORPH, COLLAPSED) else (None,):
            if holes is not None and holes > n:
                continue
            outcome = find_avoiding(kind, P(text), m, n, holes=holes)
            least = _least_avoiding(kind, P(text), m, n, holes)
            witness = None if outcome.witness is None else outcome.witness.to_text()
            assert outcome.status is (SearchStatus.EXHAUSTED if least is None
                                      else SearchStatus.FOUND), (kind, text, m, n, holes)
            assert witness == least, (kind, text, m, n, holes)


# --- no length limit but the node budget: 1,200 characters deep ---------------

def test_found_witness_past_the_interpreter_recursion_limit():
    outcome = find_avoiding(FULL, P("aaa"), 2, 1200)
    assert outcome.status is SearchStatus.FOUND
    assert len(outcome.witness.letters) == 1200
    assert count_full(outcome.witness, P("aaa")) == 0


def test_ramsey_search_past_the_interpreter_recursion_limit(capsys):
    # cube-free binary words exist at every length
    assert exact_ramsey_length(FULL, P("aaa"), 2, 1200) is None
    argv = "search ramsey --kind full -p aaa -m 2 --n-max 1200".split()
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["result"]["ramsey_length"] is None


def test_holes_rejected_for_full_kinds():
    with pytest.raises(ValueError):
        find_avoiding(FULL, P("aa"), 2, 3, holes=1)


@pytest.mark.parametrize("m", [0, -1])
def test_search_rejects_alphabets_without_letters(m):
    with pytest.raises(ValueError, match="alphabet size"):
        find_avoiding(FULL, P("aa"), m, 5)
    with pytest.raises(ValueError, match="alphabet size"):
        exact_ramsey_length(FULL, P("aa"), m, 5)


def test_ramsey_single_variable():
    assert exact_ramsey_length(FULL, P("a"), 2, 5) == 1
    assert exact_ramsey_length(FULL, P("a"), 7, 5) == 1


def test_ramsey_not_found_below():
    # squares are avoidable over three letters: no forcing length exists
    assert exact_ramsey_length(FULL, P("aa"), 3, 12) is None


def test_ramsey_budget_error_is_distinct():
    with pytest.raises(BudgetExceededError) as err:
        exact_ramsey_length(FULL, P("aba"), 2, 10, budget=3)
    assert (err.value.needed, err.value.budget) == (4, 3)


def test_ramsey_rejects_partial_kinds():
    with pytest.raises(ValueError):
        exact_ramsey_length(MORPH, P("aa"), 2, 5)


def test_sandwich_at_tiny_scale():
    # first-moment lower bound <= exact forcing length = recursive upper bound
    # <= tetration upper bound, for the smallest zimin pattern
    from patstats.asymptotics import MeanKind
    from patstats.bounds import zimin_lower, zimin_upper
    from patstats.words import zimin
    for m in (2, 3, 4):
        exact = exact_ramsey_length(FULL, zimin(2), m, 2 * m + 3)
        assert exact == 2 * m + 1
        assert zimin_lower(MeanKind.FULL, m, 2) <= exact
        rec = zimin_upper(m, 2, "recursive").exact
        tet = zimin_upper(m, 2, "tetration").exact
        assert exact == rec <= tet


def test_partial_witness_with_unconstrained_holes():
    outcome = find_avoiding(COLLAPSED, P("aaa"), 2, 3)
    assert outcome.status is SearchStatus.FOUND
    assert isinstance(outcome.witness, PartialWord)


# --- the incremental pruning checker vs the oracle ---------------------------

from hypothesis import given, settings, strategies as st  # noqa: E402

from patstats.oracle import _walker  # noqa: E402

CHECK_PATTERNS = [P(t) for t in ("a", "aa", "ab", "aba", "aab", "abab", "abba")]


def _closing_ends(kind, m, p, chars):
    """Whether each position of chars closes an occurrence of p, asked as the
    search asks it: the prefix put one character at a time, reversed, into a
    kernel for the reversed pattern, and an anchored walk from its first
    character."""
    n = len(chars)
    put, _, occurrences = _walker(kind, m, p.symbols[::-1], n)
    for end, c in enumerate(chars):
        put(c)
        yield occurrences(n - end - 1, True)


@st.composite
def char_lists(draw, with_holes):
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 7))
    low = -1 if with_holes else 0
    return draw(st.lists(st.integers(low, m - 1), min_size=n, max_size=n)), m


@given(char_lists(with_holes=False), st.sampled_from(CHECK_PATTERNS),
       st.sampled_from([FULL, ABELIAN]))
@settings(max_examples=80)
def test_pruning_checker_agrees_with_oracle_on_full_words(case, p, kind):
    # the word encounters p iff some position closes an occurrence; a false
    # negative here would make EXHAUSTED outcomes unsound
    chars, m = case
    w = Word(tuple(chars), m)
    closed = any(_closing_ends(kind, m, p, chars))
    assert closed == (count(kind, w, p) >= 1)


@given(char_lists(with_holes=True), st.sampled_from(CHECK_PATTERNS),
       st.sampled_from([MORPH, COLLAPSED]))
@settings(max_examples=80)
def test_pruning_checker_agrees_with_oracle_on_partial_words(case, p, kind):
    chars, m = case
    w = PartialWord(tuple(chars), m)
    closed = any(_closing_ends(kind, m, p, chars))
    assert closed == (count(kind, w, p) >= 1)


def test_witness_check_survives_stripped_asserts(monkeypatch):
    # a plain assert would vanish under python -O; the check must raise anyway
    monkeypatch.setattr(search, "count", lambda kind, w, p: 1)
    with pytest.raises(RuntimeError, match="re-verification"):
        find_avoiding(FULL, P("aa"), 2, 2)


def test_search_builds_the_kernel_once(monkeypatch):
    # each node asks the kernel once whether it closes an occurrence, and the
    # kernel is built once per search, not once per node
    builds, calls = [], []

    def counted_walker(*args):
        builds.append(args)
        put, take, occurrences = _walker(*args)

        def counted(*call):
            calls.append(call)
            return occurrences(*call)
        return put, take, counted

    monkeypatch.setattr(search, "_walker", counted_walker)
    outcome = find_avoiding(FULL, P("abab"), 3, 40)
    assert (len(builds), len(calls)) == (1, outcome.nodes) == (1, 60)
    builds.clear()
    calls.clear()
    assert exact_ramsey_length(FULL, P("aba"), 3, 12) == 7
    assert (len(builds), len(calls)) == (1, 41)
