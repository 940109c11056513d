import pytest
from hypothesis import given, strategies as st

from patstats.words import (HOLE, Pattern, PatternSignature, PartialWord, Word, signature,
                            zimin)
from references import completions


def test_zimin_base_cases():
    assert zimin(1).to_text() == "a"
    assert zimin(2).to_text() == "aba"
    assert zimin(3).to_text() == "abacaba"


def test_zimin_rejects_zero():
    with pytest.raises(ValueError):
        zimin(0)


@pytest.mark.parametrize("i", range(1, 21))
def test_zimin_length_and_variable_count(i):
    z = zimin(i)
    assert len(z) == 2 ** i - 1
    assert z.num_variables == i


def test_signature_examples():
    sig = signature(Pattern.from_text("abacaba"))
    assert (sig.r, sig.s, sig.mults) == (3, 1, (1, 2, 4))
    sig = signature(Pattern.from_text("a"))
    assert (sig.r, sig.s, sig.mults) == (1, 1, (1,))
    sig = signature(Pattern.from_text("aa"))
    assert (sig.r, sig.s, sig.mults) == (1, 0, (2,))


def test_signature_counts_come_from_the_multiplicities():
    sig = PatternSignature((1, 2, 2))
    assert (sig.r, sig.s) == (3, 1)
    with pytest.raises(ValueError):
        PatternSignature((2, 1))


def test_pattern_normalizes_variable_names():
    assert Pattern.from_text("bab") == Pattern.from_text("aba")
    assert Pattern.from_text("zyz").symbols == (0, 1, 0)


def test_pattern_rejects_empty():
    with pytest.raises(ValueError):
        Pattern(())


@given(st.lists(st.integers(0, 5), min_size=1, max_size=12),
       st.permutations(list(range(6))))
def test_signature_invariant_under_renaming(symbols, perm):
    p = Pattern(tuple(symbols))
    q = Pattern(tuple(perm[s] for s in symbols))
    assert signature(p).mults == signature(q).mults


def test_word_validates_letters():
    with pytest.raises(ValueError):
        Word.from_text("abc", 2)
    with pytest.raises(ValueError):
        PartialWord((5,), 3)


def test_partial_word_hole_accessors():
    w = PartialWord.from_text("a.b.", 2)
    assert w.holes == 2
    assert w.chars == (0, HOLE, 1, HOLE)
    assert w.to_text() == "a.b."


def test_hole_glyph_accepted():
    assert PartialWord.from_text("a⋄b", 2).holes == 1


def test_completions():
    w = PartialWord.from_text("a.", 2)
    texts = sorted(c.to_text() for c in completions(w))
    assert texts == ["aa", "ab"]
