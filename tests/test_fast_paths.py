"""Fast paths against the code they replaced, bit for bit.

Each fast path keeps the exact answer of a slower formulation: the digit-cap
test decides value >= 10**cap from bit lengths, decimal output past the
interpreter's int-to-str limit converts binary halves in decimal arithmetic
instead of calling str with the limit lifted, and the multinomial power sums
M(l, m, k) come one l at a time from one power recurrence instead of m - 1
stacked convolution rows rebuilt as tables, and for squared variables from
the Bessel recurrence instead of the power recurrence.  The ABELIAN series
numerator is streamed term by term instead of built to the full order.
The replaced formulations are kept here as references, and the abelian
constants are pinned to the values, term counts and tail bounds the rebuilt
tables produced, as float hex strings.  Patterns with several variables of one
multiplicity compute that multiplicity's factor once.  The series come from
one integer recurrence for N/D (the bivariate one packed at u = 2^s) instead
of products of truncated series; the product form, with each geometric factor
written out term by term as the genfunc docstring derives it, is the reference.
The oracle's three walkers and the search's segment matcher became one
occurrence kernel with slice-free block checks and the length equation; the
replaced walkers are the reference, and a kernel that puts and takes one
position at a time answers as a fresh kernel with the same positions put does.
Totals walk one word per orbit of the letter permutations and, for patterns
that read the same reversed, reversal; the reference sums every word, and the
reversed word's first-occurrence form, built whole, is the reference for the
letter-by-letter test that picks one word of each reversed pair.  The totals
and the search share one traversal of the prefixes in first-occurrence form;
the words of all_words in that form are its reference.  The search
tries only words in first-occurrence form; a search that tries every letter is
the reference, and the search outcomes the replaced walkers produced are
pinned.
"""

import concurrent.futures
import math
import operator
import os
import random
import sys
from itertools import islice, product

import pytest

from patstats import asymptotics, oracle
from patstats.asymptotics import MeanKind, abelian_constant, mean_asymptotic
from patstats.bounds import (DEFAULT_DIGIT_CAP, _decimal, _reaches_cap, avoidance_threshold,
                             exact_avoidance_threshold)
from patstats.errors import ToleranceError
from patstats.genfunc import _mps_terms, multinomial_power_sum, ogf_bivariate, ogf_build
from patstats.oracle import PARTIAL_KINDS, CountKind, _walker, total_count
from patstats.search import SearchStatus, exact_ramsey_length, find_avoiding
from patstats.words import HOLE, PartialWord, Pattern, Word, signature
from references import (all_words, least_avoiding, multinomial_power_sum_enum,
                        squared_mps_power_terms)


# --- the digit-cap decision -----------------------------------------------------

def _values_near_the_cap(cap, power):
    edge = cap * math.log2(10)
    yield power - 1
    yield power
    for b in range(math.floor(edge) - 3, math.ceil(edge) + 4):
        yield 2 ** b - 1
        yield 2 ** b + 1


@pytest.mark.parametrize("caps", [range(1, 2001), [DEFAULT_DIGIT_CAP]],
                         ids=["1..2000", "default"])
def test_cap_decision_matches_direct_comparison(caps):
    for cap in caps:
        power = 10 ** cap
        for value in _values_near_the_cap(cap, power):
            assert _reaches_cap(value, cap) == (value >= power), (cap, value)


def test_cap_decision_far_from_the_edge():
    assert not _reaches_cap(0, 1)
    assert not _reaches_cap(3 ** 27, DEFAULT_DIGIT_CAP)
    assert _reaches_cap(2 ** (4 * DEFAULT_DIGIT_CAP), DEFAULT_DIGIT_CAP)


# --- decimal output -------------------------------------------------------------

def _values_past_the_str_limit(limit):
    rng = random.Random(limit)
    for digits in (1, limit - 1, limit, limit + 1, 5_000, 40_000):
        yield 10 ** digits - 1
        yield 10 ** digits
        yield 10 ** digits + 1
    # odd and power-of-two widths, so that splits into unequal halves and the
    # shared powers of two are exercised
    for bits in (14_000, 14_337, 16_384, 16_385, 65_536, 100_003, 340_000):
        yield 2 ** bits - 1
        yield 2 ** bits
        yield rng.getrandbits(bits) | 1 << (bits - 1)
    yield 0


def test_decimal_matches_str_past_the_limit():
    limit = sys.get_int_max_str_digits()
    texts = [(value, _decimal(value)) for value in _values_past_the_str_limit(limit)]
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        for value, text in texts:
            assert text == str(value), value.bit_length()
    finally:
        sys.set_int_max_str_digits(limit)


# --- the multinomial power sums -------------------------------------------------

def _doubling_table(limit, m, k):
    """The replaced table: every alphabet row rebuilt up to limit, C(l, i)^k per row."""
    row = [1] * (limit + 1)
    for _ in range(m - 1):
        new = [0] * (limit + 1)
        for total in range(limit + 1):
            c = 1
            acc = 0
            for i in range(total + 1):
                acc += c ** k * row[total - i]
                c = c * (total - i) // (i + 1)
            new[total] = acc
        row = new
    return tuple(row)


# every alphabet the benchmark and the abelian constants ask about (m = 4..12)
# is on the grid, where a wrong coefficient breaks the exact division
@pytest.mark.parametrize("k, m", [(k, m) for k in range(1, 5) for m in range(1, 7)]
                         + [(k, m) for k in range(2, 5) for m in range(7, 13)])
def test_mps_terms_match_replaced_table(k, m):
    expected = _doubling_table(40, m, k)
    assert tuple(islice(_mps_terms(m, k), 41)) == expected
    for ell in (1, 7, 40):
        assert multinomial_power_sum(ell, m, k) == expected[ell]


def test_mps_terms_match_replaced_table_long():
    # abelian_constant(11, 2, 1e-9) reads 248 terms
    assert tuple(islice(_mps_terms(11, 2), 251)) == _doubling_table(250, 11, 2)


@pytest.mark.parametrize("m", range(1, 13))
def test_squared_mps_terms_match_replaced_power_recurrence(m):
    # the k = 2 Bessel recurrence against the power recurrence it replaced
    assert (tuple(islice(_mps_terms(m, 2), 301))
            == tuple(islice(squared_mps_power_terms(m), 301)))


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("k", range(1, 5))
def test_mps_terms_match_enumeration(m, k):
    # enumeration visits C(l + m - 1, m - 1) compositions, so the length is
    # kept to 40 for m <= 3 and to 14 above
    top = 40 if m <= 3 else 14
    terms = list(islice(_mps_terms(m, k), top + 1))
    assert terms[0] == 1
    for ell in range(1, top + 1):
        assert terms[ell] == multinomial_power_sum_enum(ell, m, k), (ell, m, k)


# --- the abelian constants ------------------------------------------------------

ABELIAN_PINS = {
    # (m, k, eps): (value.hex(), terms, tail_bound.hex())
    (12, 2, 1e-9): ("0x1.9e535e98ce4afp-4", 149, "0x1.b4a8adef90deap-34"),
    (11, 2, 1e-9): ("0x1.cdbd119960822p-4", 248, "0x1.ef74493ba354fp-34"),
    (11, 2, 1e-8): ("0x1.cdbd1156662ecp-4", 140, "0x1.30ea1ffc55a13p-30"),
    (10, 2, 1e-7): ("0x1.04dbb7452ef60p-3", 131, "0x1.af9b3d5c6afbfp-27"),
    # for k >= 3 the tail bound carries the mode probability to the power k - 2
    (10, 3, 1e-6): ("0x1.54e0838674983p-7", 11, "0x1.2d424c0540086p-27"),
    (11, 3, 1e-7): ("0x1.17c1a30db401ap-7", 13, "0x1.d6c207e2bc989p-32"),
    (12, 3, 1e-8): ("0x1.d3ae2890440f4p-8", 14, "0x1.83d0cc74395d0p-35"),
    (12, 4, 1e-6): ("0x1.30ba424a17d95p-11", 5, "0x1.b52f6f23779c6p-36"),
    # these two converge only with the mode factor in the tail bound
    (8, 3, 1e-9): ("0x1.1094e195e57d8p-6", 65, "0x1.20138ea93ea08p-36"),
    (4, 4, 1e-6): ("0x1.2350352c4e7abp-6", 148, "0x1.3121fed21f5d1p-26"),
}

# sum_{l>=1} M(l, m, k)/m^(kl) by an independent route: the terms read off
# (sum_i x^i/i!^k)^m in 40-digit decimal arithmetic, summed to the stated number
# of terms, plus a power-law estimate of the remainder (the benchmark's
# reference.abelian_constant(m, k, terms)).  Each moves by about 1e-13
# relative when its number of terms is doubled; (4, 4) by 8e-12 from 300 terms.
ABELIAN_REFERENCES = {
    (12, 2): 0.10115372621625018,    # 600 terms
    (11, 2): 0.11272913824396981,    # 800 terms
    (10, 2): 0.12737221213445293,    # 800 terms
    (10, 3): 0.010402741759026208,   # 400 terms
    (11, 3): 0.008537487668080039,   # 300 terms
    (12, 3): 0.007136235149269392,   # 300 terms
    (12, 4): 0.0005812217261937513,  # 300 terms
    (8, 3): 0.016637058544448108,    # 600 terms
    (4, 4): 0.017780354402738383,    # 600 terms
}

ABELIAN_FAILURE_PINS = {
    # (m, k, eps): (ToleranceError.partial.hex(), ToleranceError.terms)
    (4, 2, 1e-3): ("0x1.0000000000000p-2", 1),
    # the k > 2 bail-out: even at the term cap the bound stays above eps
    (4, 3, 1e-9): ("0x1.0000000000000p-4", 1),
    (5, 3, 1e-12): ("0x1.47ae147ae147bp-5", 1),
}


@pytest.mark.parametrize("key", sorted(ABELIAN_PINS))
def test_abelian_constant_pinned(key):
    const = abelian_constant(*key)
    assert (const.value.hex(), const.terms, const.tail_bound.hex()) == ABELIAN_PINS[key]
    assert const.eps == key[2]
    # the truncated sum is within eps of the independent reference
    m, k, eps = key
    assert const.value == pytest.approx(ABELIAN_REFERENCES[m, k], rel=eps, abs=0)


@pytest.mark.parametrize("key", sorted(ABELIAN_FAILURE_PINS))
def test_abelian_tolerance_failure_pinned(key):
    with pytest.raises(ToleranceError) as err:
        abelian_constant(*key)
    assert (err.value.partial.hex(), err.value.terms) == ABELIAN_FAILURE_PINS[key]


@pytest.mark.parametrize("text", ["aabbcc", "abcabcab"])
def test_equal_multiplicities_share_one_abelian_factor(monkeypatch, text):
    p, m, n = Pattern.from_text(text), 12, 100
    sig = signature(p)
    # the per-variable loops of the replaced code, one constant per variable
    consts = [abelian_constant(m, k).value for k in sig.repeated]
    ln_total = math.lgamma(sig.s + 2)
    ln_c = -math.lgamma(sig.s + 2)
    for c in consts:
        ln_total += -math.log(c)
        ln_c += math.log(c)
    mean = math.exp((sig.s + 1) * math.log(n) + ln_c)
    threshold = math.exp(ln_total / (sig.s + 1))

    calls = []

    def counted(m, k, eps):
        calls.append(k)
        return abelian_constant(m, k, eps)

    monkeypatch.setattr(asymptotics, "abelian_constant", counted)
    got = mean_asymptotic(MeanKind.ABELIAN, p, m, n)
    assert got.value.hex() == mean.hex()
    assert [c.value for c in got.abelian_factors] == consts
    assert avoidance_threshold(MeanKind.ABELIAN, p, m).hex() == threshold.hex()
    assert calls == 2 * list(dict.fromkeys(sig.repeated))


# --- the series recurrence ------------------------------------------------------

SERIES_KINDS = [CountKind.FULL, CountKind.PARTIAL_COLLAPSED, CountKind.ABELIAN]
# in "aabbb" (multiplicities 2 and 3) the abelian product fills the odd lengths
# that its first factor leaves empty
SERIES_CORPUS = ["a", "aa", "ab", "aba", "aab", "abab", "abba",
                 "abac", "abaca", "abacab", "abacaba", "aabbb"]


def _series_product(factors, order, zero, add, times):
    out = factors[0]
    for factor in factors[1:]:
        new = [zero] * (order + 1)
        for i, x in enumerate(out):
            for j in range(order + 1 - i):
                new[i + j] = add(new[i + j], times(x, factor[j]))
        out = new
    return out


def _product_form(kind, p, m, order):
    """The occurrence totals as the product of the outer sequence, twice, and one
    factor per variable, each geometric series written out term by term."""
    b = m + 1 if kind is CountKind.PARTIAL_COLLAPSED else m
    outer = [b ** n for n in range(order + 1)]
    factors = [outer, outer]
    for k in signature(p).mults:
        top = order // k
        if kind is CountKind.ABELIAN:
            terms = tuple(islice(_mps_terms(m, k), top + 1))
        else:
            column = m if kind is CountKind.FULL else m * 2 ** k - m + 1
            terms = [column ** ell for ell in range(top + 1)]
        factor = [0] * (order + 1)
        for ell in range(1, top + 1):
            factor[k * ell] = terms[ell]
        factors.append(factor)
    return _series_product(factors, order, 0, operator.add, operator.mul)


def _upoly_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    return [x + y for x, y in zip(a, b)] + a[len(b):]


def _upoly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _upoly_pow(a, e):
    out = [1]
    for _ in range(e):
        out = _upoly_mul(out, a)
    return out


def _hole_product_form(p, m, order):
    """[z^n u^h] as the same product over polynomials in u (lists, h ascending)."""
    u_plus_m = [m, 1]
    outer = [_upoly_pow(u_plus_m, n) for n in range(order + 1)]
    factors = [outer, outer]
    for k in signature(p).mults:
        all_holes = [0] * k + [1]
        column = _upoly_add(all_holes, [m * c for c in _upoly_add(
            _upoly_pow([1, 1], k), [-c for c in all_holes])])
        factor = [[0] for _ in range(order + 1)]
        for ell in range(1, order // k + 1):
            factor[k * ell] = _upoly_pow(column, ell)
        factors.append(factor)
    rows = _series_product(factors, order, [0], _upoly_add, _upoly_mul)
    return [tuple((row + [0] * (n + 1))[:n + 1]) for n, row in enumerate(rows)]


@pytest.mark.parametrize("kind", SERIES_KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("text", SERIES_CORPUS)
def test_ogf_build_matches_product_form(kind, text):
    p = Pattern.from_text(text)
    for m in range(1, 6):
        expected = _product_form(kind, p, m, 40)
        for order in (0, 1, 7, 40):
            series = ogf_build(kind, p, m, order)
            assert series.order == order
            assert series.coeffs == tuple(expected[:order + 1]), (m, order)
            assert all(type(c) is int for c in series.coeffs)


# (pattern, m, order, largest u = 1 total): each total sits at a power-of-two
# edge of the digit width
HOLE_WIDTH_EDGES = [("aa", 2, 2, 2 ** 3 - 1), ("aaa", 2, 3, 2 ** 4 - 1),
                    ("aa", 5, 2, 2 ** 4), ("ab", 3, 3, 2 ** 8)]


@pytest.mark.parametrize("case", [(t, m, o) for t in ("aa", "aba", "abab", "abacaba")
                                  for m in (1, 2, 3) for o in (0, 3, 15)]
                         + [edge[:3] for edge in HOLE_WIDTH_EDGES],
                         ids=lambda c: "-".join(map(str, c)))
def test_ogf_bivariate_matches_product_form(case):
    text, m, order = case
    p = Pattern.from_text(text)
    series = ogf_bivariate(p, m, order)
    assert tuple(series.coeff(n) for n in range(order + 1)) == \
        tuple(_hole_product_form(p, m, order))
    assert tuple(map(sum, series.coeffs)) == \
        ogf_build(CountKind.PARTIAL_COLLAPSED, p, m, order).coeffs


def test_hole_width_edges_are_edges():
    for text, m, order, largest in HOLE_WIDTH_EDGES:
        totals = ogf_build(CountKind.PARTIAL_COLLAPSED, Pattern.from_text(text), m, order)
        assert max(totals.coeffs) == largest


@pytest.mark.parametrize("kind", SERIES_KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("text", ["aa", "aba", "abab", "abacaba"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_exact_threshold_matches_product_form(kind, text, m):
    n_max = 60
    p = Pattern.from_text(text)
    totals = _product_form(kind, p, m, n_max)
    base = m + 1 if kind is CountKind.PARTIAL_COLLAPSED else m
    expected = next((n - 1 for n in range(1, n_max + 1) if totals[n] >= base ** n), n_max)
    assert exact_avoidance_threshold(kind, p, m, n_max) == expected


# --- the occurrence kernel ------------------------------------------------------

def _merge(overlay, block):
    """Superpose a new block of the same variable; None on a letter conflict."""
    out = []
    for a, b in zip(overlay, block):
        if a == HOLE:
            out.append(b)
        elif b == HOLE or b == a:
            out.append(a)
        else:
            return None
    return tuple(out)


def _count_full_raw(letters, syms):
    n = len(letters)
    k = len(syms)
    bound = {}

    def walk(idx, pos):
        if idx == k:
            return 1
        v = syms[idx]
        rest = k - idx - 1
        piece = bound.get(v)
        if piece is not None:
            end = pos + len(piece)
            if end + rest > n or letters[pos:end] != piece:
                return 0
            return walk(idx + 1, end)
        total = 0
        for length in range(1, n - pos - rest + 1):
            bound[v] = letters[pos:pos + length]
            total += walk(idx + 1, pos + length)
        bound.pop(v, None)
        return total

    return sum(walk(0, start) for start in range(n))


def _count_abelian_raw(letters, m, syms):
    n = len(letters)
    k = len(syms)
    bound = {}  # per variable: (block length, letter histogram)

    def hist(lo, hi):
        h = [0] * m
        for c in letters[lo:hi]:
            h[c] += 1
        return tuple(h)

    def walk(idx, pos):
        if idx == k:
            return 1
        v = syms[idx]
        rest = k - idx - 1
        entry = bound.get(v)
        if entry is not None:
            length, h = entry
            end = pos + length
            if end + rest > n or hist(pos, end) != h:
                return 0
            return walk(idx + 1, end)
        total = 0
        for length in range(1, n - pos - rest + 1):
            bound[v] = (length, hist(pos, pos + length))
            total += walk(idx + 1, pos + length)
        bound.pop(v, None)
        return total

    return sum(walk(0, start) for start in range(n))


def _count_partial_raw(chars, m, syms, collapsed):
    n = len(chars)
    k = len(syms)
    bound = {}

    def weight():
        if collapsed:
            return 1
        w = 1
        for overlay in bound.values():
            w *= m ** overlay.count(HOLE)
        return w

    def walk(idx, pos):
        if idx == k:
            return weight()
        v = syms[idx]
        rest = k - idx - 1
        overlay = bound.get(v)
        if overlay is not None:
            end = pos + len(overlay)
            if end + rest > n:
                return 0
            merged = _merge(overlay, chars[pos:end])
            if merged is None:
                return 0
            bound[v] = merged
            total = walk(idx + 1, end)
            bound[v] = overlay
            return total
        total = 0
        for length in range(1, n - pos - rest + 1):
            bound[v] = chars[pos:pos + length]
            total += walk(idx + 1, pos + length)
        bound.pop(v, None)
        return total

    return sum(walk(0, start) for start in range(n))


def _segment_matches(chars, lo, hi, syms, m, kind):
    """Can chars[lo:hi] be composed into |p| nonempty blocks consistent for `kind`?"""
    k = len(syms)
    abelian = kind is CountKind.ABELIAN
    partial = kind in PARTIAL_KINDS
    bound = {}

    def hist(a, b):
        h = [0] * m
        for c in chars[a:b]:
            h[c] += 1
        return tuple(h)

    def walk(idx, pos):
        if idx == k:
            return pos == hi
        v = syms[idx]
        rest = k - idx - 1
        entry = bound.get(v)
        if entry is not None:
            if abelian:
                length, h = entry
                end = pos + length
                if end + rest > hi:
                    return False
                return hist(pos, end) == h and walk(idx + 1, end)
            end = pos + len(entry)
            if end + rest > hi:
                return False
            if partial:
                merged = _merge(entry, tuple(chars[pos:end]))
                if merged is None:
                    return False
                bound[v] = merged
                ok = walk(idx + 1, end)
                bound[v] = entry
                return ok
            if tuple(chars[pos:end]) != entry:
                return False
            return walk(idx + 1, end)
        for length in range(1, hi - pos - rest + 1):
            block = tuple(chars[pos:pos + length])
            bound[v] = (length, hist(pos, pos + length)) if abelian else block
            if walk(idx + 1, pos + length):
                del bound[v]
                return True
            del bound[v]
        return False

    return walk(0, lo)


def _reference_count(kind, chars, m, syms):
    if kind is CountKind.FULL:
        return _count_full_raw(chars, syms)
    if kind is CountKind.ABELIAN:
        return _count_abelian_raw(chars, m, syms)
    return _count_partial_raw(chars, m, syms, kind is CountKind.PARTIAL_COLLAPSED)


def _reference_closes(chars, end, syms, m, kind):
    return any(_segment_matches(chars, lo, end + 1, syms, m, kind)
               for lo in range(end - len(syms) + 2))


def _filled(kind, m, syms, chars):
    """The walk of a fresh kernel with every position of chars put."""
    put, _, occurrences = _walker(kind, m, syms, len(chars))
    for c in reversed(chars):
        put(c)
    return occurrences


def _kernel_count(kind, m, syms, chars):
    occurrences = _filled(kind, m, syms, chars)
    return sum(occurrences(pos) for pos in range(len(chars)))


def _kernel_closes(kind, m, syms, chars):
    """Whether the last position of chars closes an occurrence, as the search
    asks it: the reversed pattern anchored at the start of the reversed word."""
    return _filled(kind, m, syms[::-1], chars[::-1])(0, True)


# aaa reaches a third block (the partial kinds check it against the second
# too), in abcba the copy after c reaches back past b to a, and in aaba the
# copy after b, which its first block places, is a third block
KERNEL_PATTERNS = ["a", "aa", "ab", "aba", "aab", "abab", "abba", "aabb", "abcab",
                   "aaa", "abcba", "aaba"]


@pytest.mark.parametrize("kind", list(CountKind), ids=lambda k: k.value)
@pytest.mark.parametrize("text", KERNEL_PATTERNS)
def test_kernel_matches_replaced_walkers_on_short_words(kind, text):
    # closes(w, e) reads only w[:e + 1], and the grid holds every prefix of its
    # words, so checking the last position of each word checks every position.
    # Over four characters (m = 3 with holes) the words stop at length 6.
    syms = Pattern.from_text(text).symbols
    for m in (1, 2, 3):
        alphabet = list(range(m)) + ([HOLE] if kind in PARTIAL_KINDS else [])
        for n in range(1, 8 if len(alphabet) < 4 else 7):
            for chars in product(alphabet, repeat=n):
                assert _kernel_count(kind, m, syms, chars) == \
                    _reference_count(kind, chars, m, syms), chars
                assert _kernel_closes(kind, m, syms, chars) == \
                    _reference_closes(chars, n - 1, syms, m, kind), chars


LONG_WORDS = [(CountKind.FULL, 100), (CountKind.ABELIAN, 70)]


@pytest.mark.parametrize("kind, length", LONG_WORDS, ids=["full-100", "abelian-70"])
@pytest.mark.parametrize("text", [t for t in KERNEL_PATTERNS if len(set(t)) <= 2])
def test_kernel_matches_replaced_walkers_on_long_words(kind, length, text):
    # abcab is left to the short words: its reference walk is quartic in the length
    syms = Pattern.from_text(text).symbols
    rng = random.Random(f"{kind.value} {text}")
    chars = tuple(rng.randrange(2) for _ in range(length))
    assert _kernel_count(kind, 2, syms, chars) == _reference_count(kind, chars, 2, syms)


@pytest.mark.parametrize("kind, length, text", [(CountKind.FULL, 100, "abab"),
                                                (CountKind.ABELIAN, 70, "aba"),
                                                (CountKind.PARTIAL_COLLAPSED, 40, "aba")],
                         ids=["full-100-abab", "abelian-70-aba", "partial-collapsed-40-aba"])
def test_closes_occurrence_matches_replaced_matcher_at_every_end(kind, length, text):
    # the search asks anchored mode on the reversed prefix with the reversed
    # pattern, putting one character per position; the partial word, over two
    # letters and the hole, is longer than the grid's
    syms = Pattern.from_text(text).symbols
    rng = random.Random(f"{kind.value} {text}")
    alphabet = [0, 1, HOLE] if kind in PARTIAL_KINDS else [0, 1]
    chars = [rng.choice(alphabet) for _ in range(length)]
    put, _, occurrences = _walker(kind, 2, syms[::-1], length)
    for end in range(length):
        put(chars[end])
        assert occurrences(length - end - 1, True) == \
            _reference_closes(chars, end, syms, 2, kind), end


def _fills_and_takes(rng, alphabet, n):
    """Runs of puts and takes at the low end of a kernel of n positions: the
    filled characters, left to right, after each step."""
    filled = []
    for _ in range(40):
        if not filled or len(filled) < n and rng.random() < 0.55:
            for _ in range(rng.randint(1, n - len(filled))):
                filled.insert(0, rng.choice(alphabet))
                yield "put", filled
        else:
            for _ in range(rng.randint(1, len(filled))):
                del filled[0]
                yield "take", filled


@pytest.mark.parametrize("kind", list(CountKind), ids=lambda k: k.value)
@pytest.mark.parametrize("text", KERNEL_PATTERNS)
def test_one_walker_answers_a_sequence_of_words_as_fresh_walkers_do(kind, text):
    # one kernel follows random runs of puts and takes at its low end, as the
    # traversals move it; after each step the count from every filled start
    # and the anchored answer at every filled start are those of a fresh
    # kernel with the same characters put, so stale letter masks, suffix sums,
    # conflict masks or grouped ABELIAN windows would show.  Every start is
    # walked at each step, so windows are grouped at many low ends before a
    # take passes them
    syms = Pattern.from_text(text).symbols
    n = 12
    for m in (1, 2, 3):
        rng = random.Random(f"{kind.value} {text} {m}")
        alphabet = list(range(m)) + ([HOLE] if kind in PARTIAL_KINDS else [])
        put, take, occurrences = _walker(kind, m, syms, n)
        for step, filled in _fills_and_takes(rng, alphabet, n):
            if step == "put":
                put(filled[0])
            else:
                take()
            fresh = _filled(kind, m, syms, filled)
            lo = n - len(filled)
            for pos in range(len(filled)):
                assert occurrences(lo + pos) == fresh(pos), (m, filled, pos)
                assert occurrences(lo + pos, True) == fresh(pos, True), (m, filled, pos)


def _first_occurrence_form(chars):
    """Whether letter c appears in chars only after 0, ..., c - 1 have."""
    top = HOLE
    for c in chars:
        if c > top + 1:
            return False
        top = max(top, c)
    return True


def _mirror_order_by_form(chars):
    names = {HOLE: HOLE}  # the reversed word, its letters renamed in order of first appearance
    reverse = tuple(names.setdefault(c, len(names) - 1) for c in reversed(chars))
    return (reverse > chars) - (reverse < chars)


@pytest.mark.parametrize("kind", list(CountKind), ids=lambda k: k.value)
@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("m", [1, 2, 3])
def test_mirror_order_matches_reversed_first_occurrence_form(kind, n, m):
    # the letter-by-letter comparison stops at the first difference; the
    # reference builds the whole first-occurrence form of the reversed word
    for chars in all_words(n, m, kind in PARTIAL_KINDS):
        if _first_occurrence_form(chars):
            assert oracle._mirror_order(chars) == _mirror_order_by_form(chars), chars


def _traversal(kind, m, n, holes, pruned=lambda prefix: False):
    """The prefixes oracle._prefixes yields, sending a true value at each one
    pruned flags, with a list standing in for the kernel: at each yield it
    must hold the prefix, less the last character of a full-length word."""
    chars, kernel = [HOLE] * n, []
    prefixes = oracle._prefixes(kind, m, holes, chars, kernel.append, kernel.pop)
    seen = []
    for depth, top in prefixes:
        prefix = tuple(chars[:depth])
        assert kernel == list(prefix[:min(depth, n - 1)]), prefix
        assert top == max(prefix), prefix
        seen.append(prefix)
        if pruned(prefix):
            assert prefixes.send(True) is None
    assert not kernel
    return seen


@pytest.mark.parametrize("kind", list(CountKind), ids=lambda k: k.value)
@pytest.mark.parametrize("m", [1, 2, 3])
def test_traversal_yields_each_first_occurrence_prefix_once(kind, m):
    # the words come in the order of all_words, a < b < ... < hole, the order
    # in which the search's witness is the least; each prefix comes once,
    # before the words that extend it, and pruning a prefix drops exactly its
    # extensions, at full length too (where there are none)
    partial = kind in PARTIAL_KINDS
    for n in range(1, 7):
        for holes in [None] + (list(range(n + 1)) if partial else []):
            seen = _traversal(kind, m, n, holes)
            words = [prefix for prefix in seen if len(prefix) == n]
            assert words == [chars for chars in all_words(n, m, partial, holes)
                             if _first_occurrence_form(chars)], (n, holes)
            assert sorted(seen) == sorted({w[:d] for w in words for d in range(1, n + 1)})
            following = None  # the next word after each prefix
            for prefix in reversed(seen):
                following = prefix if len(prefix) == n else following
                assert following[:len(prefix)] == prefix, (n, holes, prefix)
            for modulus in (2, 3):
                def pruned(prefix):
                    return (sum(prefix) + len(prefix)) % modulus == 0
                assert _traversal(kind, m, n, holes, pruned) == [
                    prefix for prefix in seen
                    if not any(pruned(prefix[:d]) for d in range(1, len(prefix)))], (n, holes)


@pytest.mark.parametrize("kind", list(CountKind), ids=lambda k: k.value)
@pytest.mark.parametrize("text", ["aba", "abba", "abcab", "aab", "aaba"])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_symmetric_total_matches_unreduced_sum(monkeypatch, kind, text, m):
    # aab and aaba do not read the same reversed up to renaming; abcab does.
    # One word walked per worker, so these small totals still split into strides
    monkeypatch.setattr(oracle, "_WALKED_PER_WORKER", 1)
    n = 5
    syms = Pattern.from_text(text).symbols
    partial = kind in PARTIAL_KINDS
    for holes in [None] + (list(range(n + 1)) if partial else []):
        expected = sum(_reference_count(kind, chars, m, syms)
                       for chars in all_words(n, m, partial, holes))
        for workers in (1, 2, 3):
            assert total_count(kind, n, m, Pattern(syms), holes=holes,
                               workers=workers) == expected, (holes, workers)


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs in-process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def _pool_sizes(monkeypatch, cpus, kind, n, m, holes, workers, walked_per_worker=1):
    """The pool sizes one total starts on a host with the given CPU count, after
    checking that total against the in-process one."""
    monkeypatch.setattr(oracle, "_WALKED_PER_WORKER", walked_per_worker)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    p = Pattern.from_text("aba")
    expected = total_count(kind, n, m, p, holes=holes)
    assert total_count(kind, n, m, p, holes=holes, workers=workers) == expected
    return _InlinePool.sizes


@pytest.mark.parametrize("kind, holes, cpus", [
    (CountKind.FULL, None, 2),  # 16 words of the shape, over m! = 2: 8
    (CountKind.PARTIAL_COLLAPSED, None, 10),  # 81 words: 40
    (CountKind.PARTIAL_MORPHISM, 1, 6),  # 32 words: 16
    # 24 words: 12; 3 of the 8 workers get none of the 5 prefixes at depth 2
    # (aa, ab, a., .a, ..) that are dealt round-robin
    (CountKind.PARTIAL_COLLAPSED, 2, 8),
])
def test_worker_pool_is_capped_at_the_work_units(monkeypatch, kind, holes, cpus):
    # 5,000 workers asked for, fewer CPUs than words: one process per CPU
    assert _pool_sizes(monkeypatch, cpus, kind, 4, 2, holes, 5000) == [cpus]


@pytest.mark.parametrize("n, m, workers, cpus, sizes", [
    (6, 2, 8, 8, [8]),  # as many as asked for
    (6, 3, 8, 8, [8]),
    (6, 2, 3, 8, [3]),
    (2, 2, 5000, 8, [2]),  # at most one per m! words of the shape
    (6, 2, 8, 1, []),  # one worker sums in-process
    # the prefixes at depth ceil(n / 2) are dealt round-robin, so 6 of these
    # 8 workers get none of the 2 (aa, ab)
    (4, 3, 8, 8, [8]),
])
def test_worker_pool_is_capped_at_the_workers_and_the_words(monkeypatch, n, m, workers,
                                                           cpus, sizes):
    assert _pool_sizes(monkeypatch, cpus, CountKind.FULL, n, m, None, workers) == sizes


@pytest.mark.parametrize("n, m, sizes", [
    (5, 2, []),  # 32 words of the shape, about 16 walked
    (10, 2, []),  # 1,024 words, 512 walked: forking costs more than the walk
    (12, 2, []),  # 4,096 words, 2,048 walked: still in-process
    (7, 4, []),  # 16,384 words, but only about 16,384 / 4! = 682 walked
    (14, 2, [2]),  # 16,384 words, 8,192 walked: one worker per 4,096
])
def test_worker_pool_starts_only_where_it_pays(monkeypatch, n, m, sizes):
    assert _pool_sizes(monkeypatch, 8, CountKind.FULL, n, m, None, 2,
                       oracle._WALKED_PER_WORKER) == sizes


# Outcomes of the benchmark's search questions, pinned to what the replaced
# walker produced: (kind, pattern, m, length, holes) -> (status, witness, nodes).
# The partial node count is about half of it (1,411) since the search tries
# only words in first-occurrence form.
SEARCH_PINS = {
    ("full", "abab", 3, 50, None):
        ("found", "aaabaaacaaabaacaaacbaaabaacaaabaaacaaabbaaabaacaaa", 73),
    ("full", "abab", 3, 40, None): ("found", "aaabaaacaaabaacaaacbaaabaacaaabaaacaaabb", 60),
    ("full", "aa", 3, 40, None): ("found", "abacabcacbabcabacabcacbacabacbabcabacabc", 82),
    ("abelian", "aa", 4, 30, None): ("found", "abacabadabacbabdbabcbdcacbabda", 82),
    ("partial-collapsed", "aa", 3, 14, 1): ("exhausted", None, 707),
}
RAMSEY_PINS = {("full", "aba", 2, 10): 5, ("full", "aba", 3, 12): 7,
               ("abelian", "aa", 3, 12): 8, ("full", "abab", 2, 25): 19}


@pytest.mark.parametrize("question", sorted(SEARCH_PINS, key=str), ids=str)
def test_search_outcome_pinned(question):
    kind, text, m, length, holes = question
    outcome = find_avoiding(CountKind(kind), Pattern.from_text(text), m, length, holes=holes)
    witness = None if outcome.witness is None else outcome.witness.to_text()
    assert (outcome.status.value, witness, outcome.nodes) == SEARCH_PINS[question]


@pytest.mark.parametrize("question", sorted(RAMSEY_PINS), ids=str)
def test_exact_ramsey_length_pinned(question):
    kind, text, m, n_max = question
    assert exact_ramsey_length(CountKind(kind), Pattern.from_text(text), m, n_max) == \
        RAMSEY_PINS[question]


@pytest.mark.parametrize("kind", list(CountKind), ids=lambda k: k.value)
@pytest.mark.parametrize("text", KERNEL_PATTERNS)
def test_search_matches_a_search_over_every_letter(kind, text):
    # the first-occurrence candidates keep the least avoiding word, so the
    # status and the witness of every question stay those of a plain search
    p = Pattern.from_text(text)
    partial = kind in PARTIAL_KINDS
    for m in range(1, 5):
        for n in range(1, 11):
            for holes in (None, 1, 2) if partial else (None,):
                if holes is not None and holes > n:
                    continue
                least = least_avoiding(n, m, partial, holes,
                                       lambda chars: _kernel_closes(kind, m, p.symbols, chars))
                outcome = find_avoiding(kind, p, m, n, holes=holes)
                if least is None:
                    assert outcome.status is SearchStatus.EXHAUSTED, (m, n, holes)
                else:
                    witness = (PartialWord if partial else Word)(least, m)
                    assert outcome.witness == witness, (m, n, holes)
