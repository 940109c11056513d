"""Fast paths against the code they replaced, bit for bit.

Each fast path keeps the exact answer of a slower formulation: the digit-cap
test decides value >= 10**cap from bit lengths, and the multinomial power sums
M(l, m, k) are extended one l at a time instead of rebuilt as doubling tables.
The replaced formulations are kept here as references, and the abelian
constants are pinned to the values, term counts and tail bounds the rebuilt
tables produced, as float hex strings.  Patterns with several variables of one
multiplicity compute that multiplicity's factor once.  The series come from
one integer recurrence for N/D (the bivariate one packed at u = 2^s) instead
of products of truncated series; the product form, with each geometric factor
written out term by term as the genfunc docstring derives it, is the reference.
"""

import math
import operator
from itertools import islice

import pytest

from patstats import asymptotics, bounds
from patstats.asymptotics import MeanKind, abelian_constant, mean_asymptotic
from patstats.bounds import (DEFAULT_DIGIT_CAP, _reaches_cap, avoidance_threshold,
                             exact_avoidance_threshold)
from patstats.errors import ToleranceError
from patstats.genfunc import (_mps_table, _mps_terms, multinomial_power_sum_enum,
                              ogf_bivariate, ogf_build)
from patstats.oracle import CountKind
from patstats.words import Pattern, signature


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


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("k", range(1, 5))
def test_mps_terms_match_replaced_table(m, k):
    expected = _doubling_table(40, m, k)
    assert tuple(islice(_mps_terms(m, k), 41)) == expected
    assert _mps_table(40, m, k) == expected
    assert _mps_table(7, m, k) == expected[:8]


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
    (10, 3, 1e-6): ("0x1.54e085d2666f6p-7", 139, "0x1.5ebd816e7fe07p-27"),
    (11, 3, 1e-7): ("0x1.17c1a329862bbp-7", 150, "0x1.cec26832dee8fp-31"),
    (12, 3, 1e-8): ("0x1.d3ae28952a5dcp-8", 161, "0x1.3426bf67bf1d2p-34"),
    (12, 4, 1e-6): ("0x1.30ba427220e84p-11", 101, "0x1.3a02b91391005p-31"),
}

ABELIAN_FAILURE_PINS = {
    # (m, k, eps): (ToleranceError.partial.hex(), ToleranceError.terms)
    (4, 2, 1e-3): ("0x1.0000000000000p-2", 1),
    (8, 3, 1e-9): ("0x1.108a52d1c0000p-6", 5),
    (4, 4, 1e-6): ("0x1.0000000000000p-6", 1),
}


@pytest.mark.parametrize("key", sorted(ABELIAN_PINS))
def test_abelian_constant_pinned(key):
    const = abelian_constant(*key)
    assert (const.value.hex(), const.terms, const.tail_bound.hex()) == ABELIAN_PINS[key]
    assert const.eps == key[2]


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
    mean = n ** (sig.s + 1) / math.factorial(sig.s + 1)
    ln_total = math.lgamma(sig.s + 2)
    for c in consts:
        mean *= c
        ln_total += -math.log(c)
    threshold = math.exp(ln_total / (sig.s + 1))

    calls = []

    def counted(m, k, eps):
        calls.append(k)
        return abelian_constant(m, k, eps)

    monkeypatch.setattr(asymptotics, "abelian_constant", counted)
    monkeypatch.setattr(bounds, "abelian_constant", counted)
    got = mean_asymptotic(MeanKind.ABELIAN, p, m, n)
    assert got.value.hex() == mean.hex()
    assert [c.value for c in got.abelian_factors] == consts
    assert avoidance_threshold(MeanKind.ABELIAN, p, m).hex() == threshold.hex()
    assert calls == 2 * list(dict.fromkeys(sig.repeated))


# --- the series recurrence ------------------------------------------------------

SERIES_KINDS = [CountKind.FULL, CountKind.PARTIAL_COLLAPSED, CountKind.ABELIAN]
SERIES_CORPUS = ["a", "aa", "ab", "aba", "aab", "abab", "abba",
                 "abac", "abaca", "abacab", "abacaba"]


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
            terms = _mps_table(top, m, k)
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
    assert series.at_u_one() == ogf_build(CountKind.PARTIAL_COLLAPSED, p, m, order)


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
