"""Fast paths against the code they replaced, bit for bit.

Each fast path keeps the exact answer of a slower formulation: the digit-cap
test decides value >= 10**cap from bit lengths, and the multinomial power sums
M(l, m, k) are extended one l at a time instead of rebuilt as doubling tables.
The replaced formulations are kept here as references, and the abelian
constants are pinned to the values, term counts and tail bounds the rebuilt
tables produced, as float hex strings.  Patterns with several variables of one
multiplicity compute that multiplicity's factor once.
"""

import math
from itertools import islice

import pytest

from patstats import asymptotics, bounds
from patstats.asymptotics import MeanKind, abelian_constant, mean_asymptotic
from patstats.bounds import DEFAULT_DIGIT_CAP, _reaches_cap, avoidance_threshold
from patstats.errors import ToleranceError
from patstats.genfunc import _mps_table, _mps_terms, multinomial_power_sum_enum
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
