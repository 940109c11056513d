import math
import sys
from fractions import Fraction

import pytest

from patstats import asymptotics
from patstats.asymptotics import MeanKind, abelian_constant
from patstats.bounds import (BoundValue, ZiminUpperMode, avoidance_threshold,
                             double_uparrow, exact_avoidance_threshold,
                             zimin_lower, zimin_signature, zimin_upper)
from patstats.errors import BudgetExceededError
from patstats.oracle import CountKind
from patstats.search import SearchStatus, find_avoiding
from patstats.words import Pattern, signature, zimin


def P(text):
    return Pattern.from_text(text)


# --- up-arrow -----------------------------------------------------------------

def test_uparrow_values():
    assert double_uparrow(3, 3).exact == 7625597484987
    assert double_uparrow(5, 0).exact == 1
    assert double_uparrow(7, 1).exact == 7
    assert double_uparrow(1, 100).exact == 1


def test_uparrow_overflow():
    v = double_uparrow(2, 5, cap=1000)
    assert not v.is_exact and v.overflow_cap == 1000
    # 2^^4 = 65536 still fits
    assert double_uparrow(2, 4, cap=1000).exact == 65536


def test_uparrow_overflow_past_float_range():
    # the next exponent, 2^65536, is beyond float range
    v = double_uparrow(2, 6)
    assert not v.is_exact and v.overflow_cap == 1_000_000
    assert double_uparrow(2, 5).exact == 2 ** 65536


def test_uparrow_recurrence():
    for x in (2, 3, 5):
        for y in (0, 1, 2):
            lhs = double_uparrow(x, y + 1).exact
            rhs = x ** double_uparrow(x, y).exact
            assert lhs == rhs


def test_uparrow_rejects_bad_args():
    with pytest.raises(ValueError):
        double_uparrow(0, 3)
    with pytest.raises(ValueError):
        double_uparrow(2, -1)


# --- zimin upper bounds ---------------------------------------------------------

def test_zimin_upper_base_case():
    assert zimin_upper(2, 2, ZiminUpperMode.RECURSIVE).exact == 5
    assert zimin_upper(5, 2, ZiminUpperMode.RECURSIVE).exact == 11


def test_zimin_upper_one_step():
    assert zimin_upper(2, 3, ZiminUpperMode.RECURSIVE).exact == 2 ** 5 * 6 + 5 == 197


def test_zimin_upper_tetration_base():
    assert zimin_upper(2, 2, ZiminUpperMode.TETRATION).exact == 16


def test_zimin_upper_tetration_overflow_past_float_range():
    # 2^^7: the tower passes 2^65536 before it outgrows the cap
    v = zimin_upper(2, 4, ZiminUpperMode.TETRATION)
    assert not v.is_exact and v.overflow_cap == 1_000_000


def test_zimin_upper_rejects_small_index():
    with pytest.raises(ValueError):
        zimin_upper(2, 1)


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("i", [2, 3])
def test_recursive_below_tetration(m, i):
    rec = zimin_upper(m, i, ZiminUpperMode.RECURSIVE)
    tet = zimin_upper(m, i, ZiminUpperMode.TETRATION)
    assert rec.less_than(tet)


def test_zimin_upper_overflow_marker():
    v = zimin_upper(2, 5, ZiminUpperMode.RECURSIVE, cap=100)
    assert not v.is_exact and v.overflow_cap == 100


def test_boundvalue_ordering_rules():
    small = BoundValue.of(10)
    spill = BoundValue.overflow(5)
    assert small.less_than(spill)
    assert not spill.less_than(small)
    with pytest.raises(ValueError):
        spill.less_than(BoundValue.overflow(5))
    huge = BoundValue.of(10 ** 10)
    with pytest.raises(ValueError):
        huge.less_than(spill)
    # at the edge of the cap: 10^5 - 1 has 5 digits, 10^5 has 6
    assert BoundValue.of(10 ** 5 - 1).less_than(spill)
    assert not spill.less_than(BoundValue.of(10 ** 5 - 1))
    with pytest.raises(ValueError):
        BoundValue.of(10 ** 5).less_than(spill)
    with pytest.raises(ValueError):
        spill.less_than(BoundValue.of(10 ** 5))


def test_boundvalue_prints_past_the_int_to_str_limit():
    limit = sys.get_int_max_str_digits()
    value = double_uparrow(2, 5)
    text = str(value)
    assert len(text) == 19_729 and text.startswith("2003529930406846464979")
    assert sys.get_int_max_str_digits() == limit


# --- structural zimin signatures -------------------------------------------------

@pytest.mark.parametrize("i", range(1, 9))
def test_zimin_signature_matches_expanded_pattern(i):
    assert zimin_signature(i) == signature(zimin(i))


# --- first-moment thresholds ------------------------------------------------------

def test_threshold_square_is_m_minus_1():
    for m in (3, 5, 12):
        assert avoidance_threshold(MeanKind.FULL, P("aa"), m) == pytest.approx(m - 1, rel=1e-9)


def test_threshold_power_pattern():
    for m, k in ((3, 3), (4, 4), (12, 3)):
        p = Pattern(tuple([0] * k))
        assert avoidance_threshold(MeanKind.FULL, p, m) == \
            pytest.approx(m ** (k - 1) - 1, rel=1e-9)


def test_threshold_zimin_closed_form():
    for m, i in ((12, 3), (2, 4), (5, 2)):
        expected = math.sqrt(2 * math.prod(m ** (2 ** j - 1) - 1 for j in range(1, i)))
        assert zimin_lower(MeanKind.FULL, m, i) == pytest.approx(expected, rel=1e-9)
        assert avoidance_threshold(MeanKind.FULL, zimin(i), m) == \
            pytest.approx(expected, rel=1e-9)


def test_threshold_no_repeats_is_trivial():
    # empty factor product leaves ((s+1)!)^(1/(s+1)); for "ab" s = 2
    assert avoidance_threshold(MeanKind.FULL, P("ab"), 5) == \
        pytest.approx(6 ** (1 / 3), rel=1e-12)


def test_threshold_partial_closed_form():
    for m, pat in ((2, "aa"), (3, "aba"), (12, "abacaba")):
        p = P(pat)
        sig = signature(p)
        expected = math.factorial(sig.s + 1)
        for k in sig.repeated:
            expected *= (m + 1) ** k / (m * 2 ** k - m + 1) - 1
        expected = expected ** (1 / (sig.s + 1))
        got = avoidance_threshold(MeanKind.PARTIAL, p, m)
        assert got == pytest.approx(expected, rel=1e-9)
        assert avoidance_threshold(MeanKind.STRICT, p, m) == pytest.approx(got)


def test_threshold_density_closed_form():
    d = Fraction(1, 10)
    m = 12
    factor2 = 12 / float((Fraction(21, 10) ** 2 - Fraction(11, 12) * Fraction(6, 5) ** 2)) - 1
    expected = math.sqrt(2 * factor2)
    assert zimin_lower(MeanKind.DENSITY, m, 2, d=d) == pytest.approx(expected, rel=1e-9)


def test_zimin_lower_reference_values():
    assert zimin_lower(MeanKind.FULL, 12, 3) == pytest.approx(194.92, rel=5e-5)
    assert zimin_lower(MeanKind.DENSITY, 12, 3, d=Fraction(1, 10)) == \
        pytest.approx(23.709, rel=5e-5)


def test_zimin_lower_base_consistent_with_exact_length():
    # sqrt(2(m-1)) never exceeds the true forcing length 2m+1
    for m in (2, 3, 4):
        assert zimin_lower(MeanKind.FULL, m, 2) <= 2 * m + 1


def test_zimin_lower_abelian_runs():
    v = zimin_lower(MeanKind.ABELIAN, 12, 3, eps=1e-6)
    assert v > zimin_lower(MeanKind.FULL, 12, 3) * 0  # positive and finite
    assert math.isfinite(v)


def test_zimin_lower_abelian_past_float_range():
    # from i = 10 the factor of the last variable, near 12^(1-512), is below
    # every normal float, and the bound passes float range
    finite = [zimin_lower(MeanKind.ABELIAN, 12, i, eps=1e-3) for i in range(3, 10)]
    assert all(map(math.isfinite, finite))
    assert finite == sorted(finite)
    assert zimin_lower(MeanKind.ABELIAN, 12, 10, eps=1e-3) == math.inf
    assert zimin_lower(MeanKind.ABELIAN, 12, 11, eps=1e-3) == math.inf


def test_zimin_lower_abelian_large_index_sums_only_normal_factors(monkeypatch):
    # k = 2^(i-1) reaches 2^39 at i = 40, where m^k has about 10^12 digits; the
    # factors from k = 512 on are their first term, and nothing is summed there
    calls = []

    def counted(m, k, eps):
        calls.append(k)
        return abelian_constant(m, k, eps)

    monkeypatch.setattr(asymptotics, "abelian_constant", counted)
    assert zimin_lower(MeanKind.ABELIAN, 12, 40, eps=1e-3) == math.inf
    assert calls == [2 ** j for j in range(1, 9)]


@pytest.mark.parametrize("i", [5, 6])
def test_zimin_lower_abelian_high_multiplicity_stops_early(i):
    # the factor at k = 2^(i-1) is a sum near 12^(1-k); only the mode
    # probability's power k - 2 brings the tail bound below eps times it
    v = zimin_lower(MeanKind.ABELIAN, 12, i, eps=1e-3)
    assert v > zimin_lower(MeanKind.ABELIAN, 12, i - 1, eps=1e-3)
    assert math.isfinite(v)
    assert abelian_constant(12, 2 ** (i - 1), 1e-3).terms <= 3


def test_zimin_lower_huge_index_overflows_to_inf():
    assert zimin_lower(MeanKind.FULL, 2, 60) == math.inf


def test_threshold_monotone_in_m_and_k():
    values_m = [avoidance_threshold(MeanKind.FULL, P("aba"), m) for m in (2, 3, 5, 9)]
    assert values_m == sorted(values_m)
    patterns = [P("aba"), P("abaa"), P("abaaa")]
    values_k = [avoidance_threshold(MeanKind.FULL, p, 3) for p in patterns]
    assert values_k == sorted(values_k)


def test_threshold_kind_preconditions():
    with pytest.raises(ValueError):
        avoidance_threshold(MeanKind.ABELIAN, P("aa"), 3)
    with pytest.raises(ValueError):
        avoidance_threshold(MeanKind.DENSITY, P("aa"), 4, d=Fraction(2, 1))
    with pytest.raises(ValueError):
        zimin_lower(MeanKind.PARTIAL, 4, 3)
    with pytest.raises(ValueError):
        zimin_lower(MeanKind.FULL, 4, 1)
    # "ab" has no repeated variable, so no factor is evaluated: the shared check rejects m = 0
    with pytest.raises(ValueError, match="alphabet size"):
        avoidance_threshold(MeanKind.FULL, P("ab"), 0)
    with pytest.raises(ValueError, match="only applies to the DENSITY kind"):
        avoidance_threshold(MeanKind.FULL, P("aa"), 2, d=Fraction(1, 10))
    with pytest.raises(ValueError, match="only applies to the DENSITY kind"):
        zimin_lower(MeanKind.FULL, 12, 3, d=Fraction(1, 10))


# --- exact thresholds ---------------------------------------------------------------

def test_exact_threshold_square_binary():
    assert exact_avoidance_threshold(CountKind.FULL, P("aa"), 2, 10) == 2


def test_exact_threshold_confirmed_by_search():
    t = exact_avoidance_threshold(CountKind.FULL, P("aa"), 3, 10)
    outcome = find_avoiding(CountKind.FULL, P("aa"), 3, t)
    assert outcome.status is SearchStatus.FOUND


def test_exact_threshold_reaches_pattern_length():
    # mean is zero below the pattern length
    assert exact_avoidance_threshold(CountKind.FULL, P("abab"), 2, 10) >= 3


def test_exact_threshold_budget():
    with pytest.raises(BudgetExceededError):
        exact_avoidance_threshold(CountKind.FULL, P("aa"), 2, 2001)


def test_exact_threshold_other_kinds_run():
    assert exact_avoidance_threshold(CountKind.ABELIAN, P("aa"), 2, 8) >= 1
    assert exact_avoidance_threshold(CountKind.PARTIAL_COLLAPSED, P("aa"), 2, 8) >= 1
    with pytest.raises(ValueError):
        exact_avoidance_threshold(CountKind.PARTIAL_MORPHISM, P("aa"), 2, 8)
