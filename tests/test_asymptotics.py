import math
from fractions import Fraction
from itertools import islice

import pytest
from scipy.integrate import quad
from scipy.special import i0e, k0e
from scipy.special import zeta as scipy_zeta

from patstats.asymptotics import (ABELIAN_TERM_CAP, MeanKind, _ln_mode_probability_below,
                                  _mode_probability, abelian_constant,
                                  abelian_rs_approx_mean, mean_asymptotic, zeta)
from patstats.bounds import avoidance_threshold
from patstats.errors import ToleranceError
from patstats.genfunc import _mps_terms
from patstats.words import Pattern, signature
from references import multinomial_power_sum_enum

ABACABA = Pattern.from_text("abacaba")
ABA = Pattern.from_text("aba")


def P(text):
    return Pattern.from_text(text)


# --- reference illustrations -------------------------------------------------

def test_full_mean_reference_value():
    mean = mean_asymptotic(MeanKind.FULL, ABACABA, 12, 100)
    assert mean.value == pytest.approx(0.26319, rel=5e-5)
    # closed form: (100^2/2) / ((12-1)(12^3-1))
    assert mean.value == pytest.approx(5000 / (11 * 1727), rel=1e-12)


def test_partial_and_strict_means_reference_value():
    partial = mean_asymptotic(MeanKind.PARTIAL, ABACABA, 12, 100)
    strict = mean_asymptotic(MeanKind.STRICT, ABACABA, 12, 100)
    assert partial.value == pytest.approx(8.9384, rel=2e-5)
    assert strict.value == partial.value


def test_density_mean_reference_value():
    mean = mean_asymptotic(MeanKind.DENSITY, ABACABA, 12, 100, d=Fraction(1, 10))
    # exact rational evaluation: 5000 * (309/891) * (175473/17104527)
    expected = 5000 * Fraction(309, 891) * Fraction(175473, 17104527)
    assert mean.value == pytest.approx(float(expected), rel=1e-12)
    assert mean.value == pytest.approx(17.7889, rel=1e-4)


def test_preconditions():
    with pytest.raises(ValueError):
        mean_asymptotic(MeanKind.ABELIAN, ABA, 3, 10)
    with pytest.raises(ValueError):
        mean_asymptotic(MeanKind.DENSITY, ABA, 4, 10, d=Fraction(3, 2))
    with pytest.raises(ValueError):
        mean_asymptotic(MeanKind.DENSITY, ABA, 4, 10)
    with pytest.raises(ValueError):
        mean_asymptotic(MeanKind.FULL, P("aa"), 1, 10)
    with pytest.raises(ValueError):
        mean_asymptotic(MeanKind.PARTIAL, P("aa"), 1, 10)
    with pytest.raises(ValueError):
        mean_asymptotic(MeanKind.FULL, ABA, 2, 10, d=Fraction(1, 2))


def test_mean_past_float_range_is_inf():
    # 10^(20 * 27) / 27! is far past float range: the mean reads inf instead of raising
    p = P("abcdefghijklmnopqrstuvwxyz")
    assert mean_asymptotic(MeanKind.FULL, p, 2, 10 ** 20).value == math.inf
    assert mean_asymptotic(MeanKind.FULL, p, 2, 10 ** 4).value < math.inf


def test_density_warns_on_fractional_hole_count():
    with pytest.warns(UserWarning):
        mean_asymptotic(MeanKind.DENSITY, ABA, 4, 7, d=Fraction(1, 3))


# --- the abelian factor -------------------------------------------------------

def test_abelian_constant_m12():
    const = abelian_constant(12, 2, 1e-9)
    assert const.value == pytest.approx(0.1011, rel=1e-3)
    assert const.tail_bound <= 1e-9 * const.value
    # independent check: direct enumeration of the first terms undercuts the
    # full constant by no more than the residual tail
    direct = sum(multinomial_power_sum_enum(ell, 12, 2) / 12 ** (2 * ell)
                 for ell in range(1, 9))
    assert direct < const.value
    assert const.value == pytest.approx(direct, rel=1e-3)


def test_abelian_constant_first_term_dominates():
    # (m, k) pairs whose tail bound is reachable under the term cap
    for m, k in ((4, 2), (5, 2), (5, 3), (12, 2), (12, 3)):
        const = abelian_constant(m, k, 0.05)
        assert const.value >= m ** (1 - k)  # first term M(1,m,k)/m^k = m^(1-k)


def test_abelian_constant_decreases_in_k():
    assert abelian_constant(12, 3, 1e-6).value < abelian_constant(12, 2, 1e-6).value


def test_abelian_constant_rejects_small_alphabet():
    with pytest.raises(ValueError):
        abelian_constant(3, 2, 1e-6)


@pytest.mark.parametrize("eps", [0.0, -1e-6, math.nan], ids=["zero", "negative", "nan"])
def test_abelian_constant_rejects_tolerances_that_are_not_positive(eps):
    # a NaN tolerance is never reached: it would sum to the term cap and raise
    # a ToleranceError instead
    with pytest.raises(ValueError, match="tolerance must be positive"):
        abelian_constant(12, 2, eps)
    # a factor past float range is its first term, found without abelian_constant
    for p in (Pattern((0,) * 600), Pattern.from_text("ab")):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            mean_asymptotic(MeanKind.ABELIAN, p, 12, 10, eps=eps)


def test_abelian_constant_tolerance_failure_carries_partial_sum():
    # for m = 4, k = 2 the tail bound cannot reach 1e-9 under the cap
    with pytest.raises(ToleranceError) as err:
        abelian_constant(4, 2, 1e-9)
    assert err.value.partial > 0


# The tail bound's premises, from exact integer terms: the k = 2 terms lie under the
# envelope m^(m/2) (4 pi l)^((1-m)/2), and a k-th power term is at most the
# mode probability to the power k - 2 times the k = 2 term, where the mode
# probability never grows with l.

def _balanced_multinomial(ell, m):
    q, r = divmod(ell, m)
    return math.factorial(ell) // (math.factorial(q) ** (m - r) * math.factorial(q + 1) ** r)


def _compositions(ell, m):
    if m == 1:
        yield (ell,)
        return
    for first in range(ell + 1):
        for rest in _compositions(ell - first, m - 1):
            yield (first,) + rest


@pytest.mark.parametrize("m", range(1, 6))
def test_mode_probability_is_the_largest_multinomial_probability(m):
    for ell in range(1, 13):
        largest = max(Fraction(math.factorial(ell), math.prod(map(math.factorial, parts)))
                      for parts in _compositions(ell, m)) / m ** ell
        got = _mode_probability(m, ell)
        # rounded up: the float is the smallest one at or above the exact maximum
        assert Fraction(got) >= largest > Fraction(math.nextafter(got, 0)), (m, ell)


@pytest.mark.parametrize("m", range(4, 13))
def test_mode_probability_never_grows(m):
    for ell in range(1, 300):
        # P(l+1)/m^(l+1) <= P(l)/m^l
        assert _balanced_multinomial(ell + 1, m) <= m * _balanced_multinomial(ell, m), (m, ell)
        assert _mode_probability(m, ell + 1) <= _mode_probability(m, ell), (m, ell)


@pytest.mark.parametrize("m", range(4, 13))
def test_bail_out_mode_estimate_stays_below(m):
    # the bail-out floor must not exceed the tail bound at the term cap
    for ell in (1, 7, 300, ABELIAN_TERM_CAP + 1):
        exact = math.log(_mode_probability(m, ell))
        assert exact - 1e-5 < _ln_mode_probability_below(m, ell) < exact, (m, ell)


@pytest.mark.parametrize("m", range(4, 13))
def test_power_terms_under_mode_times_square_terms(m):
    squares = list(islice(_mps_terms(m, 2), 61))
    for k in range(3, 6):
        for ell, weight in enumerate(islice(_mps_terms(m, k), 61)):
            assert weight <= _balanced_multinomial(ell, m) ** (k - 2) * squares[ell], (m, k, ell)


@pytest.mark.parametrize("m", range(4, 13))
def test_square_terms_under_the_envelope(m):
    # t_2(l) = M(l, m, 2)/m^(2l) against m^(m/2) (4 pi l)^((1-m)/2), compared in
    # logs; the closest approach on this range is a ratio of 0.9955 (m = 12)
    # to 0.9988 (m = 4), at l = 300
    ln_m = math.log(m)
    for ell, weight in enumerate(islice(_mps_terms(m, 2), 301)):
        if ell:
            ln_term = math.log(weight) - 2 * ell * ln_m
            ln_envelope = 0.5 * m * ln_m + 0.5 * (1 - m) * math.log(4 * math.pi * ell)
            assert ln_term < ln_envelope, (m, ell)


# F(2) + 1 = int_0^inf t K_0(t) I_0(t/m)^m dt, from M(l, m, 2)/(l!)^2 = [x^l] I_0(2 sqrt(x))^m
# and int_0^inf t^(2l+1) K_0(t) dt = 4^l (l!)^2 (DLMF 10.43.19).  The scaled
# Bessel functions carry e^t and e^(-t), which cancel in the integrand.

def _bessel_moment_factor(m):
    value, error = quad(lambda t: t * k0e(t) * i0e(t / m) ** m, 0, math.inf,
                        epsabs=0, epsrel=1e-13, limit=200)
    assert error < 1e-13
    return value - 1


def test_bessel_moment_factor_matches_fcc_closed_form():
    # at m = 4 the walk is the lazy face-centred cubic walk (Watson's integral)
    closed = 3 * math.gamma(1 / 3) ** 6 / (2 ** (8 / 3) * math.pi ** 4) - 1
    assert _bessel_moment_factor(4) == pytest.approx(closed, rel=1e-12)


@pytest.mark.parametrize("m, eps", [(5, 1e-4), (6, 1e-6), (7, 1e-7), (8, 1e-9),
                                    (10, 1e-7), (11, 1e-9), (12, 1e-9)])
def test_squared_factor_brackets_the_bessel_moment(m, eps):
    # the truncated sum of positive terms lies below F(2), and its tail bound
    # reaches above it; the slack covers float rounding of the summed terms
    const = abelian_constant(m, 2, eps)
    exact = _bessel_moment_factor(m)
    slack = 1e-12 * exact
    assert const.value <= exact + slack
    assert exact <= const.value + const.tail_bound + slack


def test_abelian_mean_uses_the_constant():
    mean = mean_asymptotic(MeanKind.ABELIAN, ABA, 12, 100)
    const = abelian_constant(12, 2, 1e-9)
    assert mean.value == pytest.approx(5000 * const.value, rel=1e-12)
    assert mean.abelian_factors[0].terms == const.terms


# --- the large-block envelope ---------------------------------------------------

def test_rs_approx_reference_value():
    assert abelian_rs_approx_mean(ABA, 12, 100) == pytest.approx(13778.87, rel=5e-3)


def test_rs_approx_empty_product():
    # two singleton variables: s = 2, so the prefactor is n^3/3! and the
    # envelope product is empty
    assert abelian_rs_approx_mean(P("ab"), 12, 100) == pytest.approx(100 ** 3 / 6)
    # cross-check against the exact mean of a repeat-free pattern, which the
    # abelian and plain conventions share
    from patstats.genfunc import ogf_build
    from patstats.oracle import CountKind
    series = ogf_build(CountKind.ABELIAN, P("ab"), 12, 400)
    exact = series.coeff(400) / Fraction(12 ** 400)
    assert float(exact) == pytest.approx(400 ** 3 / 6, rel=0.02)


def test_rs_approx_rejects_higher_repeats():
    with pytest.raises(ValueError):
        abelian_rs_approx_mean(P("aaa"), 12, 100)


def test_rs_approx_grossly_exceeds_exact_constant_mean():
    ratio = abelian_rs_approx_mean(ABA, 12, 100) / \
        mean_asymptotic(MeanKind.ABELIAN, ABA, 12, 100).value
    assert ratio > 10  # the envelope overestimates the small-block terms ~27x


def test_zeta_against_scipy():
    for s in (1.5, 2.0, 2.5, 5.5, 11.0):
        assert zeta(s) == pytest.approx(float(scipy_zeta(s)), abs=1e-11)


# --- structural properties ------------------------------------------------------

def test_monotone_in_n():
    for kind, d in ((MeanKind.FULL, None), (MeanKind.PARTIAL, None),
                    (MeanKind.STRICT, None), (MeanKind.DENSITY, Fraction(1, 10))):
        values = [mean_asymptotic(kind, ABA, 4, n, d=d).value for n in (10, 20, 40)]
        assert values[0] < values[1] < values[2]
    values = [mean_asymptotic(MeanKind.ABELIAN, ABA, 4, n, d=None, eps=0.05).value
              for n in (10, 20, 40)]
    assert values[0] < values[1] < values[2]


def test_partial_denominators_positive_small_grid():
    # m 2^k - m + 1 < (m+1)^k keeps every partial factor positive
    for m in range(2, 65):
        for k in range(2, 65):
            assert m * 2 ** k - m + 1 < (m + 1) ** k


@pytest.mark.filterwarnings("ignore:n\\*d")
def test_density_factor_limit_is_full_factor():
    # as d -> 0+ the density factor tends to 1/(m^(k-1) - 1)
    tiny = Fraction(1, 10 ** 9)
    for m in (2, 4, 12):
        for pat in ("aa", "aba", "abacaba"):
            dens = mean_asymptotic(MeanKind.DENSITY, P(pat), m, 100, d=tiny).value
            full = mean_asymptotic(MeanKind.FULL, P(pat), m, 100).value
            assert dens == pytest.approx(full, rel=1e-6)


def test_abelian_convergence_direction_m4():
    # exact/asymptotic climbs toward 1 as n grows (O(1/sqrt(n)) for m = 4,
    # far too slow to be inside 5% at n = 60; see the acceptance suite)
    from patstats.genfunc import ogf_build
    from patstats.oracle import CountKind
    asym = mean_asymptotic(MeanKind.ABELIAN, ABA, 4, 1, eps=0.05).value
    series = ogf_build(CountKind.ABELIAN, ABA, 4, 120)
    ratios = []
    for n in (30, 60, 120):
        exact = Fraction(series.coeff(n), 4 ** n)
        ratios.append(float(exact) / (asym * n ** 2))
    assert ratios[0] < ratios[1] < ratios[2] < 1


# --- one leading-term coefficient for the means and the thresholds -------------

COEFFICIENT_PATTERNS = ["a", "ab", "aa", "aba", "abab", "aabbcc", "abacaba"]


def _exact_factor(kind, m, k, d):
    if kind is MeanKind.FULL:
        return Fraction(1, m ** (k - 1) - 1)
    if kind in (MeanKind.PARTIAL, MeanKind.STRICT):
        num = m * 2 ** k - m + 1
        return Fraction(num, (m + 1) ** k - num)
    num = (1 + d * (m - 1)) ** k - Fraction(m - 1, m) * (m * d) ** k
    return num / (m ** (k - 1) - num)


def _outcome(call):
    try:
        return call()
    except (ValueError, ToleranceError) as exc:
        return exc


@pytest.mark.filterwarnings("ignore:n\\*d")
@pytest.mark.parametrize("d", [None, Fraction(1, 10), Fraction(1, 3), Fraction(9, 10)], ids=str)
@pytest.mark.parametrize("m", range(7))
@pytest.mark.parametrize("kind", list(MeanKind), ids=lambda kind: kind.value)
def test_means_and_thresholds_share_one_coefficient(kind, m, d):
    eps = 0.1  # the abelian factors at m = 5 reach it within a few hundred terms
    for text in COEFFICIENT_PATTERNS:
        p = P(text)
        sig = signature(p)
        mean = _outcome(lambda: mean_asymptotic(kind, p, m, 1, d=d, eps=eps).value)
        threshold = _outcome(lambda: avoidance_threshold(kind, p, m, d=d, eps=eps))
        # the same input checks decide for both
        assert type(mean) is type(threshold), (text, mean, threshold)
        if isinstance(mean, Exception):
            continue
        # the threshold is the length where the leading-term mean reaches 1
        assert mean * threshold ** (sig.s + 1) == pytest.approx(1, rel=1e-12), text
        if kind is MeanKind.ABELIAN:
            continue
        coefficient = Fraction(1, math.factorial(sig.s + 1))
        for k in sig.repeated:
            coefficient *= _exact_factor(kind, m, k, d)
        for n in (1, 7, 100):
            got = mean_asymptotic(kind, p, m, n, d=d).value
            expected = float(coefficient * n ** (sig.s + 1))
            assert got == pytest.approx(expected, rel=1e-12), (text, n)
