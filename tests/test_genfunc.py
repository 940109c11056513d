from math import comb

import pytest

from patstats.genfunc import coeff, multinomial_power_sum, ogf_bivariate, ogf_build
from patstats.oracle import CountKind, total_count
from patstats.words import Pattern
from references import multinomial_power_sum_enum

FULL = CountKind.FULL
ABELIAN = CountKind.ABELIAN
COLLAPSED = CountKind.PARTIAL_COLLAPSED


def P(text):
    return Pattern.from_text(text)


# --- multinomial power sums ---------------------------------------------------

def test_mps_base_cases():
    for m in range(1, 6):
        for k in range(1, 4):
            assert multinomial_power_sum(1, m, k) == m


def test_mps_small_values():
    assert multinomial_power_sum(2, 2, 2) == 6
    assert multinomial_power_sum(3, 12, 2) == 9120


def test_mps_known_identities():
    for ell in range(1, 8):
        assert multinomial_power_sum(ell, 3, 1) == 3 ** ell
        assert multinomial_power_sum(ell, 2, 2) == comb(2 * ell, ell)


def test_mps_dp_matches_enumeration():
    for ell in range(1, 9):
        for m in range(1, 5):
            for k in range(1, 5):
                assert multinomial_power_sum(ell, m, k) == \
                    multinomial_power_sum_enum(ell, m, k)


def test_mps_validates():
    with pytest.raises(ValueError):
        multinomial_power_sum(0, 2, 2)


# --- generating functions vs brute force --------------------------------------

def test_full_ogf_examples():
    s = ogf_build(FULL, P("aa"), 2, 5)
    assert coeff(s, 2) == 2
    assert coeff(s, 3) == 8


def test_partial_ogf_example():
    s = ogf_build(COLLAPSED, P("aa"), 2, 4)
    assert coeff(s, 2) == 7


def test_abelian_ogf_example():
    s = ogf_build(ABELIAN, P("aa"), 2, 4)
    assert coeff(s, 2) == 2


def test_ogf_rejects_morphism_kind():
    with pytest.raises(ValueError):
        ogf_build(CountKind.PARTIAL_MORPHISM, P("aa"), 2, 4)


CORPUS = ["a", "aa", "ab", "aba", "aab", "abab", "abba",
          "abac", "abaca", "abacab", "abacaba"]


@pytest.mark.parametrize("kind", [FULL, COLLAPSED, ABELIAN])
@pytest.mark.parametrize("text", CORPUS)
@pytest.mark.parametrize("m", [1, 2, 3])
def test_ogf_coefficients_equal_brute_totals(kind, text, m):
    p = P(text)
    n_max = 8 if m <= 2 else 6
    series = ogf_build(kind, p, m, n_max)
    for n in range(1, n_max + 1):
        assert coeff(series, n) == total_count(kind, n, m, p), (kind, text, m, n)


def test_ogf_coefficients_are_nonnegative_integers():
    for kind in (FULL, COLLAPSED, ABELIAN):
        for text in CORPUS:
            series = ogf_build(kind, P(text), 3, 6)
            for c in series.coeffs:
                assert type(c) is int and c >= 0


def test_full_ogf_matches_simplified_closed_form():
    # m^r z^k / (1 - m z)^(2+s) * prod 1/(1 - m z^(k_j)) for the repeated variables
    from patstats.words import signature
    m, order = 3, 8
    for text in ("aba", "abab", "abacaba"):
        p = P(text)
        sig = signature(p)
        built = ogf_build(FULL, p, m, order)
        # [z^n] 1/(1 - m z)^(2+s) = C(n + 1 + s, 1 + s) m^n
        closed = [comb(n + 1 + sig.s, 1 + sig.s) * m ** n for n in range(order + 1)]
        for kj in sig.repeated:
            for n in range(kj, order + 1):  # in place: multiply by 1/(1 - m z^kj)
                closed[n] += m * closed[n - kj]
        closed = [0] * sum(sig.mults) + [m ** len(sig.mults) * c for c in closed]
        assert built.coeffs == tuple(closed[:order + 1])


# --- bivariate ----------------------------------------------------------------

def test_bivariate_examples():
    s = ogf_bivariate(P("aa"), 2, 4)
    assert s.coeff_hole(2, 0) == 2
    assert s.coeff_hole(2, 1) == 4
    assert s.coeff_hole(2, 2) == 1


@pytest.mark.parametrize("text", ["aa", "aab"])
def test_bivariate_matches_brute_totals_three_letters(text):
    p = P(text)
    s = ogf_bivariate(p, 3, 5)
    for n in range(1, 6):
        for h in range(n + 1):
            assert s.coeff_hole(n, h) == total_count(COLLAPSED, n, 3, p, holes=h)


@pytest.mark.parametrize("text", ["aa", "aba", "abab"])
def test_bivariate_marginal_is_univariate_partial(text):
    p = P(text)
    biv = ogf_bivariate(p, 2, 6)
    uni = ogf_build(COLLAPSED, p, 2, 6)
    assert tuple(map(sum, biv.coeffs)) == uni.coeffs


def test_bivariate_u_degree_bounded_by_z_power():
    # the row of z^n holds h = 0..n, and no hole power above n is lost from it:
    # the row sums to the hole-summed total
    s = ogf_bivariate(P("aba"), 2, 7)
    uni = ogf_build(COLLAPSED, P("aba"), 2, 7)
    for n in range(8):
        assert len(s.coeff(n)) == n + 1
        assert sum(s.coeff(n)) == uni.coeff(n)


def test_hole_sum_equals_partial_coefficient():
    s = ogf_bivariate(P("aa"), 2, 4)
    uni = ogf_build(COLLAPSED, P("aa"), 2, 4)
    assert sum(s.coeff_hole(2, h) for h in range(3)) == coeff(uni, 2) == 7


def test_coeff_dispatcher():
    uni = ogf_build(FULL, P("aa"), 2, 5)
    biv = ogf_bivariate(P("aa"), 2, 5)
    assert coeff(uni, 3) == 8
    assert coeff(biv, 2, 2) == 1
    with pytest.raises(ValueError):
        coeff(uni, 3, 1)
    with pytest.raises(ValueError):
        coeff(biv, 2)
    with pytest.raises(ValueError):
        coeff(uni, 99)
