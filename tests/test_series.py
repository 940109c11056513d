"""The read-only series containers and the integer recurrence that fills them."""

from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from patstats.genfunc import _digits, _ratio_terms
from patstats.series import BivariateSeries, Series


def _truncated_product(a, b, order):
    out = [0] * (order + 1)
    for i, x in enumerate(a[:order + 1]):
        for j, y in enumerate(b[:order + 1 - i]):
            out[i + j] += x * y
    return out


def test_geometric_reciprocal():
    assert list(islice(_ratio_terms([1], [1, -2]), 4)) == [1, 2, 4, 8]


def test_reciprocal_defining_property():
    den, order = [1, 3, -2, 5], 6
    inverse = list(islice(_ratio_terms([1], den), order + 1))
    assert _truncated_product(den, inverse, order) == [1] + [0] * order


@st.composite
def numerator_and_denominator(draw):
    num = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=6))
    den = [1] + draw(st.lists(st.integers(-4, 4), max_size=5))
    return num, den


@given(numerator_and_denominator(), st.integers(0, 8))
@settings(max_examples=50)
def test_reciprocal_round_trip(fraction, order):
    num, den = fraction
    terms = list(islice(_ratio_terms(num, den), order + 1))
    assert _truncated_product(den, terms, order) == (num + [0] * (order + 1))[:order + 1]


def test_coeff_out_of_range():
    s = Series([1, 2])
    with pytest.raises(ValueError):
        s.coeff(2)


def test_bivariate_round_trip():
    # 1/(1 - (u + 1) z) over two letters of weight (1 + u), run at u = 2^3:
    # each coefficient of (u + 1)^n up to n = 3 is below 8, so digits are exact
    packed = islice(_ratio_terms([1], [1, -(2 ** 3 + 1)]), 4)
    s = BivariateSeries(_digits(value, 3, n + 1) for n, value in enumerate(packed))
    assert s.coeff(2) == (1, 2, 1)
    assert s.coeff(3) == (1, 3, 3, 1)
    assert s.coeff_hole(2, 1) == 2
    assert tuple(map(sum, s.coeffs)) == (1, 2, 4, 8)


def test_bivariate_coeff_hole_bounds():
    s = BivariateSeries([(1,), (0, 0), (0, 0, 0)])
    with pytest.raises(ValueError):
        s.coeff_hole(1, 2)
