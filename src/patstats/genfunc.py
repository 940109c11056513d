"""Construction of the occurrence-counting generating functions.

For each counting convention the n-th coefficient of the built series equals
the brute-force total over all words of length n (FULL and ABELIAN over m^n
full words, PARTIAL_COLLAPSED over (m+1)^n partial words).  The bivariate
variant additionally marks holes with u, so [z^n u^h] is the total over the
partial words with exactly h holes.

Each series is assembled from first principles as

    (outer sequence)^(-2) * product over variables of (block-column series),

where the per-variable factor counts the ways one variable's repeated blocks
can fill k_j z-weight per image coordinate:

    FULL               SEQ of m-letter columns:      1/(1 - m z^{k_j}) - 1
    PARTIAL_COLLAPSED  letter-or-hole columns:       1/(1 - (m 2^{k_j} - m + 1) z^{k_j}) - 1
    bivariate          hole-marked columns:          1/(1 - (u^{k_j} + m[(1+u)^{k_j} - u^{k_j}]) z^{k_j}) - 1
    ABELIAN            anagram columns:              sum_l M(l, m, k_j) z^{k_j l}

with M the multinomial power sum.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache
from itertools import count, islice, repeat
from operator import mul

from .oracle import CountKind
from .series import BivariateSeries, Series, UPolynomial
from .words import Pattern, signature


def _mps_terms(m: int, k: int) -> Iterator[int]:
    """M(l, m, k) for l = 0, 1, 2, ..., one l per step, by the factorial-weight convolution.

    The m-fold convolution of 1/(i!)^k scaled by (l!)^k collapses to the
    integer recurrence M(l, j, k) = sum_i C(l, i)^k M(l - i, j - 1, k),
    which avoids rational arithmetic entirely.  Each step extends the rows of
    every alphabet size j < m by one l, computes the powers C(l, i)^k once,
    and yields the size-m value without storing it: no later step reads it.
    """
    if m == 1:
        yield from repeat(1)
        return
    rows = [[] for _ in range(m - 1)]  # rows[j][l] = M(l, j + 1, k)
    for total in count():
        powers = []
        c = 1  # C(total, i), updated incrementally
        for i in range(total + 1):
            powers.append(c ** k)
            c = c * (total - i) // (i + 1)
        rows[0].append(1)
        for prev, row in zip(rows, rows[1:]):
            row.append(sum(map(mul, powers, reversed(prev))))
        yield sum(map(mul, powers, reversed(rows[-1])))


@lru_cache(maxsize=64)
def _mps_table(limit: int, m: int, k: int) -> tuple[int, ...]:
    """M(l, m, k) for l = 0..limit: a prefix of _mps_terms."""
    return tuple(islice(_mps_terms(m, k), limit + 1))


def multinomial_power_sum(length: int, m: int, k: int) -> int:
    """Sum over compositions of `length` into m parts of the multinomial coefficient^k."""
    if length < 1 or m < 1 or k < 1:
        raise ValueError("multinomial power sum needs length, m, k all >= 1")
    return _mps_table(length, m, k)[length]


def multinomial_power_sum_enum(length: int, m: int, k: int) -> int:
    """Direct composition-enumeration mode, kept as an independent cross-check."""
    from math import factorial

    if length < 1 or m < 1 or k < 1:
        raise ValueError("multinomial power sum needs length, m, k all >= 1")
    fact = [factorial(i) for i in range(length + 1)]

    def walk(parts_left: int, remaining: int, denom: int) -> int:
        if parts_left == 1:
            return (fact[length] // (denom * fact[remaining])) ** k
        return sum(walk(parts_left - 1, remaining - i, denom * fact[i])
                   for i in range(remaining + 1))

    return walk(m, length, 1)


def _geometric(scale: int | UPolynomial, step: int, order: int,
               bivariate: bool = False) -> Series:
    """1/(1 - scale * z^step) as an explicit truncated series."""
    cls = BivariateSeries if bivariate else Series
    one: Fraction | UPolynomial = UPolynomial((1,)) if bivariate else Fraction(1)
    zero = one * 0
    coeffs = [zero] * (order + 1)
    power = one
    pos = 0
    while pos <= order:
        coeffs[pos] = power
        power = power * scale
        pos += step
    return cls(coeffs, order)


def _minus_one(series: Series) -> Series:
    coeffs = list(series.coeffs)
    coeffs[0] = coeffs[0] - series._one()
    return type(series)(coeffs, series.order)


def ogf_build(kind: CountKind, p: Pattern, m: int, order: int) -> Series:
    """The occurrence-total generating function, truncated at the given order."""
    if order < 0:
        raise ValueError("order must be >= 0")
    if m < 1:
        raise ValueError("alphabet size must be >= 1")
    if kind is CountKind.PARTIAL_MORPHISM:
        raise ValueError("no closed-form series for the morphism-counting convention;"
                         " use PARTIAL_COLLAPSED")
    sig = signature(p)
    if kind is CountKind.FULL:
        outer = _geometric(m, 1, order)
        factors = [_minus_one(_geometric(m, kj, order)) for kj in sig.mults]
    elif kind is CountKind.PARTIAL_COLLAPSED:
        outer = _geometric(m + 1, 1, order)
        factors = [_minus_one(_geometric(m * 2 ** kj - m + 1, kj, order))
                   for kj in sig.mults]
    elif kind is CountKind.ABELIAN:
        outer = _geometric(m, 1, order)
        factors = []
        for kj in sig.mults:
            coeffs = [Fraction(0)] * (order + 1)
            top = order // kj
            if top >= 1:
                table = _mps_table(top, m, kj)
                for ell in range(1, top + 1):
                    coeffs[kj * ell] = Fraction(table[ell])
            factors.append(Series(coeffs, order))
    else:
        raise ValueError(f"unsupported kind {kind}")
    out = outer * outer
    for f in factors:
        out = out * f
    return out


def ogf_bivariate(p: Pattern, m: int, order: int) -> BivariateSeries:
    """Hole-marked partial-word series: [z^n u^h] totals collapsed counts at h holes."""
    if order < 0:
        raise ValueError("order must be >= 0")
    if m < 1:
        raise ValueError("alphabet size must be >= 1")
    sig = signature(p)
    u = UPolynomial.u()
    outer = _geometric(u + m, 1, order, bivariate=True)
    out = outer * outer
    for kj in sig.mults:
        column = u ** kj + ((u + 1) ** kj - u ** kj) * m
        out = out * _minus_one(_geometric(column, kj, order, bivariate=True))
    return out


def coeff(series: Series, n: int, h: int | None = None) -> Fraction:
    """Exact coefficient [z^n] (or [z^n u^h] for a bivariate series)."""
    if h is None:
        value = series.coeff(n)
        if isinstance(value, UPolynomial):
            raise ValueError("bivariate series needs the hole power h")
        return value
    if not isinstance(series, BivariateSeries):
        raise ValueError("hole power given for a univariate series")
    return series.coeff_hole(n, h)
