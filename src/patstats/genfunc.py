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

with M the multinomial power sum.  For FULL and PARTIAL_COLLAPSED each factor
is a_j z^{k_j} / (1 - a_j z^{k_j}) and the outer factor is 1/(1 - b z)^2, so the
series is the rational function N/D with

    N = (a_1 ... a_r) z^(k_1 + ... + k_r),    D = (1 - b z)^2 (1 - a_1 z^{k_1}) ... (1 - a_r z^{k_r}),

b = m for FULL and u + m with holes marked (m + 1 at u = 1).  D(0) = 1, so the
coefficients follow the integer recurrence c_n = N_n - sum_{i>=1} D_i c_{n-i}.
ABELIAN is not rational: there N is the product of the sparse factors,
truncated at the order, and D = (1 - m z)^2.  The bivariate series runs the same
recurrence at u = 2^s (Kronecker substitution): evaluation at 2^s is a ring
homomorphism Z[u] -> Z, and every [z^n u^h] is at most the u = 1 total [z^n],
which is below 2^s, so the h-th base-2^s digit of the n-th term is [z^n u^h].
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from functools import lru_cache
from itertools import chain, count, islice, repeat
from math import prod
from operator import mul

from .oracle import CountKind
from .series import BivariateSeries, Series
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


def _ratio_terms(num: list[int], den: list[int]) -> Iterator[int]:
    """[z^n] N(z)/D(z) for n = 0, 1, 2, ..., where D(0) = 1.

    The integer recurrence c_n = N_n - sum_{i>=1} D_i c_{n-i}, with N zero past
    its last listed coefficient; only the last deg D terms are kept.
    """
    taps = den[1:]
    recent = deque(maxlen=len(taps))  # recent[i - 1] = c_{n-i}
    for top in chain(num, repeat(0)):
        c = top - sum(map(mul, taps, recent))
        recent.appendleft(c)
        yield c


def _times_binomial(poly: list[int], a: int, k: int) -> list[int]:
    """poly * (1 - a z^k)."""
    out = poly + [0] * k
    for i, c in enumerate(poly):
        out[i + k] -= a * c
    return out


def _rational_form(kind: CountKind, mults: tuple[int, ...], m: int, order: int,
                   u: int = 1) -> tuple[list[int], list[int]]:
    """N and D with [z^n] N/D the occurrence total at length n, for n <= order.

    u is the value of the hole marker; only PARTIAL_COLLAPSED reads it.
    """
    if kind is CountKind.ABELIAN:
        num = [1] + [0] * order
        for kj in mults:
            table = _mps_table(order // kj, m, kj)
            product = [0] * (order + 1)
            for i, c in enumerate(num):
                if c:
                    for ell in range(1, (order - i) // kj + 1):
                        product[i + kj * ell] += c * table[ell]
            num = product
        return num, [1, -2 * m, m * m]
    if kind is CountKind.FULL:
        b, columns = m, [m] * len(mults)
    else:
        b = u + m
        columns = [u ** kj + m * ((1 + u) ** kj - u ** kj) for kj in mults]
    den = _times_binomial(_times_binomial([1], b, 1), b, 1)
    for kj, a in zip(mults, columns):
        den = _times_binomial(den, a, kj)
    return [0] * sum(mults) + [prod(columns)], den


def _occurrence_terms(kind: CountKind, p: Pattern, m: int, order: int) -> Iterator[int]:
    """The occurrence totals at lengths 0, 1, ..., order, one per step."""
    if order < 0:
        raise ValueError("order must be >= 0")
    if m < 1:
        raise ValueError("alphabet size must be >= 1")
    if kind is CountKind.PARTIAL_MORPHISM:
        raise ValueError("no closed-form series for the morphism-counting convention;"
                         " use PARTIAL_COLLAPSED")
    if kind not in (CountKind.FULL, CountKind.PARTIAL_COLLAPSED, CountKind.ABELIAN):
        raise ValueError(f"unsupported kind {kind}")
    num, den = _rational_form(kind, signature(p).mults, m, order)
    return islice(_ratio_terms(num, den), order + 1)


def _digits(value: int, s: int, width: int) -> tuple[int, ...]:
    """The lowest `width` base-2^s digits of value >= 0, least significant first."""
    bits = format(value, "b").zfill(s * width)
    ends = range(len(bits), len(bits) - s * width, -s)
    return tuple(int(bits[end - s:end], 2) for end in ends)


def ogf_build(kind: CountKind, p: Pattern, m: int, order: int) -> Series:
    """The occurrence-total generating function, truncated at the given order."""
    return Series(_occurrence_terms(kind, p, m, order))


def ogf_bivariate(p: Pattern, m: int, order: int) -> BivariateSeries:
    """Hole-marked partial-word series: [z^n u^h] totals collapsed counts at h holes."""
    totals = ogf_build(CountKind.PARTIAL_COLLAPSED, p, m, order).coeffs
    s = 1 + max(c.bit_length() for c in totals)
    num, den = _rational_form(CountKind.PARTIAL_COLLAPSED, signature(p).mults, m, order,
                              u=1 << s)
    packed = islice(_ratio_terms(num, den), order + 1)
    return BivariateSeries(_digits(value, s, n + 1) for n, value in enumerate(packed))


def coeff(series: Series, n: int, h: int | None = None) -> int:
    """Exact coefficient [z^n] (or [z^n u^h] for a bivariate series)."""
    if h is None:
        if isinstance(series, BivariateSeries):
            raise ValueError("bivariate series needs the hole power h")
        return series.coeff(n)
    if not isinstance(series, BivariateSeries):
        raise ValueError("hole power given for a univariate series")
    return series.coeff_hole(n, h)
