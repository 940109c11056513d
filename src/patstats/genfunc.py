"""Construction of the occurrence-counting generating functions.

For each counting convention the n-th coefficient of the built series equals
the brute-force total over all words of length n (FULL and ABELIAN over m^n
full words, PARTIAL_MORPHISM and PARTIAL_COLLAPSED over (m+1)^n partial
words).  The bivariate variant of the collapsed series additionally marks
holes with u, so [z^n u^h] is the total over the partial words with exactly
h holes.

Each series is assembled from first principles as

    (outer sequence)^(-2) * product over variables of (block-column series),

where the per-variable factor counts the ways one variable's repeated blocks
can fill k_j z-weight per image coordinate.  One rule covers every column:
with the hole marker u, a coordinate's k_j blocks are either all holes
(weight h u^{k_j}) or share one of m letters, each block holding it or a hole
(weight m[(1+u)^{k_j} - u^{k_j}]), so

    letter-or-hole columns:   1/(1 - (h u^{k_j} + m[(1+u)^{k_j} - u^{k_j}]) z^{k_j}) - 1
    ABELIAN anagram columns:  sum_l M(l, m, k_j) z^{k_j l}

where h = m under PARTIAL_MORPHISM (an all-hole coordinate takes any of the m
letters) and 1 otherwise, and u = 0 on full words (FULL, and the variables of
an ABELIAN pattern that occur once), 1 on partial words and 2^s in the
bivariate pass below.  At u = 0 the column weight is m; at u = 1 it is
m 2^{k_j} - m + 1 collapsed and m 2^{k_j} under the morphism convention.

with M the multinomial power sum: M(l, m, k) / (l!)^k is the l-th coefficient of
(sum_i x^i / (i!)^k)^m, and the power rule for series (f g' = m f' g for
g = f^m) gives each M(l) from the earlier ones by one exact integer
recurrence (see _mps_terms).  Squared variables (k = 2) take a shorter route,
the symmetric power of the Bessel operator (J. M. Borwein and B. Salvy, "A
proof of a recursion for Bessel moments", Experimental Math. 17 (2008)).
With f = sum_i x^i / (i!)^2 = I_0(2 sqrt(x)) and theta = x d/dx, theta^2 f = x f,
so e_j = f^(m-j) (theta f)^j, j = 0..m, satisfy

    theta e_j = (m - j) e_(j+1) + j x e_(j-1).

A_j(n) = (n!)^2 [x^n] e_j is an integer: the sum over compositions of n into
m parts of the squared multinomial coefficient times the product of the last
j parts.  Reading off [x^n] gives

    n A_j(n) = (m - j) A_(j+1)(n) + j n^2 A_(j-1)(n - 1),    M(n, m, 2) = A_0(n),

from A(0) = (1, 0, ..., 0).  Taken from j = m down (A_m(n) = m n A_(m-1)(n - 1)),
each A_j(n) costs a few products of a big int by a small int, and the
division by n is exact because every other term of the equation is an
integer; a term costs O(m) such steps instead of the O(l) big-int products
of the power recurrence.  Every letter-or-hole factor is
a_j z^{k_j} / (1 - a_j z^{k_j}) and the outer factor is 1/(1 - b z)^2, so the
series is the rational function N/D with

    N = (a_1 ... a_r) z^(k_1 + ... + k_r),    D = (1 - b z)^2 (1 - a_1 z^{k_1}) ... (1 - a_r z^{k_r}),

b = m + u (m on full words, m + 1 on partial ones).  D(0) = 1, so the
coefficients follow the integer recurrence c_n = N_n - sum_{i>=1} D_i c_{n-i}.
ABELIAN is not rational, but M(l, m, 1) = m^l puts a variable that occurs once
in N and D as for FULL.  The sparse factors of the repeated variables are
streamed into N, each term computed when the recurrence reads it, so a scan
that stops early pays only for the terms it read.  The bivariate series runs
the same recurrence at u = 2^s (Kronecker substitution): evaluation at 2^s is
a ring homomorphism Z[u] -> Z, and every [z^n u^h] is at most the u = 1 total
[z^n], which is below 2^s, so the h-th base-2^s digit of the n-th term is
[z^n u^h].
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator
from itertools import chain, count, islice, repeat, tee
from math import gcd, prod
from operator import mul

from .oracle import PARTIAL_KINDS, CountKind
from .series import BivariateSeries, Series
from .words import Pattern, signature


def _mps_terms(m: int, k: int) -> Iterator[int]:
    """M(l, m, k) for l = 0, 1, 2, ..., one l per step.

    For k = 2 the vector A(n) = (A_0(n), ..., A_m(n)) of the module docstring
    is updated in O(m) big-int-by-small-int steps per n, and M(n, m, 2) = A_0(n):

        A_m(n) = m n A_(m-1)(n - 1),
        A_j(n) = (m - j) A_(j+1)(n) // n + j n A_(j-1)(n - 1),    j = m - 1, ..., 0.

    One vector is kept.  Every other k uses the power recurrence.
    M(l, m, k) / (l!)^k is the l-th coefficient of g = f^m with
    f = sum_i x^i / (i!)^k.  Differentiating gives f g' = m f' g; comparing the
    coefficients of x^(n-1), with f_0 = 1, gives
    n g_n = sum_{i=1..n} ((m + 1) i - n) f_i g_{n-i}, and multiplying by (n!)^k
    turns it into the integer recurrence

        n M(n) = sum_{i=1..n} ((m + 1) i - n) C(n, i)^k M(n - i).

    The right side is n times the integer M(n), so the division is exact and
    only the list of earlier M values is kept.  C(n, i) = C(n, n - i), so the
    terms i and n - i share one binomial power, and the term i = n is m n.
    """
    if k == 2:
        # the Bessel recurrence of the module docstring, updated in place from
        # j = m down, so row[j - 1] still holds A_(j-1)(n - 1) when row[j] is set
        row = [1] + [0] * m  # row[j] = A_j(n)
        yield 1
        for n in count(1):
            row[m] = m * n * row[m - 1]
            for j in range(m - 1, 0, -1):
                row[j] = (m - j) * row[j + 1] // n + j * n * row[j - 1]
            row[0] = m * row[1] // n
            yield row[0]
    values = [1]  # values[l] = M(l, m, k)
    yield 1
    for n in count(1):
        total = m * n
        c = 1  # C(n, i), updated incrementally
        for i in range(1, n // 2 + 1):
            c = c * (n - i + 1) // i
            j = n - i
            pair = ((m + 1) * i - n) * values[j]
            if j != i:
                pair += ((m + 1) * j - n) * values[i]
            total += c ** k * pair
        values.append(total // n)
        yield values[-1]


def multinomial_power_sum(length: int, m: int, k: int) -> int:
    """Sum over compositions of `length` into m parts of the multinomial coefficient^k."""
    if length < 1 or m < 1 or k < 1:
        raise ValueError("multinomial power sum needs length, m, k all >= 1")
    return m ** length if m == 1 or k == 1 else next(islice(_mps_terms(m, k), length, None))


def _ratio_terms(num: Iterable[int], den: list[int]) -> Iterator[int]:
    """[z^n] N(z)/D(z) for n = 0, 1, 2, ..., where D(0) = 1.

    The integer recurrence c_n = N_n - sum_{i>=1} D_i c_{n-i}, with N zero past
    its last listed coefficient; N is read one term per step, and only the
    last deg D terms are kept.
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


def _columns(weights: Iterator[int], k: int) -> Iterator[int]:
    """[z^n] sum_{l>=1} w_l z^(k l), one n per step, from w = w_0, w_1, ..."""
    next(weights)  # w_0 multiplies z^0, which the factor leaves out
    yield 0
    for w in weights:
        yield from repeat(0, k - 1)
        yield w


def _times_columns(left: Iterator[int], weights: Iterator[int], k: int,
                   step: int) -> Iterator[int]:
    """[z^n] L(z) * sum_{l>=1} w_l z^(k l), one n per step, where L vanishes off
    the multiples of `step`.

    L and w = w_0, w_1, ... are read only as far as n needs them: the terms of
    L up to z^n and the weights up to w_(n // k).  The product vanishes off the
    multiples of gcd(step, k), and those terms cost no multiplication.
    """
    seen, ws = [], []  # seen[i] = L_i; ws[l - 1] = w_l
    next(weights)
    stride = gcd(step, k)
    for n, term in enumerate(left):
        seen.append(term)
        if n and n % k == 0:
            ws.append(next(weights))
        if n < k or n % stride:
            yield 0
        else:
            yield sum(map(mul, ws, seen[n - k::-k]))  # w_l L_(n - k l), l = 1..n // k


def _rational_form(kind: CountKind, mults: tuple[int, ...], m: int,
                   u: int) -> tuple[Iterable[int], list[int]]:
    """N and D with [z^n] N/D the occurrence total at every length n.

    u is the value of the hole marker: 0 on full words, 1 on partial words and
    2^s in ogf_bivariate's Kronecker pass.  With a repeated ABELIAN variable N
    is an endless stream, each term computed when read.
    """
    # an abelian variable that occurs once has the FULL factor (M(l, m, 1) = m^l)
    streamed = mults[mults.count(1):] if kind is CountKind.ABELIAN else ()
    rational = mults[:len(mults) - len(streamed)]
    # an all-hole coordinate takes any of the m letters under the morphism convention
    h = m if kind is CountKind.PARTIAL_MORPHISM else 1
    b, columns = m + u, [h * u ** kj + m * ((1 + u) ** kj - u ** kj) for kj in rational]
    den = _times_binomial(_times_binomial([1], b, 1), b, 1)
    for kj, a in zip(rational, columns):
        den = _times_binomial(den, a, kj)
    shift, scale = sum(rational), prod(columns)
    if not streamed:
        return [0] * shift + [scale], den
    # one stream of M values per distinct multiplicity, shared by its variables;
    # the first factor costs no multiplication and each later one n // k_j per
    # term, so the smallest multiplicity (mults is nondecreasing) goes first
    weights = {kj: list(tee(_mps_terms(m, kj), streamed.count(kj))) for kj in set(streamed)}
    first, *rest = streamed
    num, step = _columns(weights[first].pop(), first), first
    for kj in rest:
        num = _times_columns(num, weights[kj].pop(), kj, step)
        step = gcd(step, kj)
    if shift:
        num = chain(repeat(0, shift), (scale * c for c in num))
    return num, den


def _occurrence_terms(kind: CountKind, p: Pattern, m: int, order: int) -> Iterator[int]:
    """The occurrence totals at lengths 0, 1, ..., order, one per step."""
    if order < 0:
        raise ValueError("order must be >= 0")
    if m < 1:
        raise ValueError("alphabet size must be >= 1")
    if not isinstance(kind, CountKind):
        raise ValueError(f"unsupported kind {kind}")
    num, den = _rational_form(kind, signature(p).mults, m, int(kind in PARTIAL_KINDS))
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
    num, den = _rational_form(CountKind.PARTIAL_COLLAPSED, signature(p).mults, m, u=1 << s)
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
