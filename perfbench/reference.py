"""Reference answers computed without the library under test.

Nothing here imports patstats.  Patterns are plain strings ("abab"), words are
tuples of letter indices 0..m-1, and kinds are the lower-case names the
library's CountKind values use.  Every function is a direct, separately coded
route to the same numbers:

- exact totals come from the occurrence generating function
      1/(1 - b z)^2 * prod_j (1/(1 - c_j z^{k_j}) - 1)
  expanded by plain integer convolution, with
      full               b = m,     c_j = m
      partial-collapsed  b = m + 1, c_j = m 2^{k_j} - m + 1
      partial-morphism   b = m + 1, c_j = m 2^{k_j}
  and, for fixed hole counts, the same product with hole-marked columns;
- abelian totals replace the geometric factor by sum_l M(l, m, k) z^{k l},
  with M(l, m, k) the sum of multinomial(l; parts)^k over compositions of l
  into m parts, enumerated directly where that is affordable and otherwise
  read off the exponential generating function (sum_i x^i / i!^k)^m;
- per-word counts enumerate block-length assignments and start positions and
  compare blocks as byte strings (full) or letter histograms (abelian);
- forcing lengths come from a depth-first search that re-counts every prefix.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

FULL = "full"
ABELIAN = "abelian"
PARTIAL_MORPHISM = "partial-morphism"
PARTIAL_COLLAPSED = "partial-collapsed"


def multiplicities(pattern: str) -> tuple[int, ...]:
    """Occurrence count of each variable, sorted."""
    return tuple(sorted(Counter(pattern).values()))


def population(kind: str, n: int, m: int, holes: int | None = None) -> int:
    if kind in (FULL, ABELIAN):
        return m ** n
    if holes is None:
        return (m + 1) ** n
    return math.comb(n, holes) * m ** (n - holes)


# ---------------------------------------------------------------- abelian weights

def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def abelian_weight_enum(length: int, m: int, k: int) -> int:
    """M(length, m, k) by enumerating every composition of length into m parts."""
    top = math.factorial(length)
    return sum((top // math.prod(math.factorial(p) for p in parts)) ** k
               for parts in _compositions(length, m))


@lru_cache(maxsize=None)
def abelian_weights(limit: int, m: int, k: int) -> tuple[int, ...]:
    """M(l, m, k) for l = 0..limit.

    Small tables are enumerated outright.  Larger ones come from the
    exponential generating function (sum_i x^i / i!^k)^m in exact fractions,
    whose first entries are checked against the enumeration.
    """
    if math.comb(limit + m, m) <= 20_000:
        return tuple(abelian_weight_enum(l, m, k) for l in range(limit + 1))
    base = [Fraction(1, math.factorial(i) ** k) for i in range(limit + 1)]
    acc = base
    for _ in range(m - 1):
        acc = [sum(acc[i] * base[t - i] for i in range(t + 1)) for t in range(limit + 1)]
    table = []
    for l in range(limit + 1):
        value = acc[l] * math.factorial(l) ** k
        if value.denominator != 1:
            raise ArithmeticError("generating-function weight is not an integer")
        table.append(value.numerator)
    small = 0
    while small < limit and math.comb(small + 1 + m, m) <= 5_000:
        small += 1
    for l in range(small + 1):
        if table[l] != abelian_weight_enum(l, m, k):
            raise ArithmeticError("generating-function and enumerated weights differ")
    return tuple(table)


# ---------------------------------------------------------------- series totals

def _factor(kind: str, m: int, k: int, order: int) -> dict[int, int]:
    """Sparse coefficients of one variable's factor, exponents 1..order."""
    top = order // k
    if kind == ABELIAN:
        table = abelian_weights(top, m, k)
        return {k * l: table[l] for l in range(1, top + 1)}
    column = {FULL: m, PARTIAL_COLLAPSED: m * 2 ** k - m + 1,
              PARTIAL_MORPHISM: m * 2 ** k}[kind]
    return {k * l: column ** l for l in range(1, top + 1)}


def occurrence_series(kind: str, pattern: str, m: int, order: int) -> list[int]:
    """Exact totals over all words of length 0..order (the series coefficients)."""
    b = m if kind in (FULL, ABELIAN) else m + 1
    out = [(i + 1) * b ** i for i in range(order + 1)]
    for k in multiplicities(pattern):
        new = [0] * (order + 1)
        for shift, weight in _factor(kind, m, k, order).items():
            for i in range(order + 1 - shift):
                new[i + shift] += weight * out[i]
        out = new
    return out


def total(kind: str, pattern: str, n: int, m: int, holes: int | None = None) -> int:
    """Occurrence total over every word of the shape the oracle enumerates."""
    if holes is None:
        return occurrence_series(kind, pattern, m, n)[n]
    return hole_series(kind, pattern, m, n)[n][holes]


# Polynomials in the hole marker u are lists of ints, lowest degree first.

def _padd(a: list[int], b: list[int]) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return out


def _pmul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _ppow(a: list[int], e: int) -> list[int]:
    out = [1]
    for _ in range(e):
        out = _pmul(out, a)
    return out


def hole_series(kind: str, pattern: str, m: int, order: int) -> list[list[int]]:
    """[z^n u^h]: totals over partial words of length n with exactly h holes.

    Per coordinate of a variable's image, its k blocks are all holes (u^k;
    m choices of letter under the morphism convention, one when collapsed)
    or share one letter with some holes (m ((1+u)^k - u^k)).
    """
    if kind not in (PARTIAL_COLLAPSED, PARTIAL_MORPHISM):
        raise ValueError("hole-marked totals cover the partial kinds")
    one_plus_u = [1, 1]
    out = [_pmul([i + 1], _ppow([m, 1], i)) for i in range(order + 1)]
    for k in multiplicities(pattern):
        all_holes = [0] * k + [1]
        mixed = [m * c for c in _padd(_ppow(one_plus_u, k), [-c for c in all_holes])]
        column = _padd(all_holes if kind == PARTIAL_COLLAPSED else [m * c for c in all_holes],
                       mixed)
        new = [[0] for _ in range(order + 1)]
        power = [1]
        for shift in range(k, order + 1, k):
            power = _pmul(power, column)
            for i in range(order + 1 - shift):
                new[i + shift] = _padd(new[i + shift], _pmul(power, out[i]))
        out = new
    return [(row + [0] * (n + 1))[:n + 1] for n, row in enumerate(out)]


def avoidance_threshold(kind: str, pattern: str, m: int, n_max: int) -> int:
    """Largest n <= n_max with exact mean occurrence count < 1 at every length up to n."""
    series = occurrence_series(kind, pattern, m, n_max)
    for n in range(1, n_max + 1):
        if series[n] >= population(kind, n, m):
            return n - 1
    return n_max


# ---------------------------------------------------------------- per-word counts

def _blocks(pattern: str):
    """Variables in first-appearance order and, per pattern position, its variable index."""
    order: list[str] = []
    for v in pattern:
        if v not in order:
            order.append(v)
    return order, [order.index(v) for v in pattern]


def count(kind: str, word: tuple[int, ...], pattern: str, m: int) -> int:
    """Occurrences of pattern in a full word: (start, block lengths) with consistent blocks."""
    if kind not in (FULL, ABELIAN):
        raise ValueError("per-word reference counts cover full words")
    n = len(word)
    variables, seq = _blocks(pattern)
    mult = Counter(seq)
    data = bytes(word)
    prefix = [[0] * (n + 1) for _ in range(m)]
    for i, c in enumerate(word):
        for a in range(m):
            prefix[a][i + 1] = prefix[a][i] + (c == a)

    def same(s1: int, s2: int, length: int) -> bool:
        if kind == FULL:
            return data[s1:s1 + length] == data[s2:s2 + length]
        return all(row[s1 + length] - row[s1] == row[s2 + length] - row[s2] for row in prefix)

    found = 0

    def assign(idx: int, lengths: list[int], used: int) -> None:
        nonlocal found
        if idx == len(variables):
            offsets = []
            pos = 0
            for v in seq:
                offsets.append(pos)
                pos += lengths[v]
            checks = []
            first: dict[int, int] = {}
            for v, off in zip(seq, offsets):
                if v in first:
                    checks.append((first[v], off, lengths[v]))
                else:
                    first[v] = off
            for start in range(n - used + 1):
                if all(same(start + a, start + b, length) for a, b, length in checks):
                    found += 1
            return
        for length in range(1, (n - used) // mult[idx] + 1):
            lengths.append(length)
            assign(idx + 1, lengths, used + mult[idx] * length)
            lengths.pop()

    assign(0, [], 0)
    return found


def longest_avoiding(kind: str, pattern: str, m: int, n_max: int) -> int:
    """Length of the longest word over m letters avoiding pattern, capped at n_max."""
    best = 0
    stack: list[tuple[int, ...]] = [()]
    while stack:
        word = stack.pop()
        best = max(best, len(word))
        if len(word) == n_max:
            return n_max
        for c in range(m):
            longer = word + (c,)
            if count(kind, longer, pattern, m) == 0:
                stack.append(longer)
    return best


# ---------------------------------------------------------------- closed forms

def mean_factor(kind: str, m: int, k: int, d: Fraction | None = None) -> Fraction:
    """Exact per-variable factor of the leading-term mean for a variable repeated k times."""
    if kind == FULL:
        return Fraction(1, m ** (k - 1) - 1)
    if kind in ("partial", "strict"):
        num = m * 2 ** k - m + 1
        return Fraction(num, (m + 1) ** k - num)
    if kind == "density":
        filled = (1 + d * (m - 1)) ** k - Fraction(m - 1, m) * (m * d) ** k
        return filled / (m ** (k - 1) - filled)
    raise ValueError(f"no exact factor for {kind}")


def leading_mean(kind: str, mults: tuple[int, ...], m: int, n: int,
                 d: Fraction | None = None) -> Fraction:
    """n^(s+1)/(s+1)! times the factor of every repeated variable."""
    s = mults.count(1)
    value = Fraction(n ** (s + 1), math.factorial(s + 1))
    for k in mults:
        if k > 1:
            value *= mean_factor(kind, m, k, d)
    return value


def first_moment_threshold(kind: str, mults: tuple[int, ...], m: int,
                           d: Fraction | None = None) -> float:
    """Length where the leading-term mean reaches 1: ((s+1)! / prod factors)^(1/(s+1))."""
    s = mults.count(1)
    return float(leading_mean(kind, mults, m, 1, d) ** -1) ** (1 / (s + 1))


def zimin_multiplicities(i: int) -> tuple[int, ...]:
    return tuple(2 ** j for j in range(i))


def zeta(s: float) -> float:
    """Riemann zeta for s >= 3 by direct summation; the dropped tail is below 1e-16."""
    if s < 3:
        raise ValueError("direct summation is used for s >= 3 only")
    terms = math.ceil((1e16 / (s - 1)) ** (1 / (s - 1)))
    return math.fsum(i ** -s for i in range(terms, 0, -1))


def abelian_envelope_mean(mults: tuple[int, ...], m: int, n: int) -> float:
    """The large-block abelian approximation: each squared variable contributes
    m^(m/2) (4 pi)^((1-m)/2) zeta((m-1)/2)."""
    s = mults.count(1)
    envelope = m ** (m / 2) * (4 * math.pi) ** ((1 - m) / 2) * zeta((m - 1) / 2)
    return n ** (s + 1) / math.factorial(s + 1) * envelope ** (len(mults) - s)


def partial_square_forced(length: int, holes: int) -> bool:
    """A partial word with a hole next to any position contains a compatible square."""
    return length >= 2 and holes >= 1


def abelian_constant(m: int, k: int, terms: int) -> float:
    """sum_{l>=1} M(l, m, k) / m^(k l), summed to `terms` with a power-law tail estimate.

    The terms are read off (sum_i x^i / i!^k)^m in 40-digit decimal
    arithmetic.  They decay like l^(-a) with a = (m-1)(k-1)/2, so the
    remainder is estimated as p_L L^a (L + 1/2)^(1-a) / (a - 1) from the last
    term p_L; the estimate's relative error shrinks like 1/L.
    """
    from decimal import Context, Decimal, localcontext

    with localcontext(Context(prec=40, Emin=-10 ** 8, Emax=10 ** 8)):
        base = [1 / Decimal(math.factorial(i) ** k) for i in range(terms + 1)]
        acc = base
        for _ in range(m - 1):
            acc = [sum((acc[i] * base[t - i] for i in range(t + 1)), Decimal(0))
                   for t in range(terms + 1)]
        terms_ = [acc[l] * math.factorial(l) ** k / Decimal(m ** k) ** l
                  for l in range(1, terms + 1)]
        partial = sum(terms_, Decimal(0))
    a = (m - 1) * (k - 1) / 2
    tail = float(terms_[-1]) * terms ** a * (terms + 0.5) ** (1 - a) / (a - 1)
    return float(partial) + tail


if __name__ == "__main__":
    import sys

    # Regenerates the pinned abelian constants: arguments are m,k,terms triples.
    for text in sys.argv[1:]:
        m, k, terms = (int(x) for x in text.split(","))
        print(f"abelian_constant({m}, {k}) ~ {abelian_constant(m, k, terms)!r}  [{terms} terms]")
