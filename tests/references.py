"""Slow enumerations and replaced recurrences kept only as references for the tests.

Each one computes, by brute force or by the formulation the package
replaced, what the package computes another way, so the tests can compare
the two.
"""

from itertools import count, product
from math import factorial

from patstats.words import HOLE, PartialWord, Word


def completions(w: PartialWord):
    """Yield every full word obtained by filling the holes of w with letters."""
    positions = [i for i, c in enumerate(w.chars) if c == HOLE]
    base = list(w.chars)
    for fill in product(range(w.m), repeat=len(positions)):
        for pos, letter in zip(positions, fill):
            base[pos] = letter
        yield Word(tuple(base), w.m)


def all_words(n: int, m: int, partial: bool, holes: int | None = None):
    """Every word of length n over m letters, and the hole when partial, in
    lexicographic order; only those with exactly `holes` holes when given."""
    alphabet = tuple(range(m)) + ((HOLE,) if partial else ())
    for chars in product(alphabet, repeat=n):
        if holes is None or chars.count(HOLE) == holes:
            yield chars


def least_avoiding(n: int, m: int, partial: bool, holes: int | None, closes):
    """The least word of the shape in the order a < b < ... < hole whose no
    prefix closes(prefix) flags, by a depth-first search that tries every
    letter at every position, or None."""
    alphabet = tuple(range(m)) + ((HOLE,) if partial else ())
    chars = []

    def dfs(left: int | None) -> bool:  # left: the holes still needed
        if len(chars) == n:
            return True
        for c in alphabet:
            if left is not None and left == (0 if c == HOLE else n - len(chars)):
                continue
            chars.append(c)
            if not closes(chars) and dfs(None if left is None else left - (c == HOLE)):
                return True
            chars.pop()
        return False

    return tuple(chars) if dfs(holes) else None


def multinomial_power_sum_enum(length: int, m: int, k: int) -> int:
    """M(length, m, k) by walking every composition of `length` into m parts."""
    if length < 1 or m < 1 or k < 1:
        raise ValueError("multinomial power sum needs length, m, k all >= 1")
    fact = [factorial(i) for i in range(length + 1)]

    def walk(parts_left: int, remaining: int, denom: int) -> int:
        if parts_left == 1:
            return (fact[length] // (denom * fact[remaining])) ** k
        return sum(walk(parts_left - 1, remaining - i, denom * fact[i])
                   for i in range(remaining + 1))

    return walk(m, length, 1)


def squared_mps_power_terms(m: int):
    """M(l, m, 2) for l = 0, 1, 2, ..., by the power recurrence that the Bessel
    recurrence replaced: n M(n) = sum_{i=1..n} ((m + 1) i - n) C(n, i)^2 M(n - i).
    """
    values = [1]  # values[l] = M(l, m, 2)
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
            total += c ** 2 * pair
        values.append(total // n)
        yield values[-1]
