"""Slow enumerations kept only as references for the tests.

Each one computes by brute force what the package computes another way, so
the tests can compare the two.
"""

from itertools import product
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
