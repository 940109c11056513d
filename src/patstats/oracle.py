"""Brute-force exact occurrence counting, the ground truth everything else is checked against.

An occurrence of a pattern p in a word w is a pair (start position, composition
of the factor starting there into |p| nonempty blocks) subject to a per-kind
consistency rule between blocks of equal pattern variables:

  FULL               blocks of a repeated variable must be identical; the pairs
                     are in bijection with (nonerasing morphism, position) pairs.
  ABELIAN            blocks of a repeated variable must be anagrams of one another.
  PARTIAL_MORPHISM   counts (position, morphism) pairs whose image is compatible
                     with the factor; computed per variable by overlaying all of
                     the variable's blocks and multiplying the alphabet size for
                     every coordinate left entirely to holes.
  PARTIAL_COLLAPSED  like PARTIAL_MORPHISM, except an all-hole coordinate counts
                     as a single outcome instead of one per letter.  This is the
                     convention whose totals the partial generating function
                     reproduces; the two conventions genuinely differ (on ".."
                     over two letters, pattern "aa" counts 2 vs 1).

All four counts walk one kernel, `_walker`, which also answers the search's
question whether an occurrence ends at a given position.

Totals and exact means sum over every word of the requested shape; the budget
is measured in words of that shape.  A permutation of the letters maps
occurrences to occurrences and fixes the holes, so it preserves all four
counts and, being a bijection, every hole count.  The words other than the
all-hole one split into m classes by their first letter (after any holes),
and the transposition of 0 and c maps the class of c onto the class of 0.
So the total is m times the total over the words whose first letter is 0,
plus the count of the all-hole word where the shape admits it, and only
that class is walked.
"""

from __future__ import annotations

import enum
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from functools import partial
from itertools import accumulate, combinations, product
from math import comb

from .errors import BudgetExceededError
from .words import HOLE, Pattern, PartialWord, Word

DEFAULT_WORD_BUDGET = 5_000_000


class CountKind(enum.Enum):
    FULL = "full"
    ABELIAN = "abelian"
    PARTIAL_MORPHISM = "partial-morphism"
    PARTIAL_COLLAPSED = "partial-collapsed"


PARTIAL_KINDS = (CountKind.PARTIAL_MORPHISM, CountKind.PARTIAL_COLLAPSED)


def _conflicts(chars, m: int) -> tuple[list[int], int]:
    """Per shift d, the bits i where chars[i] and chars[i + d] are two different
    letters; and the bits of the holes."""
    masks = [0] * m
    for i, c in enumerate(chars):
        if c != HOLE:
            masks[c] |= 1 << i
    defined = 0
    for x in masks:
        defined |= x
    out = [0]
    for d in range(1, len(chars)):
        same = 0
        for x in masks:
            same |= x & (x >> d)
        out.append(defined & (defined >> d) & ~same)
    return out, ((1 << len(chars)) - 1) & ~defined


def _walker(kind: CountKind, m: int, syms: tuple[int, ...]):
    """The occurrence walk shared by the oracle and the search.

    Returns occurrences(chars, hi=None).  Count mode (hi None): the number of
    occurrences in chars, each PARTIAL_MORPHISM occurrence weighted by m per
    all-hole coordinate.  Exists mode: 1 if some occurrence ends exactly at
    hi, else 0; the two partial conventions agree there, every weight being
    at least 1.

    Blocks of a repeated variable are checked against the variable's earlier
    blocks without slicing.  ABELIAN compares letter histograms read off
    prefix sums packed in one int per position (base 2^bits > hi, so no
    packed count carries).  The other kinds use per-shift conflict masks: two
    blocks are compatible iff no coordinate holds two different letters,
    which on a hole-free word means identical, so FULL checks the first block
    only.  For the partial kinds compatibility with each earlier block is
    compatibility with their overlay, since consistent blocks agree on every
    letter they define.

    The length equation prunes fresh variables.  Which variables are bound at
    each pattern index is fixed by the pattern, so a fresh variable occurring
    c times from here on gets a length of at most (room - fixed - free) // c,
    where fixed is the total length of the later blocks of bound variables
    and free the number of later blocks of still-fresh ones.  In exists mode
    the last fresh variable's length is fixed by the equation exactly.
    """
    k = len(syms)
    firsts = [syms.index(v) for v in syms]
    # per index: (c, free, ()) for a variable's first block, where c counts the
    # variable's blocks and free the later first blocks of other variables;
    # (0, first, others) for a later block, checked against the blocks at those indices
    partial_kind = kind in PARTIAL_KINDS
    plan = []
    for idx, v in enumerate(syms):
        first = firsts[idx]
        if first == idx:
            plan.append((syms.count(v), len([f for f in firsts[idx + 1:] if f > idx]), ()))
        else:
            others = [j for j in range(first + 1, idx) if syms[j] == v] if partial_kind else ()
            plan.append((0, first, others))
    groups = [[j for j, u in enumerate(syms) if u == v] for v in set(syms)] \
        if kind is CountKind.PARTIAL_MORPHISM else ()
    abelian = kind is CountKind.ABELIAN

    def occurrences(chars, hi: int | None = None) -> int:
        exists = hi is not None
        if not exists:
            hi = len(chars)
        weighted = kind is CountKind.PARTIAL_MORPHISM and not exists
        if abelian:
            unit = [(1 << hi.bit_length()) ** c for c in range(m)]
            pref = list(accumulate((unit[c] for c in chars[:hi]), initial=0))
        else:
            conf, holes = _conflicts(chars[:hi], m)
        at = [0] * k    # start of each placed block
        size = [0] * k  # its length

        def weight() -> int:
            w = 1
            for group in groups:
                free = (1 << size[group[0]]) - 1
                for j in group:
                    free &= holes >> at[j]
                w *= m ** free.bit_count()
            return w

        def walk(idx: int, pos: int, fixed: int) -> int:
            """Occurrences whose block idx, a fresh variable's first, starts at pos."""
            c, free, _ = plan[idx]
            at[idx] = pos
            if exists and not free:
                length, r = divmod(hi - pos - fixed, c)
                lengths = range(length, length + 1) if length >= 1 and not r else ()
            else:
                lengths = range(1, (hi - pos - fixed - free) // c + 1)
            total = 0
            for length in lengths:
                size[idx] = length
                i, p, f = idx + 1, pos + length, fixed + (c - 1) * length
                while i < k and not plan[i][0]:  # the blocks of bound variables
                    _, first, others = plan[i]
                    step, s = size[first], at[first]
                    if abelian:
                        clash = pref[p + step] - pref[p] != pref[s + step] - pref[s]
                    else:
                        mask = (1 << step) - 1
                        clash = (conf[p - s] >> s) & mask
                        for j in others:
                            clash |= (conf[p - at[j]] >> at[j]) & mask
                    if clash:
                        break
                    at[i], size[i] = p, step
                    p, f, i = p + step, f - step, i + 1
                else:
                    found = walk(i, p, f) if i < k else weight() if weighted else 1
                    if found and exists:
                        return 1
                    total += found
            return total

        if exists:
            return int(any(walk(0, lo, 0) for lo in range(hi - k + 1)))
        return sum(walk(0, lo, 0) for lo in range(hi - k + 1))

    return occurrences


def count_full(w: Word, p: Pattern) -> int:
    """Occurrences of p in w: (position, composition) pairs with equal blocks forced."""
    return _walker(CountKind.FULL, w.m, p.symbols)(w.letters)


def count_abelian(w: Word, p: Pattern) -> int:
    """Occurrences of p in the abelian sense: equal variables force anagram blocks."""
    return _walker(CountKind.ABELIAN, w.m, p.symbols)(w.letters)


def count_partial(w: PartialWord, p: Pattern, kind: CountKind) -> int:
    """Occurrences of p in a partial word under either partial convention."""
    if kind not in PARTIAL_KINDS:
        raise ValueError(f"count_partial expects a partial kind, got {kind}")
    return _walker(kind, w.m, p.symbols)(w.chars)


def count(kind: CountKind, w: Word | PartialWord, p: Pattern) -> int:
    """Kind-dispatching counter; full kinds take a Word, partial kinds a PartialWord."""
    if kind is CountKind.FULL:
        if isinstance(w, PartialWord):
            raise ValueError("FULL counting expects a full word")
        return count_full(w, p)
    if kind is CountKind.ABELIAN:
        if isinstance(w, PartialWord):
            raise ValueError("ABELIAN counting expects a full word")
        return count_abelian(w, p)
    if not isinstance(w, PartialWord):
        w = PartialWord.from_word(w)
    return count_partial(w, p, kind)


def population_size(kind: CountKind, n: int, m: int, holes: int | None = None) -> int:
    """Number of words of the shape enumerated by total_count."""
    if kind in (CountKind.FULL, CountKind.ABELIAN):
        return m ** n
    if holes is None:
        return (m + 1) ** n
    return comb(n, holes) * m ** (n - holes)


def _iter_chars(kind: CountKind, n: int, m: int, holes: int | None, prefix: tuple[int, ...]):
    """Lexicographic enumeration of the remaining positions after a fixed prefix."""
    rest = n - len(prefix)
    if kind in (CountKind.FULL, CountKind.ABELIAN):
        for tail in product(range(m), repeat=rest):
            yield prefix + tail
    elif holes is None:
        alphabet = tuple(range(m)) + (HOLE,)
        for tail in product(alphabet, repeat=rest):
            yield prefix + tail
    else:
        need = holes - sum(c == HOLE for c in prefix)
        if need < 0 or need > rest:
            return
        for hole_positions in combinations(range(rest), need):
            hole_set = set(hole_positions)
            letter_slots = [i for i in range(rest) if i not in hole_set]
            base = [HOLE] * rest
            for fill in product(range(m), repeat=len(letter_slots)):
                for slot, letter in zip(letter_slots, fill):
                    base[slot] = letter
                yield prefix + tuple(base)


def _total_for_prefix(kind: CountKind, n: int, m: int, syms: tuple[int, ...],
                      holes: int | None, prefix: tuple[int, ...]) -> int:
    occurrences = _walker(kind, m, syms)
    return sum(occurrences(chars) for chars in _iter_chars(kind, n, m, holes, prefix))


def _work_units(kind: CountKind, n: int, m: int, holes: int | None) -> list[tuple[int, ...]]:
    """Prefixes that partition the words whose first letter is 0: j leading
    holes (none for the full kinds, at most `holes`), the letter 0 and, where
    the word goes on, one more character."""
    if kind in PARTIAL_KINDS:
        alphabet, most = tuple(range(m)) + (HOLE,), min(n - 1, n if holes is None else holes)
    else:
        alphabet, most = tuple(range(m)), 0
    units = []
    for j in range(most + 1):
        head = (HOLE,) * j + (0,)
        units.extend([head] if j == n - 1 else [head + (c,) for c in alphabet])
    return units


def total_count(kind: CountKind, n: int, m: int, p: Pattern,
                holes: int | None = None,
                budget: int = DEFAULT_WORD_BUDGET,
                workers: int = 1) -> int:
    """Sum of the per-word count over every word of the given shape.

    FULL/ABELIAN range over all m^n full words; the partial kinds over all
    (m+1)^n partial words, or over the C(n,holes)*m^(n-holes) words with the
    exact hole count when holes is given.  Only the words whose first letter
    is 0 are walked (see the module docstring), split into prefixes of length
    at least 2 that the workers share.  Aggregation is an integer sum, so
    partitioning the space across workers cannot change the result.
    """
    if n < 1:
        raise ValueError("word length must be >= 1")
    if m < 1:
        raise ValueError("alphabet size must be >= 1")
    if kind not in PARTIAL_KINDS and holes is not None:
        raise ValueError("hole count only applies to partial kinds")
    if holes is not None and not 0 <= holes <= n:
        raise ValueError("hole count must lie in [0, n]")
    pop = population_size(kind, n, m, holes)
    if pop > budget:
        raise BudgetExceededError(
            f"enumerating {pop} words exceeds the budget of {budget}",
            needed=pop, budget=budget)
    units = _work_units(kind, n, m, holes)
    unit_total = partial(_total_for_prefix, kind, n, m, p.symbols, holes)
    workers = min(workers, len(units))
    if workers <= 1:
        half = sum(map(unit_total, units))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            half = sum(pool.map(unit_total, units))
    all_holes = 0
    if kind in PARTIAL_KINDS and holes in (None, n):
        all_holes = _walker(kind, m, p.symbols)((HOLE,) * n)
    return m * half + all_holes


def mean_exact(kind: CountKind, n: int, m: int, p: Pattern,
               holes: int | None = None, strict: bool = False,
               budget: int = DEFAULT_WORD_BUDGET, workers: int = 1) -> Fraction:
    """Exact mean occurrence count over the population of words of the given shape.

    With strict=True (partial kinds, holes absent) the mean is taken over
    strictly partial words only: (total over all partial words minus the total
    over hole-free ones) divided by (m+1)^n - m^n.
    """
    if strict:
        if kind not in PARTIAL_KINDS:
            raise ValueError("strict mean only applies to partial kinds")
        if holes is not None:
            raise ValueError("strict mean requires holes to be unspecified")
        whole = total_count(kind, n, m, p, None, budget, workers)
        holefree = total_count(kind, n, m, p, 0, budget, workers)
        return Fraction(whole - holefree, (m + 1) ** n - m ** n)
    total = total_count(kind, n, m, p, holes, budget, workers)
    return Fraction(total, population_size(kind, n, m, holes))
