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
question whether an occurrence ends at a given position.  It skips only the
block lengths that provably cannot match: a fresh variable followed by a copy
of an earlier one takes its lengths from the set bits of that block's match
set, the starts of its copies.  Every occurrence is still found one at a
time.  The search's question is answered on the reversed prefix with the
reversed pattern, walked from start 0 alone.

Totals and exact means sum over every word of the requested shape; the budget
is measured in words of that shape.  Only one word per symmetry orbit is
walked.  A permutation of the letters maps occurrences to occurrences and
fixes the holes, so it preserves all four counts and every hole count.  Each
orbit under the permutations holds exactly one word in first-occurrence form,
where letter c appears only after 0, ..., c - 1 have (relabel the letters in
order of first appearance), and a word with j distinct letters has
m(m-1)...(m-j+1) images, one per injective renaming of its j letters.  So
the total is the sum of that weight times the count over the words in
first-occurrence form; the all-hole word has j = 0 and weight 1.
Reversing a word reverses every occurrence of p into one of the reversed
pattern, keeps blocks equal, anagrams or compatible and all-hole coordinates
all-hole, and keeps the number of holes and of distinct letters.  So when p
reads the same reversed up to a renaming of its variables (aa, aba, abab,
abba, aabb, every Zimin pattern), the first-occurrence form r of the reverse
of a word w has the count and the weight of w, and w -> r is an involution
on the words in first-occurrence form.  If r = w, reversal maps the orbit of
w onto itself and w keeps its weight; otherwise the orbits of w and r are
distinct with equal totals, so the smaller of w and r is walked with twice
the weight and the larger skipped.
"""

from __future__ import annotations

import enum
import os
from fractions import Fraction
from functools import partial
from itertools import accumulate, combinations, islice, product
from operator import sub
from math import comb, perm

from .errors import BudgetExceededError
from .words import HOLE, Pattern, PartialWord, Word

DEFAULT_WORD_BUDGET = 5_000_000
# total_count's words walked per worker, about the words of the shape over m!:
# on 2 cores a second worker lost up to about 1,000 words and paid from 2,000.
_WALKED_PER_WORKER = 1024


class CountKind(enum.Enum):
    FULL = "full"
    ABELIAN = "abelian"
    PARTIAL_MORPHISM = "partial-morphism"
    PARTIAL_COLLAPSED = "partial-collapsed"


PARTIAL_KINDS = (CountKind.PARTIAL_MORPHISM, CountKind.PARTIAL_COLLAPSED)


def _conflicts(masks: list[int], length: int) -> list[int]:
    """Per shift d, the bits i where positions i and i + d hold two different
    letters, from the per-letter position masks of a word of that length."""
    defined = 0
    for x in masks:
        defined |= x
    out = [0]
    for d in range(1, length):
        same = 0
        for x in masks:
            same |= x & (x >> d)
        out.append(defined & (defined >> d) & ~same)
    return out


def _plan(syms: tuple[int, ...], kind: CountKind) -> list[tuple]:
    """Per pattern index: (c, free, after, grow) for a variable's first block,
    where c counts the variable's blocks, free the later first blocks of other
    variables, after the first index of the earlier variable whose copy comes
    right after this block (-1 if none) and grow whether the block's match set
    is kept; (0, first, others) for a later block, checked against the blocks
    at those indices."""
    firsts = [syms.index(v) for v in syms]
    plan = []
    for idx, v in enumerate(syms):
        first = firsts[idx]
        if first == idx:
            c = syms.count(v)
            after = firsts[idx + 1] if idx + 1 < len(syms) else idx
            plan.append((c, len([f for f in firsts[idx + 1:] if f > idx]),
                         after if after < idx else -1, c > 1 and kind is not CountKind.ABELIAN))
        else:
            others = [j for j in range(first + 1, idx) if syms[j] == v] \
                if kind in PARTIAL_KINDS else ()
            plan.append((0, first, others))
    return plan


def _walker(kind: CountKind, m: int, syms: tuple[int, ...]):
    """The occurrence walk shared by the oracle and the search.

    Returns occurrences(chars, hi=None).  Count mode (hi None): the number of
    occurrences in chars, each PARTIAL_MORPHISM occurrence weighted by m per
    all-hole coordinate.  Exists mode: 1 if some occurrence ends exactly at
    hi, else 0; the two partial conventions agree there, every weight being
    at least 1.  Exists mode walks the reversed prefix chars[:hi][::-1] with
    the reversed pattern from start 0 only, and stops at the first
    occurrence: reversing every block maps the occurrences ending at hi onto
    the occurrences starting at 0, and keeps blocks equal, anagrams or
    compatible, so it preserves all four rules.

    Blocks are placed left to right, and a repeated variable's later blocks
    are checked without slicing.  FULL and the partial kinds keep a match set
    per first block: the int whose bit q is set iff a copy of the block can
    start at q.  It is built by shift-and as the block grows, one AND per
    letter with the positions of that letter (FULL) or of that letter or a
    hole (partial kinds; a hole in the block admits anything).  A later block
    is then one bit test: equality on full words, compatibility with the
    first block on partial words.  A partial variable's third and later
    blocks are also checked against the blocks in between with per-shift
    conflict masks, since compatibility with each earlier block is
    compatibility with their overlay.  ABELIAN compares letter histograms
    read off prefix sums packed in one int per position (base 2^bits > hi, so
    no packed count carries).

    Lengths.  When the block right after a fresh variable's first block is a
    copy of an earlier variable, the only admissible lengths are those that
    put a copy of that variable's block there, and they are read off the set
    bits of its match set; ABELIAN groups the starts of the windows of each
    block length by packed histogram, once per length within the call.  For
    FULL and ABELIAN these are exactly the lengths whose next block passes;
    for the partial kinds they pass the first-block test, and the conflict
    masks still check the blocks in between.  A fresh block followed by
    another fresh block or by its own copy (aa, abba) tries every length.
    The length equation bounds them all: which variables are bound at each
    index is fixed by the pattern, so a fresh variable occurring c times from
    here on gets a length of at most (room - fixed - free) // c, where fixed
    is the total length of the later blocks of bound variables and free the
    number of later blocks of still-fresh ones.  Every occurrence is still
    found, and counted or weighted, one at a time.
    """
    k = len(syms)
    partial_kind = kind in PARTIAL_KINDS
    abelian = kind is CountKind.ABELIAN
    forward, backward = _plan(syms, kind), _plan(syms[::-1], kind)
    checked = any(not entry[0] and entry[2] for entry in forward)
    groups = [[j for j, u in enumerate(syms) if u == v] for v in set(syms)] \
        if kind is CountKind.PARTIAL_MORPHISM else ()

    def occurrences(chars, hi: int | None = None) -> int:
        exists = hi is not None
        if exists:
            chars, plan, starts = chars[:hi][::-1], backward, (0,)
        else:
            hi, plan = len(chars), forward
            starts = range(hi - k + 1)
        weighted = bool(groups) and not exists
        if abelian:
            unit = [(1 << hi.bit_length()) ** c for c in range(m)]
            pref = list(accumulate((unit[c] for c in chars), initial=0))
            windows = {}
        else:
            masks = [0] * (m + 1)  # the last one collects the holes
            for i, c in enumerate(chars):
                masks[c] |= 1 << i
            holes = masks[-1]
            if checked:
                conf = _conflicts(masks[:m], hi)
            if partial_kind:
                masks = [x | holes for x in masks[:m]] + [-1]
        at = [0] * k     # start of each placed block
        size = [0] * k   # its length
        match = [0] * k  # per first block: the starts of its copies

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
            c, free, after, grow = plan[idx]
            at[idx] = pos
            top = (hi - pos - fixed - free) // c
            if after < 0:
                lengths, copy = range(1, top + 1), 0
            elif top < 1:
                return 0
            else:  # the next block copies block `after`: start it at one of its copies
                copy = size[after]
                if abelian:
                    table = windows.get(copy)
                    if table is None:
                        table = windows[copy] = {}
                        for q, h in enumerate(map(sub, pref[copy:], pref)):
                            table[h] = table.get(h, 0) | 1 << q
                    s = at[after]
                    x = table[pref[s + copy] - pref[s]]
                else:
                    x = match[after]
                x = (x >> (pos + 1)) & ((1 << top) - 1)
                if not x:
                    return 0
                lengths = []
                while x:
                    low = x & -x
                    lengths.append(low.bit_length())
                    x ^= low
                if plan[idx + 1][2]:  # more blocks to check it against
                    copy = 0
            cur, grown = -1, 0  # the match set of the empty block: every start
            total = 0
            for length in lengths:
                size[idx] = length
                if grow:
                    while grown < length:
                        cur &= masks[chars[pos + grown]] >> grown
                        grown += 1
                    match[idx] = cur
                i, p, f = idx + 1, pos + length, fixed + (c - 1) * length
                if copy:  # the filter placed block i already
                    at[i], size[i] = p, copy
                    i, p, f = i + 1, p + copy, f - copy
                while i < k and not plan[i][0]:  # the blocks of bound variables
                    _, first, others = plan[i]
                    step = size[first]
                    if abelian:
                        s = at[first]
                        clash = pref[p + step] - pref[p] != pref[s + step] - pref[s]
                    else:
                        clash = not match[first] >> p & 1
                        if others and not clash:
                            mask = (1 << step) - 1
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

        return sum(walk(0, lo, 0) for lo in starts)

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
    """Kind-dispatching counter; full kinds take a Word, partial kinds either word."""
    if isinstance(w, PartialWord):
        if kind not in PARTIAL_KINDS:
            raise ValueError(f"{kind.name} counting expects a full word")
        return _walker(kind, w.m, p.symbols)(w.chars)
    return _walker(kind, w.m, p.symbols)(w.letters)


def _check_shape(kind: CountKind, n: int, m: int, holes: int | None) -> None:
    """Raise ValueError unless total_count and the search can enumerate the words
    of length n over m letters with `holes` holes (any number when None)."""
    if n < 1:
        raise ValueError("word length must be >= 1")
    if m < 1:
        raise ValueError("alphabet size must be >= 1")
    if kind not in PARTIAL_KINDS and holes is not None:
        raise ValueError("hole count only applies to partial kinds")
    if holes is not None and not 0 <= holes <= n:
        raise ValueError("hole count must lie in [0, n]")


def population_size(kind: CountKind, n: int, m: int, holes: int | None = None) -> int:
    """Number of words of the shape: those total_count sums over, and what its
    budget counts."""
    if kind in (CountKind.FULL, CountKind.ABELIAN):
        return m ** n
    if holes is None:
        return (m + 1) ** n
    return comb(n, holes) * m ** (n - holes)


def _first_occurrence_form(chars) -> tuple[int, ...]:
    """chars with its letters renamed 0, 1, ... in order of first appearance;
    holes stay holes."""
    names = {HOLE: HOLE}
    return tuple([names.setdefault(c, len(names) - 1) for c in chars])


def _first_occurrence_words(kind: CountKind, n: int, m: int, holes: int | None):
    """The words of the shape in first-occurrence form: per number j of distinct
    letters, per choice of the positions where 0, ..., j - 1 first appear and
    per placement of the holes still needed, the product of the per-position
    alphabets.  Before the first letter only holes fit; after the first
    occurrence of c, the letters 0, ..., c and, with no hole count, the hole."""
    partial = kind in PARTIAL_KINDS
    extra = (HOLE,) if partial and holes is None else ()
    for j in range(0 if partial else 1, min(m, n) + 1):
        for firsts in combinations(range(n), j):
            lead = firsts[0] if firsts else n
            if lead and not partial:
                continue
            cols = [(HOLE,)] * lead
            for c, (q, nxt) in enumerate(zip(firsts, firsts[1:] + (n,))):
                cols += [(c,)] + [tuple(range(c + 1)) + extra] * (nxt - q - 1)
            if holes is None:
                placements = [()]
            else:
                free = [q for q in range(lead, n) if q not in firsts]
                need = holes - lead
                placements = combinations(free, need) if need >= 0 else ()
            for placed in placements:
                yield from product(*[(HOLE,) if q in placed else col
                                     for q, col in enumerate(cols)])


def _stripe_total(kind: CountKind, n: int, m: int, syms: tuple[int, ...],
                  holes: int | None, stride: int, offset: int) -> int:
    """The weighted total over every stride-th word, from the offset-th on, of
    the words in first-occurrence form (see the module docstring)."""
    occurrences = _walker(kind, m, syms)
    weights = [perm(m, j) for j in range(min(m, n) + 1)]  # by distinct letters
    mirror = _first_occurrence_form(syms[::-1]) == syms
    total = 0
    for chars in islice(_first_occurrence_words(kind, n, m, holes), offset, None, stride):
        weight = weights[max(chars) + 1]  # HOLE is -1
        if mirror:
            r = _first_occurrence_form(reversed(chars))
            if r < chars:
                continue
            if r != chars:
                weight *= 2
        total += weight * occurrences(chars)
    return total


def total_count(kind: CountKind, n: int, m: int, p: Pattern,
                holes: int | None = None,
                budget: int = DEFAULT_WORD_BUDGET,
                workers: int = 1) -> int:
    """Sum of the per-word count over every word of the given shape.

    FULL/ABELIAN range over all m^n full words; the partial kinds over all
    (m+1)^n partial words, or over the C(n,holes)*m^(n-holes) words with the
    exact hole count when holes is given.  Only the words in first-occurrence
    form are walked, each with the weight of its orbit (see the module
    docstring), as one sequence: worker i of W sums every W-th word of it from
    the i-th on.  W is the requested workers, capped by the CPU count and by
    one worker per _WALKED_PER_WORKER words walked, estimated as the words
    of the shape over m!; one worker sums in-process.
    Aggregation is an integer sum, so the split cannot change the result.
    """
    _check_shape(kind, n, m, holes)
    pop = population_size(kind, n, m, holes)
    if pop > budget:
        raise BudgetExceededError(
            f"enumerating {pop} words exceeds the budget of {budget}",
            needed=pop, budget=budget)
    workers = max(1, min(workers, os.cpu_count() or 1, pop // perm(m) // _WALKED_PER_WORKER))
    stripe_total = partial(_stripe_total, kind, n, m, p.symbols, holes, workers)
    if workers == 1:
        return stripe_total(0)
    # imported here: the pool machinery costs ~2 MB of memory that
    # single-process callers never need
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(stripe_total, range(workers)))


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
