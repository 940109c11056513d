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

All four counts walk one kernel, `_walker`, which also answers whether an
occurrence starts at a position (the search asks it of the reversed prefix
with the reversed pattern).  It is bound to a buffer that a caller fills and
empties one position at a time, and skips only the block lengths that
provably cannot match: a fresh variable followed by a copy of an earlier one
takes its lengths from the set bits of that block's match set, the starts of
its copies.  Every occurrence is still found one at a time.

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
the weight and the larger skipped.  r is never built: reading w backwards
and renaming its letters in order of first appearance gives r letter by
letter, and the first letter where r and w differ decides which is smaller
(a word with a hole there is the smaller, HOLE being -1).

Each word in first-occurrence form is walked reversed.  Reversal is a
bijection on the words of the shape and commutes with renaming letters, so
the total over all words is also the sum of the counts of their reverses, and
the reverse of every word in the orbit of w has the count of the reverse of
w.  So the weighted sum of the counts of the reversed words is the total,
whether p reads the same reversed or not; the weight and the mirror test still
read w itself.  The words come from one depth-first traversal of their
prefixes, _prefixes, which the search makes too: the kernel holds each
prefix of w reversed, w itself included, w[i] at position n - 1 - i, so a
prefix puts one letter and backing up takes it, and the walk from position
n - d reads only the prefix w[:d].  The count of w is the sum of the walks of
the prefixes on its path, and each prefix is walked once, when the first word
under it that is walked arrives.  A caller prunes a prefix through the
traversal: the search each one that closes an occurrence, and a worker of a
split total each prefix at depth ceil(n / 2) that is not dealt to it (see
_dealt_total).
"""

from __future__ import annotations

import enum
import os
from fractions import Fraction
from functools import partial
from itertools import cycle
from math import comb, perm

from .errors import BudgetExceededError
from .words import HOLE, Pattern, PartialWord, Word

DEFAULT_WORD_BUDGET = 5_000_000
# total_count's words walked per worker, about the words of the shape over m!.
# Each worker opens only the subtrees dealt to it.  On 2 cores a second worker
# for aba paid from between 4,096 and 8,192 of them (FULL), 3,280 and 9,841
# (PARTIAL_COLLAPSED) and already at 4,096 (ABELIAN).  A pool of two, which
# this starts from 8,192, ran every kind 1.36-1.58x as fast as in-process
# there (9,841 for PARTIAL_COLLAPSED); below, FULL and PARTIAL_COLLAPSED lost
# (0.70-0.84).
_WALKED_PER_WORKER = 4096


class CountKind(enum.Enum):
    FULL = "full"
    ABELIAN = "abelian"
    PARTIAL_MORPHISM = "partial-morphism"
    PARTIAL_COLLAPSED = "partial-collapsed"


PARTIAL_KINDS = (CountKind.PARTIAL_MORPHISM, CountKind.PARTIAL_COLLAPSED)


def _plan(syms: tuple[int, ...], kind: CountKind) -> list[tuple | None]:
    """The walk's step table, indexed by pattern index: None at a bound
    variable's block, and at a fresh variable's first block idx the tuple
    (c, free, after, grow, placed, bound, nxt, last).  Here c counts the
    variable's blocks, free the later first blocks of other variables, after
    is the first index of the earlier variable whose copy comes right after
    block idx (-1 if none) and grow says whether the block's match set is
    kept.  bound lists the blocks of bound variables that follow, up to the
    next fresh block nxt (len(syms) if none), as (index, first, others): each
    is checked against the block at first and, on partial words, the blocks at
    others.  When placed, the copy filter of block idx has already put block
    idx + 1 in place, so bound starts after it; block idx + 1 is left in bound
    when it has blocks in between to check against.  last marks the last
    fresh block when nothing is left to check after it and its match set is
    not kept (b in aba): there each length left to try is one occurrence."""
    k = len(syms)
    firsts = [syms.index(v) for v in syms]
    fresh = [idx for idx in range(k) if firsts[idx] == idx]
    steps: list[tuple | None] = [None] * k
    for n, (idx, nxt) in enumerate(zip(fresh, fresh[1:] + [k])):
        bound = [(i, firsts[i], tuple(j for j in range(firsts[i] + 1, i) if syms[j] == syms[i])
                  if kind in PARTIAL_KINDS else ())
                 for i in range(idx + 1, nxt)]
        after = firsts[idx + 1] if bound and firsts[idx + 1] < idx else -1
        placed = after >= 0 and not bound[0][2]
        c = syms.count(syms[idx])
        grow = c > 1 and kind is not CountKind.ABELIAN
        bound = tuple(bound[placed:])
        steps[idx] = (c, len(fresh) - n - 1, after, grow, placed, bound, nxt,
                      nxt == k and not bound and not grow)
    return steps


def _walker(kind: CountKind, m: int, syms: tuple[int, ...], n: int, anchored: bool = False):
    """The occurrence walk shared by the oracle and the search, bound to a
    buffer of n positions.

    Returns (put, take, occurrences).  The buffer fills from its right end:
    put(c) places c left of the filled positions and take() empties the
    leftmost filled one.  occurrences(pos) walks from a filled start pos and
    reads only positions pos..n-1, in the mode fixed when the walker is built.
    Count mode (the default): the number of occurrences that start at pos,
    each PARTIAL_MORPHISM occurrence weighted by m per all-hole coordinate;
    the count of the filled word is the sum over its starts.  Anchored mode:
    1 if some occurrence starts at pos, else 0, stopped at the first one; the
    two partial conventions agree there, every weight being at least 1.  A
    traversal keeps a word w reversed in the buffer, w[i] at position
    n - 1 - i, so it extends the prefix by one put and backs it up by one
    take, and the walk from n - d reads only the prefix w[:d].

    What the pattern alone fixes is prepared once per walker: the step table
    of _plan, the walk and the weight, and the arrays of block starts, lengths
    and match sets they fill in.  put and take update the word's state at one
    position: the letter masks and the hole mask, and the ABELIAN suffix sums.
    ABELIAN groups the windows of a block length by histogram only when a walk
    asks for that length, down to the leftmost filled start, and take drops
    the start it empties from each group that holds it.

    Blocks are placed left to right, and a repeated variable's later blocks
    are checked without slicing.  FULL and the partial kinds keep a match set
    per first block: the int whose bit q is set iff a copy of the block can
    start at q.  It is built by shift-and as the block grows, one AND per
    letter with the positions of that letter (FULL) or of that letter or a
    hole (partial kinds; a hole in the block admits anything).  A later block
    is then one bit test: equality on full words, compatibility with the
    first block on partial words.  A partial variable's third and later
    blocks are also checked against each block in between, since
    compatibility with each earlier block is compatibility with their
    overlay: from the letter masks, the positions where the block holds a
    letter that the other block neither holds nor leaves a hole for.  ABELIAN
    compares letter histograms read off suffix sums packed in one int per
    position (base 2^bits > n, so no packed count carries): the window
    [a, b) is suf[a] - suf[b].

    Lengths.  A fresh variable's first block tries its lengths as the set bits
    of one int, lowest first.  When the block right after it is a copy of an
    earlier variable, the only admissible lengths are those that put a copy of
    that variable's block there: the int is its match set, shifted to the
    block's start, and the copy is placed with the length.  ABELIAN takes the
    int from the starts of the windows of the copy's length that have its
    histogram.  For FULL and ABELIAN these are exactly the lengths whose next
    block passes; for the partial kinds they pass the first-block test, and
    the blocks in between are still checked.  A fresh block followed by
    another fresh block or by its own copy (aa, abba) tries every length.
    The length equation bounds them all: which variables are bound at each
    index is fixed by the pattern, so a fresh variable occurring c times from
    here on gets a length of at most (room - fixed - free) // c,
    where fixed is the total length of the later blocks of bound variables and
    free the number of later blocks of still-fresh ones.  A match set only
    loses bits as its block grows, so a repeated variable's lengths stop once
    no copy can start right of its block (an all-hole block keeps every bit).
    Every occurrence is still found, and counted or weighted, one at a time.
    At the last fresh block, when nothing is left to check after it and its
    match set is not kept (b in aba), each length left to try is one
    occurrence: count mode counts them by clearing the lowest bit once per
    occurrence, and anchored mode asks whether any is left.  PARTIAL_MORPHISM
    count mode still places each one to weigh it.
    """
    k = len(syms)
    abelian = kind is CountKind.ABELIAN
    steps = _plan(syms, kind)
    groups = [[j for j, u in enumerate(syms) if u == v] for v in set(syms)] \
        if kind is CountKind.PARTIAL_MORPHISM else ()
    at = [0] * k     # start of each placed block
    size = [0] * k   # the length of each placed first block
    match = [0] * k  # per first block: the starts of its copies
    # the word's state at the filled positions lo..n-1
    word = [HOLE] * n
    masks = [0] * m + [-1]  # per letter, its positions and the holes; a hole admits any
    suf = [0] * (n + 1)     # ABELIAN: the packed histogram of the positions from each on
    unit = [(1 << n.bit_length()) ** c for c in range(m)]
    windows = {}  # ABELIAN, per block length: [starts by histogram, the leftmost grouped]
    lo, holes = n, 0
    weighted = bool(groups) and not anchored  # count mode weighs each occurrence

    def weight() -> int:
        w = 1
        for group in groups:
            free = (1 << size[group[0]]) - 1
            for j in group:
                free &= holes >> at[j]
            w *= m ** free.bit_count()
        return w

    def walk(pos: int, idx: int = 0, fixed: int = 0) -> int:
        """Occurrences whose block idx, a fresh variable's first, starts at
        pos; at the default idx 0, every occurrence that starts at pos."""
        c, free, after, grow, placed, bound, nxt, last = steps[idx]
        at[idx] = pos
        top = (n - pos - fixed - free) // c
        if top < 1:
            return 0
        if after < 0:
            x = (1 << top) - 1  # every length
        else:  # the next block copies block `after`: start it at one of its copies
            copy = size[after]
            if abelian:
                group = windows.get(copy)
                if group is None:
                    group = windows[copy] = [{}, n - copy + 1]
                table, low = group
                if low > lo:  # group the windows that start left of those grouped
                    for q in range(low - 1, lo - 1, -1):
                        h = suf[q] - suf[q + copy]
                        table[h] = table.get(h, 0) | 1 << q
                    group[1] = lo
                s = at[after]
                x = table[suf[s] - suf[s + copy]]
            else:
                x = match[after]
            x = (x >> (pos + 1)) & ((1 << top) - 1)
        if last and not weighted:  # each length left to try is one occurrence
            if anchored:
                return 1 if x else 0
            total = 0
            while x:
                x &= x - 1
                total += 1
            return total
        cur, grown = -1, 0  # the match set of the empty block: every start
        total = 0
        while x:  # bit length - 1 is set in x for each length left to try
            low = x & -x
            x ^= low
            length = low.bit_length()
            size[idx] = length
            if grow:
                while grown < length:
                    cur &= masks[word[pos + grown]] >> grown
                    grown += 1
                match[idx] = cur
                if not cur >> (pos + length):  # no copy to the right, now or longer
                    break
            p, f = pos + length, fixed + (c - 1) * length
            if placed:  # the filter put block idx + 1 at p
                at[idx + 1] = p
                p, f = p + copy, f - copy
            for i, first, others in bound:
                step = size[first]
                if abelian:
                    s = at[first]
                    if suf[p] - suf[p + step] != suf[s] - suf[s + step]:
                        break
                else:
                    if not match[first] >> p & 1:
                        break
                    if others:
                        clash = 0
                        for j in others:  # this block's letters that block j lacks
                            q = at[j]
                            for y in range(m):
                                clash |= (masks[y] & ~holes) >> p & ~(masks[y] >> q)
                        if clash & ((1 << step) - 1):
                            break
                at[i] = p
                p, f = p + step, f - step
            else:
                found = walk(p, nxt, f) if nxt < k else weight() if weighted else 1
                if found and anchored:
                    return 1
                total += found
        return total

    if abelian:
        def put(c: int) -> None:
            nonlocal lo
            lo -= 1
            suf[lo] = suf[lo + 1] + unit[c]

        def take() -> None:
            nonlocal lo
            q = lo
            lo += 1
            for copy, group in windows.items():
                if group[1] == q and q + copy <= n:
                    group[0][suf[q] - suf[q + copy]] ^= 1 << q
                    group[1] = lo
        return put, take, walk

    def put(c: int) -> None:
        nonlocal lo, holes
        lo -= 1
        word[lo] = c
        bit = 1 << lo
        if c == HOLE:
            holes |= bit
            for x in range(m):
                masks[x] |= bit
        else:
            masks[c] |= bit

    def take() -> None:
        nonlocal lo, holes
        q = lo
        lo += 1
        c, bit = word[q], 1 << q
        if c == HOLE:
            holes ^= bit
            for x in range(m):
                masks[x] ^= bit
        else:
            masks[c] ^= bit
    return put, take, walk


def count_full(w: Word, p: Pattern) -> int:
    """Occurrences of p in w: (position, composition) pairs with equal blocks forced."""
    return count(CountKind.FULL, w, p)


def count_abelian(w: Word, p: Pattern) -> int:
    """Occurrences of p in the abelian sense: equal variables force anagram blocks."""
    return count(CountKind.ABELIAN, w, p)


def count_partial(w: Word | PartialWord, p: Pattern, kind: CountKind) -> int:
    """Occurrences of p in a partial or full word under either partial convention."""
    if kind not in PARTIAL_KINDS:
        raise ValueError(f"count_partial expects a partial kind, got {kind}")
    return count(kind, w, p)


def count(kind: CountKind, w: Word | PartialWord, p: Pattern) -> int:
    """Kind-dispatching counter; full kinds take a Word, partial kinds either
    word.  Every position is put, and the walks from every start summed."""
    if isinstance(w, PartialWord):
        if kind not in PARTIAL_KINDS:
            raise ValueError(f"{kind.name} counting expects a full word")
        chars = w.chars
    else:
        chars = w.letters
    put, _, occurrences = _walker(kind, w.m, p.symbols, len(chars))
    for c in reversed(chars):
        put(c)
    return sum(map(occurrences, range(len(chars))))


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
    budget counts.  Raises ValueError on a shape total_count rejects."""
    _check_shape(kind, n, m, holes)
    if kind in (CountKind.FULL, CountKind.ABELIAN):
        return m ** n
    if holes is None:
        return (m + 1) ** n
    return comb(n, holes) * m ** (n - holes)


def _mirror_order(chars) -> int:
    """-1, 0 or 1 as the first-occurrence form of chars reversed is less than,
    equal to or greater than chars, compared letter by letter up to the first
    difference."""
    names = {HOLE: HOLE}
    i = len(chars)
    for d in chars:
        i -= 1
        r = names.setdefault(chars[i], len(names) - 1)
        if r != d:
            return -1 if r < d else 1
    return 0


def _prefixes(kind: CountKind, m: int, holes: int | None, chars: list[int], put, take):
    """The one depth-first traversal of the prefixes in first-occurrence form
    of the words of length n = len(chars) over m letters with `holes` holes
    (any number when None), shared by the totals and the search.

    Yields (d, top) for each prefix: its length d, with the prefix written to
    chars[:d], and its largest letter top (HOLE if none), so a prefix's j
    distinct letters are top + 1.  At every position the characters come in
    the order a < b < ... < hole: letter c only after 0, ..., c - 1 (up to
    one past the largest so far), and on partial words the hole, unless the
    holes left to place are 0 or the number of positions left, which then
    all take it.  A caller prunes a prefix, so that none of its extensions is
    yielded, by sending a true value at it; the send returns None, and at a
    full-length word, which has no extensions, it changes nothing.  The
    kernel follows the traversal: each character is put before its prefix is
    yielded and taken when the prefix is pruned, is a whole word or has
    yielded all its extensions, so the kernel holds chars[:d] at every yield
    of d."""
    n = len(chars)
    partial_kind = kind in PARTIAL_KINDS
    # per depth d: the untried candidates for chars[d], the least last, the
    # largest letter of chars[:d] (HOLE before the first) and the holes left
    # to place after it
    stack: list[list[int]] = [[]] * n
    tops, dues = [HOLE] * n, [holes] * n
    depth, top, due = 0, HOLE, holes
    while True:
        untried = list(range(min(top + 1, m - 1), -1, -1))
        if partial_kind and due == n - depth:  # every position left takes the hole
            untried = [HOLE]
        elif partial_kind and due != 0:
            untried.insert(0, HOLE)
        stack[depth], tops[depth], dues[depth] = untried, top, due
        while True:
            while not stack[depth]:  # every candidate here is spent: back up
                if not depth:
                    return
                depth -= 1
                take()
            c = stack[depth].pop()
            chars[depth] = c
            put(c)
            top, due = tops[depth], dues[depth]
            if c > top:
                top = c
            elif c == HOLE and due is not None:
                due -= 1
            if (yield depth + 1, top):
                yield  # the value of send
            elif depth < n - 1:
                break
            take()
        depth += 1


def _dealt_total(kind: CountKind, n: int, m: int, syms: tuple[int, ...],
                 holes: int | None, workers: int, worker: int) -> int:
    """The weighted total over the words in first-occurrence form under the
    prefixes at depth ceil(n / 2) that are dealt to `worker` when they are
    dealt round-robin to `workers`, each word walked reversed (see the module
    docstring).  Every other prefix at that depth is pruned, so a worker
    opens only its own subtrees.  The walk from position n - d, a prefix at
    depth d, is made once, when the first word under it that is walked
    arrives, and the count of a word is the sum of the walks along its path."""
    put, take, occurrences = _walker(kind, m, syms, n)
    weights = [perm(m, j) for j in range(min(m, n) + 1)]  # by distinct letters
    mirror = not _mirror_order(syms)  # syms is in first-occurrence form
    chars = [HOLE] * n
    sums = [0] * (n + 1)  # sums[d]: the walks of the prefixes at depths 1..d
    walked = 0  # sums[:walked + 1] hold for chars
    deal, turns = (n + 1) // 2, cycle(range(workers))
    total = 0
    prefixes = _prefixes(kind, m, holes, chars, put, take)
    for depth, top in prefixes:
        if depth == deal and next(turns) != worker:
            prefixes.send(True)
            continue
        if walked >= depth:
            walked = depth - 1
        if depth < n:
            continue
        order = _mirror_order(chars) if mirror else 0
        if order >= 0:
            for d in range(walked + 1, n + 1):
                sums[d] = sums[d - 1] + occurrences(n - d)
            walked = n
            weight = weights[top + 1]  # HOLE is -1
            total += (2 * weight if order else weight) * sums[n]
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
    docstring), by one traversal of their prefixes.  The prefixes at depth
    ceil(n / 2) are dealt round-robin to W workers, and each worker prunes
    those that are not its own, so it opens only its own subtrees.  W is the
    requested workers, which must be at least 1 (as must the budget), capped
    by the CPU count and by one worker per _WALKED_PER_WORKER words walked,
    estimated as the words of the shape over m!; one worker sums in-process.
    Aggregation is an integer sum, so the split cannot change the result.
    """
    pop = population_size(kind, n, m, holes)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if budget < 1:
        raise ValueError("budget must allow at least one word")
    if pop > budget:
        raise BudgetExceededError(
            f"enumerating {pop} words exceeds the budget of {budget}",
            needed=pop, budget=budget)
    workers = max(1, min(workers, os.cpu_count() or 1, pop // perm(m) // _WALKED_PER_WORKER))
    dealt_total = partial(_dealt_total, kind, n, m, p.symbols, holes, workers)
    if workers == 1:
        return dealt_total(0)
    # imported here: the pool machinery costs ~2 MB of memory that
    # single-process callers never need
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(dealt_total, range(workers)))


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
