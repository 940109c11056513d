"""Backtracking search for avoiding words and exact forcing lengths at desk scale.

One depth-first search serves both answers.  It extends a word one character
at a time and prunes as soon as the new last character closes an occurrence
of the pattern.  Every shorter prefix was already checked, so only the
occurrences that end at the last position are looked for: reversed, with
blocks still equal, anagrams or compatible, they are the occurrences of the
reversed pattern that start the reversed prefix, which the oracle's kernel
for the reversed pattern, built once per search, finds in anchored mode.  The
search is the oracle's traversal of the prefixes in first-occurrence form,
the one its totals make (`oracle._prefixes`): the kernel follows it one
character at a time, so no node rebuilds the state of the whole prefix, and
the search prunes each prefix that closes an occurrence.  Found witnesses are
re-verified against the oracle's count before return.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import BudgetExceededError
from .oracle import CountKind, PARTIAL_KINDS, _check_shape, _prefixes, _walker, count
from .words import HOLE, Pattern, PartialWord, Word

DEFAULT_NODE_BUDGET = 2_000_000


class SearchStatus(enum.Enum):
    """How a search ended; a spent node budget raises BudgetExceededError."""
    FOUND = "found"
    EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class SearchOutcome:
    status: SearchStatus
    witness: Word | PartialWord | None
    nodes: int


def _search(kind: CountKind, syms: tuple[int, ...], m: int, length: int,
            holes: int | None, budget: int
            ) -> tuple[SearchStatus, list[int], int, int]:
    """Depth-first search for a length-`length` word avoiding syms under `kind`.

    Returns (status, chars, nodes, deepest): chars is the witness when FOUND,
    nodes counts the characters tried and deepest is the length of the longest
    avoiding prefix reached.  Raises BudgetExceededError at the node past the
    budget.  The prefixes come from oracle._prefixes, a loop, so nothing but
    the node budget limits the length.  The kernel holds the prefix reversed
    at the right end of a buffer of `length` positions; the traversal puts
    and takes each character but the last of a full-length word, which the
    search puts to check it.
    """
    _check_shape(kind, length, m, holes)
    if budget < 1:
        raise ValueError("budget must allow at least one node")
    put, take, occurrences = _walker(kind, m, syms[::-1], length)
    chars = [HOLE] * length
    nodes = deepest = 0
    prefixes = _prefixes(kind, m, holes, chars, put, take)
    for depth, _ in prefixes:
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(f"search exceeded {budget} nodes",
                                      needed=nodes, budget=budget)
        if depth == length:
            put(chars[-1])
            if not occurrences(0, True):
                return SearchStatus.FOUND, chars, nodes, length
            take()
        elif occurrences(length - depth, True):
            prefixes.send(True)
        elif depth > deepest:
            deepest = depth
    return SearchStatus.EXHAUSTED, chars, nodes, deepest


def find_avoiding(kind: CountKind, p: Pattern, m: int, length: int,
                  holes: int | None = None,
                  budget: int = DEFAULT_NODE_BUDGET) -> SearchOutcome:
    """Depth-first search for a length-`length` word avoiding p under `kind`.

    For partial kinds the hole behaves as an extra character; when `holes` is
    given the witness must use exactly that many.  Only words in
    first-occurrence form are tried, the oracle's rule: letter c comes only
    after 0, ..., c - 1.  Letter permutations preserve all four counting
    conventions and every hole, so some avoiding word of the shape has that
    form if any does.  The witness is the least avoiding word in the order
    a < b < ... < hole, because the least one already has that form: at its
    first letter c past the next unused letter t, swapping c and t throughout
    would give a smaller one.  Trying more than `budget` characters raises
    BudgetExceededError.
    """
    status, chars, nodes, _ = _search(kind, p.symbols, m, length, holes, budget)
    if status is SearchStatus.FOUND:
        witness = (PartialWord if kind in PARTIAL_KINDS else Word)(tuple(chars), m)
        if count(kind, witness, p) != 0:
            raise RuntimeError("witness failed oracle re-verification")
        return SearchOutcome(SearchStatus.FOUND, witness, nodes)
    return SearchOutcome(status, None, nodes)


def exact_ramsey_length(kind: CountKind, p: Pattern, m: int, n_max: int,
                        budget: int = DEFAULT_NODE_BUDGET) -> int | None:
    """Smallest L <= n_max such that every length-L word encounters p, or None.

    Computed by one depth-first search for the deepest avoiding prefix; the
    answer is one more than the longest avoiding word.  None means avoiding
    words exist all the way up to n_max.  Exceeding the budget raises, so a
    None result is always a definite statement about lengths up to n_max.
    """
    if kind not in (CountKind.FULL, CountKind.ABELIAN):
        raise ValueError("exact forcing lengths cover FULL and ABELIAN")
    status, _, _, deepest = _search(kind, p.symbols, m, n_max, None, budget)
    if status is SearchStatus.FOUND:
        return None
    return deepest + 1
