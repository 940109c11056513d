"""Backtracking search for avoiding words and exact forcing lengths at desk scale.

One depth-first search serves both answers.  It extends a word one character
at a time and prunes as soon as the new last character closes an occurrence
of the pattern.  Every shorter prefix was already checked, so only the
occurrences that end at the last position are looked for: the oracle's
occurrence kernel in exists mode, built once per search, which walks the word
reversed with the reversed pattern from that position alone.  Found witnesses
are re-verified against the oracle's count before being returned.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import BudgetExceededError
from .oracle import CountKind, PARTIAL_KINDS, _check_shape, _walker, count
from .words import HOLE, Pattern, PartialWord, Word

DEFAULT_NODE_BUDGET = 2_000_000


class SearchStatus(enum.Enum):
    FOUND = "found"
    EXHAUSTED = "exhausted"
    BUDGET_EXCEEDED = "budget-exceeded"


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
    nodes counts the characters tried, the one past the budget included, and
    deepest is the length of the longest avoiding prefix reached.  One loop
    over a stack of the untried candidates per depth, read off the prefix, so
    nothing but the node budget limits the length.
    """
    _check_shape(kind, length, m, holes)
    if budget < 1:
        raise ValueError("budget must allow at least one node")
    occurrences = _walker(kind, m, syms)
    partial = kind in PARTIAL_KINDS
    chars: list[int] = []
    stack: list[list[int]] = []
    nodes = deepest = 0
    while True:
        if len(stack) == len(chars):  # chars avoids syms: open the next depth
            deepest = max(deepest, len(chars))
            if len(chars) == length:
                return SearchStatus.FOUND, chars, nodes, deepest
            # the letters of first-occurrence form (see find_avoiding), least
            # last since candidates are taken from the end; HOLE is -1
            untried = list(range(min(max(chars, default=HOLE) + 1, m - 1), -1, -1))
            due = None if holes is None else holes - chars.count(HOLE)  # holes to place
            if partial and (due is None or 0 < due < length - len(chars)):
                untried.insert(0, HOLE)
            elif partial and due:  # every position left must take a hole
                untried = [HOLE]
            stack.append(untried)
        if not stack[-1]:  # every candidate here is spent: back up
            stack.pop()
            if not chars:
                return SearchStatus.EXHAUSTED, chars, nodes, deepest
            chars.pop()
            continue
        nodes += 1
        if nodes > budget:
            return SearchStatus.BUDGET_EXCEEDED, chars, nodes, deepest
        chars.append(stack[-1].pop())
        if occurrences(chars, len(chars)):
            chars.pop()


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
    would give a smaller one.
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
    status, _, nodes, deepest = _search(kind, p.symbols, m, n_max, None, budget)
    if status is SearchStatus.BUDGET_EXCEEDED:
        raise BudgetExceededError(f"forcing-length search exceeded {budget} nodes",
                                  needed=nodes, budget=budget)
    if status is SearchStatus.FOUND:
        return None
    return deepest + 1
