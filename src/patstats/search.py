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
    deepest is the length of the longest avoiding prefix reached.
    """
    _check_shape(kind, length, m, holes)
    if budget < 1:
        raise ValueError("budget must allow at least one node")
    occurrences = _walker(kind, m, syms)
    partial = kind in PARTIAL_KINDS
    chars: list[int] = []
    nodes = deepest = 0

    def candidates(depth: int, used_holes: int) -> list[int]:
        # the first letter, after any leading holes, is 0 (see find_avoiding)
        letters = [0] if used_holes == depth else list(range(m))
        if not partial:
            return letters
        remaining = length - depth
        want_hole = holes is None or used_holes < holes
        # with an exact budget every leftover position may still need a hole
        must_hole = holes is not None and holes - used_holes >= remaining
        if must_hole:
            return [HOLE]
        return letters + ([HOLE] if want_hole else [])

    def dfs(depth: int, used_holes: int) -> SearchStatus:
        nonlocal nodes, deepest
        if depth == length:
            return SearchStatus.FOUND
        for c in candidates(depth, used_holes):
            nodes += 1
            if nodes > budget:
                return SearchStatus.BUDGET_EXCEEDED
            chars.append(c)
            if not occurrences(chars, depth + 1):
                deepest = max(deepest, depth + 1)
                status = dfs(depth + 1, used_holes + (c == HOLE))
                if status is not SearchStatus.EXHAUSTED:
                    return status
            chars.pop()
        return SearchStatus.EXHAUSTED

    return dfs(0, 0), chars, nodes, deepest


def find_avoiding(kind: CountKind, p: Pattern, m: int, length: int,
                  holes: int | None = None,
                  budget: int = DEFAULT_NODE_BUDGET) -> SearchOutcome:
    """Depth-first search for a length-`length` word avoiding p under `kind`.

    For partial kinds the hole behaves as an extra character; when `holes` is
    given the witness must use exactly that many.  The first letter, after any
    leading holes, is symmetry-broken to 0, the oracle's rule: letter
    permutations preserve all four counting conventions and every hole, so
    some avoiding word of the shape starts that way if any does.  The witness
    is the least avoiding word in the order a < b < ... < hole, because a least
    word already starts that way: swapping its first letter with 0 would give
    a smaller one.
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
