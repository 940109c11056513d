"""Backtracking search for avoiding words and exact forcing lengths at desk scale.

The search extends a word one character at a time and prunes as soon as the
newly completed position closes an occurrence of the pattern, so only suffix
factors ending at the last position are ever rechecked; that check is the
oracle's occurrence kernel in exists mode.  Found witnesses are re-verified
against the oracle's count before being returned.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass

from .errors import BudgetExceededError
from .oracle import CountKind, PARTIAL_KINDS, _walker, count
from .words import HOLE, Pattern, PartialWord, Word


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = 2_000_000
    wall_clock_hint_s: float | None = None

    def __post_init__(self):
        if self.max_nodes < 1:
            raise ValueError("budget must allow at least one node")


class SearchStatus(enum.Enum):
    FOUND = "found"
    EXHAUSTED = "exhausted"
    BUDGET_EXCEEDED = "budget-exceeded"


@dataclass(frozen=True)
class SearchOutcome:
    status: SearchStatus
    witness: Word | PartialWord | None
    nodes: int


def _closes_occurrence(chars: list[int], end: int, syms: tuple[int, ...],
                       m: int, kind: CountKind) -> bool:
    """Does some occurrence of the pattern end exactly at index `end`?"""
    return bool(_walker(kind, m, syms)(chars, end + 1))


def _wrap(chars: list[int], m: int, kind: CountKind) -> Word | PartialWord:
    if kind in PARTIAL_KINDS:
        return PartialWord(tuple(chars), m)
    return Word(tuple(chars), m)


def find_avoiding(kind: CountKind, p: Pattern, m: int, length: int,
                  holes: int | None = None,
                  budget: SearchBudget | None = None) -> SearchOutcome:
    """Depth-first search for a length-`length` word avoiding p under `kind`.

    For partial kinds the hole behaves as an extra character; when `holes` is
    given the witness must use exactly that many.  The first character is
    symmetry-broken to letter 0 (or a hole), which is sound because letter
    permutations preserve all four counting conventions.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    if holes is not None:
        if kind not in PARTIAL_KINDS:
            raise ValueError("hole budget only applies to partial kinds")
        if not 0 <= holes <= length:
            raise ValueError("holes must lie in [0, length]")
    budget = budget or SearchBudget()
    partial = kind in PARTIAL_KINDS
    syms = p.symbols
    chars: list[int] = []
    nodes = 0
    started = time.monotonic()

    def out_of_time() -> bool:
        return (budget.wall_clock_hint_s is not None
                and nodes % 4096 == 0
                and time.monotonic() - started > budget.wall_clock_hint_s)

    def candidates(depth: int, used_holes: int) -> list[int]:
        letters = [0] if depth == 0 else list(range(m))
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
        nonlocal nodes
        if depth == length:
            return SearchStatus.FOUND
        for c in candidates(depth, used_holes):
            nodes += 1
            if nodes > budget.max_nodes or out_of_time():
                return SearchStatus.BUDGET_EXCEEDED
            chars.append(c)
            if not _closes_occurrence(chars, depth, syms, m, kind):
                status = dfs(depth + 1, used_holes + (c == HOLE))
                if status is not SearchStatus.EXHAUSTED:
                    return status
            chars.pop()
        return SearchStatus.EXHAUSTED

    status = dfs(0, 0)
    if status is SearchStatus.FOUND:
        witness = _wrap(chars, m, kind)
        if count(kind, witness, p) != 0:
            raise RuntimeError("witness failed oracle re-verification")
        return SearchOutcome(SearchStatus.FOUND, witness, nodes)
    return SearchOutcome(status, None, nodes)


def exact_ramsey_length(kind: CountKind, p: Pattern, m: int, n_max: int,
                        budget: SearchBudget | None = None) -> int | None:
    """Smallest L <= n_max such that every length-L word encounters p, or None.

    Computed by one depth-first search for the deepest avoiding prefix; the
    answer is one more than the longest avoiding word.  None means avoiding
    words exist all the way up to n_max.  Exceeding the budget raises, so a
    None result is always a definite statement about lengths up to n_max.
    """
    if kind not in (CountKind.FULL, CountKind.ABELIAN):
        raise ValueError("exact forcing lengths cover FULL and ABELIAN")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    budget = budget or SearchBudget()
    syms = p.symbols
    chars: list[int] = []
    nodes = 0
    deepest = 0

    def dfs(depth: int) -> bool:
        """True when an avoiding word of length n_max was reached."""
        nonlocal nodes, deepest
        if depth == n_max:
            return True
        for c in ([0] if depth == 0 else range(m)):
            nodes += 1
            if nodes > budget.max_nodes:
                raise BudgetExceededError(
                    f"forcing-length search exceeded {budget.max_nodes} nodes",
                    needed=nodes, budget=budget.max_nodes)
            chars.append(c)
            if not _closes_occurrence(chars, depth, syms, m, kind):
                deepest = max(deepest, depth + 1)
                if dfs(depth + 1):
                    return True
            chars.pop()
        return False

    if dfs(0):
        return None
    return deepest + 1
