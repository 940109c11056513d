"""Core domain types: patterns over variables, full words, partial words with holes.

Letters and variables are dense 0-based integer indices.  Textual forms
('a'..'z', digits, a hole character) exist only at parse/format boundaries,
so alphabets larger than 26 letters work and hot loops never touch strings.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Sentinel for an undefined position in a partial word.
HOLE = -1

_ALPHA = "abcdefghijklmnopqrstuvwxyz"


def char_to_letter(c: str) -> int:
    """Map a textual character to a letter index ('a'..'z' -> 0..25, '0'..'9' -> 0..9)."""
    if c.isdigit():
        return int(c)
    i = _ALPHA.find(c)
    if i < 0:
        raise ValueError(f"cannot read character {c!r}: expected a-z or 0-9")
    return i


def letter_to_char(i: int) -> str:
    return _ALPHA[i] if 0 <= i < 26 else f"<{i}>"


@dataclass(frozen=True)
class Pattern:
    """A nonempty sequence of variable ids.

    Construction normalizes variables to first-appearance order (first new
    variable becomes 0, the next 1, ...), so patterns that differ only by a
    renaming of variables compare equal and hash equal.
    """

    symbols: tuple[int, ...]

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("pattern must be nonempty")
        remap: dict[int, int] = {}
        for s in self.symbols:
            if s not in remap:
                remap[s] = len(remap)
        object.__setattr__(self, "symbols", tuple(remap[s] for s in self.symbols))

    @classmethod
    def from_text(cls, text: str) -> "Pattern":
        return cls(tuple(char_to_letter(c) for c in text))

    def to_text(self) -> str:
        return "".join(letter_to_char(s) for s in self.symbols)

    @property
    def num_variables(self) -> int:
        return max(self.symbols) + 1

    def __len__(self) -> int:
        return len(self.symbols)


@dataclass(frozen=True)
class PatternSignature:
    """Multiplicity profile of a pattern.

    mults lists the per-variable occurrence counts in nondecreasing order: r
    distinct variables, of which the first s occur exactly once.
    """

    mults: tuple[int, ...]

    def __post_init__(self):
        if any(b < a for a, b in zip(self.mults, self.mults[1:])):
            raise ValueError("multiplicities must be nondecreasing")

    @property
    def s(self) -> int:
        return self.mults.count(1)

    @property
    def repeated(self) -> tuple[int, ...]:
        """Multiplicities of the variables that occur at least twice."""
        return self.mults[self.s:]


def signature(p: Pattern) -> PatternSignature:
    counts = [0] * p.num_variables
    for s in p.symbols:
        counts[s] += 1
    return PatternSignature(tuple(sorted(counts)))


def zimin(i: int) -> Pattern:
    """The i-th Zimin pattern: Z_1 = a, Z_i = Z_{i-1} a_i Z_{i-1}; length 2^i - 1."""
    if i < 1:
        raise ValueError("zimin index must be >= 1")
    syms: list[int] = [0]
    for v in range(1, i):
        syms = syms + [v] + syms
    return Pattern(tuple(syms))


@dataclass(frozen=True)
class Word:
    """A full word: letters over an alphabet of size m."""

    letters: tuple[int, ...]
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("alphabet size must be >= 1")
        if any(not 0 <= c < self.m for c in self.letters):
            raise ValueError(f"letter out of range for alphabet size {self.m}")

    @classmethod
    def from_text(cls, text: str, m: int) -> "Word":
        return cls(tuple(char_to_letter(c) for c in text), m)

    def to_text(self) -> str:
        return "".join(letter_to_char(c) for c in self.letters)

    def __len__(self) -> int:
        return len(self.letters)


@dataclass(frozen=True)
class PartialWord:
    """A word that may leave positions undefined (holes)."""

    chars: tuple[int, ...]
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("alphabet size must be >= 1")
        if any(c != HOLE and not 0 <= c < self.m for c in self.chars):
            raise ValueError(f"character out of range for alphabet size {self.m}")

    @classmethod
    def from_text(cls, text: str, m: int) -> "PartialWord":
        """Read '.' or '⋄' as a hole."""
        return cls(tuple(HOLE if c in ".⋄" else char_to_letter(c) for c in text), m)

    def to_text(self) -> str:
        return "".join("." if c == HOLE else letter_to_char(c) for c in self.chars)

    def __len__(self) -> int:
        return len(self.chars)

