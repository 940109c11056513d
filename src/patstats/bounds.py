"""Ramsey-length bound calculators.

Lower bounds come from the first-moment method: when the mean occurrence count
over a population is below 1, some member has none, so avoiding words exist up
to (roughly) the length where the mean crosses 1.  The asymptotic thresholds
drop the vanishing corrections and are heuristic; exact_avoidance_threshold is
the rigorous counterpart built on exact series coefficients.  The upper bound
for the Zimin patterns is the classical doubling recursion; its far looser
tetration envelope m^^(2i - 1) is double_uparrow(m, 2 * i - 1).  Both mark
overflow past a configurable digit cap.
"""

from __future__ import annotations

import decimal
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .asymptotics import DEFAULT_ABELIAN_EPS, MeanKind, _ln_coefficient
from .errors import BudgetExceededError
from .genfunc import _occurrence_terms
from .oracle import CountKind, population_size
from .words import Pattern, PatternSignature, signature

DEFAULT_DIGIT_CAP = 1_000_000
DEFAULT_SERIES_BUDGET = 2_000

_LOG2_10 = math.log2(10)
_SPLIT_BITS = 128  # _decimal converts parts of at most this many bits directly


def _reaches_cap(value: int, cap: int) -> bool:
    """value >= 10**cap for a nonnegative value and cap.

    Decided from value's bit length against cap * log2(10); 10**cap, which has
    over three million bits at the default cap, is built only when the bit
    length lies within two bits of that edge, so the answer stays exact.
    """
    bits = value.bit_length()
    edge = cap * _LOG2_10
    if bits < edge - 2:
        return False  # value < 2**bits < 10**cap
    if bits > edge + 2:
        return True  # value >= 2**(bits - 1) > 10**cap
    return value >= 10 ** cap


def _decimal(value: int) -> str:
    """Every digit of value >= 0; the digit cap, not the interpreter's int-to-str
    limit, bounds how long a bound may be.

    Below that limit this is str(value).  Above it, str would refuse, and is
    quadratic in the digit count anyway: value is split in binary, each half
    converted to a Decimal, and the halves recombined as hi * 2^w + lo in
    decimal arithmetic at full precision, whose multiplication is
    subquadratic (the method of CPython 3.12's _pylong module).  str of a
    Decimal has no digit limit.
    """
    limit = sys.get_int_max_str_digits()
    if not limit or not _reaches_cap(value, limit):
        return str(value)
    powers = {}  # w -> Decimal(2) ** w, shared by the halves of one width

    def power(w: int) -> decimal.Decimal:
        if w not in powers:
            powers[w] = (decimal.Decimal(2) ** w if w <= _SPLIT_BITS
                         else power(w >> 1) * power(w - (w >> 1)))
        return powers[w]

    def convert(n: int, w: int) -> decimal.Decimal:
        if w <= _SPLIT_BITS:
            return decimal.Decimal(n)
        half = w >> 1
        hi = n >> half
        return convert(n - (hi << half), half) + convert(hi, w - half) * power(half)

    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        return str(convert(value, value.bit_length()))


@dataclass(frozen=True)
class BoundValue:
    """Either an exact nonnegative integer or a marker that it outgrew the digit cap."""

    exact: int | None
    overflow_cap: int | None

    @classmethod
    def of(cls, value: int) -> "BoundValue":
        return cls(exact=value, overflow_cap=None)

    @classmethod
    def overflow(cls, cap: int) -> "BoundValue":
        return cls(exact=None, overflow_cap=cap)

    @property
    def is_exact(self) -> bool:
        return self.exact is not None

    def __str__(self):
        if self.is_exact:
            return _decimal(self.exact)
        return f"overflow(>{self.overflow_cap} digits)"


def _guarded_power(base: int, exponent: int, cap: int) -> int | None:
    """base**exponent for base >= 2 if its digit count can stay within cap, else None."""
    # base**exponent has about exponent * log2(base) bits; dividing instead of
    # multiplying keeps a huge exponent out of float range
    if exponent > (cap * _LOG2_10 + 3) / math.log2(base):
        return None
    value = base ** exponent
    return None if _reaches_cap(value, cap) else value


def double_uparrow(x: int, y: int, cap: int = DEFAULT_DIGIT_CAP) -> BoundValue:
    """x double-up-arrow y (the power tower of y copies of x), digit-capped."""
    if x < 1 or y < 0:
        raise ValueError("double up-arrow needs x >= 1 and y >= 0")
    if cap < 1:
        raise ValueError("digit cap must be >= 1")
    if x == 1:  # a tower of ones is 1 at any height
        return BoundValue.of(1)
    value = 1
    for _ in range(y):
        value = _guarded_power(x, value, cap)
        if value is None:
            return BoundValue.overflow(cap)
    return BoundValue.of(value)


def zimin_upper(m: int, i: int, cap: int = DEFAULT_DIGIT_CAP) -> BoundValue:
    """Upper bound on the forcing length for the i-th Zimin pattern over m letters.

    Iterates L -> m^L (L + 1) + L from the exact base L = 2m + 1.  The far
    looser tetration envelope m^^(2i - 1) is double_uparrow(m, 2 * i - 1).
    """
    if m < 2 or i < 2:
        raise ValueError("zimin upper bounds need m >= 2 and i >= 2")
    if cap < 1:
        raise ValueError("digit cap must be >= 1")
    bound = 2 * m + 1
    # m^L >= L, so once L reaches the cap the next power does too
    for _ in range(i - 2):
        power = _guarded_power(m, bound, cap)
        if power is None:
            return BoundValue.overflow(cap)
        bound = power * (bound + 1) + bound
    return BoundValue.overflow(cap) if _reaches_cap(bound, cap) else BoundValue.of(bound)


def zimin_signature(i: int) -> PatternSignature:
    """Signature of the i-th Zimin pattern without materializing its 2^i - 1 symbols."""
    if i < 1:
        raise ValueError("zimin index must be >= 1")
    return PatternSignature(tuple(2 ** j for j in range(i)))


def _threshold_from_signature(kind: MeanKind, sig: PatternSignature, m: int,
                              d: Fraction | None, eps: float) -> float:
    ln_c, _ = _ln_coefficient(kind, sig, m, d, eps)
    try:
        return math.exp(-ln_c / (sig.s + 1))
    except OverflowError:
        return math.inf


def avoidance_threshold(kind: MeanKind, p: Pattern, m: int,
                        d: Fraction | None = None,
                        eps: float = DEFAULT_ABELIAN_EPS) -> float:
    """First-moment length bound: below it (up to the dropped vanishing factor)
    an avoiding word of the respective kind exists.

    The bound is the length C^(-1/(s+1)) where the leading-term mean C n^(s+1)
    of asymptotics reaches 1 (inf past float range); with no repeated variable
    C = 1/(s+1)! and the trivial bound remains.
    """
    return _threshold_from_signature(kind, signature(p), m, d, eps)


def zimin_lower(kind: MeanKind, m: int, i: int, d: Fraction | None = None,
                eps: float = DEFAULT_ABELIAN_EPS) -> float:
    """First-moment lower bound on the Zimin forcing length (leading term).

    Supports the full-word, abelian, and hole-density variants; the structural
    signature is used, so i may be far too large for the pattern to materialize,
    and the bound is inf at every index whose multiplicities pass float range.
    """
    if kind not in (MeanKind.FULL, MeanKind.ABELIAN, MeanKind.DENSITY):
        raise ValueError("zimin lower bounds cover the full, abelian, and density kinds")
    if i < 2:
        raise ValueError("zimin lower bounds need i >= 2")
    # A multiplicity 2^j with j >= top is past float range, and its factor is 0
    # wherever the smaller ones converge, so past that index the bound is inf;
    # the smaller factors still decide whether the inputs diverge.
    top = sys.float_info.max_exp
    bound = _threshold_from_signature(kind, zimin_signature(min(i, top)), m, d, eps)
    return bound if i <= top else math.inf


def exact_avoidance_threshold(kind: CountKind, p: Pattern, m: int, n_max: int) -> int:
    """Largest n <= n_max with exact mean occurrence count < 1 for every n' <= n.

    Occurrence counts are integers, so a mean below 1 guarantees an avoiding
    object of that length; the totals come from the exact series and the
    populations are counted in closed form, making this bound rigorous.  The
    totals are read one length at a time, and the first mean of at least 1
    (total >= population) ends the scan.  The budget counts the lengths read:
    a scan that would read past DEFAULT_SERIES_BUDGET lengths without meeting
    such a mean raises BudgetExceededError.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    # checks the kind and m
    totals = _occurrence_terms(kind, p, m, min(n_max, DEFAULT_SERIES_BUDGET))
    next(totals)  # length 0
    for n, total in enumerate(totals, 1):
        if total >= population_size(kind, n, m):
            return n - 1
    if n_max > DEFAULT_SERIES_BUDGET:
        raise BudgetExceededError(
            f"series order {n_max} exceeds the budget of {DEFAULT_SERIES_BUDGET}",
            needed=n_max, budget=DEFAULT_SERIES_BUDGET)
    return n_max
