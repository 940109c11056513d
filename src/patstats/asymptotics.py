"""Closed-form leading-term evaluators for mean occurrence counts.

Every evaluator returns the leading term only; the vanishing correction factors
the exact means carry at finite n are dropped throughout, and the convergence
of exact/asymptotic ratios is exercised by the test suite instead.

The mean number of occurrences in a length-n word over m letters is

    n^(s+1) / (s+1)!  *  product over repeated variables (multiplicity k) of F(k)

with the kind-specific factor

    FULL      1 / (m^(k-1) - 1)
    PARTIAL   (m 2^k - m + 1) / ((m+1)^k - (m 2^k - m + 1))
    STRICT    same as PARTIAL (conditioning on at least one hole does not move
              the leading term)
    DENSITY   ([1+d(m-1)]^k - (1-1/m)(md)^k) / (m^(k-1) - [1+d(m-1)]^k + (1-1/m)(md)^k)
    ABELIAN   sum_{l>=1} M(l, m, k) / m^(kl)   (m >= 4; truncated with a tail bound)
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .errors import ToleranceError
from .genfunc import _mps_terms
from .words import Pattern, PatternSignature, signature

ABELIAN_TERM_CAP = 10_000
DEFAULT_ABELIAN_EPS = 1e-9


class MeanKind(enum.Enum):
    FULL = "full"
    ABELIAN = "abelian"
    PARTIAL = "partial"
    STRICT = "strict"
    DENSITY = "density"


@dataclass(frozen=True)
class AbelianConstant:
    """Truncated per-variable abelian factor with its truncation evidence."""

    value: float
    terms: int
    tail_bound: float
    eps: float


@dataclass(frozen=True)
class AsymptoticMean:
    value: float
    kind: MeanKind
    sig: PatternSignature
    m: int
    n: int
    d: Fraction | None = None
    abelian_factors: tuple[AbelianConstant, ...] = ()


def _abelian_tail_bound(m: int, last: int) -> float:
    # integral bound for sum_{l > last} m^(m/2) (4 pi l)^((1-m)/2); finite only for m >= 4
    log_bound = (0.5 * m * math.log(m)
                 + 0.5 * (1 - m) * math.log(4 * math.pi)
                 + 0.5 * (3 - m) * math.log(last)
                 + math.log(2.0 / (m - 3)))
    return math.exp(log_bound)


def abelian_constant(m: int, k: int, eps: float = DEFAULT_ABELIAN_EPS) -> AbelianConstant:
    """sum_{l>=1} M(l, m, k)/m^(kl), truncated once the tail is provably below eps.

    Terms are exact integers converted one at a time; summation stops at the
    first l where both the integral tail bound and the last included term fall
    below eps relative to the partial sum.  Hitting the term cap first raises
    ToleranceError carrying the partial sum.
    """
    if m < 4:
        raise ValueError("abelian factors need an alphabet of at least 4 letters")
    if k < 2:
        raise ValueError("abelian factors apply to repeated variables (k >= 2)")
    if eps <= 0:
        raise ValueError("tolerance must be positive")
    total = 0.0
    step = m ** k
    denom = 1
    floor = _abelian_tail_bound(m, ABELIAN_TERM_CAP)
    weights = _mps_terms(m, k)
    next(weights)  # M(0, m, k) = 1 is not a term of the sum
    for ell, weight in zip(range(1, ABELIAN_TERM_CAP + 1), weights):
        denom *= step
        term = weight / denom
        total += term
        tail = _abelian_tail_bound(m, ell)
        if tail <= eps * total and term <= eps * total:
            return AbelianConstant(total, ell, tail, eps)
        # the bound can never drop below its value at the cap, and the sum
        # can never exceed total + tail; bail out early once eps is hopeless
        if floor > eps * (total + tail):
            raise ToleranceError(
                f"abelian factor for m={m}, k={k} cannot reach eps={eps} "
                f"within {ABELIAN_TERM_CAP} terms", partial=total, terms=ell)
    raise ToleranceError(
        f"abelian factor for m={m}, k={k} did not reach eps={eps} "
        f"within {ABELIAN_TERM_CAP} terms", partial=total, terms=ABELIAN_TERM_CAP)


def _density_factor(m: int, k: int, d: Fraction) -> float:
    # exact rational arithmetic up to the final conversion
    filled = (1 + d * (m - 1)) ** k
    holed = Fraction(m - 1, m) * (m * d) ** k
    num = filled - holed
    den = m ** (k - 1) - num
    if den <= 0:
        raise ValueError("density factor denominator vanished (one-letter alphabet or d too close to 1)")
    return float(num / den)


def _kind_factor(kind: MeanKind, m: int, k: int, d: Fraction | None,
                 eps: float) -> tuple[float, AbelianConstant | None]:
    if kind is MeanKind.FULL:
        den = m ** (k - 1) - 1
        if den == 0:
            raise ValueError("full-word factor diverges for a one-letter alphabet")
        return 1 / den, None  # int/int stays exact until the final rounding
    if kind in (MeanKind.PARTIAL, MeanKind.STRICT):
        num = m * 2 ** k - m + 1
        den = (m + 1) ** k - num
        if den <= 0:
            raise ValueError("partial factor diverges for a one-letter alphabet")
        return num / den, None
    if kind is MeanKind.DENSITY:
        return _density_factor(m, k, d), None
    if kind is MeanKind.ABELIAN:
        const = abelian_constant(m, k, eps)
        return const.value, const
    raise ValueError(f"unsupported kind {kind}")


def mean_asymptotic(kind: MeanKind, p: Pattern, m: int, n: int,
                    d: Fraction | None = None,
                    eps: float = DEFAULT_ABELIAN_EPS) -> AsymptoticMean:
    """Leading-term mean occurrence count of p for the requested word model."""
    if m < 1:
        raise ValueError("alphabet size must be >= 1")
    if n < 1:
        raise ValueError("word length must be >= 1")
    if kind is MeanKind.ABELIAN and m < 4:
        raise ValueError("abelian mean needs an alphabet of at least 4 letters")
    if kind is MeanKind.DENSITY:
        if d is None or not 0 < d < 1:
            raise ValueError("hole density d must lie strictly between 0 and 1")
        if not isinstance(d, Fraction):
            d = Fraction(d)
        if (n * d).denominator != 1:
            warnings.warn(f"n*d = {n * d} is not an integer hole count", stacklevel=2)
    elif d is not None:
        raise ValueError("hole density only applies to the DENSITY kind")

    sig = signature(p)
    value = n ** (sig.s + 1) / math.factorial(sig.s + 1)
    # one factor per distinct multiplicity, in first-occurrence order so the
    # same variable's failure is raised first; the product keeps pattern order
    factors = {k: _kind_factor(kind, m, k, d, eps) for k in dict.fromkeys(sig.repeated)}
    consts = []
    for k in sig.repeated:
        factor, const = factors[k]
        value *= factor
        if const is not None:
            consts.append(const)
    return AsymptoticMean(value=value, kind=kind, sig=sig, m=m, n=n, d=d,
                          abelian_factors=tuple(consts))


def zeta(s: float, tol: float = 1e-12) -> float:
    """Riemann zeta for s > 1 by direct summation with an integral tail correction.

    Euler-Maclaurin endpoint terms are added so the stated tolerance is met
    with a modest cutoff even for s close to 1.5.
    """
    if s <= 1:
        raise ValueError("zeta summation requires s > 1")
    cutoff = 64
    while True:
        # magnitude of the first omitted correction term
        err = s * (s + 1) * (s + 2) * cutoff ** (-s - 3) / 720.0
        if err <= tol or cutoff > 2 ** 24:
            break
        cutoff *= 2
    partial = sum(i ** -s for i in range(1, cutoff + 1))
    tail = cutoff ** (1 - s) / (s - 1) - 0.5 * cutoff ** -s + s * cutoff ** (-s - 1) / 12.0
    return partial + tail


def abelian_rs_approx_mean(p: Pattern, m: int, n: int) -> float:
    """Large-block approximation of the abelian mean for squared variables.

    Replaces every abelian factor with its l -> infinity envelope
    m^(m/2) (4 pi)^((1-m)/2) zeta((m-1)/2), which is only meaningful when each
    repeated variable occurs exactly twice.  The envelope grossly overestimates
    the small-l terms, so this is a separate, clearly-labelled operation and
    not a substitute for mean_asymptotic(ABELIAN, ...).
    """
    if m < 4:
        raise ValueError("the approximation needs an alphabet of at least 4 letters")
    sig = signature(p)
    if any(k != 2 for k in sig.repeated):
        raise ValueError("the approximation only covers variables repeated exactly twice")
    envelope = m ** (m / 2.0) * (4 * math.pi) ** ((1 - m) / 2.0) * zeta((m - 1) / 2.0)
    value = n ** (sig.s + 1) / math.factorial(sig.s + 1)
    return value * envelope ** len(sig.repeated)
