"""Closed-form leading-term evaluators for mean occurrence counts.

Every evaluator returns the leading term only; the vanishing correction factors
the exact means carry at finite n are dropped throughout, and the convergence
of exact/asymptotic ratios is exercised by the test suite instead.

The mean number of occurrences in a length-n word over m letters is C n^(s+1),

    C = product over repeated variables (multiplicity k) of F(k)  /  (s+1)!

with the kind-specific factor

    FULL      1 / (m^(k-1) - 1)
    PARTIAL   (m 2^k - m + 1) / ((m+1)^k - (m 2^k - m + 1))
    STRICT    same as PARTIAL (conditioning on at least one hole does not move
              the leading term)
    DENSITY   ([1+d(m-1)]^k - (1-1/m)(md)^k) / (m^(k-1) - [1+d(m-1)]^k + (1-1/m)(md)^k)
    ABELIAN   sum_{l>=1} M(l, m, k) / m^(kl)   (m >= 4; truncated with a tail bound)

C is carried as ln C, which the first-moment thresholds in bounds.py also read:
the length where C n^(s+1) reaches 1 is exp(-ln C / (s+1)).
"""

from __future__ import annotations

import enum
import math
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .errors import ToleranceError
from .genfunc import _mps_terms
from .words import Pattern, PatternSignature, signature

ABELIAN_TERM_CAP = 10_000
DEFAULT_ABELIAN_EPS = 1e-9
ZETA_TOL = 1e-12  # bound on zeta's first omitted Euler-Maclaurin term


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
    abelian_factors: tuple[AbelianConstant, ...] = ()


def _abelian_tail_bound(m: int, k: int, last: int) -> float:
    # integral bound for sum_{l > last} m^(m/2) (4 pi l)^((1-m)/2), the envelope of the
    # k = 2 terms; finite only for m >= 4.  A term is sum p^k over the multinomial
    # probabilities p, at most p_max^(k-2) sum p^2, and p_max never grows with l.
    log_bound = (0.5 * m * math.log(m)
                 + 0.5 * (1 - m) * math.log(4 * math.pi)
                 + 0.5 * (3 - m) * math.log(last)
                 + math.log(2.0 / (m - 3)))
    bound = math.exp(log_bound)
    if k > 2:
        bound *= _mode_probability(m, last + 1) ** (k - 2)
    return bound


def _mode_probability(m: int, ell: int) -> float:
    """The largest multinomial probability ell!/(n_1! ... n_m!)/m^ell, rounded up.

    The most balanced composition (parts q and q + 1, with q, r = divmod(ell, m))
    attains it.
    """
    q, r = divmod(ell, m)
    num = math.factorial(ell)
    den = math.factorial(q) ** (m - r) * math.factorial(q + 1) ** r * m ** ell
    value = num / den
    a, b = value.as_integer_ratio()
    return value if a * den >= num * b else math.nextafter(value, math.inf)


def _ln_mode_probability_below(m: int, ell: int) -> float:
    # ln of _mode_probability from lgamma, shifted down past its rounding error;
    # only decides when to give up
    q, r = divmod(ell, m)
    return (math.lgamma(ell + 1) - (m - r) * math.lgamma(q + 1) - r * math.lgamma(q + 2)
            - ell * math.log(m) - 1e-6)


def abelian_constant(m: int, k: int, eps: float = DEFAULT_ABELIAN_EPS) -> AbelianConstant:
    """sum_{l>=1} M(l, m, k)/m^(kl), truncated once the tail is provably below eps.

    Terms are exact integers converted one at a time; summation stops at the
    first l where both the tail bound and the last included term fall below
    eps relative to the partial sum.  The tail bound is the integral bound on
    the k = 2 envelope, times p_max(l+1)^(k-2) for k > 2, where p_max(l) is the
    largest multinomial probability of length l, so higher powers stop after
    a few terms.  Hitting the term cap first, or a bound that cannot reach eps
    even there, raises ToleranceError carrying the partial sum.
    """
    if m < 4:
        raise ValueError("abelian factors need an alphabet of at least 4 letters")
    if k < 2:
        raise ValueError("abelian factors apply to repeated variables (k >= 2)")
    if not eps > 0:  # NaN too
        raise ValueError("tolerance must be positive")
    total = 0.0
    step = m ** k
    denom = 1
    floor = _abelian_tail_bound(m, 2, ABELIAN_TERM_CAP) * math.exp(
        (k - 2) * _ln_mode_probability_below(m, ABELIAN_TERM_CAP + 1))
    weights = _mps_terms(m, k)
    next(weights)  # M(0, m, k) = 1 is not a term of the sum
    for ell, weight in zip(range(1, ABELIAN_TERM_CAP + 1), weights):
        denom *= step
        term = weight / denom
        total += term
        tail = _abelian_tail_bound(m, k, ell)
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


def _ln_factor(kind: MeanKind, m: int, k: int, d: Fraction | None,
               eps: float) -> tuple[float, AbelianConstant | None]:
    """ln F(k) for one repeated variable of multiplicity k, and its abelian constant.

    Evaluated in log space, so k may be far too large for m^k to be built (the
    Zimin signatures reach k = 2^(i-1)); an ABELIAN sum whose first term
    m^(1-k) is below every normal float is that term, to within an ulp of its log.
    Every other kind has the form F = y / (1 - y) with x = ln y; x >= 0 raises:
    the mean then outgrows n^(s+1) and has no leading term of that order.
    """
    if kind is MeanKind.ABELIAN:
        ln_first = (1 - k) * math.log(m)
        if ln_first < math.log(sys.float_info.min):
            return ln_first, AbelianConstant(math.exp(ln_first), 1, _abelian_tail_bound(m, k, 1), eps)
        const = abelian_constant(m, k, eps)
        return math.log(const.value), const
    if kind is MeanKind.FULL:
        # y = m^(1-k)
        x = -((k - 1) * math.log(m))
    elif kind in (MeanKind.PARTIAL, MeanKind.STRICT):
        # y = (m 2^k - m + 1) / (m+1)^k
        x = math.log(m) + k * math.log(2)
        if k < 1020:  # below this the correction is representable at all
            x += math.log1p((1 - m) / (m * 2 ** k))
        x -= k * math.log(m + 1)
    elif kind is MeanKind.DENSITY:
        # y = ([1+d(m-1)]^k - (1-1/m)(md)^k) / m^(k-1)
        df = float(d)
        ln_fill = k * math.log1p(df * (m - 1))
        ratio = (1 - 1 / m) * math.exp(k * (math.log(m * df) - math.log1p(df * (m - 1))))
        x = ln_fill + math.log1p(-ratio) - (k - 1) * math.log(m)
    else:
        raise ValueError(f"unsupported kind {kind}")
    if x >= 0:
        raise ValueError("factor diverges (one-letter alphabet, or d too close to 1)")
    return x - math.log1p(-math.exp(x)), None


def _ln_coefficient(kind: MeanKind, sig: PatternSignature, m: int, d: Fraction | None,
                    eps: float) -> tuple[float, tuple[AbelianConstant, ...]]:
    """ln C of the leading term C n^(s+1), C = product of F(k) / (s+1)!, and the
    abelian constants behind it, one per repeated variable in pattern order.

    Holds the input checks that the means and the thresholds share.  Each
    distinct multiplicity's factor is computed once, in first-occurrence order,
    so the same variable's failure is raised first.
    """
    if m < 1:
        raise ValueError("alphabet size must be >= 1")
    if kind is MeanKind.ABELIAN and m < 4:
        raise ValueError("abelian factors need an alphabet of at least 4 letters")
    if kind is MeanKind.ABELIAN and not eps > 0:  # not every factor calls abelian_constant
        raise ValueError("tolerance must be positive")
    if kind is MeanKind.DENSITY:
        if d is None or not 0 < d < 1:
            raise ValueError("hole density d must lie strictly between 0 and 1")
    elif d is not None:
        raise ValueError("hole density only applies to the DENSITY kind")
    factors = {k: _ln_factor(kind, m, k, d, eps) for k in dict.fromkeys(sig.repeated)}
    ln_c = -math.lgamma(sig.s + 2)  # -ln((s+1)!)
    consts = []
    for k in sig.repeated:
        ln_f, const = factors[k]
        ln_c += ln_f
        if const is not None:
            consts.append(const)
    return ln_c, tuple(consts)


def mean_asymptotic(kind: MeanKind, p: Pattern, m: int, n: int,
                    d: Fraction | None = None,
                    eps: float = DEFAULT_ABELIAN_EPS) -> AsymptoticMean:
    """Leading-term mean occurrence count C n^(s+1) of p for the requested word
    model; a mean past float range is inf."""
    if n < 1:
        raise ValueError("word length must be >= 1")
    sig = signature(p)
    ln_c, consts = _ln_coefficient(kind, sig, m, d, eps)
    if d is not None and (hole_count := n * Fraction(d)).denominator != 1:
        warnings.warn(f"n*d = {hole_count} is not an integer hole count", stacklevel=2)
    try:
        value = math.exp((sig.s + 1) * math.log(n) + ln_c)
    except OverflowError:
        value = math.inf
    return AsymptoticMean(value=value, abelian_factors=consts)


def zeta(s: float) -> float:
    """Riemann zeta for s > 1 by direct summation with an integral tail correction.

    Euler-Maclaurin endpoint terms are added so that ZETA_TOL is met with a
    modest cutoff even for s close to 1.5.
    """
    if s <= 1:
        raise ValueError("zeta summation requires s > 1")
    cutoff = 64
    while True:
        # magnitude of the first omitted correction term
        err = s * (s + 1) * (s + 2) * cutoff ** (-s - 3) / 720.0
        if err <= ZETA_TOL or cutoff > 2 ** 24:
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
