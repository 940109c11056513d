"""Exact and asymptotic occurrence statistics for patterns in words.

Counting oracles over full, abelian, and partial words; exact generating-
function coefficients that cross-check them; closed-form leading-term means;
first-moment avoidance bounds with tetration-capped upper bounds; and a
backtracking search producing verified avoiding witnesses.
"""

from .asymptotics import (AbelianConstant, AsymptoticMean, MeanKind,
                          abelian_constant, abelian_rs_approx_mean,
                          mean_asymptotic, zeta)
from .bounds import (BoundValue, avoidance_threshold, double_uparrow,
                     exact_avoidance_threshold, zimin_lower, zimin_signature,
                     zimin_upper)
from .errors import BudgetExceededError, ToleranceError
from .genfunc import coeff, multinomial_power_sum, ogf_bivariate, ogf_build
from .oracle import (CountKind, count, count_abelian, count_full, count_partial,
                     mean_exact, population_size, total_count)
from .search import (SearchOutcome, SearchStatus, exact_ramsey_length,
                     find_avoiding)
from .series import BivariateSeries, Series
from .words import (HOLE, Pattern, PatternSignature, PartialWord, Word,
                    signature, zimin)

__version__ = "0.1.0"

__all__ = [
    "AbelianConstant", "AsymptoticMean", "MeanKind", "abelian_constant",
    "abelian_rs_approx_mean", "mean_asymptotic", "zeta",
    "BoundValue", "avoidance_threshold", "double_uparrow",
    "exact_avoidance_threshold", "zimin_lower", "zimin_signature", "zimin_upper",
    "BudgetExceededError", "ToleranceError",
    "coeff", "multinomial_power_sum", "ogf_bivariate", "ogf_build",
    "CountKind", "count", "count_abelian", "count_full", "count_partial",
    "mean_exact", "population_size", "total_count",
    "SearchOutcome", "SearchStatus", "exact_ramsey_length", "find_avoiding",
    "BivariateSeries", "Series",
    "HOLE", "Pattern", "PatternSignature", "PartialWord", "Word", "signature",
    "zimin",
]
