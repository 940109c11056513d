"""The public API, pinned: a change to `patstats.__all__` must show up here."""

import patstats

PUBLIC_NAMES = [
    "AbelianConstant", "AsymptoticMean", "BivariateSeries", "BoundValue",
    "BudgetExceededError", "CountKind", "HOLE", "MeanKind", "PartialWord",
    "Pattern", "PatternSignature", "SearchBudget", "SearchOutcome", "SearchStatus",
    "Series", "ToleranceError", "Word", "ZiminUpperMode", "abelian_constant",
    "abelian_rs_approx_mean", "avoidance_threshold", "coeff", "count",
    "count_abelian", "count_full", "count_partial", "double_uparrow",
    "exact_avoidance_threshold", "exact_ramsey_length", "find_avoiding",
    "mean_asymptotic", "mean_exact", "multinomial_power_sum", "ogf_bivariate",
    "ogf_build", "population_size", "signature", "total_count", "zeta",
    "zimin", "zimin_lower", "zimin_signature", "zimin_upper",
]


def test_every_public_name_resolves():
    missing = [name for name in patstats.__all__ if not hasattr(patstats, name)]
    assert missing == []


def test_public_names_are_pinned():
    assert sorted(patstats.__all__) == PUBLIC_NAMES
