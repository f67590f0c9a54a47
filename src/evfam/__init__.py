"""Numerical toolkit for simple e-values under exponential-family nulls.

The package centers on one object: the likelihood ratio between two members
of different exponential families that share a sufficient statistic and a
mean.  When the families are ordered in the right way this ratio is an
e-value simultaneously for every null member, and the :mod:`conditions`
battery checks the orderings that make that claim true family-wide.
"""

from __future__ import annotations

from .conditions import (
    ConditionReport,
    GridSpec,
    ItemVerdict,
    growth_rate,
    mean_grid,
    mean_pairs,
    run_condition_battery,
    simple_evalue,
    simple_log_evalue,
)
from .domains import DomainDescriptor, box_domain, full_space, positive_orthant
from .errors import (
    ConvergenceError,
    DataError,
    DomainError,
    EvfamError,
    UnsupportedModelError,
)
from .families import (
    ExpFamilyDescriptor,
    canonical_from_mean,
    covariance_at_canonical,
    covariance_at_mean,
    family_from_root_cumulant,
    kl_between_means,
    log_density,
    log_partition_at,
    mean_from_canonical,
)
from .linear_model import (
    LinearModelDesign,
    LinearModelParams,
    linmodel_evalue,
    linmodel_family,
    linmodel_pairing,
    linmodel_psd_check,
    params_from_mean,
    project_onto_null,
)
from .models import (
    Pairing,
    abm_family,
    abm_vs_poisson,
    gamma_family,
    gaussian_location_constrained,
    gaussian_location_family,
    gaussian_location_pairing,
    gaussian_scale_family,
    gaussian_scale_pairing,
    ig_divergence_threshold,
    ig_regime,
    ig_vs_exp_pairing,
    inverse_gaussian_family,
    ksample_null_family,
    ksample_pairing,
    negbinom_family,
    negbinom_vs_poisson,
    nef_pairing,
    poisson_family,
    tweedie_family,
    tweedie_pair,
)
from .oracles import (
    ExpectationEstimate,
    expect_exact_sum,
    expect_monte_carlo,
    expect_quadrature,
    finite_diff_check,
    poisson_tail_bound,
    psd_test,
)
from .sequential import simulate_two_sample
from .tilt import (
    CarrierAlternative,
    TiltedFamily,
    build_tilted_family,
    f_gap_info,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "EvfamError", "DomainError", "ConvergenceError", "UnsupportedModelError",
    "DataError",
    # domains
    "DomainDescriptor", "box_domain", "positive_orthant", "full_space",
    # families
    "ExpFamilyDescriptor", "family_from_root_cumulant",
    "log_partition_at", "mean_from_canonical", "covariance_at_canonical",
    "covariance_at_mean", "canonical_from_mean", "kl_between_means",
    "log_density",
    # tilting
    "CarrierAlternative", "TiltedFamily", "build_tilted_family",
    "f_gap_info",
    # catalog
    "Pairing", "poisson_family", "gamma_family", "negbinom_family", "abm_family",
    "tweedie_family", "inverse_gaussian_family",
    "gaussian_location_family", "gaussian_scale_family", "ksample_null_family",
    "ksample_pairing", "gaussian_location_pairing", "gaussian_location_constrained",
    "gaussian_scale_pairing", "nef_pairing", "negbinom_vs_poisson", "abm_vs_poisson",
    "tweedie_pair", "ig_vs_exp_pairing", "ig_regime", "ig_divergence_threshold",
    # linear model
    "LinearModelDesign", "LinearModelParams", "linmodel_family", "linmodel_pairing",
    "linmodel_evalue", "linmodel_psd_check", "params_from_mean", "project_onto_null",
    # battery
    "GridSpec", "ItemVerdict", "ConditionReport", "mean_grid", "mean_pairs",
    "run_condition_battery", "simple_evalue", "simple_log_evalue", "growth_rate",
    # oracles
    "ExpectationEstimate", "expect_exact_sum", "expect_quadrature",
    "expect_monte_carlo", "finite_diff_check", "psd_test", "poisson_tail_bound",
    # sequential
    "simulate_two_sample",
]
