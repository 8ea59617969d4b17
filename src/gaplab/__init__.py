"""Numerical laboratory for projected Gaussian state ensembles and equilibration bounds.

The package has three layers: samplers for the Gaussian, adjusted, and
projected ensembles attached to a density matrix (`sampling`), exact
spectral and moment machinery (`spectra`, `moments`, `dynamics`), and a
scenario driver that verifies every implemented bound by Monte Carlo and
writes deterministic JSON reports (`scenarios`, `runner`, `cli`).
"""

from .dynamics import (
    BoundInputs,
    Bounds,
    block_overlap_matrix,
    concentration_tail_bound,
    dephased_power,
    diagonal_ensemble_expectation,
    eigenbasis_observable,
    equilibration_bounds,
    expectation_curve,
    expectation_curve_variance,
    expectation_curve_variance_infinite,
    gap_coefficients,
    gap_phase_matrix,
    infinite_time_average,
    mixture_curve_deviation,
    mixture_expectation_curve,
    overlap_curve,
    phase_quadratic_forms,
)
from .linalg import hermitian_eigendecomposition, operator_norm
from .moments import (
    KIntegralTable,
    VarianceReport,
    gap_expectation,
    gap_variance_bound,
    gap_variance_exact,
    k_integral,
    k_pair_integral,
    k_product_bound,
    k_table,
)
from .runner import CheckRecord, Report, run_scenario, verify_concentration, verify_equilibration
from .sampling import (
    DensityMatrix,
    derive_rng,
    empirical_density_matrix,
    sample_gap,
    sample_gap_diagonal,
    sample_gap_each,
    sample_gap_resampling_oracle,
    sample_gaussian,
)
from .scenarios import ConfigError, Scenario, ScenarioConfig, build_scenario, load_scenario
from .spectra import (
    ContributingSet,
    GapIndex,
    SpectralDecomposition,
    contributing_set,
    spectral_counts,
)

__version__ = "0.1.0"

__all__ = [
    "BoundInputs",
    "Bounds",
    "CheckRecord",
    "ConfigError",
    "ContributingSet",
    "DensityMatrix",
    "GapIndex",
    "KIntegralTable",
    "Report",
    "Scenario",
    "ScenarioConfig",
    "SpectralDecomposition",
    "VarianceReport",
    "block_overlap_matrix",
    "build_scenario",
    "concentration_tail_bound",
    "contributing_set",
    "dephased_power",
    "derive_rng",
    "diagonal_ensemble_expectation",
    "eigenbasis_observable",
    "empirical_density_matrix",
    "equilibration_bounds",
    "expectation_curve",
    "expectation_curve_variance",
    "expectation_curve_variance_infinite",
    "gap_coefficients",
    "gap_expectation",
    "gap_phase_matrix",
    "gap_variance_bound",
    "gap_variance_exact",
    "hermitian_eigendecomposition",
    "infinite_time_average",
    "k_integral",
    "k_pair_integral",
    "k_product_bound",
    "k_table",
    "load_scenario",
    "mixture_curve_deviation",
    "mixture_expectation_curve",
    "operator_norm",
    "overlap_curve",
    "phase_quadratic_forms",
    "run_scenario",
    "sample_gap",
    "sample_gap_diagonal",
    "sample_gap_each",
    "sample_gap_resampling_oracle",
    "sample_gaussian",
    "spectral_counts",
    "verify_concentration",
    "verify_equilibration",
    "__version__",
]
