"""Numerical laboratory for projected Gaussian state ensembles and equilibration bounds.

The package has three layers: samplers for the Gaussian, adjusted, and
projected ensembles attached to a density matrix (`sampling`), exact
spectral and moment machinery (`spectra`, `moments`, `dynamics`), and a
scenario driver that verifies every implemented bound by Monte Carlo and
writes deterministic JSON reports (`scenarios`, `runner`, `cli`).

The root exports only ``__version__``: import every other name from its
module, whose ``__all__`` is the one list of what it exports.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
