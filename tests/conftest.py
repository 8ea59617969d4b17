"""Shared builders for the test suite.

Everything random is seeded through gaplab.derive_rng so reruns are
bit-identical; helpers here only save repetition, they carry no state.
"""

import numpy as np

from gaplab.sampling import DensityMatrix
from gaplab.spectra import SpectralDecomposition


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    X = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (X + X.conj().T) / 2.0


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


def diagonal_density(probabilities) -> DensityMatrix:
    p = np.asarray(probabilities, dtype=float)
    return DensityMatrix(probabilities=p, basis=np.eye(p.size))


def simple_spectrum(values) -> SpectralDecomposition:
    """Simple levels at the strictly ascending ``values``, with the standard basis as eigenvectors."""
    values = np.asarray(values, dtype=float)
    eye = np.eye(values.size)
    return SpectralDecomposition(values=values, blocks=[eye[:, [i]] for i in range(values.size)])
