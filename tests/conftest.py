"""Shared builders for the test suite.

Everything random is seeded through gaplab.derive_rng so reruns are
bit-identical; helpers here only save repetition, they carry no state.
"""

import os

import numpy as np
import pytest

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
    return SpectralDecomposition(values=values, basis_matrix=np.eye(values.size), multiplicities=np.ones(values.size, dtype=int))


def with_cores(monkeypatch, cores) -> None:
    """Let ``runner.ensemble_lanes`` see ``cores`` usable CPUs, so a test runs the same lanes on any machine.

    ``None`` stands for a platform that knows neither the affinity mask nor the CPU count.
    """
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    if cores is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)


def assert_no_child_left() -> None:
    """Every forked ensemble lane has been reaped: this process has no child at all."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
