"""Exact sampling from the Gaussian, adjusted, and projected state ensembles.

For a density matrix rho with spectral resolution rho = sum_n p_n |n><n|,
three ensembles over the Hilbert space are handled here:

* the Gaussian measure: psi = sum_n Z_n |n> with independent complex
  centered Gaussians Z_n of mean square p_n (real and imaginary parts
  independent with variance p_n / 2 each);
* the adjusted measure, which reweights the Gaussian measure by |psi|^2;
* the projected measure, the pushforward of the adjusted measure to the
  unit sphere, whose ensemble density matrix is exactly rho.

The adjusted measure admits an exact finite recipe: it is the mixture,
with weight p_n, of product measures in which every coordinate m != n is
the plain complex Gaussian of mean square p_m while coordinate n is
size-biased, i.e. its squared radius follows a Gamma(shape 2, scale p_n)
law with an independent uniform phase.  Drawing the mixture index from
(p_n), drawing the coordinates, and normalizing therefore samples the
projected ensemble exactly, with no acceptance step.  An importance
resampling oracle over plain Gaussian batches is kept as an independent
cross-check of that recipe.

Zero eigenvalues are carried as exact zeros: the Gaussian scale vanishes
and the mixture index never selects them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import as_complex_matrix, hermitian_eigendecomposition

__all__ = [
    "DensityMatrix",
    "derive_rng",
    "sample_gaussian",
    "sample_gap",
    "sample_gap_resampling_oracle",
    "empirical_density_matrix",
]

#: Allowed deviation of the probability sum from one.
TRACE_TOL = 1e-12

#: Allowed deviation of the eigenbasis from unitarity (max-entry norm).
UNITARITY_TOL = 1e-10

#: Minimum batch size for the importance-resampling oracle.
MIN_ORACLE_BATCH = 1000


@dataclass
class DensityMatrix:
    """Spectral form of a density matrix: probabilities and eigenbasis.

    ``probabilities`` are nonincreasing and sum to one; column n of
    ``basis`` is the eigenvector of ``probabilities[n]``.  The largest
    probability equals the operator norm of the matrix.
    """

    probabilities: np.ndarray
    basis: np.ndarray
    _normalize: bool = field(default=True, repr=False)

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float).ravel()
        U = as_complex_matrix(self.basis, name="eigenbasis", square=True)
        if p.size != U.shape[0]:
            raise ValueError(
                f"probability count {p.size} does not match basis dimension {U.shape[0]}"
            )
        if not np.all(np.isfinite(p)):
            raise ValueError("probabilities contain NaN or Inf")
        if np.any(p < -TRACE_TOL):
            raise ValueError("probabilities must be nonnegative")
        p = np.where(p < 0, 0.0, p)
        if np.any(np.diff(p) > 0):
            raise ValueError("probabilities must be nonincreasing")
        total = p.sum()
        if abs(total - 1.0) > TRACE_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1 within {TRACE_TOL}")
        defect = np.abs(U.conj().T @ U - np.eye(U.shape[0])).max()
        if defect > UNITARITY_TOL:
            raise ValueError(
                f"eigenbasis is not unitary: max |U*U - I| = {defect:.3e}"
            )
        if self._normalize:
            p = p / total
        self.probabilities = p
        self.basis = U

    @classmethod
    def from_matrix(cls, M, tol: float = 1e-10) -> "DensityMatrix":
        """Build from a dense density matrix (Hermitian, PSD, unit trace)."""
        M = as_complex_matrix(M, name="density matrix", square=True)
        eig = hermitian_eigendecomposition(M, tol=tol)
        w = eig.eigenvalues
        if np.any(w < -1e-10):
            raise ValueError(f"density matrix has negative eigenvalue {w.min():.3e}")
        w = np.where(w < 0, 0.0, w)
        order = np.argsort(-w, kind="stable")
        return cls(probabilities=w[order], basis=eig.basis[:, order])

    @property
    def dim(self) -> int:
        return self.probabilities.size

    @property
    def p_max(self) -> float:
        return float(self.probabilities[0])

    def matrix(self) -> np.ndarray:
        """Dense form U diag(p) U*."""
        return (self.basis * self.probabilities) @ self.basis.conj().T


def derive_rng(seed: int, *path: int) -> np.random.Generator:
    """Deterministic generator for (seed, path).

    Child streams are derived with ``SeedSequence(seed, spawn_key=path)``,
    so distinct paths give statistically independent streams and the same
    (seed, path, draw sequence) always reproduces the same bits.  Each
    state of an ensemble derives its own stream from its index, so its
    draws do not depend on how the states are batched.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(path)))


def _size_biased_indices(p: np.ndarray, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw n mixture indices with P(index = k) = p_k by inversion."""
    cdf = np.cumsum(p)
    cdf[-1] = 1.0
    u = rng.random(n)
    return np.searchsorted(cdf, u, side="right")


def sample_gaussian(rho: DensityMatrix, rng: np.random.Generator, size=None) -> np.ndarray:
    """Draw from the Gaussian ensemble of ``rho`` (not normalized).

    Returns one state (1-D array) for ``size=None``, else an array of
    shape (size, dim) with one state per row.  Draw order per call: all
    real parts, then all imaginary parts.
    """
    n = 1 if size is None else int(size)
    if n < 1:
        raise ValueError("size must be at least 1")
    scale = np.sqrt(rho.probabilities / 2.0)
    z = rng.standard_normal((n, rho.dim)) + 1j * rng.standard_normal((n, rho.dim))
    z *= scale
    psi = z @ rho.basis.T
    return psi[0] if size is None else psi


def sample_gap(rho: DensityMatrix, rng: np.random.Generator, size=None) -> np.ndarray:
    """Draw unit vectors from the projected (GAP) ensemble of ``rho``, exactly.

    Mixture recipe: draw index n with probability p_n; draw every
    coordinate as the plain complex Gaussian of mean square p_m; replace
    coordinate n by a size-biased draw whose squared radius is
    Gamma(shape 2, scale p_n) with uniform phase; normalize.  Draw order
    per call: mixture uniforms, real parts, imaginary parts, radii,
    phases.

    Returns one state for ``size=None``, else (size, dim) rows.  Each row
    has unit norm to within 1e-12.
    """
    n = 1 if size is None else int(size)
    if n < 1:
        raise ValueError("size must be at least 1")
    p = rho.probabilities
    idx = _size_biased_indices(p, rng, n)
    z = rng.standard_normal((n, rho.dim)) + 1j * rng.standard_normal((n, rho.dim))
    z *= np.sqrt(p / 2.0)
    r2 = rng.gamma(2.0, scale=p[idx])
    phase = rng.random(n) * (2.0 * np.pi)
    z[np.arange(n), idx] = np.sqrt(r2) * np.exp(1j * phase)
    psi = z @ rho.basis.T
    norms = np.linalg.norm(psi, axis=1)
    if np.any(norms == 0.0):
        raise RuntimeError("degenerate zero-norm draw")
    psi /= norms[:, None]
    return psi[0] if size is None else psi


def sample_gap_resampling_oracle(
    rho: DensityMatrix, rng: np.random.Generator, batch: int = 10000
) -> np.ndarray:
    """One projected-ensemble draw by importance resampling of a Gaussian batch.

    Draws ``batch`` Gaussian states, picks one with probability
    proportional to its squared norm, and normalizes it.  The resampling
    bias is O(1/batch); batches below 1000 are rejected.  This is the
    slow reference route used to cross-check :func:`sample_gap`.
    """
    batch = int(batch)
    if batch < MIN_ORACLE_BATCH:
        raise ValueError(f"batch must be at least {MIN_ORACLE_BATCH}")
    g = sample_gaussian(rho, rng, size=batch)
    w = np.einsum("ij,ij->i", g.conj(), g).real
    cdf = np.cumsum(w)
    pick = int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
    pick = min(pick, batch - 1)
    psi = g[pick]
    return psi / np.linalg.norm(psi)


def empirical_density_matrix(samples) -> np.ndarray:
    """Average projector (1/N) sum_i |psi_i><psi_i| over unit-norm rows."""
    S = np.asarray(samples, dtype=np.complex128)
    if S.ndim == 1:
        S = S[None, :]
    if S.ndim != 2 or S.shape[0] == 0:
        raise ValueError("samples must be a nonempty (N, dim) array")
    norms = np.linalg.norm(S, axis=1)
    if np.abs(norms - 1.0).max() > 1e-9:
        raise ValueError("samples must all have unit norm")
    return (S.T @ S.conj()) / S.shape[0]
