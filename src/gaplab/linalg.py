"""Dense complex linear algebra primitives used by every other module."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "HermitianEigenSystem",
    "as_complex_matrix",
    "change_basis",
    "hermitian_eigendecomposition",
    "operator_norm",
    "quadratic_forms",
    "row_powers",
]

#: Relative residual allowed for an eigendecomposition reconstruction.
RECONSTRUCTION_TOL = 1e-9

#: Largest max-entry defect |M - M*| accepted as Hermitian.
HERMITIAN_TOL = 1e-10


def as_complex_matrix(M, name: str = "matrix", square: bool = False) -> np.ndarray:
    """Coerce to a finite complex128 2-D array, optionally enforcing squareness."""
    out = np.asarray(M, dtype=np.complex128)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {out.shape}")
    if out.size == 0:
        raise ValueError(f"{name} is empty")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    if square and out.shape[0] != out.shape[1]:
        raise ValueError(f"{name} must be square, got shape {out.shape}")
    return out


def change_basis(A, U: np.ndarray, name: str) -> np.ndarray:
    """U* A U, for a finite square ``A`` (called ``name`` in errors) of the dimension of the columns of ``U``."""
    A = as_complex_matrix(A, name=name, square=True)
    if A.shape[0] != U.shape[0]:
        raise ValueError(f"{name} dimension {A.shape[0]} does not match basis dimension {U.shape[0]}")
    return U.conj().T @ A @ U


@dataclass
class HermitianEigenSystem:
    """Ascending real eigenvalues and a matching orthonormal eigenbasis.

    Column ``basis[:, k]`` is the eigenvector of ``eigenvalues[k]``.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray


def hermitian_eigendecomposition(M) -> HermitianEigenSystem:
    """Full eigendecomposition of a Hermitian matrix.

    The input must be Hermitian up to ``HERMITIAN_TOL`` in max-entry norm; it is
    symmetrized before factorization so the result is exactly Hermitian
    regardless of roundoff in the input.  The reconstruction
    ``U diag(w) U*`` is checked against the input to a residual of
    ``1e-9 * (1 + |M|)``.
    """
    M = as_complex_matrix(M, square=True)
    defect = np.abs(M - M.conj().T).max()
    if defect > HERMITIAN_TOL:
        raise ValueError(
            f"matrix is not Hermitian: max |M - M*| = {defect:.3e} exceeds {HERMITIAN_TOL:.0e}"
        )
    sym = (M + M.conj().T) / 2.0
    w, U = np.linalg.eigh(sym)
    recon = (U * w) @ U.conj().T
    norm = np.abs(w).max() if w.size else 0.0
    residual = np.abs(recon - M).max()
    if residual > RECONSTRUCTION_TOL * (1.0 + norm):
        raise np.linalg.LinAlgError(
            f"eigendecomposition residual {residual:.3e} exceeds "
            f"{RECONSTRUCTION_TOL:.0e} * (1 + |M|)"
        )
    return HermitianEigenSystem(eigenvalues=w, basis=U)


def operator_norm(M) -> float:
    """Largest singular value of ``M``."""
    M = as_complex_matrix(M)
    s = np.linalg.svd(M, compute_uv=False)
    return float(s[0])



def quadratic_forms(X: np.ndarray, A: np.ndarray) -> np.ndarray:
    """x^H A x of each row x of ``X``, each summed on its own in a fixed order."""
    # einsum, not the faster ((X.conj() @ A) * X).sum(-1): the stored benchmark reports pin this rounding
    return np.einsum("sd,de,se->s", X.conj(), A, X)


def row_powers(X: np.ndarray) -> np.ndarray:
    """sum_k |x_k|^2 of each row x of ``X`` (n, m), the same for a row alone as in any stack of rows.

    ``einsum`` sums a lone row of more than 8192 entries in another order
    than a row of a stack, so a lone row is summed as the first of two
    rows, against a zero second row of its conjugate (no copy of the row).
    """
    n, m = X.shape
    if n > 1:
        conj, rows = X.conj(), X
    else:
        conj, rows = np.zeros((2, m), dtype=complex), np.broadcast_to(X, (2, m))
        np.conjugate(X, out=conj[:1])
    return np.einsum("sd,sd->s", conj, rows).real[:n]
