"""Eigendecomposition and norm helpers."""

import numpy as np
import pytest

from conftest import random_hermitian
from gaplab.linalg import hermitian_eigendecomposition, operator_norm, quadratic_forms
from gaplab.sampling import derive_rng


@pytest.mark.parametrize("dim", [2, 6, 33, 256])
def test_eigendecomposition_reconstructs(dim):
    rng = derive_rng(100, dim)
    M = random_hermitian(dim, rng)
    eig = hermitian_eigendecomposition(M)
    rebuilt = (eig.basis * eig.eigenvalues) @ eig.basis.conj().T
    assert np.abs(rebuilt - M).max() <= 1e-9 * max(1.0, np.abs(M).max())
    assert np.all(np.diff(eig.eigenvalues) >= 0)
    gram = eig.basis.conj().T @ eig.basis
    assert np.abs(gram - np.eye(dim)).max() <= 1e-10


def test_rejects_non_hermitian():
    M = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        hermitian_eigendecomposition(M)


def test_rejects_non_square():
    with pytest.raises(ValueError):
        hermitian_eigendecomposition(np.zeros((2, 3)))


def test_operator_norm_identity():
    assert operator_norm(np.eye(7)) == pytest.approx(1.0, abs=1e-12)


def test_operator_norm_rank_one_cross_term():
    rng = derive_rng(101)
    u = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    u *= 2.0 / np.linalg.norm(u)
    v *= 3.0 / np.linalg.norm(v)
    assert operator_norm(np.outer(u, v.conj())) == pytest.approx(6.0, rel=1e-12)


def test_norm_inequalities():
    rng = derive_rng(103)
    for trial in range(5):
        A = random_hermitian(7, rng)
        B = random_hermitian(7, rng)
        fro = np.linalg.norm(A)
        assert operator_norm(A) <= fro + 1e-10
        assert fro <= np.linalg.norm(A, "nuc") + 1e-10
        assert abs(np.trace(A @ B)) <= operator_norm(A) * np.linalg.norm(B, "nuc") + 1e-9


@pytest.mark.parametrize(
    "rows, dim",
    [(2000, 8), (1000, 48), (256, 56), (64, 128), (10001, 6), (32, 552)],
    ids=["variance-mc", "concentration", "dense-forms-ensemble", "curve-m128", "mixture-csv", "dense-forms-d24"],
)
def test_quadratic_forms_equal_the_einsums_they_replace(rows, dim):
    """Bit for bit the einsum of each caller: states and curve amplitudes, and mixture phases and gap
    coefficients, whose callers pass their conjugates."""
    rng = derive_rng(101, rows, dim)
    X = rng.standard_normal((rows, dim)) + 1j * rng.standard_normal((rows, dim))
    A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    forms = quadratic_forms(X, A).view(float)
    assert np.array_equal(forms, np.einsum("sd,de,se->s", X.conj(), A, X).view(float))
    assert np.array_equal(forms, np.einsum("ti,ij,tj->t", X.conj(), A, X).view(float))
    conjugates = quadratic_forms(X.conj(), A).view(float)
    assert np.array_equal(conjugates, np.einsum("te,ef,tf->t", X, A, X.conj()).view(float))
    assert np.array_equal(conjugates, np.einsum("sp,pq,sq->s", X, A, X.conj()).view(float))
