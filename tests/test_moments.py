"""K-integrals, exact ensemble variance, and the closed-form bound."""

import math

import numpy as np
import pytest

from conftest import diagonal_density, random_hermitian
from gaplab import moments
from gaplab.moments import (
    gap_expectation,
    gap_variance_bound,
    gap_variance_exact,
    k_integral,
    k_pair_integral,
    k_product_bound,
    k_table,
)
from gaplab.sampling import derive_rng, sample_gap
from gaplab.scenarios import random_density

UNIFORM4 = [0.25, 0.25, 0.25, 0.25]
PARITY4 = np.diag([1.0, -1.0, 1.0, -1.0]).astype(complex)


def test_k_closed_forms_uniform_d4():
    assert k_integral(UNIFORM4, 0) == pytest.approx(4.0 / 3.0, abs=1e-8)
    assert k_integral(UNIFORM4, 1) == pytest.approx(8.0 / 3.0, abs=1e-8)
    assert k_integral(UNIFORM4, 2) == pytest.approx(32.0 / 3.0, abs=1e-8)


@pytest.mark.parametrize("dim", [5, 6, 10])
def test_k_closed_forms_uniform_general(dim):
    p = [1.0 / dim] * dim
    d = float(dim)
    assert k_integral(p, 0) == pytest.approx(d / (d - 1), abs=1e-8)
    assert k_integral(p, 1) == pytest.approx(d**2 / ((d - 1) * (d - 2)), abs=1e-8)
    assert k_integral(p, 2) == pytest.approx(d**3 / ((d - 1) * (d - 2) * (d - 3)), abs=1e-8)


def test_k_pair_uniform_d4():
    for m in range(4):
        for n in range(4):
            assert k_pair_integral(UNIFORM4, m, n) == pytest.approx(0.8, abs=1e-8)


def _oracle_spectra():
    spectra = {
        f"random{d}": random_density(d, derive_rng(413, d), p_max_limit=0.25).probabilities
        for d in (5, 8, 24, 48)
    }
    spectra["uniform4"] = np.array(UNIFORM4)
    spectra["quarter_plus_tiny"] = np.concatenate((np.full(4, (1.0 - 5e-8) / 4.0), np.full(5, 1e-8)))
    spectra["degenerate"] = np.concatenate((np.full(6, 0.16), np.full(20, 0.002)))
    return spectra


ORACLE_SPECTRA = _oracle_spectra()


@pytest.mark.parametrize("name", sorted(ORACLE_SPECTRA))
def test_k_rule_matches_adaptive_quadrature(name):
    # the adaptive oracle is itself accurate only to its 1e-10 tolerance
    p = ORACLE_SPECTRA[name]
    table = k_table(p)
    for k, value in enumerate((table.k0, table.k1, table.k2)):
        assert value == pytest.approx(k_integral(p, k), rel=1e-10)
    pair = table.pair
    assert np.array_equal(pair, pair.T)
    assert np.all(pair > 0)
    d = p.size
    levels = sorted({0, 1, d // 2, d - 2, d - 1})
    for m in levels:
        for n in levels:
            assert pair[m, n] == pytest.approx(k_pair_integral(p, m, n), rel=1e-10)
    assert 0.0 <= table.self_check <= moments.RULE_SELF_CHECK_TOL
    assert table.nodes > 0


@pytest.mark.parametrize("dim", [4, 6, 10, 48])
def test_k_rule_uniform_closed_forms(dim):
    d = float(dim)
    table = k_table(np.full(dim, 1.0 / dim))
    assert table.k0 == pytest.approx(d / (d - 1), rel=1e-13)
    assert table.k1 == pytest.approx(d**2 / ((d - 1) * (d - 2)), rel=1e-13)
    assert table.k2 == pytest.approx(d**3 / ((d - 1) * (d - 2) * (d - 3)), rel=1e-13)
    # every pair integral of the uniform spectrum is integral (1 + x/D)^-(D+2) dx
    np.testing.assert_allclose(table.pair, d / (d + 1), rtol=1e-13, atol=0)


def test_k_rule_self_check_rejects_coarse_step(monkeypatch):
    monkeypatch.setattr(moments, "RULE_STEP", 1.0)
    with pytest.raises(RuntimeError, match="did not converge"):
        k_table(ORACLE_SPECTRA["random8"])


def test_product_bound_values_at_quarter():
    assert k_product_bound(0.25, 0) == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert k_product_bound(0.25, 1) == pytest.approx(8.0 / 3.0, rel=1e-12)
    assert k_product_bound(0.25, 2) == pytest.approx(32.0 / 3.0, rel=1e-12)


@pytest.mark.parametrize("dim", [4, 6, 9])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_product_bound_tight_for_uniform(dim, k):
    p = [1.0 / dim] * dim
    assert k_integral(p, k) == pytest.approx(k_product_bound(1.0 / dim, k), abs=1e-8)


def test_product_bound_strictly_dominates_nonuniform():
    for trial in range(20):
        rng = derive_rng(401, trial)
        p = random_density(int(rng.integers(5, 10)), rng, p_max_limit=0.3).probabilities
        for k in (0, 1, 2):
            val = k_integral(p, k)
            bound = k_product_bound(p.max(), k)
            assert val < bound - 1e-10 * bound


def test_k_integrability_preconditions():
    with pytest.raises(ValueError):
        k_integral([0.5, 0.25, 0.25], 1)
    with pytest.raises(ValueError):
        k_integral([0.4, 0.3, 0.3], 2)
    with pytest.raises(ValueError):
        k_integral(UNIFORM4, 3)
    with pytest.raises(ValueError):
        k_product_bound(0.5, 1)


def test_expectation_is_trace():
    rng = derive_rng(402)
    rho = random_density(6, rng)
    A = random_hermitian(6, rng)
    assert gap_expectation(rho, A) == pytest.approx(
        complex(np.trace(A @ rho.matrix())), abs=1e-12
    )


def test_expectation_of_eigenprojector_is_probability():
    rng = derive_rng(403)
    rho = random_density(5, rng)
    for n in range(5):
        u = rho.basis[:, n]
        P = np.outer(u, u.conj())
        assert gap_expectation(rho, P) == pytest.approx(rho.probabilities[n], abs=1e-12)


def test_expectation_matches_monte_carlo():
    rng = derive_rng(404)
    rho = random_density(6, rng)
    A = random_hermitian(6, rng)
    psi = sample_gap(rho, derive_rng(405), size=100_000)
    vals = np.einsum("sd,de,se->s", psi.conj(), A, psi).real
    se = vals.std() / np.sqrt(vals.size)
    assert abs(vals.mean() - gap_expectation(rho, A).real) <= 4.0 * se


def test_exact_variance_worked_example():
    rho = diagonal_density(UNIFORM4)
    assert gap_variance_exact(rho, PARITY4) == pytest.approx(0.2, abs=1e-9)


def test_bound_worked_example_seventeen_thirds():
    rho = diagonal_density(UNIFORM4)
    report = gap_variance_bound(rho, PARITY4)
    assert report.bound == pytest.approx(17.0 / 3.0, rel=1e-9)
    assert report.quadrature_bound == pytest.approx(17.0 / 3.0, rel=1e-7)
    assert report.exact_variance == pytest.approx(0.2, abs=1e-9)


def test_identity_observable_zero_variance_positive_bound():
    rng = derive_rng(406)
    rho = random_density(6, rng, p_max_limit=0.25)
    report = gap_variance_bound(rho, np.eye(6))
    assert report.exact_variance <= 1e-12
    assert report.bound > 0.0


def test_exact_variance_shift_invariant():
    rng = derive_rng(407)
    rho = random_density(5, rng)
    A = random_hermitian(5, rng)
    base = gap_variance_exact(rho, A)
    for c in (2.7, -1.3, 0.4 + 1.9j):
        shifted = gap_variance_exact(rho, A + c * np.eye(5))
        assert shifted == pytest.approx(base, rel=1e-9, abs=1e-12)


def test_bound_chain_exact_quadrature_product():
    # At D = 4 only the uniform spectrum satisfies p_max <= 1/4.
    for trial in range(30):
        rng = derive_rng(408, trial)
        dim = int(rng.integers(4, 11))
        if dim == 4:
            rho = diagonal_density(UNIFORM4)
        else:
            rho = random_density(dim, rng, p_max_limit=0.25)
        A = random_hermitian(dim, rng)
        report = gap_variance_bound(rho, A)
        assert report.exact_variance <= report.quadrature_bound * (1 + 1e-9)
        assert report.quadrature_bound <= report.bound * (1 + 1e-9)


def test_variance_rejects_bad_inputs():
    with pytest.raises(ValueError):
        gap_variance_exact(diagonal_density([0.5, 0.5]), np.eye(2))
    with pytest.raises(ValueError):
        gap_variance_exact(diagonal_density([0.5, 0.3, 0.2, 0.0]), np.eye(4))
    with pytest.raises(ValueError):
        gap_variance_bound(diagonal_density([0.4, 0.2, 0.2, 0.2]), np.eye(4))


def test_variance_matches_monte_carlo_midsize():
    rng = derive_rng(409)
    rho = random_density(6, rng, p_max_limit=0.25)
    A = random_hermitian(6, rng)
    exact = gap_variance_exact(rho, A)
    psi = sample_gap(rho, derive_rng(410), size=200_000)
    vals = np.einsum("sd,de,se->s", psi.conj(), A, psi)
    sq = np.abs(vals - vals.mean()) ** 2
    se = sq.std() / np.sqrt(sq.size)
    assert abs(sq.mean() - exact) <= 4.0 * se


def test_pair_integral_taylor_sandwich():
    # K(m, n) lies between the first-order tail and the same plus the
    # second-order term at its extreme coefficient.
    for trial in range(5):
        rng = derive_rng(411, trial)
        p = random_density(5, rng, p_max_limit=0.3).probabilities
        k0 = k_integral(p, 0)
        k1 = k_integral(p, 1)
        k2 = k_integral(p, 2)
        for m in range(5):
            for n in range(5):
                kmn = k_pair_integral(p, m, n)
                lo = k0 - (p[m] + p[n]) * k1
                hi = lo + 2.0 * (p[m] ** 2 + p[m] * p[n] + p[n] ** 2) * k2
                assert lo - 1e-9 <= kmn <= hi + 1e-9
                assert kmn <= k0 + 1e-9


def test_variance_real_for_anti_hermitian():
    rng = derive_rng(412)
    rho = random_density(5, rng)
    H = random_hermitian(5, rng)
    var_h = gap_variance_exact(rho, H)
    var_ah = gap_variance_exact(rho, 1j * H)
    assert var_h >= 0.0
    # <psi|iH|psi> = i <psi|H|psi>: same spread, rotated in the plane.
    assert var_ah == pytest.approx(var_h, rel=1e-10)


def test_breakdown_keys_and_factors():
    rho = diagonal_density(UNIFORM4)
    report = gap_variance_bound(rho, PARITY4)
    bd = report.term_breakdown
    assert bd["tr_a_rho_astar_rho"] == pytest.approx(0.25, abs=1e-12)
    assert bd["k0"] == pytest.approx(4.0 / 3.0, abs=1e-8)
    assert bd["k2"] == pytest.approx(32.0 / 3.0, abs=1e-7)
    assert report.clamped_terms == 0
    total = sum(math.isnan(v) for v in bd.values())
    assert total == 0


def test_trace_terms_and_cross_sums_match_their_definitions():
    """Each Tab against tr(A rho^a A* rho^b) of the dense rho, each Sab against a loop over eigenvectors."""
    for trial in range(20):
        rng = derive_rng(414, trial)
        dim = int(rng.integers(6, 49))
        rho = random_density(dim, rng, p_max_limit=0.25)
        A = random_hermitian(dim, rng)
        if trial % 2:
            A = A + 1j * random_hermitian(dim, rng)
        bd = gap_variance_bound(rho, A).term_breakdown
        R = rho.matrix()
        powers = {k: np.linalg.matrix_power(R, k) for k in (1, 2, 3)}
        for a, b in ((1, 1), (2, 1), (1, 2), (3, 1), (2, 2), (1, 3)):
            key = f"tr_a_rho{a if a > 1 else ''}_astar_rho{b if b > 1 else ''}"
            want = np.trace(A @ powers[a] @ A.conj().T @ powers[b])
            assert bd[key] == pytest.approx(want.real, rel=1e-12)
            assert abs(want.imag) <= 1e-12 * abs(want)
        s = {k: 0.0 for k in (1, 2, 3)}
        for n, p_n in enumerate(rho.probabilities):
            u = rho.basis[:, n]
            for k in s:
                s[k] += abs(u.conj() @ A @ u) * p_n**k
        for a, b in ((3, 1), (2, 2), (1, 3)):
            assert bd[f"cross_sum_{a}{b}"] == pytest.approx(s[a] * s[b], rel=1e-12)
