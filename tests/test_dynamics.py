"""Evolution, phase-average matrices, and the bound evaluators."""

import math

import numpy as np
import pytest

from conftest import random_hermitian, random_state
from gaplab.dynamics import (
    CONCENTRATION_CONSTANT,
    BoundInputs,
    bound_inputs,
    concentration_tail_bound,
    block_overlap_matrix,
    gap_coefficients,
    diagonal_ensemble_expectation,
    equilibration_bound_finite_time,
    equilibration_bound_infinite_time,
    evolve,
    expectation_curve,
    expectation_curve_variance,
    expectation_curve_variance_infinite,
    expectation_curve_variance_quadrature,
    finite_time_branches,
    gap_index,
    gap_phase_matrix,
    infinite_time_average,
    mixture_curve_deviation,
    mixture_curve_deviation_quadrature,
    mixture_expectation_curve,
    moment_bounds,
    overlap_curve,
    phase_matrix_norm_bound,
    phase_quadratic_forms,
)
from gaplab.linalg import operator_norm
from gaplab.sampling import derive_rng
from gaplab.scenarios import random_density, random_hamiltonian
from gaplab.spectra import contributing_set, spectral_stats
from test_spectra import simple_spectrum


def test_evolve_identities():
    rng = derive_rng(500)
    spec = random_hamiltonian(6, [1, 2, 3], rng)
    psi = random_state(6, rng)
    assert np.abs(evolve(spec, psi, 0.0) - psi).max() <= 1e-12
    t = 0.77
    assert np.linalg.norm(evolve(spec, psi, t)) == pytest.approx(1.0, abs=1e-12)
    v = spec.blocks[1][:, 0]
    e = spec.values[1]
    assert np.abs(evolve(spec, v, t) - np.exp(-1j * e * t) * v).max() <= 1e-12


def test_expectation_curve_identities():
    rng = derive_rng(501)
    spec = random_hamiltonian(5, [2, 3], rng)
    psi = random_state(5, rng)
    B = random_hermitian(5, rng)
    ts = np.linspace(0.0, 3.0, 7)
    curve = expectation_curve(spec, psi, B, ts)
    assert np.abs(curve.imag).max() <= 1e-10
    assert curve[0] == pytest.approx(complex(psi.conj() @ B @ psi), abs=1e-12)
    ones = expectation_curve(spec, psi, np.eye(5), ts)
    assert np.abs(ones - 1.0).max() <= 1e-12
    v = spec.blocks[0][:, 1]
    flat = expectation_curve(spec, v, B, ts)
    assert np.abs(flat - flat[0]).max() <= 1e-10


def test_long_run_average_identities():
    rng = derive_rng(502)
    spec = random_hamiltonian(6, [1, 2, 3], rng)
    B = random_hermitian(6, rng)
    v = spec.blocks[2][:, 0]
    assert infinite_time_average(spec, v, B) == pytest.approx(
        complex(v.conj() @ B @ v), abs=1e-12
    )
    psi = random_state(6, rng)
    assert infinite_time_average(spec, psi, np.eye(6)) == pytest.approx(1.0, abs=1e-12)
    assert expectation_curve_variance(spec, v, B, horizon=4.0) <= 1e-20


def test_block_overlap_matrix_structure():
    rng = derive_rng(503)
    spec = random_hamiltonian(6, [2, 2, 2], rng)
    psi = random_state(6, rng)
    B = random_hermitian(6, rng)
    S = block_overlap_matrix(spec, psi, B)
    assert np.abs(S - S.conj().T).max() <= 1e-12
    total = (psi.conj() @ B @ psi).real
    assert S.sum().real == pytest.approx(total, abs=1e-10)


def test_block_overlap_matrix_stack_matches_single_states():
    rng = derive_rng(504)
    spec = random_hamiltonian(9, [2, 3, 1, 3], rng)
    B = random_hermitian(9, rng)
    psis = np.array([random_state(9, rng) for _ in range(5)])
    stacked = block_overlap_matrix(spec, psis, B)
    assert stacked.shape == (5, 4, 4)
    for psi, S in zip(psis, stacked):
        assert np.abs(S - block_overlap_matrix(spec, psi, B)).max() <= 1e-13
    with pytest.raises(ValueError):
        block_overlap_matrix(spec, psis * 1.1, B)


def test_gap_coefficients_follow_gap_pairs():
    rng = derive_rng(508)
    spec = random_hamiltonian(8, [1, 2, 1, 3, 1], rng)
    B = np.zeros((8, 8), dtype=complex)
    B[:3, :3] = random_hermitian(3, rng)  # couples to a subset of the eigenvalues
    B = spec.basis_matrix @ B @ spec.basis_matrix.conj().T
    cs = contributing_set(spec, B)
    gi = gap_index(cs.values)
    stack = block_overlap_matrix(spec, np.array([random_state(8, rng) for _ in range(3)]), B)
    rows = gap_coefficients(stack, cs.indices, gi)
    assert rows.shape == (3, gi.count)
    for S, row in zip(stack, rows):
        sub = S[np.ix_(cs.indices, cs.indices)]
        assert np.array_equal(row, sub[~np.eye(cs.n_distinct, dtype=bool)])
    i, j = cs.indices[gi.pairs[:, 0]], cs.indices[gi.pairs[:, 1]]
    assert np.array_equal(gi.values, spec.values[i] - spec.values[j])


@pytest.mark.parametrize(
    "values, multiplicities",
    [
        ("gaussian", [1] * 7),
        ([0.0, 1.0, 3.0, 7.0, 12.0, 20.0], [1] * 6),  # Sidon: all gaps distinct
        ("arithmetic", [2, 1, 3, 2]),
    ],
    ids=["random", "sidon", "arithmetic-multiplicities"],
)
def test_overlap_curve_matches_expectation_curve(values, multiplicities):
    rng = derive_rng(505)
    dim = sum(multiplicities)
    spec = random_hamiltonian(dim, multiplicities, rng, eigenvalues=values, spacing=0.7)
    B = random_hermitian(dim, rng)
    psis = np.array([random_state(dim, rng) for _ in range(3)])
    times = rng.random((3, 40)) * 25.0
    curves = overlap_curve(spec.values, block_overlap_matrix(spec, psis, B), times)
    for psi, t, curve in zip(psis, times, curves):
        oracle = expectation_curve(spec, psi, B, t)
        assert np.abs(curve - oracle).max() <= 1e-12 * (1.0 + np.abs(oracle).max())


def test_phase_quadratic_forms_rows_independent_of_stacking():
    rng = derive_rng(506)
    gaps = gap_index(rng.standard_normal(5)).values
    rows = rng.standard_normal((4, gaps.size)) + 1j * rng.standard_normal((4, gaps.size))
    stacked = phase_quadratic_forms(gaps, rows, 3.0)
    assert all(phase_quadratic_forms(gaps, rows[i : i + 1], 3.0)[0] == stacked[i] for i in range(4))
    assert phase_quadratic_forms(np.empty(0), np.empty((4, 0)), 3.0).tolist() == [0.0] * 4


def test_curve_variance_matches_time_grid_quadrature():
    for trial in range(4):
        rng = derive_rng(504, trial)
        dim = int(rng.integers(4, 10))
        spec = random_hamiltonian(dim, [1] * dim, rng)
        psi = random_state(dim, rng)
        B = random_hermitian(dim, rng)
        exact = expectation_curve_variance(spec, psi, B, horizon=5.0)
        grid = expectation_curve_variance_quadrature(spec, psi, B, horizon=5.0)
        assert grid == pytest.approx(exact, rel=1e-6, abs=1e-12)


def test_mixture_deviation_matches_time_grid_quadrature():
    rng = derive_rng(505)
    spec = random_hamiltonian(7, [1, 2, 2, 2], rng)
    rho = random_density(7, rng)
    B = random_hermitian(7, rng)
    exact = mixture_curve_deviation(spec, rho, B, horizon=6.0)
    grid = mixture_curve_deviation_quadrature(spec, rho, B, horizon=6.0)
    assert grid == pytest.approx(exact, rel=1e-6, abs=1e-12)
    t0 = mixture_expectation_curve(spec, rho, B, [0.0])[0]
    assert t0 == pytest.approx(complex(np.trace(B @ rho.matrix())), abs=1e-10)


def test_infinite_horizon_variance_by_dephasing_oracle():
    # Brute-force oracle: cluster equal gaps with a dictionary and sum
    # squared cluster totals.
    for trial in range(4):
        rng = derive_rng(506, trial)
        dim = int(rng.integers(4, 9))
        kind = "arithmetic" if trial % 2 else "gaussian"
        spec = random_hamiltonian(dim, [1] * dim, rng, eigenvalues=kind)
        psi = random_state(dim, rng)
        B = random_hermitian(dim, rng)
        cs = contributing_set(spec, B)
        S = block_overlap_matrix(spec, psi, B)[np.ix_(cs.indices, cs.indices)]
        gi = gap_index(cs.values)
        coeffs = S[~np.eye(cs.n_distinct, dtype=bool)]
        clusters = {}
        for g, w in zip(np.round(gi.values, 9), coeffs):
            clusters[g] = clusters.get(g, 0.0) + w
        brute = sum(abs(v) ** 2 for v in clusters.values())
        val = expectation_curve_variance_infinite(spec, psi, B)
        assert val == pytest.approx(brute, rel=1e-9, abs=1e-12)


def test_finite_horizon_variance_approaches_dephased_limit():
    rng = derive_rng(507)
    spec = random_hamiltonian(6, [1, 1, 2, 2], rng)
    psi = random_state(6, rng)
    B = random_hermitian(6, rng)
    limit = expectation_curve_variance_infinite(spec, psi, B)
    t_short = abs(expectation_curve_variance(spec, psi, B, horizon=50.0) - limit)
    t_long = abs(expectation_curve_variance(spec, psi, B, horizon=200.0) - limit)
    assert t_long < t_short


def test_phase_matrix_invariants():
    rng = derive_rng(508)
    values = np.sort(rng.standard_normal(6)) * 2.0
    gaps = gap_index(values).values
    R = gap_phase_matrix(gaps, horizon=3.0)
    assert np.abs(np.diag(R) - 1.0).max() <= 1e-12
    assert np.abs(R - R.conj().T).max() <= 1e-12
    assert np.abs(R).max() <= 1.0 + 1e-12
    assert np.linalg.eigvalsh(R).min() >= -1e-9


def test_phase_matrix_entries_match_brute_average():
    gaps = gap_index(np.array([0.0, 1.0, 2.5])).values
    T = 4.0
    R = gap_phase_matrix(gaps, T)
    ts = np.linspace(0.0, T, 200_001)
    for a in range(gaps.size):
        for b in range(gaps.size):
            brute = np.trapezoid(np.exp(1j * (gaps[a] - gaps[b]) * ts), ts) / T
            assert R[a, b] == pytest.approx(brute, abs=1e-8)


def test_phase_matrix_norm_short_time_is_pair_count():
    values = np.array([0.0, 0.3, 1.1, 2.9])
    gaps = gap_index(values).values
    R = gap_phase_matrix(gaps, horizon=1e-9)
    assert operator_norm(R) == pytest.approx(gaps.size, abs=1e-6)


def test_phase_matrix_norm_sidon_spectrum():
    # All 12 ordered gaps of {0,1,3,7} are distinct, so R tends to the identity.
    gaps = gap_index(np.array([0.0, 1.0, 3.0, 7.0])).values
    norm = operator_norm(gap_phase_matrix(gaps, horizon=1e6))
    assert norm == pytest.approx(1.0, abs=1e-3)


def test_phase_matrix_norm_arithmetic_degeneracy():
    # {0,1,2,3}: the gap +1 (and -1) appears three times, so the long-time
    # norm is the maximal gap multiplicity.
    spec = simple_spectrum([0.0, 1.0, 2.0, 3.0])
    assert spectral_stats(spec).max_gap_degeneracy == 3
    gaps = gap_index(spec.values).values
    norm = operator_norm(gap_phase_matrix(gaps, horizon=1e6))
    assert norm == pytest.approx(3.0, abs=1e-3)


def test_window_norm_bound_worked_example():
    spec = simple_spectrum([0.0, 1.0, 2.0])
    norm, bound = phase_matrix_norm_bound(spec, kappa=1.5, horizon=100.0)
    expected = 3.0 * (1.0 + 8.0 * math.log2(3.0) / 150.0)
    assert bound == pytest.approx(expected, rel=1e-12)
    assert norm <= bound


def test_window_norm_bound_random_sweep():
    for trial in range(10):
        rng = derive_rng(509, trial)
        d = int(rng.integers(3, 9))
        spec = simple_spectrum(np.sort(rng.standard_normal(d)) * 2.0)
        diameter = spec.values[-1] - spec.values[0]
        for kappa in (0.1 * diameter, 0.7 * diameter):
            for T in (0.5, 5.0, 50.0):
                norm, bound = phase_matrix_norm_bound(spec, kappa, T)
                assert norm <= bound * (1 + 1e-9)


def test_bound_inputs_builder_matches_contributing_set():
    rng = derive_rng(510)
    spec = random_hamiltonian(8, [2, 2, 2, 2], rng)
    B = random_hermitian(8, rng)
    inp = bound_inputs(spec, B, norm_rho=0.2, epsilon=0.1, delta=0.1, kappa=1.0, horizon=10.0)
    cs = contributing_set(spec, B)
    assert inp.n_contributing == cs.n_distinct
    assert inp.max_degeneracy == cs.max_degeneracy
    assert inp.max_gap_degeneracy == cs.max_gap_degeneracy
    assert inp.gap_window_count == cs.gap_count(1.0)
    assert inp.norm_b == pytest.approx(operator_norm(B), rel=1e-12)


def _unit_inputs(**overrides):
    base = dict(
        epsilon=0.1,
        delta=0.1,
        kappa=1.0,
        horizon=10.0,
        norm_b=1.0,
        norm_rho=1.0,
        n_contributing=1,
        max_degeneracy=1,
        max_gap_degeneracy=1,
        gap_window_count=1,
    )
    base.update(overrides)
    return BoundInputs(**base)


def test_moment_bound_prefactors():
    m = moment_bounds(_unit_inputs())
    assert m.expected_time_variance == pytest.approx(24.0, rel=1e-12)
    assert m.mixture_curve_deviation == pytest.approx(1.0, rel=1e-12)
    assert m.time_average_variance == pytest.approx(23.0, rel=1e-12)
    assert m.expected_dephasing_variance == pytest.approx(24.0, rel=1e-12)


def test_moment_bounds_linear_in_state_norm():
    a = moment_bounds(_unit_inputs(norm_rho=0.5))
    b = moment_bounds(_unit_inputs(norm_rho=0.25))
    for field in (
        "expected_time_variance",
        "mixture_curve_deviation",
        "time_average_variance",
        "expected_dephasing_variance",
    ):
        assert getattr(a, field) == pytest.approx(2.0 * getattr(b, field), rel=1e-12)


def test_finite_time_branch_worked_examples():
    markov, _ = finite_time_branches(_unit_inputs(norm_rho=1e-6))
    assert markov == pytest.approx(math.sqrt(18800.0 * 1e-6), rel=1e-12)

    vac, _ = finite_time_branches(_unit_inputs(norm_rho=1.0 / 64.0))
    assert vac == pytest.approx(math.sqrt(293.75), rel=1e-12)
    assert vac > 2.0  # vacuous: exceeds any possible deviation of a unit observable

    inf_bound = equilibration_bound_infinite_time(_unit_inputs(norm_rho=1e-8))
    assert inf_bound == pytest.approx(math.sqrt(1.88e-4), rel=1e-12)


def test_finite_time_bound_takes_minimum_branch():
    inp = _unit_inputs(norm_rho=0.01)
    markov, conc = finite_time_branches(inp)
    assert equilibration_bound_finite_time(inp) == pytest.approx(min(markov, conc), rel=1e-12)


def test_time_variance_bound_converges_to_dephased_bound():
    # With the window count already at the gap degeneracy, the finite-horizon
    # moment bound approaches the dephased one as the horizon grows.
    small = moment_bounds(
        _unit_inputs(max_gap_degeneracy=3, gap_window_count=3, n_contributing=12, horizon=1e12)
    )
    assert small.expected_time_variance == pytest.approx(
        small.expected_dephasing_variance, rel=1e-9
    )


def test_bound_inputs_validation():
    with pytest.raises(ValueError):
        _unit_inputs(epsilon=0.0)
    with pytest.raises(ValueError):
        _unit_inputs(delta=1.5)
    with pytest.raises(ValueError):
        _unit_inputs(kappa=-1.0)
    with pytest.raises(ValueError):
        _unit_inputs(norm_rho=2.0)
    with pytest.raises(ValueError):
        _unit_inputs(gap_window_count=-1)


def test_concentration_tail_values():
    assert concentration_tail_bound(0.0, 2.0, 0.1) == pytest.approx(12.0, rel=1e-12)
    expected = 12.0 * math.exp(-CONCENTRATION_CONSTANT * 900.0 / (2.0 * 4.0 / 64.0))
    val = concentration_tail_bound(30.0, 2.0, 1.0 / 64.0)
    assert val == pytest.approx(expected, rel=1e-12)
    assert 0.94 < val < 0.96


def test_concentration_tail_monotonicity():
    lo = concentration_tail_bound(1.0, 2.0, 0.1)
    hi = concentration_tail_bound(2.0, 2.0, 0.1)
    assert hi < lo
    big_rho = concentration_tail_bound(1.0, 2.0, 0.2)
    assert big_rho > lo
