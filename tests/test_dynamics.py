"""Expectation curves, phase-average matrices, and the bound evaluators."""

import math

import numpy as np
import pytest

from conftest import random_hermitian, random_state, simple_spectrum
from gaplab import dynamics
from gaplab.dynamics import (
    CONCENTRATION_CONSTANT,
    PHASE_NORM_ERROR,
    BoundInputs,
    PhaseForms,
    concentration_tail_bound,
    block_overlap_matrix,
    dephased_power,
    eigenbasis_observable,
    gap_coefficients,
    equilibration_bounds,
    expectation_curve,
    expectation_curve_variance,
    expectation_curve_variance_infinite,
    expectation_curve_variance_quadrature,
    gap_phase_matrix,
    gauss_legendre,
    gauss_phase_error,
    gauss_rule,
    infinite_time_average,
    kernel_nodes,
    mixture_curve_deviation,
    mixture_curve_deviation_quadrature,
    mixture_expectation_curve,
    overlap_curve,
    phase_matrix_norm,
    phase_norm_cells,
    state_amplitudes,
    state_overlaps,
)
from gaplab.linalg import operator_norm
from gaplab.sampling import derive_rng
from gaplab.scenarios import macro_decomposition, random_density, random_hamiltonian, random_projector
from gaplab.spectra import GapIndex, SpectralDecomposition, contributing_set, spectral_counts


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
    S = block_overlap_matrix(spec, psi, eigenbasis_observable(spec, B))
    assert np.abs(S - S.conj().T).max() <= 1e-12
    total = (psi.conj() @ B @ psi).real
    assert S.sum().real == pytest.approx(total, abs=1e-10)


def test_block_overlap_matrix_stack_matches_single_states():
    rng = derive_rng(504)
    spec = random_hamiltonian(9, [2, 3, 1, 3], rng)
    Bt = eigenbasis_observable(spec, random_hermitian(9, rng))
    psis = np.array([random_state(9, rng) for _ in range(5)])
    stacked = block_overlap_matrix(spec, psis, Bt)
    assert stacked.shape == (5, 4, 4)
    for psi, S in zip(psis, stacked):
        assert np.array_equal(S, block_overlap_matrix(spec, psi, Bt))
    with pytest.raises(ValueError):
        block_overlap_matrix(spec, psis * 1.1, Bt)


def _overlaps_by_reduceat(spec, y, Bt) -> np.ndarray:
    """One state's S from its amplitudes: the products (conj(y_a) Bt_ab) y_b, each eigenspace's rows summed
    by ``np.add.reduceat``, then its columns."""
    ends = spec.block_starts + spec.multiplicities
    rows = [np.add.reduceat(y.conj()[a:b, None] * Bt[a:b] * y[None, :], [0], axis=0)
            for a, b in zip(spec.block_starts, ends)]
    return np.add.reduceat(np.concatenate(rows), spec.block_starts, axis=1)


def _overlaps_written_out(spec, psi, B) -> np.ndarray:
    """One state's S: y = V* psi and Bt = V* B V, then ``_overlaps_by_reduceat``."""
    V = spec.basis_matrix
    return _overlaps_by_reduceat(spec, V.conj().T @ psi, V.conj().T @ B @ V)


@pytest.mark.parametrize("n", [1, 2, 3, 17, 257])
@pytest.mark.parametrize(
    "multiplicities",
    [[16] * 8, [3, 3, 3, 1, 1, 5, 5, 5, 2], [2, 7, 1, 12, 4, 3, 66], [140, 1, 67, 67]],
    ids=["equal", "runs-and-simple-levels", "mixed", "above-65"],
)
def test_slab_sums_give_the_bits_of_reduceat(multiplicities, n):
    """Each eigenspace's rows are summed slab by slab in numpy's pairwise order: every state's S has the
    bits, signed zeros included, of per-eigenspace ``np.add.reduceat`` and of the state taken alone.

    More than 65 rows (64 terms after the first) take the pairwise split; exact and signed zeros sit in
    the amplitudes and in V* B V, and the fourth state's second eigenspace is all zeros of either sign.
    """
    mults = np.array(multiplicities)
    m = int(mults.sum())
    spec = SpectralDecomposition(values=np.arange(mults.size, dtype=float), basis_matrix=np.eye(m),
                                 multiplicities=mults)
    rng = derive_rng(530, n, m)

    def signed_zeros(shape):
        return np.copysign(0.0, rng.standard_normal(shape)) + 1j * np.copysign(0.0, rng.standard_normal(shape))

    y = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    Bt = random_hermitian(m, rng)
    y[rng.random(y.shape) < 0.1] = 0.0
    y = np.where(rng.random(y.shape) < 0.1, signed_zeros(y.shape), y)
    Bt = np.where(rng.random(Bt.shape) < 0.1, signed_zeros(Bt.shape), Bt)
    if n > 3:
        a, b = spec.block_starts[1], spec.block_starts[1] + mults[1]
        y[3, a:b] = signed_zeros(b - a)
    stacked = block_overlap_matrix(spec, None, Bt, amplitudes=y)
    assert stacked.shape == (n, mults.size, mults.size)
    for state, S in zip(y, stacked):
        assert np.array_equal(S.view(np.int64), _overlaps_by_reduceat(spec, state, Bt).view(np.int64))
        assert np.array_equal(S.view(np.int64), block_overlap_matrix(spec, None, Bt, amplitudes=state).view(np.int64))


def test_block_overlap_runs_match_single_states():
    rng = derive_rng(520)
    spec = random_hamiltonian(40, [12, 1, 7, 12, 3, 5], rng)
    B = random_hermitian(40, rng)
    run = dynamics.OVERLAP_RUN_BYTES // (12 * 40 * 16)
    n = 2 * run + 3  # three runs, the last one short
    psis = np.array([random_state(40, rng) for _ in range(n)])
    Bt = eigenbasis_observable(spec, B)
    stacked = block_overlap_matrix(spec, psis, Bt)
    assert stacked.shape == (n, 6, 6)
    for psi, S in zip(psis, stacked):
        assert np.array_equal(S, _overlaps_written_out(spec, psi, B))
        assert np.array_equal(S, block_overlap_matrix(spec, psi, Bt))


def test_gap_coefficients_follow_gap_pairs():
    rng = derive_rng(508)
    spec = random_hamiltonian(8, [1, 2, 1, 3, 1], rng)
    B = np.zeros((8, 8), dtype=complex)
    B[:3, :3] = random_hermitian(3, rng)  # couples to a subset of the eigenvalues
    B = spec.basis_matrix @ B @ spec.basis_matrix.conj().T
    cs = contributing_set(spec, B)
    gi = cs.gaps
    psis = np.array([random_state(8, rng) for _ in range(3)])
    stack = block_overlap_matrix(cs, psis, eigenbasis_observable(cs, B))
    rows = gap_coefficients(stack, gi)
    assert rows.shape == (3, gi.count)
    for S, row in zip(stack, rows):
        assert np.array_equal(row, S[~np.eye(cs.n_distinct, dtype=bool)])
    # the rows in gap order are the entries at the sorted flat positions, and the gaps are the full spectrum's
    d = cs.n_distinct
    assert np.array_equal(stack.reshape(3, d * d)[:, gi.positions], rows[:, np.argsort(gi.values, kind="stable")])
    levels = spec.values[np.searchsorted(spec.values, cs.values)]
    i, j = np.nonzero(~np.eye(d, dtype=bool))
    assert np.array_equal(gi.values, levels[i] - levels[j])


def test_dephased_power_of_a_state_does_not_depend_on_its_stack():
    """100 simple levels give 9900 gap clusters, more than ``einsum`` sums a lone row of in one piece."""
    rng = derive_rng(509)
    gaps = GapIndex(np.sort(rng.standard_normal(100)))
    assert gaps.starts.size > 8192
    S = rng.standard_normal((5, 100, 100)) + 1j * rng.standard_normal((5, 100, 100))
    stack = dephased_power(gaps, S)
    for n in (1, 2, 3):
        assert dephased_power(gaps, S[:n]).tolist() == stack[:n].tolist()
    assert [dephased_power(gaps, S[k : k + 1])[0] for k in range(5)] == stack.tolist()
    # the clusters' squared sums, as a plain sum of one state's coefficients would give them to rounding
    order = np.argsort(gaps.values, kind="stable")
    sums = np.add.reduceat(gap_coefficients(S, gaps)[:, order], gaps.starts, axis=1)
    assert stack == pytest.approx(np.sum(np.abs(sums) ** 2, axis=1), rel=1e-12)


def _uncoupled_levels_case():
    """Spectrum with multiplicities, a macro projector cut from its eigenbasis (two levels do not couple), a state."""
    rng = derive_rng(513)
    spec = random_hamiltonian(9, [2, 1, 3, 1, 2], rng, eigenvalues="arithmetic", spacing=0.6)
    B = macro_decomposition(spec, dims=[6, 3]).projector("eq")
    return spec, contributing_set(spec, B), B, random_state(9, rng)


def test_restricted_overlaps_are_the_contributing_submatrix():
    spec, cs, B, psi = _uncoupled_levels_case()
    assert np.array_equal(cs.values, spec.values[:3]) and cs.dim == spec.dim
    full = block_overlap_matrix(spec, psi, eigenbasis_observable(spec, B))
    assert np.abs(block_overlap_matrix(cs, psi, eigenbasis_observable(cs, B)) - full[:3, :3]).max() <= 1e-13
    assert np.abs(full[3:]).max() <= 1e-13 and np.abs(full[:, 3:]).max() <= 1e-13


def test_restricted_expectation_curve_matches_the_full_one():
    spec, cs, B, psi = _uncoupled_levels_case()
    times = np.linspace(0.0, 20.0, 41)
    assert np.abs(expectation_curve(cs, psi, B, times) - expectation_curve(spec, psi, B, times)).max() <= 1e-12


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
    curves = overlap_curve(spec.values, block_overlap_matrix(spec, psis, eigenbasis_observable(spec, B)), times)
    for psi, t, curve in zip(psis, times, curves):
        oracle = expectation_curve(spec, psi, B, t)
        assert np.abs(curve - oracle).max() <= 1e-12 * (1.0 + np.abs(oracle).max())


def test_dense_phase_forms_rows_independent_of_stacking():
    rng = derive_rng(506)
    spec = simple_spectrum(np.sort(rng.standard_normal(5)))
    forms = PhaseForms(spec, np.eye(5), 3.0, None)
    S = rng.standard_normal((4, 5, 5)) + 1j * rng.standard_normal((4, 5, 5))
    stacked = forms.states(None, S)
    assert all(forms.states(None, S[i : i + 1])[0] == stacked[i] for i in range(4))
    assert PhaseForms(simple_spectrum([1.0]), np.eye(1), 3.0, None).states(None, S[:, :1, :1]).tolist() == [0.0] * 4


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
        S = block_overlap_matrix(cs, psi, eigenbasis_observable(cs, B))
        gi = cs.gaps
        coeffs = S[~np.eye(cs.n_distinct, dtype=bool)]
        clusters = {}
        for g, w in zip(np.round(gi.values, 9), coeffs):
            clusters[g] = clusters.get(g, 0.0) + w
        brute = sum(abs(v) ** 2 for v in clusters.values())
        val = expectation_curve_variance_infinite(spec, psi, B)
        assert val == pytest.approx(brute, rel=1e-9, abs=1e-12)


def test_dephasing_clusters_with_contributing_tolerance():
    # Contributing levels {0, 1, 2 + 1e-7}; the level at 1000 does not couple
    # to B.  The gaps 1 and 1 + 1e-7 are distinct at the contributing
    # tolerance (1e-9 times diameter 2), as the gap degeneracy counts them,
    # but would merge at 1e-9 times the full diameter 1000.
    spec = simple_spectrum([0.0, 1.0, 2.0 + 1e-7, 1000.0])
    B = np.zeros((4, 4))
    B[:3, :3] = 1.0 / 3.0
    psi = np.full(4, 0.5)
    cs = contributing_set(spec, B)
    assert cs.n_distinct == 3 and cs.gaps.max_degeneracy == 1
    S = block_overlap_matrix(cs, psi, eigenbasis_observable(cs, B))
    power = float(np.sum(np.abs(gap_coefficients(S, cs.gaps)) ** 2))
    assert power == pytest.approx(1.0 / 24.0, rel=1e-12)
    infinite = expectation_curve_variance_infinite(spec, psi, B)
    assert infinite == pytest.approx(power, rel=1e-12)
    assert expectation_curve_variance(spec, psi, B, horizon=1e9) == pytest.approx(infinite, rel=1e-2)


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
    gaps = GapIndex(values).values
    R = gap_phase_matrix(gaps, horizon=3.0)
    assert np.abs(np.diag(R) - 1.0).max() <= 1e-12
    assert np.abs(R - R.conj().T).max() <= 1e-12
    assert np.abs(R).max() <= 1.0 + 1e-12
    assert np.linalg.eigvalsh(R).min() >= -1e-9


@pytest.mark.parametrize("d", [8, 24])
@pytest.mark.parametrize("horizon", [0.7, 8.0, 32.0])
def test_phase_matrix_keeps_the_bits_of_the_closed_form(d, horizon):
    gaps = GapIndex(np.sort(derive_rng(511, d).standard_normal(d)) * 2.0).values
    delta = gaps[:, None] - gaps[None, :]
    closed_form = np.exp(0.5j * delta * horizon) * np.sinc(delta * horizon / (2.0 * np.pi))
    assert gap_phase_matrix(gaps, horizon).tobytes() == closed_form.tobytes()


def test_phase_matrix_entries_match_brute_average():
    gaps = GapIndex([0.0, 1.0, 2.5]).values
    T = 4.0
    R = gap_phase_matrix(gaps, T)
    ts = np.linspace(0.0, T, 200_001)
    for a in range(gaps.size):
        for b in range(gaps.size):
            brute = np.trapezoid(np.exp(1j * (gaps[a] - gaps[b]) * ts), ts) / T
            assert R[a, b] == pytest.approx(brute, abs=1e-8)


def test_phase_matrix_norm_short_time_is_pair_count():
    values = np.array([0.0, 0.3, 1.1, 2.9])
    gaps = GapIndex(values).values
    R = gap_phase_matrix(gaps, horizon=1e-9)
    assert operator_norm(R) == pytest.approx(gaps.size, abs=1e-6)


def test_phase_matrix_norm_sidon_spectrum():
    # All 12 ordered gaps of {0,1,3,7} are distinct, so R tends to the identity.
    gaps = GapIndex([0.0, 1.0, 3.0, 7.0])
    norm = operator_norm(gap_phase_matrix(gaps.values, horizon=1e6))
    assert norm == pytest.approx(1.0, abs=1e-3)
    # a long horizon on few levels would need more nodes than pairs: the dense route
    norm, route = phase_matrix_norm(gaps, 1e6, gauss_rule(gaps, 1e6))
    assert route == {"horizon": 1e6, "route": "dense", "nodes": None, "pairs": 12, "error": 0.0}
    assert norm == pytest.approx(1.0, abs=1e-3)


def test_phase_matrix_norm_arithmetic_degeneracy():
    # {0,1,2,3}: the gap +1 (and -1) appears three times, so the long-time
    # norm is the maximal gap multiplicity.
    spec = simple_spectrum([0.0, 1.0, 2.0, 3.0])
    assert spec.gaps.max_degeneracy == 3
    gaps = GapIndex(spec.values).values
    norm = operator_norm(gap_phase_matrix(gaps, horizon=1e6))
    assert norm == pytest.approx(3.0, abs=1e-3)


#: The first 24 terms of the Mian-Chowla sequence less 1: a Sidon set, all gaps distinct.
MIAN_CHOWLA = [0, 1, 3, 7, 12, 20, 30, 44, 65, 80, 96, 122, 147, 181, 203, 251, 289, 360, 400, 474, 564, 592, 661, 774]


@pytest.mark.parametrize(
    "values",
    [
        np.sort(derive_rng(512).standard_normal(24)) * 3.0,
        MIAN_CHOWLA[:8],  # Sidon: all gaps distinct
        np.arange(12.0),  # arithmetic: maximal gap degeneracy
        np.sort(derive_rng(512, 8).standard_normal(8)) * 3.0,
        np.sort(derive_rng(512, 48).standard_normal(48)) * 3.0,
        0.05 * np.array(MIAN_CHOWLA, dtype=float),
        0.5 * np.arange(24.0),
    ],
    ids=["random", "sidon", "arithmetic", "random-8", "random-48", "sidon-24", "arithmetic-24"],
)
def test_phase_matrix_norm_matches_singular_value_oracle(values):
    """Either route agrees with the largest eigenvalue of the dense R, and the kernel's never falls short of it.

    The kernel adds its error bound, at most 1e-16, so a shortfall beyond
    rounding would show a bound that does not hold.
    """
    gaps = GapIndex(values)
    routes = []
    for horizon in (1e-3, 0.7, 8.0, 32.0):
        oracle = float(np.linalg.eigvalsh(gap_phase_matrix(gaps.values, horizon))[-1])
        norm, route = phase_matrix_norm(gaps, horizon, gauss_rule(gaps, horizon))
        assert norm == pytest.approx(oracle, rel=1e-13)
        assert norm >= oracle * (1.0 - 1e-14)
        routes.append(route["route"])
    assert "kernel" in routes


def test_the_sidon_spectrum_has_distinct_gaps():
    assert GapIndex(MIAN_CHOWLA).max_degeneracy == 1


@pytest.mark.parametrize("n", [1, 2, 3, 8, 37, 160])
def test_gauss_legendre_integrates_polynomials_of_degree_2n_minus_1(n):
    x, w = gauss_legendre(n)
    assert np.all(np.diff(x) < 0) and np.all(w > 0)
    assert x == pytest.approx(np.sort(np.polynomial.legendre.leggauss(n)[0])[::-1], abs=1e-15)
    for degree in range(0, 2 * n, max(1, n // 4)):
        exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
        assert np.dot(w, x**degree) == pytest.approx(exact, rel=1e-14, abs=1e-15)


@pytest.mark.parametrize("omega", [1e-3, 0.5, 7.0, 60.0])
@pytest.mark.parametrize("n", [1, 2, 3, 6, 12, 40])
def test_gauss_phase_error_bounds_the_rule_on_its_fastest_phase(n, omega):
    """The n-node average of exp(i w t) over [0, T] at |w| T = 2 omega misses the exact one by at most the bound."""
    x, w = gauss_legendre(n)
    phase = 2.0 * omega  # w T, so that exp(i w t) = exp(i phase (x + 1) / 2)
    rule = np.dot(0.5 * w, np.exp(0.5j * phase * (x + 1.0)))
    exact = np.expm1(1j * phase) / (1j * phase)
    assert abs(rule - exact) <= gauss_phase_error(n, omega) + 1e-15


@pytest.mark.parametrize(
    "omega, pairs",
    [(1e-9, 56), (3.5e-3, 56), (0.7, 552), (8.0, 2256), (72.0, 552), (300.0, 552), (1500.0, 2256)],
)
def test_kernel_nodes_are_the_fewest_that_meet_the_error_target(omega, pairs):
    n = kernel_nodes(omega, pairs)
    assert n is not None and omega / 2 <= n < pairs
    assert gauss_phase_error(n, omega) <= PHASE_NORM_ERROR / pairs
    if n > 1:
        assert gauss_phase_error(n - 1, omega) > PHASE_NORM_ERROR / pairs


def test_kernel_nodes_give_way_to_the_dense_route():
    assert kernel_nodes(2.0 * 56, 56) is None  # omega / 2 nodes already reach the pair count
    assert kernel_nodes(100.0, 56) is None  # so does the error target
    assert kernel_nodes(math.inf, 56) is None
    assert kernel_nodes(100.0, 552) is not None


def test_kernel_route_never_builds_the_phase_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the kernel route built R")

    gaps = GapIndex(np.sort(derive_rng(512, 48).standard_normal(48)) * 3.0)
    monkeypatch.setattr(dynamics, "gap_phase_matrix", refuse)
    norm, route = phase_matrix_norm(gaps, 8.0, gauss_rule(gaps, 8.0))
    assert route["route"] == "kernel" and route["pairs"] == 2256 and route["nodes"] < 2256
    assert 0.0 < route["error"] <= PHASE_NORM_ERROR
    assert 1.0 <= norm <= 2256.0


@pytest.mark.parametrize(
    "multiplicities, eigenvalues",
    [([1] * 48, "gaussian"), ([2] * 24, "arithmetic")],
    ids=["d48-gaussian", "arithmetic-multiplicity-2"],
)
def test_rule_forms_match_the_dense_forms(multiplicities, eigenvalues):
    """At T = 8 the Gauss rule gives each state's phase form to rel 1e-12 of c^H R c.

    The rule's own error is at most eps P |S_off|_F^2, which is checked to
    lie below that tolerance, so the rest of the difference is rounding.
    """
    rng = derive_rng(531, len(multiplicities))
    spec = random_hamiltonian(48, multiplicities, rng, eigenvalues=eigenvalues, spacing=0.25)
    B = random_projector(48, 24, rng)
    cs = contributing_set(spec, B)
    psis = np.array([random_state(48, rng) for _ in range(12)])
    Bt = eigenbasis_observable(cs, B)
    S = block_overlap_matrix(cs, psis, Bt)
    # S is that of B itself: its entries sum to <psi|B|psi>, the curve at t = 0
    assert S.sum(axis=(1, 2)) == pytest.approx(np.einsum("sd,de,se->s", psis.conj(), B, psis), rel=1e-12)
    rows = gap_coefficients(S, cs.gaps)
    ruled = PhaseForms(cs, Bt, 8.0, gauss_rule(cs.gaps, 8.0))
    route = ruled.record
    assert route["route"] == "rule" and route["pairs"] == cs.gaps.count and 0.0 < route["error"] <= PHASE_NORM_ERROR
    y, S_again = state_overlaps(cs, psis, Bt)
    assert y.tolist() == state_amplitudes(cs, psis).tolist() and S_again.tolist() == S.tolist()
    forms = ruled.states(y, S)
    dense = PhaseForms(cs, Bt, 8.0, None).states(y, S)
    assert forms == pytest.approx(dense, rel=1e-12)
    # a state's form is its own curve's deviation, from B in the original basis
    assert forms[0] == pytest.approx(expectation_curve_variance(spec, psis[0], B, 8.0), rel=1e-12)
    bound = route["error"] * np.sum(np.abs(rows) ** 2, axis=1)
    assert np.all(bound <= 1e-12 * dense)
    # one state alone gives the bits it has in the stack
    assert ruled.states(y[3:4], S[3:4])[0] == forms[3]


def test_degenerate_levels_take_the_dense_forms_route():
    """8 levels of 16 columns each: a rule exists, but its n m^2 per state exceeds the dense P^2."""
    rng = derive_rng(532)
    spec = random_hamiltonian(128, [16] * 8, rng)
    gaps = spec.gaps
    assert gaps.count == 56 and gauss_rule(gaps, 8.0) is not None
    B = random_projector(128, 64, rng)
    forms = PhaseForms(spec, eigenbasis_observable(spec, B), 8.0, gauss_rule(gaps, 8.0))
    assert forms.rule is None
    assert forms.record == {"horizon": 8.0, "route": "dense", "nodes": None, "pairs": 56, "error": 0.0}
    # the dense forms read the state's S, which must be that of B in the original basis
    psi = random_state(128, rng)
    form = forms.states(state_amplitudes(spec, psi[None]),
                        block_overlap_matrix(spec, psi[None], eigenbasis_observable(spec, B)))[0]
    assert form == pytest.approx(expectation_curve_variance_quadrature(spec, psi, B, 8.0), rel=1e-6)
    assert gauss_rule(GapIndex([1.0]), 8.0) is None  # no pair, no rule


def test_gauss_rule_averages_over_the_horizon():
    gaps = GapIndex(np.linspace(0.0, 1.3, 12))
    rule = gauss_rule(gaps, 5.0)
    assert rule._fields == ("times", "weights", "nodes", "error")
    times, weights, n, error = rule
    assert times.size == weights.size == n < gaps.count and 0.0 < error <= PHASE_NORM_ERROR
    assert error == gauss_phase_error(n, 1.3 * 5.0) * gaps.count
    assert np.all((times > 0.0) & (times < 5.0)) and weights.sum() == pytest.approx(1.0, rel=1e-15)
    # the fastest phase of R, at twice the diameter, averages to within eps
    w = 2.0 * 1.3
    exact = np.expm1(1j * w * 5.0) / (1j * w * 5.0)
    assert abs(np.dot(weights, np.exp(1j * w * times)) - exact) <= error / gaps.count + 1e-15


def test_window_norm_bound_worked_example():
    spec = simple_spectrum([0.0, 1.0, 2.0])
    counts = spectral_counts(spec, [1.5])
    [cell], [route] = phase_norm_cells(spec.gaps, counts, [1.5], [100.0], [gauss_rule(spec.gaps, 100.0)])
    assert route["horizon"] == 100.0 and route["pairs"] == 6
    expected = 3.0 * (1.0 + 8.0 * math.log2(3.0) / 150.0)
    assert cell["bound"] == pytest.approx(expected, rel=1e-12)
    assert cell["norm"] <= cell["bound"]


def test_window_norm_bound_random_sweep():
    for trial in range(10):
        rng = derive_rng(509, trial)
        d = int(rng.integers(3, 9))
        spec = simple_spectrum(np.sort(rng.standard_normal(d)) * 2.0)
        diameter = spec.values[-1] - spec.values[0]
        horizons = (0.5, 5.0, 50.0)
        rules = [gauss_rule(spec.gaps, T) for T in horizons]
        kappas = (0.1 * diameter, 0.7 * diameter)
        cells, routes = phase_norm_cells(spec.gaps, spectral_counts(spec, kappas), kappas, horizons, rules)
        assert [r["horizon"] for r in routes] == [0.5, 5.0, 50.0]
        assert len(cells) == 6
        for cell in cells:
            assert cell["norm"] <= cell["bound"] * (1 + 1e-9)


def test_bound_inputs_builder_matches_contributing_set():
    rng = derive_rng(510)
    spec = random_hamiltonian(8, [2, 2, 2, 2], rng)
    B = random_hermitian(8, rng)
    counts = spectral_counts(contributing_set(spec, B), [0.5, 1.0])
    inp = BoundInputs.from_counts(
        counts, operator_norm(B), norm_rho=0.2, epsilon=0.1, delta=0.1, kappa=1.0, horizon=10.0
    )
    assert inp.n_contributing == counts["n_distinct"]
    assert inp.max_degeneracy == counts["max_degeneracy"]
    assert inp.max_gap_degeneracy == counts["max_gap_degeneracy"]
    assert inp.gap_window_count == counts["window_counts"]["1.0"]
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
    m = equilibration_bounds(_unit_inputs())
    assert m.expected_time_variance == pytest.approx(24.0, rel=1e-12)
    assert m.mixture_curve_deviation == pytest.approx(1.0, rel=1e-12)
    assert m.time_average_variance == pytest.approx(23.0, rel=1e-12)
    assert m.expected_dephasing_variance == pytest.approx(24.0, rel=1e-12)


def test_moment_bounds_linear_in_state_norm():
    a = equilibration_bounds(_unit_inputs(norm_rho=0.5))
    b = equilibration_bounds(_unit_inputs(norm_rho=0.25))
    for field in (
        "expected_time_variance",
        "mixture_curve_deviation",
        "time_average_variance",
        "expected_dephasing_variance",
    ):
        assert getattr(a, field) == pytest.approx(2.0 * getattr(b, field), rel=1e-12)


def test_finite_time_branch_worked_examples():
    markov = equilibration_bounds(_unit_inputs(norm_rho=1e-6)).markov
    assert markov == pytest.approx(math.sqrt(18800.0 * 1e-6), rel=1e-12)

    vac = equilibration_bounds(_unit_inputs(norm_rho=1.0 / 64.0)).markov
    assert vac == pytest.approx(math.sqrt(293.75), rel=1e-12)
    assert vac > 2.0  # vacuous: exceeds any possible deviation of a unit observable

    inf_bound = equilibration_bounds(_unit_inputs(norm_rho=1e-8)).infinite_time
    assert inf_bound == pytest.approx(math.sqrt(1.88e-4), rel=1e-12)


def test_finite_time_bound_takes_minimum_branch():
    b = equilibration_bounds(_unit_inputs(norm_rho=0.01))
    assert b.finite_time == pytest.approx(min(b.markov, b.concentration), rel=1e-12)


def test_time_variance_bound_converges_to_dephased_bound():
    # With the window count already at the gap degeneracy, the finite-horizon
    # moment bound approaches the dephased one as the horizon grows.
    small = equilibration_bounds(
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
    for name, value in (("kappa", "a"), ("kappa", None), ("horizon", math.nan), ("norm_b", math.inf),
                        ("max_degeneracy", True), ("n_contributing", math.nan)):
        with pytest.raises(ValueError, match=f"{name} must be a finite real number"):
            _unit_inputs(**{name: value})


def test_concentration_tail_values():
    assert concentration_tail_bound(0.0, 2.0, 0.1) == pytest.approx(12.0, rel=1e-12)
    expected = 12.0 * math.exp(-CONCENTRATION_CONSTANT * 900.0 / (2.0 * 4.0 / 64.0))
    val = concentration_tail_bound(30.0, 2.0, 1.0 / 64.0)
    assert val == pytest.approx(expected, rel=1e-12)
    assert 0.94 < val < 0.96


def test_concentration_tail_takes_its_limit_where_the_exponent_overflows():
    # deviation^2 overflows above ~1.3e154; L^2 |rho| underflows to 0 at L = 1e-170
    assert concentration_tail_bound(1e200, 2.0, 0.5) == 0.0
    assert concentration_tail_bound(1.0, 1e-170, 0.5) == 0.0
    assert concentration_tail_bound(0.0, 1e-170, 0.5) == 12.0
    # below the overflow, exp itself underflows to the same 0
    assert concentration_tail_bound(1e150, 2.0, 0.5) == 0.0


def test_concentration_tail_monotonicity():
    lo = concentration_tail_bound(1.0, 2.0, 0.1)
    hi = concentration_tail_bound(2.0, 2.0, 0.1)
    assert hi < lo
    big_rho = concentration_tail_bound(1.0, 2.0, 0.2)
    assert big_rho > lo
