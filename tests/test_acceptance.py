"""Acceptance gate: one test per shipped guarantee, desk scale, fixed seeds.

Each test prints a one-line summary with the measured margins; `pytest -v`
gives the pass/fail line per criterion.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.stats import ks_2samp

from conftest import simple_spectrum
from gaplab import cli
from gaplab.dynamics import (
    diagonal_ensemble_expectation,
    expectation_curve_variance,
    expectation_curve_variance_quadrature,
    gap_phase_matrix,
    infinite_time_average,
    mixture_curve_deviation,
    mixture_curve_deviation_quadrature,
)
from gaplab.linalg import operator_norm
from gaplab.moments import (
    gap_variance_bound,
    gap_variance_exact,
    k_integral,
    k_product_bound,
)
from gaplab.runner import run_scenario
from gaplab.sampling import (
    DensityMatrix,
    derive_rng,
    empirical_density_matrix,
    sample_gap,
    sample_gap_resampling_oracle,
)
from gaplab.scenarios import (
    ScenarioConfig,
    haar_unitary,
    random_density,
    random_hamiltonian,
)
from gaplab.spectra import GapIndex

SEED = 20260817


def random_hermitian(dim, rng, scale=1.0):
    Z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (Z + Z.conj().T) / 2.0


def uniform_density(dim, basis=None):
    b = np.eye(dim, dtype=complex) if basis is None else basis
    return DensityMatrix(probabilities=np.full(dim, 1.0 / dim), basis=b)


def admissible_density(dim, rng, limit=0.25):
    """Random density with p_max < limit; exact flat spectrum at dim = 4."""
    if dim == 4:
        return uniform_density(4, haar_unitary(4, rng))
    return random_density(dim, rng, p_max_limit=limit)


def test_c01_sampler_fidelity():
    rng = derive_rng(SEED, 1)
    rho = random_density(8, rng, p_max_limit=0.25)
    n = 200_000
    t0 = time.perf_counter()
    states = sample_gap(rho, rng, size=n)
    emp = empirical_density_matrix(states)
    distance = np.linalg.norm(emp - rho.matrix(), "nuc")
    replicates = 32
    boot = np.empty(replicates)
    base = np.einsum("s,sd,se->de", np.ones(n) / n, states, states.conj())
    assert np.abs(base - emp).max() <= 1e-12
    for b in range(replicates):
        w = rng.multinomial(n, np.full(n, 1.0 / n)) / n
        boot[b] = np.linalg.norm(np.einsum("s,sd,se->de", w, states, states.conj()) - emp, "nuc")
    se = float(np.sqrt(np.mean(boot**2)))
    elapsed = time.perf_counter() - t0
    assert distance <= 0.02
    assert distance <= 5.0 * se
    assert elapsed < 60.0
    print(f"c01 distance={distance:.5f} (cap 0.02), 5*se={5 * se:.5f}, runtime={elapsed:.1f}s")


def test_c02_sampler_cross_oracle():
    targets = [
        np.array([0.4, 0.3, 0.2, 0.1]),
        np.full(4, 0.25),
        np.array([0.5, 0.3, 0.2]),
    ]
    pvalues = []
    for j, probs in enumerate(targets):
        rho = DensityMatrix(probabilities=probs, basis=np.eye(len(probs)))
        rng = derive_rng(SEED, 2, j)
        direct = np.abs(sample_gap(rho, rng, size=50_000)[:, 1]) ** 2
        oracle = np.array(
            [
                np.abs(sample_gap_resampling_oracle(rho, rng, batch=10_000)[1]) ** 2
                for _ in range(1200)
            ]
        )
        pvalues.append(ks_2samp(direct, oracle).pvalue)
    assert min(pvalues) > 1e-3
    print(f"c02 KS p-values={[f'{p:.3f}' for p in pvalues]} (floor 1e-3)")


def test_c03_haar_specialization():
    rng = derive_rng(SEED, 3)
    rho = uniform_density(4)
    states = sample_gap(rho, rng, size=200_000)
    quartic = np.abs(states[:, 1]) ** 4
    mean = float(quartic.mean())
    se = float(np.std(quartic) / math.sqrt(quartic.size))
    assert abs(mean - 0.1) <= 4.0 * se

    A = np.diag([1.0, -1.0, 1.0, -1.0]).astype(complex)
    exact = gap_variance_exact(rho, A)
    assert exact == pytest.approx(0.2, abs=1e-9)
    vals = np.einsum("sd,de,se->s", states.conj(), A, states)
    sq = np.abs(vals - vals.mean()) ** 2
    mc, mc_se = float(sq.mean()), float(np.std(sq) / math.sqrt(sq.size))
    assert abs(mc - exact) <= 4.0 * mc_se
    print(f"c03 E|c1|^4={mean:.5f} (target 0.1), mc_var={mc:.5f} vs exact 0.2")


def test_c04_k_integral_closed_forms():
    uniform4 = np.full(4, 0.25)
    closed = {0: 4.0 / 3.0, 1: 8.0 / 3.0, 2: 32.0 / 3.0}
    for k, value in closed.items():
        assert k_integral(uniform4, k) == pytest.approx(value, rel=1e-8)
        assert k_product_bound(0.25, k) == pytest.approx(value, rel=1e-8)
    rng = derive_rng(SEED, 4)
    slack = []
    for i in range(50):
        dim = int(rng.integers(5, 11))
        probs = random_density(dim, rng, p_max_limit=0.25).probabilities
        assert probs.max() < 0.25
        for k in (0, 1, 2):
            value = k_integral(probs, k)
            bound = k_product_bound(float(probs.max()), k)
            assert value < bound - 1e-12
            slack.append(bound - value)
    print(f"c04 closed forms ok, dominance slack min={min(slack):.3e} over 150 cases")


def test_c05_variance_bound_dominance():
    rng = derive_rng(SEED, 5)
    worst_margin = np.inf
    worst_sigma = 0.0
    for i in range(100):
        dim = 4 + i % 9
        rho = admissible_density(dim, rng)
        A = random_hermitian(dim, rng)
        report = gap_variance_bound(rho, A)
        exact = gap_variance_exact(rho, A)
        assert report.exact_variance == pytest.approx(exact, rel=1e-12)
        assert report.bound >= exact * (1.0 - 1e-12)
        worst_margin = min(worst_margin, report.bound - exact)
        states = sample_gap(rho, rng, size=100_000)
        vals = np.einsum("sd,de,se->s", states.conj(), A, states)
        sq = np.abs(vals - vals.mean()) ** 2
        mc, se = float(sq.mean()), float(np.std(sq) / math.sqrt(sq.size))
        sigma = abs(mc - exact) / se
        assert sigma <= 4.0, f"case {i}: mc={mc} exact={exact} ({sigma:.2f} sigma)"
        worst_sigma = max(worst_sigma, sigma)
    print(f"c05 min bound-exact margin={worst_margin:.4f}, worst mc deviation={worst_sigma:.2f} sigma")


def test_c06_phase_norm_window_bound():
    rng = derive_rng(SEED, 6)
    kappas = (0.4, 0.9, 1.7, 3.1)
    horizons = (2.0, 5.0, 20.0, 100.0)
    cells = 0
    worst_ratio = 0.0
    for i in range(50):
        d = int(rng.integers(3, 21))
        values = np.sort(rng.uniform(0.0, float(d), size=d))
        spec = simple_spectrum(values)
        gaps = GapIndex(spec.values).values
        if i < 5:
            small = operator_norm(gap_phase_matrix(gaps, 1e-9))
            assert small == pytest.approx(d * (d - 1), abs=1e-6)
        for T in horizons:
            norm = operator_norm(gap_phase_matrix(gaps, T))
            for kappa in kappas:
                bound = spec.gaps.window_counts([kappa])[0] * (1.0 + 8.0 * math.log2(d) / (kappa * T))
                assert norm <= bound * (1.0 + 1e-9)
                worst_ratio = max(worst_ratio, norm / bound)
                cells += 1
    assert cells == 800
    for values in ([0.0, 1.0, 3.0, 7.0], [0.0, 0.5, 1.5, 3.5], [0.0, 1.0, 4.0, 9.0, 11.0]):
        gaps = GapIndex(values).values
        norm = operator_norm(gap_phase_matrix(gaps, 1e6))
        assert norm == pytest.approx(1.0, abs=1e-3)
    print(f"c06 800 cells ok, worst norm/bound={worst_ratio:.3f}, long-horizon norms at 1")


def sweep_configs():
    rng = derive_rng(SEED, 7)
    configs = []
    for i in range(20):
        dim = int(rng.integers(8, 33))
        if i % 5 == 0:
            mult = [2] * (dim // 2) + ([1] if dim % 2 else [])
        else:
            mult = [1] * dim
        configs.append(
            ScenarioConfig.from_dict(
                {
                    "schema": "gaplab-scenario/1",
                    "dimension": dim,
                    "seed": SEED + i,
                    "hamiltonian": {"kind": "random", "multiplicities": mult},
                    "rho": {"kind": "random"},
                    "observable": {"kind": "random_projector"},
                    "horizons": [6.0],
                    "kappas": [0.5, 1.5],
                    "epsilon": 0.1,
                    "delta": 0.1,
                    "checks": ["moments", "equilibration"],
                }
            )
        )
    return configs


@pytest.fixture(scope="module")
def sweep_reports():
    return [run_scenario(c) for c in sweep_configs()]


def test_c07_moment_inequalities(sweep_reports):
    names = (
        "mean_curve_variance_bound",
        "mixture_curve_deviation_bound",
        "time_average_variance_bound",
        "mean_dephasing_variance_bound",
    )
    margins = []
    for idx, report in enumerate(sweep_reports):
        by_name = {c.name: c for c in report.checks}
        for name in names:
            rec = by_name[name]
            assert rec.passed, f"scenario {idx}: {name} measured={rec.measured} bound={rec.bound}"
            margins.append(rec.margin)
    assert len(margins) == 80
    print(f"c07 80 inequality cells pass, min margin={min(margins):.4f}")


def test_c08_finite_time_exceedance(sweep_reports):
    vacuous_cells = 0
    checked_cells = 0
    worst = 0.0
    for idx, report in enumerate(sweep_reports):
        rec = next(c for c in report.checks if c.name == "finite_time_exceedance")
        assert rec.passed, f"scenario {idx}: fraction={rec.measured} threshold={rec.bound}"
        for cell in rec.detail["cells"]:
            if cell["vacuous"]:
                vacuous_cells += 1
            else:
                checked_cells += 1
                assert cell["exceed_fraction"] <= rec.bound
                worst = max(worst, cell["exceed_fraction"])
    print(
        f"c08 exceedance ok on {checked_cells} cells, worst fraction={worst:.3f} "
        f"(threshold eps+4se), {vacuous_cells} vacuous cells flagged"
    )


def test_c09_concentration_scaling():
    dims = [16, 64, 256]
    config = ScenarioConfig.from_dict(
        {
            "schema": "gaplab-scenario/1",
            "dimension": 16,
            "seed": SEED + 90,
            "hamiltonian": {"kind": "random"},
            "rho": {"kind": "uniform"},
            "observable": {"kind": "random_projector", "rank": 8},
            "horizons": [4.0],
            "kappas": [1.0],
            "checks": ["concentration"],
            "concentration": {
                "time": 1.0,
                "n_states": 2000,
                "scaling_dims": dims,
                "epsilon_grid": [0.05, 0.1, 0.2, 0.4],
            },
        }
    )
    report = run_scenario(config)
    by_name = {c.name: c for c in report.checks}
    scaling = by_name["concentration_scaling"]
    assert scaling.passed
    slope = scaling.detail["slope"]
    assert abs(slope + 1.0) <= 0.2
    for d, var in zip(dims, scaling.detail["variances"]):
        assert var == pytest.approx(1.0 / (4.0 * (d + 1)), rel=0.15)
    vacuous = 0
    held = 0
    for tails in scaling.detail["tails"]:
        for cell in tails.values():
            if cell["vacuous"]:
                vacuous += 1
            else:
                held += 1
                assert cell["tail"] <= cell["bound"]
    tail_rec = by_name["concentration_tail"]
    assert tail_rec.passed
    print(
        f"c09 slope={slope:.3f} (target -1 +/- 0.2), variances match 1/(4(D+1)), "
        f"{held} tail cells held, {vacuous} vacuous flagged"
    )


def test_c10_exact_identities():
    rng = derive_rng(SEED, 10)
    quad_gap = 0.0
    for i in range(10):
        dim = 5 + i
        spec = random_hamiltonian(dim, [1] * dim, rng)
        B = random_hermitian(dim, rng)
        B /= operator_norm(B)
        uniform = uniform_density(dim)
        center = diagonal_ensemble_expectation(spec, uniform, B)
        assert abs(center - np.trace(B) / dim) <= 1e-12

        rho = random_density(dim, rng)
        psi = sample_gap(rho, rng)
        T = 4.0
        exact = expectation_curve_variance(spec, psi, B, T)
        quad = expectation_curve_variance_quadrature(spec, psi, B, T)
        assert abs(exact - quad) <= 1e-6
        quad_gap = max(quad_gap, abs(exact - quad))
        mix_exact = mixture_curve_deviation(spec, rho, B, T)
        mix_quad = mixture_curve_deviation_quadrature(spec, rho, B, T)
        assert abs(mix_exact - mix_quad) <= 1e-6
        quad_gap = max(quad_gap, abs(mix_exact - mix_quad))

    dim = 8
    spec = random_hamiltonian(dim, [1] * dim, rng)
    B = random_hermitian(dim, rng)
    rho = random_density(dim, rng)
    states = sample_gap(rho, rng, size=400)
    itas = np.array([infinite_time_average(spec, s, B) for s in states])
    center = diagonal_ensemble_expectation(spec, rho, B)
    spread = float(np.sqrt(np.mean(np.abs(itas - itas.mean()) ** 2) / itas.size))
    assert abs(itas.mean() - center) <= 4.0 * spread
    print(f"c10 identities ok, worst quadrature gap={quad_gap:.2e} (cap 1e-6)")


def test_c11_worker_determinism(tmp_path):
    shared = {
        "schema": "gaplab-scenario/1",
        "epsilon": 0.1,
        "delta": 0.1,
    }
    configs = [
        {
            **shared,
            "dimension": 8,
            "seed": 11,
            "hamiltonian": {"kind": "random"},
            "rho": {"kind": "random"},
            "observable": {"kind": "random_projector"},
            "horizons": [8.0],
            "kappas": [0.5, 1.5],
            "checks": ["spectral", "variance", "moments", "equilibration", "concentration"],
            "concentration": {"time": 1.0, "n_states": 200, "scaling_dims": [16, 32], "epsilon_grid": [0.2]},
        },
        {
            **shared,
            "dimension": 12,
            "seed": 101,
            "hamiltonian": {"kind": "random", "multiplicities": [2, 2] + [1] * 8},
            "rho": {"kind": "random"},
            "observable": {"kind": "random_hermitian"},
            "horizons": [5.0],
            "kappas": [0.7],
            "checks": ["spectral", "variance", "moments", "equilibration"],
        },
    ]
    for i, config in enumerate(configs):
        path = tmp_path / f"config{i}.json"
        path.write_text(json.dumps(config))
        blobs = {}
        for w in ("1", "2", "8"):
            out = tmp_path / f"report{i}-{w}.json"
            assert cli.main(["run", "--config", str(path), "--out", str(out), "--workers", w]) == 0
            blobs[w] = out.read_bytes()
        assert blobs["1"] == blobs["2"] == blobs["8"]
    print("c11 reports byte-identical across --workers 1/2/8 on both configs")
