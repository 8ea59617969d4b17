"""Scenario configs and the builders for Hamiltonians, states, and macrospaces."""

import json
from pathlib import Path

import numpy as np
import pytest

from gaplab import jsonio
from gaplab.sampling import derive_rng
from gaplab.scenarios import (
    ConfigError,
    ScenarioConfig,
    build_scenario,
    canonical_density,
    haar_unitary,
    load_scenario,
    macro_decomposition,
    microcanonical_density,
    random_density,
    random_hamiltonian,
)
from gaplab.spectra import spectral_counts


def config_dict(**overrides):
    base = {
        "schema": "gaplab-scenario/1",
        "dimension": 8,
        "seed": 5,
        "hamiltonian": {"kind": "random"},
        "rho": {"kind": "random"},
        "observable": {"kind": "random_projector"},
    }
    base.update(overrides)
    return base


def test_haar_unitary_is_unitary_and_seeded():
    U = haar_unitary(6, derive_rng(700))
    assert np.abs(U @ U.conj().T - np.eye(6)).max() <= 1e-10
    again = haar_unitary(6, derive_rng(700))
    assert np.array_equal(U, again)


def test_random_hamiltonian_respects_multiplicities():
    rng = derive_rng(701)
    spec = random_hamiltonian(7, [1, 1, 2, 3], rng)
    assert list(spec.multiplicities) == [1, 1, 2, 3]
    s = spectral_counts(spec, [])
    assert s["n_distinct"] == 4
    assert s["max_degeneracy"] == 3
    singles = random_hamiltonian(5, [1] * 5, derive_rng(702))
    assert spectral_counts(singles, [])["max_degeneracy"] == 1
    # integral floats and numpy integers are integers
    assert random_hamiltonian(6, [2.0, np.int64(1), 3], derive_rng(709)).multiplicities.tolist() == [2, 1, 3]


@pytest.mark.parametrize("multiplicities", [[1.9, 1, 1, 1, 1, 1], [0.5, 0.5, 1, 1, 1, 1, 1], [2, 0, 4], [True] * 6])
def test_random_hamiltonian_refuses_non_integral_multiplicities(multiplicities):
    with pytest.raises(ValueError, match="multiplicities must be positive integers"):
        random_hamiltonian(6, multiplicities, derive_rng(709))


@pytest.mark.parametrize("dims", [[4.5, 1.5], [6.0, 0.0], [5, float("nan")]])
def test_macro_decomposition_refuses_non_integral_dims(dims):
    spec = random_hamiltonian(6, [1] * 6, derive_rng(710))
    with pytest.raises(ValueError, match="macro dimensions must be positive integers"):
        macro_decomposition(spec, dims=dims)


def test_random_hamiltonian_arithmetic_progression_gaps():
    for k in (3, 5):
        spec = random_hamiltonian(k + 1, [1] * (k + 1), derive_rng(703), eigenvalues="arithmetic")
        assert np.abs(np.diff(spec.values) - 1.0).max() <= 1e-12
        assert spec.gaps.max_degeneracy == k


def test_random_hamiltonian_explicit_values():
    spec = random_hamiltonian(4, [2, 2], derive_rng(704), eigenvalues=[0.5, 2.5])
    assert np.abs(spec.values - [0.5, 2.5]).max() <= 1e-12


def test_random_density_properties():
    rng = derive_rng(705)
    rho = random_density(6, rng, p_max_limit=0.25)
    p = rho.probabilities
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(p) <= 0)
    assert p[0] < 0.25
    assert np.abs(rho.basis @ rho.basis.conj().T - np.eye(6)).max() <= 1e-10


def test_canonical_density_matches_boltzmann_weights():
    rng = derive_rng(706)
    spec = random_hamiltonian(5, [1] * 5, rng)
    rho = canonical_density(spec, beta=1.3)
    w = np.exp(-1.3 * np.asarray(spec.values))
    w /= w.sum()
    assert np.abs(np.sort(rho.probabilities)[::-1] - np.sort(w)[::-1]).max() <= 1e-12
    assert rho.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
    flat = canonical_density(spec, beta=0.0)
    assert np.abs(flat.probabilities - 0.2).max() <= 1e-12


@pytest.mark.parametrize("beta", [1000.0, -1000.0])
def test_canonical_density_at_large_beta_of_either_sign(beta):
    """The weight of the lowest (beta > 0) or highest (beta < 0) level is 1; the others underflow to 0."""
    spec = random_hamiltonian(5, [1] * 5, derive_rng(706))
    rho = canonical_density(spec, beta=beta)
    assert np.all(np.isfinite(rho.probabilities)) and rho.p_max == 1.0
    top = spec.blocks[0 if beta > 0 else -1][:, 0]
    assert np.array_equal(rho.basis[:, 0], top)


def test_microcanonical_density_on_block():
    rng = derive_rng(707)
    spec = random_hamiltonian(8, [1] * 8, rng)
    macro = macro_decomposition(spec, dims=[6, 2], labels=["eq", "rest"])
    rho = microcanonical_density(macro, "eq")
    assert np.count_nonzero(rho.probabilities > 0) == 6
    assert rho.probabilities[0] == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert np.trace(rho.matrix()).real == pytest.approx(1.0, abs=1e-12)
    full = microcanonical_density(macro_decomposition(spec, dims=[8], labels=["eq"]), "eq")
    assert np.abs(full.matrix() - np.eye(8) / 8.0).max() <= 1e-12
    with pytest.raises(ValueError):
        microcanonical_density(macro, "nope")


def test_macro_decomposition_default_split():
    rng = derive_rng(708)
    spec = random_hamiltonian(10, [1] * 10, rng)
    macro = macro_decomposition(spec)
    assert macro.labels[0] == "eq"
    dims = [b.shape[1] for b in macro.blocks]
    assert sum(dims) == 10
    assert dims[0] >= 5
    P = macro.projector("eq")
    assert np.abs(P @ P - P).max() <= 1e-10
    total = sum(macro.projector(lab) for lab in macro.labels)
    assert np.abs(total - np.eye(10)).max() <= 1e-10


def test_config_defaults_and_validation():
    cfg = ScenarioConfig.from_dict(config_dict())
    assert cfg.n_states == 200
    assert cfg.n_times == 256
    assert cfg.horizons == [10.0]
    assert cfg.kappas == [1.0]
    assert cfg.epsilon == 0.1
    assert set(cfg.checks) == {"spectral", "variance", "moments", "equilibration", "concentration"}

    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(config_dict(schema="other/9"))
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(config_dict(dimension=1))
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(config_dict(checks=["nonsense"]))
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(config_dict(epsilon=1.0))
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(config_dict(horizons=[-1.0]))


def test_readme_minimal_config_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("A minimal scenario config:", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    obj = json.loads(block)
    cfg = ScenarioConfig.from_dict(obj)
    assert (cfg.dimension, cfg.n_states, cfg.n_times) == (obj["dimension"], 200, 64)
    assert cfg.raw is obj


def test_config_sections_and_unknown_keys():
    cfg = ScenarioConfig.from_dict({k: v for k, v in config_dict().items() if k != "rho"})
    assert cfg.rho["kind"] == "uniform" and "rho" not in cfg.raw
    assert cfg.macro == {"dims": None, "labels": None}
    nulls = ScenarioConfig.from_dict(config_dict(macro=None, concentration=None))
    assert nulls.concentration["scaling_dims"] == [16, 64, 256]
    for bad, named in (
        (config_dict(rho={"beta": 1.0}), "rho.kind is required"),
        (config_dict(mc=None), "mc must be"),
        (config_dict(n_times=8), "n_times"),
        (config_dict(mc={"n_states": 8, "states": 8}), "mc.states"),
        (config_dict(hamiltonian={"kind": "file"}), "hamiltonian.path is required"),
    ):
        with pytest.raises(ConfigError, match=named):
            ScenarioConfig.from_dict(bad)


def test_build_scenario_from_files(tmp_path):
    rng = derive_rng(709)
    spec = random_hamiltonian(6, [2, 2, 2], rng)
    rho = random_density(6, rng, p_max_limit=0.25)
    B = np.diag([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]).astype(complex)
    jsonio.save_spectrum(tmp_path / "h.json", spec)
    jsonio.save_matrix(tmp_path / "rho.json", rho.matrix())
    jsonio.save_matrix(tmp_path / "b.json", B)
    cfg = ScenarioConfig.from_dict(
        config_dict(
            dimension=6,
            hamiltonian={"kind": "file", "path": "h.json"},
            rho={"kind": "file", "path": "rho.json"},
            observable={"kind": "file", "path": "b.json"},
        )
    )
    scn = build_scenario(cfg, base_dir=str(tmp_path))
    assert np.abs(scn.spec.values - spec.values).max() <= 1e-12
    assert np.abs(scn.rho.matrix() - rho.matrix()).max() <= 1e-10
    assert np.abs(scn.observable - B).max() == 0.0


def test_build_scenario_rejects_dimension_mismatch(tmp_path):
    rng = derive_rng(710)
    spec = random_hamiltonian(4, [2, 2], rng)
    jsonio.save_spectrum(tmp_path / "h.json", spec)
    cfg = ScenarioConfig.from_dict(
        config_dict(dimension=6, hamiltonian={"kind": "file", "path": "h.json"})
    )
    with pytest.raises(ConfigError):
        build_scenario(cfg, base_dir=str(tmp_path))


def test_build_scenario_enforces_small_p_max_for_variance_checks():
    cfg = ScenarioConfig.from_dict(
        config_dict(
            dimension=4,
            rho={"kind": "canonical", "beta": 3.0},
            checks=["variance"],
        )
    )
    with pytest.raises(ConfigError):
        build_scenario(cfg)
    relaxed = ScenarioConfig.from_dict(
        config_dict(
            dimension=4,
            rho={"kind": "canonical", "beta": 3.0},
            checks=["spectral", "moments"],
        )
    )
    scn = build_scenario(relaxed)
    assert scn.rho.p_max > 0.25


def test_build_scenario_deterministic_by_seed():
    cfg1 = ScenarioConfig.from_dict(config_dict())
    cfg2 = ScenarioConfig.from_dict(config_dict())
    a = build_scenario(cfg1)
    b = build_scenario(cfg2)
    assert np.array_equal(a.spec.values, b.spec.values)
    assert np.array_equal(a.rho.probabilities, b.rho.probabilities)
    assert np.array_equal(a.observable, b.observable)
    other = build_scenario(ScenarioConfig.from_dict(config_dict(seed=6)))
    assert not np.array_equal(a.observable, other.observable)


def test_load_scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config_dict()))
    cfg = load_scenario(str(path))
    assert cfg.dimension == 8
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config_dict(hamiltonian={"kind": "unknown"})))
    with pytest.raises(ConfigError):
        build_scenario(load_scenario(str(bad)), base_dir=str(tmp_path))
