"""End-to-end scenario reports: check outcomes, vacuity flags, determinism."""

import json
import sys

import numpy as np
import pytest

from gaplab.jsonio import save_matrix
from gaplab.runner import CheckRecord, Report, run_scenario
from gaplab.scenarios import ScenarioConfig


def make_config(**overrides):
    base = {
        "schema": "gaplab-scenario/1",
        "dimension": 8,
        "seed": 11,
        "hamiltonian": {"kind": "random"},
        "rho": {"kind": "random"},
        "observable": {"kind": "random_projector"},
        "n_states": 48,
        "n_times": 24,
        "horizons": [8.0],
        "kappas": [0.5, 1.5],
        "epsilon": 0.1,
        "delta": 0.1,
        "checks": ["spectral", "variance", "moments", "equilibration", "concentration"],
        "concentration": {
            "time": 1.0,
            "n_states": 300,
            "scaling_dims": [16, 64, 256],
            "epsilon_grid": [0.2, 0.4],
        },
    }
    base.update(overrides)
    return ScenarioConfig.from_dict(base)


@pytest.fixture(scope="module")
def full_reports():
    config = make_config()
    return {w: run_scenario(config, workers=w) for w in (1, 2, 8)}


def record_by_name(report, name):
    matches = [c for c in report.checks if c.name == name]
    assert len(matches) == 1, f"expected one record named {name}"
    return matches[0]


def test_all_checks_pass_on_generic_scenario(full_reports):
    report = full_reports[1]
    assert report.violations == 0
    names = {c.name for c in report.checks}
    assert names == {
        "phase_norm_window_bound",
        "variance_bound_dominance",
        "variance_exact_vs_mc",
        "mean_curve_variance_bound",
        "mixture_curve_deviation_bound",
        "time_average_variance_bound",
        "mean_dephasing_variance_bound",
        "mean_time_average_identity",
        "finite_time_exceedance",
        "concentration_tail",
        "concentration_scaling",
    }
    for c in report.checks:
        assert c.passed, c.name


def test_spectral_section_contents(full_reports):
    report = full_reports[1]
    sec = report.spectral
    assert sec["n_distinct"] == 8
    assert sec["max_degeneracy"] == 1
    assert sec["norm_b"] == pytest.approx(1.0)
    assert 0.0 < sec["norm_rho"] < 0.25
    assert set(sec["window_counts"]) == {"0.5", "1.5"}
    counts = [sec["window_counts"][k] for k in ("0.5", "1.5")]
    assert counts[0] <= counts[1]
    assert sec["contributing"]["n_distinct"] <= sec["n_distinct"]


def test_report_bytes_identical_across_workers(full_reports):
    blobs = {w: r.to_json() for w, r in full_reports.items()}
    assert blobs[1] == blobs[2] == blobs[8]


def test_report_serialization_excludes_timings(full_reports):
    report = full_reports[1]
    assert report.timings
    payload = json.loads(report.to_json())
    assert set(payload) == {"schema", "config", "seed", "spectral", "checks", "violations"}
    assert payload["schema"] == "gaplab-report/1"
    assert payload["violations"] == 0
    assert "timings" not in report.to_json()


def test_violations_counts_failed_records():
    ok = CheckRecord(
        name="a", bound=1.0, measured=0.5, margin=0.5, vacuous=False,
        mc_error=None, seed=0, passed=True,
    )
    bad = CheckRecord(
        name="b", bound=1.0, measured=2.0, margin=-1.0, vacuous=False,
        mc_error=None, seed=0, passed=False,
    )
    report = Report(config={}, seed=0, spectral={}, checks=[ok, bad, ok])
    assert report.violations == 1
    assert json.loads(report.to_json())["violations"] == 1


def test_identity_observable_equilibrates_exactly(tmp_path):
    save_matrix(tmp_path / "B.json", np.eye(6, dtype=complex))
    config = make_config(
        dimension=6,
        seed=19,
        rho={"kind": "uniform"},
        observable={"kind": "file", "path": "B.json"},
        n_states=30,
        n_times=12,
        horizons=[3.0],
        kappas=[1.0],
        checks=["moments", "equilibration"],
        concentration=None,
    )
    report = run_scenario(config, base_dir=str(tmp_path))
    assert report.violations == 0
    assert record_by_name(report, "mean_curve_variance_bound").measured <= 1e-12
    assert record_by_name(report, "mixture_curve_deviation_bound").measured <= 1e-10
    assert record_by_name(report, "time_average_variance_bound").measured <= 1e-12
    assert record_by_name(report, "finite_time_exceedance").measured == 0.0
    # uniform rho at D=6 makes the 23 |B|^2 |rho| cap exceed |B|^2
    assert record_by_name(report, "time_average_variance_bound").vacuous


def test_stationary_density_has_constant_curves():
    config = make_config(
        seed=23,
        hamiltonian={"kind": "random", "multiplicities": [5, 3]},
        macro={"dims": [5, 3], "labels": ["eq", "rest"]},
        rho={"kind": "microcanonical", "label": "eq"},
        observable={"kind": "random_projector", "rank": 4},
        n_states=40,
        n_times=16,
        horizons=[5.0],
        kappas=[0.8],
        checks=["moments", "equilibration"],
        concentration=None,
    )
    report = run_scenario(config)
    assert report.violations == 0
    # states drawn inside one eigenspace never dephase: time variation vanishes
    assert record_by_name(report, "mean_curve_variance_bound").measured <= 1e-12
    assert record_by_name(report, "mean_dephasing_variance_bound").measured <= 1e-12
    assert record_by_name(report, "mixture_curve_deviation_bound").measured <= 1e-10
    assert record_by_name(report, "finite_time_exceedance").passed


def test_single_eigenvalue_spectrum_is_trivially_vacuous():
    config = make_config(
        dimension=4,
        seed=29,
        hamiltonian={"kind": "random", "multiplicities": [4]},
        rho={"kind": "uniform"},
        checks=["spectral"],
        concentration=None,
    )
    report = run_scenario(config)
    rec = record_by_name(report, "phase_norm_window_bound")
    assert rec.passed and rec.vacuous


def test_checks_subset_controls_records():
    config = make_config(checks=["variance"], concentration=None, n_states=16, n_times=8)
    report = run_scenario(config)
    names = {c.name for c in report.checks}
    assert names == {"variance_bound_dominance", "variance_exact_vs_mc"}


def test_scenario_quantities_are_computed_once(monkeypatch):
    calls = {"contributing_set": 0, "gap_phase_matrix": 0}

    def count(name):
        home = "gaplab.spectra" if name == "contributing_set" else "gaplab.dynamics"
        original = getattr(sys.modules[home], name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        for module in [m for key, m in sys.modules.items() if key == "gaplab" or key.startswith("gaplab.")]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)

    count("contributing_set")
    count("gap_phase_matrix")
    config = make_config(horizons=[4.0, 8.0], mc={"n_states": 300, "n_times": 16})
    report = run_scenario(config)
    assert report.violations == 0
    assert calls["contributing_set"] == 1
    assert calls["gap_phase_matrix"] <= 2 * len(config.horizons)
