"""End-to-end scenario reports: check outcomes, vacuity flags, determinism."""

import dataclasses
import itertools
import json
import sys
import tracemalloc

import numpy as np
import pytest

from gaplab import cli, runner
from gaplab.dynamics import PhaseForms
from gaplab.jsonio import save_matrix
from gaplab.runner import CheckRecord, Report, run_scenario
from gaplab.scenarios import ScenarioConfig
from gaplab.spectra import GapIndex


def make_config(**overrides):
    base = {
        "schema": "gaplab-scenario/1",
        "dimension": 8,
        "seed": 11,
        "hamiltonian": {"kind": "random"},
        "rho": {"kind": "random"},
        "observable": {"kind": "random_projector"},
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
def report():
    return run_scenario(make_config())


def record_by_name(report, name):
    matches = [c for c in report.checks if c.name == name]
    assert len(matches) == 1, f"expected one record named {name}"
    return matches[0]


def test_all_checks_pass_on_generic_scenario(report):
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


def test_spectral_section_contents(report):
    sec = report.spectral
    assert sec["n_distinct"] == 8
    assert sec["max_degeneracy"] == 1
    assert sec["norm_b"] == pytest.approx(1.0)
    assert 0.0 < sec["norm_rho"] < 0.25
    assert set(sec["window_counts"]) == {"0.5", "1.5"}
    counts = [sec["window_counts"][k] for k in ("0.5", "1.5")]
    assert counts[0] <= counts[1]
    assert sec["contributing"]["n_distinct"] <= sec["n_distinct"]


@pytest.mark.parametrize(
    "hamiltonian, horizons, routes",
    [
        ({"kind": "random"}, [2.0, 8.0], ["rule", "rule"]),
        ({"kind": "random"}, [8.0, 32.0], ["rule", "dense"]),
        ({"kind": "random", "multiplicities": [2, 2, 1, 1, 1, 1]}, [1.0, 8.0], ["rule", "dense"]),
    ],
    ids=["two-rule-horizons", "long-horizon", "doubly-degenerate-levels"],
)
def test_report_bytes_do_not_depend_on_the_chunk_size(monkeypatch, hamiltonian, horizons, routes):
    """Neither forms route gives a state a form that depends on the shape of its chunk."""
    config = make_config(
        hamiltonian=hamiltonian, horizons=horizons, mc={"n_states": 20, "n_times": 16},
        checks=["moments", "equilibration"], concentration=None,
    )
    blobs = {}
    for chunk in (1, 7, runner.CHUNK_STATES):
        monkeypatch.setattr(runner, "CHUNK_STATES", chunk)
        report = run_scenario(config)
        assert [r["route"] for r in report.timings["forms"]] == routes
        blobs[chunk] = report.to_json()
    assert len(set(blobs.values())) == 1


def test_moments_memory_does_not_grow_with_the_state_count():
    """Each chunk of states is reduced to per-state results, so no n_states x P array is held."""
    peaks = []
    for n in (256, 2048):
        config = make_config(
            dimension=24, observable={"kind": "random_projector", "rank": 12}, mc={"n_states": n, "n_times": 8},
            checks=["moments"], concentration=None,
        )
        tracemalloc.start()
        try:
            run_scenario(config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # an (n_states + 1) x P array of gap coefficients (P = 552) alone would add 15 MiB
    assert peaks[1] - peaks[0] < 3 * 2**20


@pytest.mark.parametrize(
    "hamiltonian",
    [{"kind": "random"}, {"kind": "random", "eigenvalues": "arithmetic", "spacing": 0.25, "multiplicities": [2] * 24}],
    ids=["d48-gaussian", "arithmetic-multiplicity-2"],
)
def test_rule_forms_give_the_dense_reports_to_rel_1e12(monkeypatch, hamiltonian):
    """The moments records on the rule route match those of the dense route, states and mixture alike."""
    config = make_config(
        dimension=48, hamiltonian=hamiltonian, observable={"kind": "random_projector", "rank": 24},
        mc={"n_states": 40, "n_times": 8}, checks=["moments"], concentration=None,
    )
    ruled = run_scenario(config)
    assert [r["route"] for r in ruled.timings["forms"]] == ["rule"]

    def dense_only(cs, Bt, horizon, rule):
        return PhaseForms(cs, Bt, horizon, None)

    monkeypatch.setattr(runner, "PhaseForms", dense_only)
    dense = run_scenario(config)
    assert [r["route"] for r in dense.timings["forms"]] == ["dense"]
    for name in ("mean_curve_variance_bound", "mixture_curve_deviation_bound"):
        got, want = record_by_name(ruled, name), record_by_name(dense, name)
        assert got.measured == pytest.approx(want.measured, rel=1e-12)
        assert got.detail["cells"][0]["measured"] == pytest.approx(want.detail["cells"][0]["measured"], rel=1e-12)
        assert got.passed == want.passed and got.vacuous == want.vacuous
    assert record_by_name(ruled, "mean_curve_variance_bound").mc_error == pytest.approx(
        record_by_name(dense, "mean_curve_variance_bound").mc_error, rel=1e-12
    )


def test_exceedance_record_does_not_depend_on_the_moments_check():
    """Without ``moments`` no phase forms or dephased powers are built; the exceedance record keeps its bits."""
    both = run_scenario(make_config(checks=["moments", "equilibration"], concentration=None))
    alone = run_scenario(make_config(checks=["equilibration"], concentration=None))
    assert "forms" in both.timings and "forms" not in alone.timings
    assert [c.to_dict() for c in alone.checks] == [record_by_name(both, "finite_time_exceedance").to_dict()]


def count_overlap_curves(monkeypatch) -> list:
    """Patch ``runner.overlap_curve`` to count its calls; the list's one entry is the count."""
    calls = [0]
    original = runner.overlap_curve

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(runner, "overlap_curve", counted)
    return calls


def test_vacuous_horizons_evaluate_no_exceedance_curve(monkeypatch):
    """A deviation bound above 2 |B| cannot be exceeded, so no curve of its horizon is evaluated."""
    calls = count_overlap_curves(monkeypatch)
    config = make_config(horizons=[2.0, 8.0], mc={"n_states": 20, "n_times": 16},
                         checks=["moments", "equilibration"], concentration=None)
    record = record_by_name(run_scenario(config), "finite_time_exceedance")
    assert record.vacuous and all(c["vacuous"] for c in record.detail["cells"])
    assert [c["exceed_fraction"] for c in record.detail["cells"]] == [0.0, 0.0]
    assert calls[0] == 0


def test_live_horizon_evaluates_its_exceedance_curves(monkeypatch):
    calls = count_overlap_curves(monkeypatch)
    config = make_config(
        dimension=64, seed=3, rho={"kind": "uniform"}, observable={"kind": "random_projector", "rank": 32},
        epsilon=0.9, delta=0.9, kappas=[1e-6], horizons=[1e9], mc={"n_states": 20, "n_times": 16},
        checks=["equilibration"], concentration=None,
    )
    record = record_by_name(run_scenario(config), "finite_time_exceedance")
    (cell,) = record.detail["cells"]
    assert cell["deviation_bound"] < 2.0 and not cell["vacuous"] and not record.vacuous
    assert calls[0] == 1


def test_report_serialization_excludes_timings(report):
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


def test_observable_without_variance_passes_the_mc_match(tmp_path):
    """B = I (a rank-D projector) has zero GAP variance; Monte Carlo and exact value are both rounding noise."""
    config = make_config(seed=3, observable={"kind": "random_projector", "rank": 8})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.raw))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "report.json")]) == 0
    record = record_by_name(run_scenario(config), "variance_exact_vs_mc")
    assert record.passed and record.bound < record.measured <= 1e-30


def test_variance_mc_match_still_fails_on_a_real_mismatch(monkeypatch):
    """The rounding allowance of B = I forgives no real difference: an exact variance 1e-3 off fails."""
    original = runner.gap_variance_bound

    def shifted(rho, B):
        report = original(rho, B)
        return dataclasses.replace(report, exact_variance=report.exact_variance + 1e-3)

    monkeypatch.setattr(runner, "gap_variance_bound", shifted)
    config = make_config(seed=3, observable={"kind": "random_projector", "rank": 8}, checks=["variance"],
                         concentration=None)
    record = record_by_name(run_scenario(config), "variance_exact_vs_mc")
    assert not record.passed and record.measured == pytest.approx(1e-3)


def test_checks_subset_controls_records():
    config = make_config(checks=["variance"], concentration=None)
    report = run_scenario(config)
    names = {c.name for c in report.checks}
    assert names == {"variance_bound_dominance", "variance_exact_vs_mc"}


def test_scenario_quantities_are_computed_once(monkeypatch):
    calls = {}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    def count(name, home):
        original = getattr(sys.modules[home], name)
        for module in [m for key, m in sys.modules.items() if key == "gaplab" or key.startswith("gaplab.")]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted(name, original))

    count("contributing_set", "gaplab.spectra")
    count("gap_phase_matrix", "gaplab.dynamics")
    count("gauss_rule", "gaplab.dynamics")
    count("operator_norm", "gaplab.linalg")
    count("eigenbasis_observable", "gaplab.dynamics")
    count("spectral_counts", "gaplab.spectra")
    monkeypatch.setattr(GapIndex, "__init__", counted("GapIndex", GapIndex.__init__))
    grids = (([4.0, 8.0], [0.5, 1.5]), ([2.0, 4.0, 8.0], [0.5, 1.0, 1.5, 3.0]))
    # one chunk of states and three
    for (horizons, kappas), n_states in itertools.product(grids, (256, 768)):
        calls.update(dict.fromkeys(
            ["contributing_set", "gap_phase_matrix", "gauss_rule", "operator_norm", "GapIndex",
             "eigenbasis_observable", "spectral_counts"], 0))
        config = make_config(horizons=horizons, kappas=kappas, mc={"n_states": n_states, "n_times": 16})
        report = run_scenario(config)
        assert report.violations == 0
        # V* B V once on the contributing set, which every chunk reads, whatever the chunk count;
        # the concentration check builds the full spectrum's twice, for B(t) and for the mixture curve
        assert calls["eigenbasis_observable"] == 3
        # the full spectrum's counts and the contributing set's, which every (kappa, T) cell reads
        assert calls["spectral_counts"] == 2
        assert calls["contributing_set"] == 1
        assert calls["gap_phase_matrix"] <= 2 * len(config.horizons)
        # one rule per horizon, which the phase norm and the moments forms share
        assert calls["gauss_rule"] == len(config.horizons)
        # one index for the full spectrum, one for the contributing set
        assert calls["GapIndex"] == 2
        # |B| only: the phase-matrix norm is an eigenvalue, not a singular value
        assert calls["operator_norm"] == 1
