"""Command line behavior: output contents, file formats, exit codes."""

import json
import math
import mmap
import os
import pathlib
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import assert_no_child_left, simple_spectrum, with_cores
from gaplab import cli, runner, scenarios
from gaplab.dynamics import (
    CONCENTRATION_CONSTANT,
    BoundInputs,
    equilibration_bounds,
    expectation_curve,
)
from gaplab.jsonio import (
    load_states,
    save_matrix,
    save_spectrum,
    save_states,
)
from gaplab.runner import CheckRecord, Report


def write_spectrum(path, values):
    spec = simple_spectrum(values)
    save_spectrum(path, spec)
    return spec


def test_stats_output_matches_module(tmp_path, capsys):
    f = tmp_path / "spec.json"
    out = tmp_path / "stats.json"
    write_spectrum(f, [0.0, 1.0, 2.0])
    rc = cli.main(
        ["stats", "--spectrum", str(f), "--kappa", "1.5", "--kappa", "0.5", "--out", str(out)]
    )
    assert rc == 0
    record = json.loads(out.read_text())
    assert record["n_distinct"] == 3
    assert record["max_degeneracy"] == 1
    assert record["max_gap_degeneracy"] == 2
    assert record["diameter"] == pytest.approx(2.0)
    assert record["window_counts"] == {"1.5": 3, "0.5": 2}
    assert "contributing" not in record


def test_stats_default_kappa_is_one(tmp_path):
    f = tmp_path / "spec.json"
    out = tmp_path / "stats.json"
    write_spectrum(f, [0.0, 1.0, 2.0])
    assert cli.main(["stats", "--spectrum", str(f), "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert set(record["window_counts"]) == {"1.0"}


def test_stats_contributing_restriction(tmp_path):
    f = tmp_path / "spec.json"
    b = tmp_path / "B.json"
    out = tmp_path / "stats.json"
    write_spectrum(f, [0.0, 1.0, 2.0])
    P = np.zeros((3, 3), dtype=complex)
    P[0, 0] = 1.0
    save_matrix(b, P)
    rc = cli.main(["stats", "--spectrum", str(f), "--observable", str(b), "--out", str(out)])
    assert rc == 0
    record = json.loads(out.read_text())
    assert record["contributing"]["n_distinct"] == 1
    assert record["contributing"]["window_counts"] == {"1.0": 0}


@pytest.mark.parametrize(
    "flags, named",
    [(["--gap-tol", "nan"], "gap_tol"), (["--gap-tol", "inf"], "gap_tol"), (["--kappa", "nan"], "kappa")],
    ids=["gap-tol-nan", "gap-tol-inf", "kappa-nan"],
)
def test_stats_rejects_non_finite_tolerance_and_width(tmp_path, capsys, flags, named):
    f = tmp_path / "spec.json"
    write_spectrum(f, [0.0, 1.0, 2.0])
    assert cli.main(["stats", "--spectrum", str(f), *flags]) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


def test_stats_gap_tol_coarsens_both_records(tmp_path):
    f = tmp_path / "spec.json"
    b = tmp_path / "B.json"
    out = tmp_path / "stats.json"
    write_spectrum(f, [0.0, 1.0, 2.0, 3.5])
    save_matrix(b, np.diag([1.0, 1.0, 1.0, 0.0]).astype(complex))
    argv = ["stats", "--spectrum", str(f), "--observable", str(b), "--kappa", "0.5", "--out", str(out)]
    assert cli.main([*argv, "--gap-tol", "1.1"]) == 0
    record = json.loads(out.read_text())
    # gaps of {0, 1, 2} at tolerance 1.1 chain into one cluster per sign
    assert record["contributing"]["max_gap_degeneracy"] == 3
    assert record["max_gap_degeneracy"] > 3
    assert cli.main(argv) == 0
    assert json.loads(out.read_text())["contributing"]["max_gap_degeneracy"] == 2


def test_sample_summary_close_to_target(tmp_path):
    rho_f = tmp_path / "rho.json"
    out = tmp_path / "summary.json"
    save_matrix(rho_f, np.diag([0.7, 0.3]).astype(complex))
    rc = cli.main(["sample", "--rho", str(rho_f), "--n", "2000", "--seed", "9", "--summary", "--out", str(out)])
    assert rc == 0
    record = json.loads(out.read_text())
    assert record["n"] == 2000 and record["seed"] == 9 and record["dim"] == 2
    emp = np.array(record["empirical_density"]["entries"])
    emp = emp[:, 0].reshape(2, 2) + 1j * emp[:, 1].reshape(2, 2)
    assert abs(emp[0, 0].real - 0.7) <= 0.05
    assert abs(np.trace(emp) - 1.0) <= 1e-12


def test_sample_states_file_and_determinism(tmp_path):
    rho_f = tmp_path / "rho.json"
    save_matrix(rho_f, np.diag([0.5, 0.25, 0.25]).astype(complex))
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        assert cli.main(["sample", "--rho", str(rho_f), "--n", "40", "--seed", "3", "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    states = load_states(out1)
    assert states.shape == (40, 3)
    assert np.abs(np.linalg.norm(states, axis=1) - 1.0).max() <= 1e-12


def test_variance_worked_example(tmp_path):
    rho_f = tmp_path / "rho.json"
    a_f = tmp_path / "A.json"
    out = tmp_path / "var.json"
    save_matrix(rho_f, np.eye(4, dtype=complex) / 4.0)
    save_matrix(a_f, np.diag([1.0, -1.0, 1.0, -1.0]).astype(complex))
    rc = cli.main(
        ["variance", "--rho", str(rho_f), "--A", str(a_f), "--mc-check", "4000", "--seed", "2", "--out", str(out)]
    )
    assert rc == 0
    record = json.loads(out.read_text())
    assert record["expectation"] == pytest.approx([0.0, 0.0], abs=1e-12)
    assert record["exact_variance"] == pytest.approx(0.2, rel=1e-9)
    assert record["bound"] == pytest.approx(17.0 / 3.0, rel=1e-9)
    assert record["quadrature_bound"] == pytest.approx(17.0 / 3.0, rel=1e-6)
    assert record["clamped_terms"] == 0
    mc = record["mc"]
    assert mc["n"] == 4000
    assert abs(mc["variance"] - 0.2) <= 5.0 * mc["se"]


def test_variance_rejects_large_p_max(tmp_path):
    rho_f = tmp_path / "rho.json"
    a_f = tmp_path / "A.json"
    save_matrix(rho_f, np.diag([0.6, 0.4]).astype(complex))
    save_matrix(a_f, np.eye(2, dtype=complex))
    assert cli.main(["variance", "--rho", str(rho_f), "--A", str(a_f)]) == 2


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["sample", "--n", "0", "--seed", "1"], "--n"),
        (["sample", "--n", "-3", "--seed", "1"], "--n"),
        (["sample", "--n", "5", "--seed", "-1"], "--seed"),
        (["variance", "--seed", "-3"], "--seed"),
        (["variance", "--mc-check", "-4"], "--mc-check"),
        (["variance", "--mc-check", "1"], "--mc-check"),
    ],
    ids=["sample-n-zero", "sample-n-negative", "sample-seed-negative", "variance-seed-negative",
         "mc-check-negative", "mc-check-one"],
)
def test_bad_counts_exit_2_naming_their_flag(tmp_path, capsys, argv, flag):
    rho_f, a_f = tmp_path / "rho.json", tmp_path / "A.json"
    save_matrix(rho_f, np.eye(4, dtype=complex) / 4.0)
    save_matrix(a_f, np.diag([1.0, -1.0, 1.0, -1.0]).astype(complex))
    files = ["--rho", str(rho_f)] + (["--A", str(a_f)] if argv[0] == "variance" else [])
    assert cli.main([*argv, *files]) == 2
    err = capsys.readouterr().err
    assert f"{flag} must be" in err and "Traceback" not in err


def test_the_smallest_good_counts_run(tmp_path):
    rho_f, a_f, out = tmp_path / "rho.json", tmp_path / "A.json", tmp_path / "out.json"
    save_matrix(rho_f, np.eye(4, dtype=complex) / 4.0)
    save_matrix(a_f, np.diag([1.0, -1.0, 1.0, -1.0]).astype(complex))
    assert cli.main(["sample", "--rho", str(rho_f), "--n", "1", "--seed", "0", "--out", str(out)]) == 0
    argv = ["variance", "--rho", str(rho_f), "--A", str(a_f), "--seed", "0", "--out", str(out)]
    assert cli.main([*argv, "--mc-check", "0"]) == 0 and "mc" not in json.loads(out.read_text())
    assert cli.main([*argv, "--mc-check", "2"]) == 0 and json.loads(out.read_text())["mc"]["n"] == 2


def test_evolve_curve_matches_module(tmp_path):
    spec_f = tmp_path / "spec.json"
    psi_f = tmp_path / "psi.json"
    b_f = tmp_path / "B.json"
    out = tmp_path / "curve.csv"
    spec = write_spectrum(spec_f, [0.0, 1.0, 3.0])
    psi = np.array([[1.0, 1.0, 1.0j]]) / math.sqrt(3.0)
    save_states(psi_f, psi)
    rng = np.random.default_rng(5)
    H = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    B = (H + H.conj().T) / 2.0
    save_matrix(b_f, B)
    rc = cli.main(
        ["evolve", "--spectrum", str(spec_f), "--psi0", str(psi_f), "--B", str(b_f),
         "--times", "0:5:11", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,re_expectation,im_expectation"
    times = np.linspace(0.0, 5.0, 11)
    expected = expectation_curve(spec, psi[0], B, times)
    rows = [line.split(",") for line in lines[1:]]
    got = np.array([float(r[1]) for r in rows])
    imag = np.array([float(r[2]) for r in rows])
    assert got == pytest.approx(np.real(expected), abs=1e-12)
    assert np.abs(imag).max() <= 1e-12


def test_evolve_rejects_multiple_states(tmp_path):
    spec_f = tmp_path / "spec.json"
    psi_f = tmp_path / "psi.json"
    b_f = tmp_path / "B.json"
    write_spectrum(spec_f, [0.0, 1.0])
    save_states(psi_f, np.eye(2, dtype=complex))
    save_matrix(b_f, np.eye(2, dtype=complex))
    rc = cli.main(
        ["evolve", "--spectrum", str(spec_f), "--psi0", str(psi_f), "--B", str(b_f),
         "--times", "0:1:5", "--out", str(tmp_path / "c.csv")]
    )
    assert rc == 2


def test_evolve_malformed_times(tmp_path, capsys):
    spec_f = tmp_path / "spec.json"
    psi_f = tmp_path / "psi.json"
    b_f = tmp_path / "B.json"
    write_spectrum(spec_f, [0.0, 1.0])
    save_states(psi_f, np.array([[1.0, 0.0]], dtype=complex))
    save_matrix(b_f, np.eye(2, dtype=complex))
    for times in ("0,1,5", "a:1:5", "0:1:x", "nan:1:5", "0:inf:5", "-inf:0:5"):
        rc = cli.main(
            ["evolve", "--spectrum", str(spec_f), "--psi0", str(psi_f), "--B", str(b_f),
             f"--times={times}", "--out", str(tmp_path / "c.csv")]
        )
        err = capsys.readouterr().err
        assert rc == 2, times
        assert "--times" in err and "Traceback" not in err
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("times", ["0:1e308:3", "-1e308:1e308:3"], ids=["phase", "span"])
def test_evolve_refuses_times_whose_phases_overflow(tmp_path, capsys, times):
    """On levels up to 2 the phase 2 t of t = 1e308 overflows, and so does the span of -1e308:1e308."""
    spec_f, psi_f, b_f, out = (tmp_path / name for name in ("spec.json", "psi.json", "B.json", "c.csv"))
    write_spectrum(spec_f, [0.0, 1.0, 2.0])
    save_states(psi_f, np.array([[1.0, 0.0, 0.0]], dtype=complex))
    save_matrix(b_f, np.eye(3, dtype=complex))
    argv = ["evolve", "--spectrum", str(spec_f), "--psi0", str(psi_f), "--B", str(b_f), f"--times={times}"]
    assert cli.main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: --times needs finite t0 < t1, n >= 2 and finite phases E t up to |E| = 2.0" in err
    assert "Traceback" not in err and not out.exists()


def test_bounds_output_matches_module(tmp_path):
    inputs = dict(
        epsilon=0.1,
        delta=0.1,
        kappa=1.0,
        horizon=10.0,
        norm_b=1.0,
        norm_rho=1e-6,
        n_contributing=1,
        max_degeneracy=1,
        max_gap_degeneracy=1,
        gap_window_count=1,
    )
    f = tmp_path / "inputs.json"
    out = tmp_path / "bounds.json"
    f.write_text(json.dumps(inputs))
    assert cli.main(["bounds", "--inputs", str(f), "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    bi = BoundInputs(**inputs)
    b = equilibration_bounds(bi)
    assert record["finite_time"]["markov"] == pytest.approx(b.markov, rel=1e-12)
    assert record["finite_time"]["markov"] == pytest.approx(math.sqrt(18800.0 * 1e-6), rel=1e-12)
    assert record["finite_time"]["concentration"] == pytest.approx(b.concentration, rel=1e-12)
    assert record["finite_time"]["bound"] == min(b.markov, b.concentration)
    assert record["infinite_time"] == pytest.approx(b.infinite_time, rel=1e-12)
    assert record["moment_bounds"]["expected_time_variance"] == pytest.approx(b.expected_time_variance, rel=1e-12)
    assert record["moment_bounds"]["time_average_variance"] == pytest.approx(b.time_average_variance, rel=1e-12)
    assert record["inputs"]["norm_rho"] == 1e-6
    assert record["window_factor"] == pytest.approx(bi.window_factor, rel=1e-12)


def test_bounds_missing_key_exits_2(tmp_path):
    f = tmp_path / "inputs.json"
    f.write_text(json.dumps({"epsilon": 0.1}))
    assert cli.main(["bounds", "--inputs", str(f)]) == 2


BOUND_INPUTS = dict(
    epsilon=0.1, delta=0.1, kappa=1.0, horizon=10.0, norm_b=1.0, norm_rho=0.1,
    n_contributing=4, max_degeneracy=1, max_gap_degeneracy=2, gap_window_count=3,
)


@pytest.mark.parametrize(
    "data, named",
    [
        (5, "JSON object"),
        ({**BOUND_INPUTS, "constant": 1.0}, "constant"),
        ({**BOUND_INPUTS, "kappa": "a"}, "kappa"),
        ({**BOUND_INPUTS, "kappa": None}, "kappa"),
        ({**BOUND_INPUTS, "horizon": math.nan}, "horizon"),
        ({**BOUND_INPUTS, "norm_b": True}, "norm_b"),
        ({**BOUND_INPUTS, "kappa": 1e-200, "horizon": 1e-200}, "kappa * horizon must be positive"),
        ({**BOUND_INPUTS, "norm_b": 1e300}, "norm_b=1e+300"),
        ({**BOUND_INPUTS, "norm_b": 1e154}, "norm_b=1e+154"),
        ({**BOUND_INPUTS, "epsilon": 1e-200, "delta": 1e-200}, "epsilon=1e-200, delta=1e-200"),
    ],
    ids=[
        "scalar", "stale-constant", "kappa-string", "kappa-null", "horizon-nan", "norm_b-bool",
        "kappa-horizon-underflow", "norm_b-overflow", "moment-bound-overflow", "epsilon-delta-underflow",
    ],
)
def test_bounds_rejects_malformed_inputs(tmp_path, capsys, data, named):
    f = tmp_path / "inputs.json"
    f.write_text(json.dumps(data))
    assert cli.main(["bounds", "--inputs", str(f)]) == 2
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err


def test_bounds_prints_the_concentration_constant(tmp_path):
    f = tmp_path / "inputs.json"
    out = tmp_path / "bounds.json"
    f.write_text(json.dumps(BOUND_INPUTS))
    assert cli.main(["bounds", "--inputs", str(f), "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["constant"] == CONCENTRATION_CONSTANT
    assert record["inputs"] == BOUND_INPUTS


GOLDEN = sorted((pathlib.Path(__file__).parent / "golden").glob("*.json"))


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_bounds_agree_with_the_report_bit_for_bit(tmp_path, path):
    """``gaplab bounds`` on a report's own inputs prints the report's bounds exactly."""
    report = json.loads(path.read_text())
    config, spectral = report["config"], report["spectral"]
    counts = spectral["contributing"]
    checks = {c["name"]: c for c in report["checks"]}
    f, out = tmp_path / "inputs.json", tmp_path / "bounds.json"
    for h, T in enumerate(config["horizons"]):
        for k in config["kappas"]:
            f.write_text(json.dumps({
                "epsilon": config["epsilon"], "delta": config["delta"], "kappa": k, "horizon": T,
                "norm_b": spectral["norm_b"], "norm_rho": spectral["norm_rho"],
                "n_contributing": counts["n_distinct"], "max_degeneracy": counts["max_degeneracy"],
                "max_gap_degeneracy": counts["max_gap_degeneracy"],
                "gap_window_count": counts["window_counts"][str(k)],
            }))
            assert cli.main(["bounds", "--inputs", str(f), "--out", str(out)]) == 0
            record = json.loads(out.read_text())
            moments, finite = record["moment_bounds"], record["finite_time"]
            assert checks["time_average_variance_bound"]["bound"] == moments["time_average_variance"]
            assert checks["mean_dephasing_variance_bound"]["bound"] == moments["expected_dephasing_variance"]
            exceedance = checks["finite_time_exceedance"]["detail"]
            assert exceedance["infinite_time_bound"] == record["infinite_time"]
            cell = exceedance["cells"][h]["per_kappa"][str(k)]
            assert cell == {"markov": finite["markov"], "concentration": finite["concentration"],
                            "bound": finite["bound"]}
            for name, key in (("mean_curve_variance_bound", "expected_time_variance"),
                              ("mixture_curve_deviation_bound", "mixture_curve_deviation")):
                assert checks[name]["detail"]["cells"][h]["per_kappa"][str(k)] == moments[key]


def write_run_config(tmp_path):
    config = {
        "schema": "gaplab-scenario/1",
        "dimension": 6,
        "seed": 7,
        "hamiltonian": {"kind": "random"},
        "rho": {"kind": "uniform"},
        "observable": {"kind": "random_projector"},
        "horizons": [4.0],
        "kappas": [1.0],
        "checks": ["spectral", "variance"],
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config))
    return path


def test_run_success_writes_report_and_csv(tmp_path, capsys, monkeypatch):
    config = write_run_config(tmp_path)
    out = tmp_path / "report.json"
    csv_dir = tmp_path / "curves"
    builds = []

    def counting_build(*args, **kwargs):
        builds.append(args)
        return build(*args, **kwargs)

    build = runner.build_scenario
    monkeypatch.setattr(runner, "build_scenario", counting_build)
    monkeypatch.setattr(cli, "build_scenario", counting_build, raising=False)
    rc = cli.main(["run", "--config", str(config), "--out", str(out), "--csv", str(csv_dir)])
    assert rc == 0
    assert len(builds) == 1
    printed = capsys.readouterr().out
    assert "violations: 0" in printed
    assert printed.count("PASS") == 3
    report = json.loads(out.read_text())
    assert report["schema"] == "gaplab-report/1"
    assert report["violations"] == 0
    csv = (csv_dir / "mixture_T4.csv").read_text()
    assert csv.startswith("t,re_expectation,im_expectation\n")
    assert len(csv.strip().split("\n")) == cli.CSV_CURVE_POINTS + 1


@pytest.mark.parametrize(
    "patch, field",
    [
        ({"horizons": 5}, "horizons"),
        ({"horizons": [math.nan]}, "horizons"),
        ({"kappas": [math.inf]}, "kappas"),
        ({"kappas": "ab"}, "kappas"),
        ({"epsilon": None}, "epsilon"),
        ({"mc": {"n_states": None}}, "mc.n_states"),
        ({"observable": {"kind": "random_projector", "rank": None}}, "observable.rank"),
        ({"mc": {"n_states": "abc"}}, "mc.n_states"),
        ({"mc": {"n_states": 2**32 + 1}}, "mc.n_states"),
        ({"dimension": 8.7}, "dimension"),
        ({"seed": True}, "seed"),
        ({"concentration": {"n_states": 0}}, "concentration.n_states"),
        ({"concentration": {"scaling_dims": [1, 2]}}, "concentration.scaling_dims"),
        ({"hamiltonian": {"kind": "random", "spacing": None}}, "hamiltonian.spacing"),
        ({"hamiltonian": {"kind": "random", "multiplicities": 5}}, "hamiltonian.multiplicities"),
        ({"rho": {"kind": "canonical", "beta": None}}, "rho.beta"),
        ({"rho": {"kind": "random", "p_max_limit": "a"}}, "rho.p_max_limit"),
        ({"macro": {"dims": 5}}, "macro.dims"),
        ({"macro": {"labels": 5}}, "macro.labels"),
        ({"checks": ["spectral", []]}, "checks"),
        ({"hamiltonian": {"kind": "random", "multiplicities": [1.5, 1.5, 1, 1, 1]}}, "hamiltonian.multiplicities"),
        ({"hamiltonian": {"kind": "random", "eigenvalues": [math.nan] + [1.0] * 5}}, "hamiltonian.eigenvalues"),
        ({"n_states": 24}, "n_states"),
        ({"hamiltonian": {"kind": "random", "bogus": 1}}, "hamiltonian.bogus"),
        ({"kappas": [1e-200], "horizons": [1e-200], "checks": ["equilibration"]}, "kappa * horizon"),
        ({"kappas": [1e-200], "horizons": [1e-200], "checks": ["spectral"]}, "kappa * horizon"),
    ],
    ids=[
        "horizons-scalar",
        "horizons-nan",
        "kappas-inf",
        "kappas-string",
        "epsilon-null",
        "n_states-null",
        "rank-null",
        "n_states-string",
        "n_states-past-2^32",
        "dimension-fraction",
        "seed-bool",
        "concentration-n_states-zero",
        "scaling_dims-one",
        "spacing-null",
        "multiplicities-scalar",
        "beta-null",
        "p_max_limit-string",
        "macro-dims-scalar",
        "macro-labels-scalar",
        "checks-nested-list",
        "multiplicities-fraction",
        "eigenvalues-nan",
        "top-level-n_states",
        "hamiltonian-unknown-key",
        "kappa-horizon-underflow-equilibration",
        "kappa-horizon-underflow-spectral",
    ],
)
def test_run_rejects_malformed_horizons_and_kappas(tmp_path, capsys, patch, field):
    """Every malformed numeric field exits 2 naming the field, without a traceback.

    The table began with horizons and kappas and keeps their case ids.
    """
    path = write_run_config(tmp_path)
    config = {**json.loads(path.read_text()), **patch}
    path.write_text(json.dumps(config))
    rc = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "report.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"{field} must be" in err or f"{field} needs" in err
    assert "Traceback" not in err


def test_run_names_the_way_out_when_gaussian_levels_cannot_be_separated(tmp_path, capsys, monkeypatch):
    """No 6 standard normal levels are all 10 apart: the run exits 2 naming the level count, the
    separation, the tries and the other eigenvalue modes."""
    monkeypatch.setattr(scenarios, "MIN_SEPARATION", 10.0)
    path = write_run_config(tmp_path)
    rc = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "report.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "bad hamiltonian section: could not draw 6 Gaussian eigenvalues" in err
    assert "MIN_SEPARATION = 10 in 1000 tries" in err
    assert 'set hamiltonian.eigenvalues to "arithmetic" or to explicit levels' in err
    assert "Traceback" not in err


def test_run_with_an_observable_that_couples_to_nothing(tmp_path, capsys):
    save_matrix(tmp_path / "B.json", np.zeros((6, 6), dtype=complex))
    path = write_run_config(tmp_path)
    config = {
        **json.loads(path.read_text()),
        "observable": {"kind": "file", "path": "B.json"},
        "rho": {"kind": "random"},
        "checks": ["spectral", "moments", "equilibration"],
    }
    path.write_text(json.dumps(config))
    out = tmp_path / "report.json"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["spectral"]["contributing"] == {
        "n_distinct": 0, "max_degeneracy": 0, "max_gap_degeneracy": 0, "window_counts": {"1.0": 0}
    }
    assert report["spectral"]["n_distinct"] == 6 and report["violations"] == 0
    assert all(c["passed"] and (c["vacuous"] or c["measured"] == 0.0) for c in report["checks"])


@pytest.mark.parametrize(
    "scale, check",
    [(2.5e76, "variance"), (2.5e76, "moments"), (1e160, "spectral"), (1e160, "concentration")],
)
def test_run_refuses_an_observable_whose_fourth_power_overflows(tmp_path, capsys, scale, check):
    """Above |B| = (float max / 16)^(1/4) = 5.79e76 every check exits 2 naming the observable."""
    save_matrix(tmp_path / "B.json", scale * np.diag(np.arange(6.0)))
    path = write_run_config(tmp_path)
    config = {**json.loads(path.read_text()), "observable": {"kind": "file", "path": "B.json"}, "checks": [check]}
    path.write_text(json.dumps(config))
    rc = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "report.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "bad observable section" in err and "overflows" in err


@pytest.mark.parametrize(
    "checks, rc", [(["spectral", "concentration"], 0), (["variance"], 2)], ids=["no-p_max-limit", "variance"]
)
def test_run_with_a_canonical_rho_at_large_negative_beta(tmp_path, capsys, checks, rc):
    """At beta = -1000 the highest level takes all the weight, p_max = 1, which only the variance
    and equilibration checks refuse."""
    path = write_run_config(tmp_path)
    config = {**json.loads(path.read_text()), "rho": {"kind": "canonical", "beta": -1000.0}, "checks": checks}
    path.write_text(json.dumps(config))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "report.json")]) == rc
    err = capsys.readouterr().err
    assert ("p_max = 1.0 must be < 1/4" in err) == (rc == 2) and "NaN" not in err


def test_run_refuses_a_p_max_just_above_the_variance_bounds_limit(tmp_path, capsys):
    """A file rho with p_max = 1/4 + 1.5e-15 is refused when the scenario is built, naming the checks,
    and not later by the variance bound alone, whose message names no config section."""
    p = np.array([0.25 + 1.5e-15] + [(0.75 - 1.5e-15) / 7] * 7)
    save_matrix(tmp_path / "rho.json", np.diag(p))
    path = write_run_config(tmp_path)
    config = {**json.loads(path.read_text()), "dimension": 8, "rho": {"kind": "file", "path": "rho.json"},
              "checks": ["variance"]}
    path.write_text(json.dumps(config))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "report.json")]) == 2
    err = capsys.readouterr().err
    assert "p_max = 0.2500000000000015 must be < 1/4 for checks ['variance']" in err
    assert not (tmp_path / "report.json").exists()


def test_run_csv_curves_read_the_scenarios_full_spectrum_overlap(tmp_path, monkeypatch):
    """The concentration tail and every horizon's CSV read one full-spectrum V* B V and W."""
    from gaplab import scenarios

    calls = {"eigenbasis_observable": 0, "mixture_block_overlap": 0}

    def counted(name):
        original = getattr(scenarios, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(scenarios, name, wrapper)

    counted("eigenbasis_observable")
    counted("mixture_block_overlap")
    path = write_run_config(tmp_path)
    config = {**json.loads(path.read_text()), "horizons": [2.0, 4.0, 8.0], "checks": ["concentration"]}
    path.write_text(json.dumps(config))
    argv = ["run", "--config", str(path), "--out", str(tmp_path / "r.json"), "--csv", str(tmp_path / "curves")]
    assert cli.main(argv) == 0
    assert calls == {"eigenbasis_observable": 1, "mixture_block_overlap": 1}
    assert len(list((tmp_path / "curves").glob("mixture_T*.csv"))) == 3


@pytest.mark.parametrize(
    "patch",
    [
        {"kappas": [1e-300]},
        {"kappas": [1e-300], "checks": ["spectral"]},
        {"hamiltonian": {"kind": "random", "eigenvalues": "arithmetic", "spacing": 1e300}},
        {"hamiltonian": {"kind": "random", "eigenvalues": "arithmetic", "spacing": 1e300}, "checks": ["spectral"]},
        {"concentration": {"epsilon_grid": [1e200], "n_states": 50}, "checks": ["concentration"]},
        {"concentration": {"epsilon_grid": [0.1, 1e300], "n_states": 50}, "checks": ["concentration"]},
    ],
    ids=["kappa-1e-300", "kappa-1e-300-spectral", "spacing-1e300", "spacing-1e300-spectral",
         "epsilon-1e200", "epsilon-1e300"],
)
def test_run_at_extreme_widths_spacings_and_deviations_ends_cleanly(tmp_path, capsys, patch):
    """A window narrower than the float spacing of its gaps still counts its anchor cluster, and a
    deviation whose square overflows has tail bound 0; neither ends in a traceback."""
    path = write_run_config(tmp_path)
    config = {**json.loads(path.read_text()), "rho": {"kind": "random"}, "mc": {"n_states": 20, "n_times": 8},
              "checks": ["spectral", "variance", "moments", "equilibration", "concentration"], **patch}
    path.write_text(json.dumps(config))
    rc = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "report.json")])
    assert rc in (0, 2) and "Traceback" not in capsys.readouterr().err
    if rc == 0 and "concentration" in patch:
        report = json.loads((tmp_path / "report.json").read_text())
        [tail] = [c for c in report["checks"] if c["name"] == "concentration_tail"]
        assert tail["detail"]["cells"][-1]["bound"] == 0.0 and tail["passed"]


#: Eight explicit levels, each finite, whose spread 2e308 overflows.
WIDE_LEVELS = [-1e308, -7e307, -4e307, -1e307, 1e307, 4e307, 7e307, 1e308]


@pytest.mark.parametrize(
    "patch, message",
    [
        ({"hamiltonian": {"kind": "random", "eigenvalues": WIDE_LEVELS}},
         "bad hamiltonian section: eigenvalues must be finite and differ by a finite spread"),
        ({"hamiltonian": {"kind": "random", "eigenvalues": "arithmetic", "spacing": 1e308}},
         "bad hamiltonian section: eigenvalues must be finite and differ by a finite spread"),
        ({"horizons": [1e308]}, "horizons must keep every phase finite"),
        ({"concentration": {"time": 1e308}, "checks": ["concentration"]}, "concentration.time must keep every phase"),
    ],
    ids=["levels-spread", "arithmetic-spacing", "horizon", "concentration-time"],
)
@pytest.mark.filterwarnings("error")
def test_run_refuses_levels_and_times_whose_phases_overflow(tmp_path, capsys, patch, message):
    """At D = 8 these configs ended in an empty reduction, a failed eigensolver or, at the concentration
    time, a NaN B(t) whose tail read 0; each is refused when the scenario is built, naming its field."""
    path = write_run_config(tmp_path)
    config = {**json.loads(path.read_text()), "dimension": 8, **patch}
    path.write_text(json.dumps(config))
    out = tmp_path / "report.json"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "Traceback" not in err
    assert not out.exists()


def test_stats_refuses_levels_whose_spread_overflows(tmp_path, capsys):
    f = tmp_path / "spec.json"
    blocks = [{"rows": 3, "cols": 1, "entries": [[float(i == j), 0.0] for i in range(3)]} for j in range(3)]
    f.write_text(json.dumps({"eigenvalues": [-1e308, 0.0, 1e308], "blocks": blocks}))
    assert cli.main(["stats", "--spectrum", str(f)]) == 2
    err = capsys.readouterr().err
    assert "eigenvalues must be finite and differ by a finite spread, got -1e+308 to 1e+308" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "concentration",
    [{"scaling_dims": [16, 10**15]}, {"n_states": 10**15}],
    ids=["scaling-dim", "n_states"],
)
def test_run_too_large_for_any_memory_exits_2(tmp_path, capsys, concentration):
    """10**15 float64 values are 7.1 PiB, beyond any address space, so the array is refused before
    anything is allocated; the run exits 2 with numpy's message, not 1 with a traceback."""
    path = write_run_config(tmp_path)
    config = {**json.loads(path.read_text()), "concentration": concentration, "checks": ["concentration"]}
    path.write_text(json.dumps(config))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "report.json")]) == 2
    err = capsys.readouterr().err
    assert "error: Unable to allocate 7.11 PiB" in err and "Traceback" not in err


def test_run_takes_an_observable_just_below_the_cut(tmp_path):
    save_matrix(tmp_path / "B.json", 1.1e76 * np.diag(np.arange(6.0)))
    path = write_run_config(tmp_path)
    config = {
        **json.loads(path.read_text()),
        "observable": {"kind": "file", "path": "B.json"},
        "checks": ["spectral", "variance", "moments", "equilibration", "concentration"],
    }
    path.write_text(json.dumps(config))
    out = tmp_path / "report.json"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["spectral"]["norm_b"] == pytest.approx(5.5e76, rel=1e-12)
    assert report["spectral"]["contributing"]["n_distinct"] == 6  # a Haar eigenbasis couples every level


def test_stats_refuses_an_observable_whose_frobenius_norm_overflows(tmp_path, capsys):
    spec_f, b_f = tmp_path / "spec.json", tmp_path / "B.json"
    write_spectrum(spec_f, np.arange(6.0))
    save_matrix(b_f, 1e160 * np.diag(np.arange(6.0)))
    assert cli.main(["stats", "--spectrum", str(spec_f), "--observable", str(b_f)]) == 2
    assert "observable Frobenius norm overflows" in capsys.readouterr().err


def test_stats_exits_2_naming_a_wrongly_typed_key(tmp_path, capsys):
    f = tmp_path / "spec.json"
    f.write_text(json.dumps({"eigenvalues": [0.0], "blocks": 3}))
    assert cli.main(["stats", "--spectrum", str(f)]) == 2
    err = capsys.readouterr().err
    assert "'blocks'" in err and "Traceback" not in err


def test_run_reruns_are_byte_identical(tmp_path):
    config = write_run_config(tmp_path)
    config.write_text(json.dumps({**json.loads(config.read_text()), "horizons": [4.0, 1e4]}))
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    t_f = tmp_path / "timings.json"
    assert cli.main(["run", "--config", str(config), "--out", str(out1), "--timings", str(t_f)]) == 0
    assert cli.main(["run", "--config", str(config), "--out", str(out2), "--workers", "4"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    timings = json.loads(t_f.read_text())
    assert "build" in timings and "timings" not in out1.read_text()
    rule = timings["variance_rule"]
    assert rule["nodes"] > 0 and 0.0 <= rule["self_check"] <= 1e-13
    # one route record of the phase-matrix norm per horizon; the report keeps its keys
    kernel, dense = timings["phase_norm"]
    assert kernel["horizon"] == 4.0 and kernel["route"] == "kernel" and kernel["pairs"] == 30
    assert 0 < kernel["nodes"] < 30 and 0.0 < kernel["error"] <= 1e-16
    # 30 nodes cannot resolve a horizon of 1e4, so R itself is diagonalized
    assert dense == {"horizon": 1e4, "route": "dense", "nodes": None, "pairs": 30, "error": 0.0}
    [norm_check] = [c for c in json.loads(out1.read_text())["checks"] if c["name"] == "phase_norm_window_bound"]
    assert [set(c) for c in norm_check["detail"]["cells"]] == [{"horizon", "kappa", "norm", "bound"}] * 2


def test_run_timings_name_the_route_of_each_horizons_forms(tmp_path):
    config = write_run_config(tmp_path)
    scenario = {**json.loads(config.read_text()), "horizons": [4.0, 1e4], "mc": {"n_states": 20, "n_times": 8}}
    config.write_text(json.dumps({**scenario, "checks": ["spectral", "moments"]}))
    out, t_f = tmp_path / "r.json", tmp_path / "timings.json"
    assert cli.main(["run", "--config", str(config), "--out", str(out), "--timings", str(t_f)]) == 0
    timings = json.loads(t_f.read_text())
    rule, dense = timings["forms"]
    assert rule["horizon"] == 4.0 and rule["route"] == "rule" and rule["pairs"] == 30
    # the forms read the rule of the norm: the same nodes and the same eps P
    kernel = timings["phase_norm"][0]
    assert (rule["nodes"], rule["error"]) == (kernel["nodes"], kernel["error"]) and 0.0 < rule["error"] <= 1e-16
    assert dense == {"horizon": 1e4, "route": "dense", "nodes": None, "pairs": 30, "error": 0.0}
    assert "forms" not in out.read_text()
    # without moments there are no forms, and no record of them
    config.write_text(json.dumps({**scenario, "checks": ["equilibration"]}))
    assert cli.main(["run", "--config", str(config), "--out", str(out), "--timings", str(t_f)]) == 0
    assert "forms" not in json.loads(t_f.read_text())


def test_run_timings_split_the_concentration_checks(tmp_path):
    config = write_run_config(tmp_path)
    scenario = {**json.loads(config.read_text()), "checks": ["concentration"],
                "concentration": {"n_states": 300, "scaling_dims": [4, 2048]}}
    config.write_text(json.dumps(scenario))
    out, t_f = tmp_path / "r.json", tmp_path / "timings.json"
    assert cli.main(["run", "--config", str(config), "--out", str(out), "--timings", str(t_f)]) == 0
    timings = json.loads(t_f.read_text())
    assert set(timings) == {
        "build", "concentration_tail", "concentration_scaling", "scaling_blocks", "total", "peak_rss_mb", "minor_faults",
        "allocator",
    }
    # the allocator setting of the process, which the library's own timings do not carry
    assert timings["allocator"] == cli.keep_freed_memory_mapped()
    assert timings["concentration_tail"] > 0.0 and timings["concentration_scaling"] > 0.0
    # 256 KiB of complex rows: all 300 states at d = 4, 8 rows at d = 2048
    assert timings["scaling_blocks"] == [{"dim": 4, "rows": 300}, {"dim": 2048, "rows": 8}]
    assert "scaling_blocks" not in out.read_text() and "timings" not in out.read_text()


def test_the_allocator_keeps_freed_memory_mapped_for_the_next_run(tmp_path):
    """Freed chunk, draw and Monte Carlo arrays stay in the heap, so a second run of the D = 32 ladder config
    faults in almost no new pages; with glibc's dynamic thresholds it faults in about 5,000."""
    setting = cli.keep_freed_memory_mapped()
    if setting is None:
        pytest.skip("the C library has no mallopt, or refuses the thresholds")
    resource = pytest.importorskip("resource")
    assert setting == {"mmap_threshold": 32 * 2**20, "trim_threshold": 64 * 2**20}
    config = tmp_path / "d32.json"
    config.write_text(json.dumps({
        "schema": "gaplab-scenario/1", "dimension": 32, "seed": 11, "hamiltonian": {"kind": "random"},
        "rho": {"kind": "random"}, "observable": {"kind": "random_projector", "rank": 16},
        "mc": {"n_states": 200, "n_times": 64}, "horizons": [8.0], "kappas": [0.5, 1.5], "epsilon": 0.1,
        "delta": 0.1, "checks": ["spectral", "variance", "moments", "equilibration", "concentration"],
    }))
    argv = ["run", "--config", str(config), "--out", str(tmp_path / "report.json")]
    assert cli.main(argv) == 0
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert cli.main(argv) == 0
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100


def write_ensemble_config(tmp_path, n_states=600):
    """A run config whose state ensemble spans several chunks (moments and equilibration)."""
    config = write_run_config(tmp_path)
    scenario = {**json.loads(config.read_text()), "checks": ["moments", "equilibration"],
                "mc": {"n_states": n_states, "n_times": 8}}
    config.write_text(json.dumps(scenario))
    return config


@pytest.mark.parametrize("workers", ["0", "-1", "-100000"])
def test_run_refuses_fewer_than_one_worker(tmp_path, capsys, workers):
    config = write_ensemble_config(tmp_path)
    out = tmp_path / "r.json"
    assert cli.main(["run", "--config", str(config), "--out", str(out), "--workers", workers]) == 2
    err = capsys.readouterr().err
    assert f"--workers must be at least 1, got {workers}" in err and "Traceback" not in err
    assert not out.exists()


def test_run_timings_record_the_ensemble_lanes(tmp_path, monkeypatch):
    with_cores(monkeypatch, 2)
    config = write_ensemble_config(tmp_path)
    out, t_f = tmp_path / "r.json", tmp_path / "timings.json"
    argv = ["run", "--config", str(config), "--out", str(out), "--timings", str(t_f)]
    assert cli.main([*argv, "--workers", "100000"]) == 0
    assert_no_child_left()
    # two lanes of 128-state chunks hold 256 states at once, as one lane of 256-state chunks does
    timings = json.loads(t_f.read_text())
    lanes = timings["ensemble"]
    assert lanes.pop("child_peak_rss_mb") > 0 and timings["peak_rss_mb"] > 0 and timings["minor_faults"] > 0
    # the states are narrow enough that the chunk is not cut by CHUNK_BYTES
    assert 0 < lanes["state_bytes"] <= runner.CHUNK_BYTES // runner.CHUNK_STATES
    # each lane claims chunks as it goes, so the split varies from run to run, but not the total
    claimed = lanes.pop("claimed")
    assert len(claimed) == 2 and sum(claimed) == 5 and min(claimed) >= 0
    assert lanes == {"lanes": 2, "chunk_states": 128, "chunks": 5, "state_bytes": lanes["state_bytes"]}
    for key in ("ensemble", "peak_rss_mb", "minor_faults", "claimed", "allocator"):
        assert key not in out.read_text()
    assert cli.main(argv) == 0
    assert json.loads(t_f.read_text())["ensemble"] == {
        "lanes": 1, "chunk_states": 256, "chunks": 3, "child_peak_rss_mb": None, "state_bytes": lanes["state_bytes"],
        "claimed": [3],
    }


@pytest.mark.parametrize("lane", ["calling", "pool", "killed", "memory"])
def test_run_error_in_a_lane_exits_2_and_leaves_no_thread(tmp_path, capsys, monkeypatch, lane):
    """A lane's failure reaches the caller as a serial run's would, and every forked lane is reaped.

    The 600 states run in 5 chunks of 128 on two lanes, each lane claiming chunks as it goes.  In its
    first chunk each lane waits until the other lane is in one too, so both lanes hold a chunk whoever
    claims which.  Then the sampler raises in the calling process (``calling``), raises in the child
    (``pool``), kills the child (``killed``), or asks in the child for 10**16 float64 values (``memory``),
    which no address space holds, so numpy refuses them with an error its message alone cannot rebuild.
    """
    with_cores(monkeypatch, 2)
    original = runner.sample_gap_each
    parent = os.getpid()
    arrived = np.frombuffer(mmap.mmap(-1, 16), dtype=np.int64)  # one flag per lane, shared across the fork

    def fails_in_one_lane(rho, rngs):
        in_child = int(os.getpid() != parent)
        if not arrived[in_child]:
            arrived[in_child] = 1
            deadline = time.monotonic() + 60
            while not arrived[1 - in_child]:
                assert time.monotonic() < deadline, "the other lane never ran a chunk"
                time.sleep(0.001)
            if lane == "calling" and not in_child:
                raise ValueError("synthetic sampler failure in the calling lane")
            if lane == "killed" and in_child:
                os.kill(os.getpid(), signal.SIGKILL)
            if lane == "pool" and in_child:
                raise ValueError("synthetic sampler failure in the pool lane")
            if lane == "memory" and in_child:
                np.empty(10**16)
        return original(rho, rngs)

    monkeypatch.setattr(runner, "sample_gap_each", fails_in_one_lane)
    config = write_ensemble_config(tmp_path)
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "r.json"), "--workers", "2"]) == 2
    assert_no_child_left()
    err = capsys.readouterr().err
    message = {
        "calling": "synthetic sampler failure in the calling lane",
        "pool": "synthetic sampler failure in the pool lane",
        "killed": "ensemble lane 1 was ended by signal SIGKILL",
        "memory": "MemoryError: Unable to allocate 71.1 PiB",  # numpy names its _ArrayMemoryError so
    }[lane]
    assert f"error: {message}" in err and "Traceback" not in err


def test_run_error_in_the_concentration_checks_beside_the_lanes_exits_2(tmp_path, capsys, monkeypatch):
    """The calling process runs the concentration checks after the fork and before it claims a chunk; their
    failure ends the run as a serial run's would, and the child is killed and reaped."""
    with_cores(monkeypatch, 2)
    parent, forked, chunks = os.getpid(), [], []  # a child's appends stay in the child
    fork, sample = runner.os.fork, runner.sample_gap_each

    def counted_fork():
        forked.append(1)
        return fork()

    def counted_chunk(rho, rngs):
        chunks.append(1)
        return sample(rho, rngs)

    def fails(config):
        assert os.getpid() == parent and forked == [1] and chunks == []
        raise ValueError("synthetic concentration failure")

    monkeypatch.setattr(runner.os, "fork", counted_fork)
    monkeypatch.setattr(runner, "sample_gap_each", counted_chunk)
    monkeypatch.setattr(runner, "_concentration_scaling", fails)
    config = write_ensemble_config(tmp_path)
    scenario = {**json.loads(config.read_text()), "checks": ["moments", "equilibration", "concentration"]}
    config.write_text(json.dumps({**scenario, "concentration": {"n_states": 300}}))
    out = tmp_path / "r.json"
    assert cli.main(["run", "--config", str(config), "--out", str(out), "--workers", "2"]) == 2
    assert_no_child_left()
    err = capsys.readouterr().err
    assert "error: synthetic concentration failure" in err and "Traceback" not in err
    assert not out.exists()


def test_run_two_lanes_under_the_default_blas_threads_give_the_serial_report(tmp_path):
    """A child forked after BLAS has run on its default thread count finishes, and the bytes hold."""
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({
        "schema": "gaplab-scenario/1", "dimension": 128, "seed": 5,
        "hamiltonian": {"kind": "random", "multiplicities": [16] * 8}, "rho": {"kind": "random"},
        "observable": {"kind": "random_projector", "rank": 64}, "horizons": [8.0, 32.0], "kappas": [1.0],
        "checks": ["moments", "equilibration"], "mc": {"n_states": 600, "n_times": 16},
    }))
    serial, forked, t_f = tmp_path / "serial.json", tmp_path / "forked.json", tmp_path / "timings.json"
    assert cli.main(["run", "--config", str(config), "--out", str(serial)]) == 0
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = ["run", "--config", str(config), "--out", str(forked), "--timings", str(t_f), "--workers", "2"]
    subprocess.run([sys.executable, "-m", "gaplab.cli", *argv], env=env, check=True, capture_output=True, timeout=120)
    assert forked.read_bytes() == serial.read_bytes()
    lanes = json.loads(t_f.read_text())["ensemble"]
    assert lanes["lanes"] == runner.ensemble_lanes(2, 600, lanes["state_bytes"])[0]


def test_run_violation_exits_1(tmp_path, monkeypatch):
    config = write_run_config(tmp_path)
    out = tmp_path / "report.json"
    failing = CheckRecord(
        name="synthetic", bound=1.0, measured=2.0, margin=-1.0, vacuous=False,
        mc_error=None, seed=0, passed=False,
    )
    fake = Report(config={}, seed=0, spectral={}, checks=[failing])

    def fake_run(config, base_dir=".", workers=1):
        return fake

    monkeypatch.setattr(cli, "run_scenario", fake_run)
    rc = cli.main(["run", "--config", str(config), "--out", str(out)])
    assert rc == 1


def test_missing_file_exits_2(tmp_path):
    assert cli.main(["stats", "--spectrum", str(tmp_path / "nope.json")]) == 2
    assert cli.main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "r.json")]) == 2
