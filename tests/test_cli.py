"""Command line behavior: output contents, file formats, exit codes."""

import json
import math

import numpy as np
import pytest

from gaplab import cli, runner
from gaplab.dynamics import (
    BoundInputs,
    expectation_curve,
    finite_time_branches,
    equilibration_bound_infinite_time,
    moment_bounds,
)
from gaplab.jsonio import (
    load_states,
    save_matrix,
    save_spectrum,
    save_states,
)
from gaplab.runner import CheckRecord, Report
from gaplab.spectra import group_eigenvalues


def write_spectrum(path, values):
    d = len(values)
    spec = group_eigenvalues(np.asarray(values, dtype=float), np.eye(d), 1e-9)
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


def test_evolve_malformed_times(tmp_path):
    spec_f = tmp_path / "spec.json"
    psi_f = tmp_path / "psi.json"
    b_f = tmp_path / "B.json"
    write_spectrum(spec_f, [0.0, 1.0])
    save_states(psi_f, np.array([[1.0, 0.0]], dtype=complex))
    save_matrix(b_f, np.eye(2, dtype=complex))
    rc = cli.main(
        ["evolve", "--spectrum", str(spec_f), "--psi0", str(psi_f), "--B", str(b_f),
         "--times", "0,1,5", "--out", str(tmp_path / "c.csv")]
    )
    assert rc == 2


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
    markov, conc = finite_time_branches(bi)
    assert record["finite_time"]["markov"] == pytest.approx(markov, rel=1e-12)
    assert record["finite_time"]["markov"] == pytest.approx(math.sqrt(18800.0 * 1e-6), rel=1e-12)
    assert record["finite_time"]["concentration"] == pytest.approx(conc, rel=1e-12)
    assert record["finite_time"]["bound"] == min(markov, conc)
    assert record["infinite_time"] == pytest.approx(equilibration_bound_infinite_time(bi), rel=1e-12)
    m = moment_bounds(bi)
    assert record["moment_bounds"]["expected_time_variance"] == pytest.approx(m.expected_time_variance, rel=1e-12)
    assert record["moment_bounds"]["time_average_variance"] == pytest.approx(m.time_average_variance, rel=1e-12)
    assert record["inputs"]["norm_rho"] == 1e-6
    assert record["window_factor"] == pytest.approx(bi.window_factor, rel=1e-12)


def test_bounds_missing_key_exits_2(tmp_path):
    f = tmp_path / "inputs.json"
    f.write_text(json.dumps({"epsilon": 0.1}))
    assert cli.main(["bounds", "--inputs", str(f)]) == 2


def write_run_config(tmp_path):
    config = {
        "schema": "gaplab-scenario/1",
        "dimension": 6,
        "seed": 7,
        "hamiltonian": {"kind": "random"},
        "rho": {"kind": "uniform"},
        "observable": {"kind": "random_projector"},
        "n_states": 24,
        "n_times": 12,
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
        ({"dimension": 8.7}, "dimension"),
        ({"seed": True}, "seed"),
        ({"concentration": {"n_states": 0}}, "concentration.n_states"),
        ({"concentration": {"scaling_dims": [1, 2]}}, "concentration.scaling_dims"),
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
        "dimension-fraction",
        "seed-bool",
        "concentration-n_states-zero",
        "scaling_dims-one",
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


def test_run_reruns_are_byte_identical(tmp_path):
    config = write_run_config(tmp_path)
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
