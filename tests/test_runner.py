"""End-to-end scenario reports: check outcomes, vacuity flags, determinism."""

import dataclasses
import itertools
import json
import mmap
import multiprocessing
import os
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import assert_no_child_left, with_cores
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


#: A D = 64 equilibration scenario whose one horizon has a deviation bound below 2 |B|, so it is live.
LIVE_EXCEEDANCE = dict(
    dimension=64, seed=3, rho={"kind": "uniform"}, observable={"kind": "random_projector", "rank": 32},
    epsilon=0.9, delta=0.9, kappas=[1e-6], horizons=[1e9], checks=["equilibration"],
)


class SharedCounts:
    """Call counts to which the forked lanes of an ensemble add as the calling process does."""

    def __init__(self, names):
        self.names = list(names)
        self.array = multiprocessing.Array("q", len(self.names))  # its lock is shared across fork

    def __getitem__(self, name) -> int:
        return self.array[self.names.index(name)]

    def reset(self) -> None:
        with self.array.get_lock():
            self.array[:] = [0] * len(self.names)

    def wrap(self, name, fn):
        i = self.names.index(name)

        def counted(*args, **kwargs):
            with self.array.get_lock():
                self.array[i] += 1
            return fn(*args, **kwargs)

        return counted


@pytest.mark.parametrize(
    "overrides, routes",
    [
        (dict(hamiltonian={"kind": "random"}, horizons=[2.0, 8.0]), ["rule", "rule"]),
        (dict(hamiltonian={"kind": "random"}, horizons=[8.0, 32.0]), ["rule", "dense"]),
        (dict(hamiltonian={"kind": "random", "multiplicities": [2, 2, 1, 1, 1, 1]}, horizons=[1.0, 8.0]),
         ["rule", "dense"]),
        (LIVE_EXCEEDANCE, None),
    ],
    ids=["two-rule-horizons", "long-horizon", "doubly-degenerate-levels", "live-exceedance-horizon"],
)
def test_report_bytes_do_not_depend_on_the_chunk_size(monkeypatch, overrides, routes):
    """Neither forms route gives a state a form that depends on the shape of its chunk or on the lanes.

    The 20 states span 3 chunks of 7 states on one lane, 7 chunks of 3 on two and 10 chunks of 2 on
    three; a chunk size of 1 gives every lane many chunks.
    """
    with_cores(monkeypatch, 3)
    calls = count_overlap_curves(monkeypatch)
    config = make_config(
        **{"checks": ["moments", "equilibration"], **overrides}, mc={"n_states": 20, "n_times": 16},
        concentration=None,
    )
    blobs = {}
    for chunk, workers in itertools.product((1, 7, runner.CHUNK_STATES), (1, 2, 3)):
        monkeypatch.setattr(runner, "CHUNK_STATES", chunk)
        calls.reset()
        report = run_scenario(config, workers=workers)
        assert_no_child_left()
        assert [r["route"] for r in report.timings.get("forms", [])] == (routes or [])
        lanes = report.timings["ensemble"]
        by_bytes = runner.CHUNK_BYTES // (workers * lanes["state_bytes"])
        assert lanes["chunk_states"] == max(1, min(chunk // workers, by_bytes))
        assert lanes["lanes"] == min(workers, lanes["chunks"])
        if routes is None:
            # the live horizon's curves run in every chunk, on every lane
            assert not record_by_name(report, "finite_time_exceedance").vacuous
            assert calls["overlap_curve"] == lanes["chunks"]
        blobs[chunk, workers] = report.to_json()
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


def test_moments_memory_does_not_grow_with_the_lanes(monkeypatch):
    """Two lanes run chunks of half the states, so the states in flight, summed over the lanes, stay put.

    Each lane's growth is its ``tracemalloc`` peak over the memory it starts with, taken in the
    process that runs it (a forked child keeps tracing) and written to memory shared with the parent.
    """
    with_cores(monkeypatch, 2)
    config = make_config(
        dimension=24, observable={"kind": "random_projector", "rank": 12}, mc={"n_states": 2048, "n_times": 8},
        checks=["moments"], concentration=None,
    )
    growth = np.frombuffer(mmap.mmap(-1, 16), dtype=np.int64)
    parent, run_lane = os.getpid(), runner._run_lane

    def measured(*args):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        run_lane(*args)
        growth[int(os.getpid() != parent)] = tracemalloc.get_traced_memory()[1] - start

    monkeypatch.setattr(runner, "_run_lane", measured)
    totals = []
    for workers in (1, 2):
        growth[:] = 0
        tracemalloc.start()
        try:
            report = run_scenario(config, workers=workers)
        finally:
            tracemalloc.stop()
        assert report.timings["ensemble"]["lanes"] == workers
        assert (growth > 0).sum() == workers
        totals.append(int(growth.sum()))
    # two half-size chunks at their peaks at once hold what one full chunk does
    assert totals[1] <= totals[0] + 2**20


def test_moments_memory_stays_within_the_chunk_budget_at_any_horizon(monkeypatch):
    """At D = 64 the horizon-64 rule has about five times the nodes of the horizon-8 one, so its states are
    wider and its chunks smaller: the ensemble's ``tracemalloc`` growth does not rise, and it stays within
    ``CHUNK_BYTES`` plus 1 MiB.  One chunk of all 200 states would hold about 126 MiB of node amplitudes and
    their two temporaries at T = 64.
    """
    growth, run_lane = [], runner._run_lane

    def measured(*args):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        run_lane(*args)
        growth.append(tracemalloc.get_traced_memory()[1] - start)

    monkeypatch.setattr(runner, "_run_lane", measured)
    forms, lanes = [], []
    for horizon in (8.0, 64.0):
        config = make_config(
            dimension=64, observable={"kind": "random_projector", "rank": 32}, mc={"n_states": 200, "n_times": 8},
            horizons=[horizon], checks=["moments"], concentration=None,
        )
        tracemalloc.start()
        try:
            report = run_scenario(config)
        finally:
            tracemalloc.stop()
        (record,) = report.timings["forms"]
        forms.append(record)
        lanes.append(report.timings["ensemble"])
    assert [f["route"] for f in forms] == ["rule", "rule"] and forms[1]["nodes"] > 4 * forms[0]["nodes"]
    assert lanes[1]["state_bytes"] > lanes[0]["state_bytes"] and lanes[1]["chunk_states"] < lanes[0]["chunk_states"]
    assert growth[1] <= growth[0]
    assert max(growth) <= runner.CHUNK_BYTES + 2**20


def test_a_one_state_chunk_gives_the_report_of_wider_chunks(monkeypatch):
    """At D = 96 a state has more gap clusters (9120) than ``einsum`` sums a lone row of in one piece.

    Chunks of 8 leave the 129th state alone in the last chunk; its dephased power must have the bits
    it has in a chunk of 9 (the chunk ``CHUNK_BYTES`` sets), so the report does not change.
    """
    config = make_config(
        dimension=96, observable={"kind": "random_projector", "rank": 48}, mc={"n_states": 129, "n_times": 8},
        checks=["moments"], concentration=None,
    )
    blobs = []
    for chunk in (8, runner.CHUNK_STATES):
        monkeypatch.setattr(runner, "CHUNK_STATES", chunk)
        report = run_scenario(config)
        assert report.scenario.contributing.gaps.starts.size > 8192
        blobs.append(report.to_json())
        if chunk == 8:
            assert report.timings["ensemble"]["chunks"] == 17
    assert blobs[0] == blobs[1]


def test_many_lanes_switching_often_give_the_serial_report(monkeypatch):
    """Eight lanes of one-state chunks, more lanes than cores, write every row as one lane does."""
    config = make_config(mc={"n_states": 40, "n_times": 16}, checks=["moments", "equilibration"],
                         concentration=None)
    serial = run_scenario(config).to_json()
    with_cores(monkeypatch, 8)
    monkeypatch.setattr(runner, "CHUNK_STATES", 8)
    report = run_scenario(config, workers=8)
    assert_no_child_left()
    lanes = report.timings["ensemble"]
    assert lanes.pop("child_peak_rss_mb") > 0
    assert lanes.pop("state_bytes") > 0
    claimed = lanes.pop("claimed")
    assert len(claimed) == 8 and sum(claimed) == 40
    assert lanes == {"lanes": 8, "chunk_states": 1, "chunks": 40}
    assert report.to_json() == serial


@pytest.mark.parametrize("workers", [2, 3])
def test_every_chunk_runs_once_whichever_lane_claims_it(monkeypatch, workers):
    """Lanes claim chunks as they go, the calling one after the concentration checks: every chunk start
    runs exactly once over all lanes, ``claimed`` counts them per lane, and the report is the serial one."""
    config = make_config(mc={"n_states": 100, "n_times": 16})
    serial = run_scenario(config).to_json()
    with_cores(monkeypatch, workers)
    monkeypatch.setattr(runner, "CHUNK_STATES", 24)
    ran = multiprocessing.Array("q", 100)  # runs of each chunk start, over every lane; its lock is shared across fork
    run_lane = runner._run_lane

    def recorded(chunk, starts, poll):
        def counted(lo):
            with ran.get_lock():
                ran[lo] += 1
            chunk(lo)

        run_lane(counted, starts, poll)

    monkeypatch.setattr(runner, "_run_lane", recorded)
    report = run_scenario(config, workers=workers)
    assert_no_child_left()
    lanes = report.timings["ensemble"]
    size = 24 // workers
    assert lanes["lanes"] == workers and lanes["chunk_states"] == size
    assert list(ran) == [int(i % size == 0) for i in range(100)]
    assert len(lanes["claimed"]) == workers and sum(lanes["claimed"]) == lanes["chunks"] == -(-100 // size)
    assert report.to_json() == serial


#: Bytes per state of the D = 128 ``ensemble`` benchmark scenario (d = 8, m = 128, P = 56).
NARROW = 16 * (128 + 128 + 64 + 112)


@pytest.mark.parametrize(
    "workers, cores, n_states, state_bytes, lanes",
    [
        (1, 2, 6000, NARROW, (1, 256)),
        (2, 2, 6000, NARROW, (2, 128)),
        (100_000, 2, 6000, NARROW, (2, 128)),
        (100_000, None, 6000, NARROW, (1, 256)),
        (2**62, 4096, 10**9, NARROW, (4096, 1)),
        (8, 8, 100, NARROW, (4, 32)),
        (3, 3, 2, NARROW, (1, 85)),
        (1, 2, 200, 16 * 2**14, (1, 16)),
        (2, 2, 200, 16 * 2**14, (2, 8)),
        (2, 2, 200, runner.CHUNK_BYTES, (2, 1)),
        (1, 2, 200, 2**40, (1, 1)),
        (2, 2, 1, 2**40, (1, 1)),
    ],
    ids=["serial", "two-cores", "huge-workers", "unknown-cores", "more-cores-than-chunk-states",
         "fewer-chunks-than-cores", "fewer-states-than-a-chunk", "wide-states", "wide-states-two-lanes",
         "a-state-fills-the-budget", "a-state-exceeds-the-budget", "one-state"],
)
def test_ensemble_lanes_are_capped_by_cores_and_chunks(monkeypatch, workers, cores, n_states, state_bytes, lanes):
    """The chunk is also cut to ``CHUNK_BYTES`` of states in flight, down to one state however wide."""
    with_cores(monkeypatch, cores)
    assert runner.ensemble_lanes(workers, n_states, state_bytes) == lanes


def test_ensemble_lanes_count_the_cpus_the_process_may_run_on(monkeypatch):
    """Two CPUs on the machine, one in the affinity mask (as under ``taskset -c 0``): one lane."""
    monkeypatch.setattr(runner.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(runner.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert runner.ensemble_lanes(2, 6000, NARROW) == (1, 256)


def test_one_lane_runs_where_the_platform_cannot_fork(monkeypatch):
    config = make_config(mc={"n_states": 600, "n_times": 16}, checks=["moments", "equilibration"],
                         concentration=None)
    serial = run_scenario(config).to_json()
    with_cores(monkeypatch, 2)
    monkeypatch.delattr(runner.os, "fork")
    assert runner.ensemble_lanes(2, 600, NARROW) == (1, 256)
    report = run_scenario(config, workers=2)
    lanes = report.timings["ensemble"]
    assert lanes.pop("state_bytes") > 0
    assert lanes == {"lanes": 1, "chunk_states": 256, "chunks": 3, "child_peak_rss_mb": None, "claimed": [3]}
    assert report.to_json() == serial


@pytest.mark.parametrize("workers", [0, -1, -(2**62)])
def test_ensemble_lanes_refuse_fewer_than_one_worker(workers):
    with pytest.raises(ValueError, match="workers must be at least 1"):
        runner.ensemble_lanes(workers, 100, NARROW)


def test_a_huge_worker_count_asks_the_pool_for_the_cores_only(monkeypatch):
    """cores - 1 children are forked, whatever ``workers`` says; the calling process runs the other lane."""
    forks = []
    fork = runner.os.fork

    def counted():
        forks.append(1)  # in the parent's list: a child's append stays in the child
        return fork()

    config = make_config(mc={"n_states": 1000, "n_times": 16}, checks=["moments", "equilibration"],
                         concentration=None)
    serial = run_scenario(config).to_json()
    with_cores(monkeypatch, 4)
    monkeypatch.setattr(runner.os, "fork", counted)
    report = run_scenario(config, workers=100_000)
    assert_no_child_left()
    assert len(forks) == 3
    lanes = report.timings["ensemble"]
    assert lanes.pop("child_peak_rss_mb") > 0 and lanes.pop("state_bytes") > 0
    claimed = lanes.pop("claimed")
    assert len(claimed) == 4 and sum(claimed) == 16
    assert lanes == {"lanes": 4, "chunk_states": 64, "chunks": 16}
    assert report.to_json() == serial


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


def count_overlap_curves(monkeypatch) -> SharedCounts:
    """Patch ``runner.overlap_curve`` to count its calls, from any lane, as ``counts["overlap_curve"]``."""
    calls = SharedCounts(["overlap_curve"])
    monkeypatch.setattr(runner, "overlap_curve", calls.wrap("overlap_curve", runner.overlap_curve))
    return calls


def test_vacuous_horizons_evaluate_no_exceedance_curve(monkeypatch):
    """A deviation bound above 2 |B| cannot be exceeded, so no curve of its horizon is evaluated."""
    calls = count_overlap_curves(monkeypatch)
    config = make_config(horizons=[2.0, 8.0], mc={"n_states": 20, "n_times": 16},
                         checks=["moments", "equilibration"], concentration=None)
    record = record_by_name(run_scenario(config), "finite_time_exceedance")
    assert record.vacuous and all(c["vacuous"] for c in record.detail["cells"])
    assert [c["exceed_fraction"] for c in record.detail["cells"]] == [0.0, 0.0]
    assert calls["overlap_curve"] == 0


def test_live_horizon_evaluates_its_exceedance_curves(monkeypatch):
    calls = count_overlap_curves(monkeypatch)
    config = make_config(**LIVE_EXCEEDANCE, mc={"n_states": 20, "n_times": 16}, concentration=None)
    report = run_scenario(config)
    record = record_by_name(report, "finite_time_exceedance")
    (cell,) = record.detail["cells"]
    assert cell["deviation_bound"] < 2.0 and not cell["vacuous"] and not record.vacuous
    # once per chunk: at D = 64 the curves' width cuts the 20 states into chunks of 18
    assert calls["overlap_curve"] == report.timings["ensemble"]["chunks"] == 2


def test_states_draw_no_times_when_every_horizon_is_vacuous(monkeypatch):
    """A state's uniform times are drawn only for a live horizon's curves, after its state on its stream."""
    time_rows = []

    class Recording:
        def __init__(self, rng):
            self.rng = rng

        def __getattr__(self, name):
            return getattr(self.rng, name)

        def random(self, *args, **kwargs):
            if "out" in kwargs:  # the state's draws take single uniforms, its times fill a row
                time_rows.append(kwargs["out"].size)
            return self.rng.random(*args, **kwargs)

    derive_rngs = runner.derive_rngs
    monkeypatch.setattr(runner, "derive_rngs", lambda *args: [Recording(rng) for rng in derive_rngs(*args)])
    vacuous = make_config(horizons=[2.0, 8.0], mc={"n_states": 20, "n_times": 16},
                          checks=["moments", "equilibration"], concentration=None)
    assert record_by_name(run_scenario(vacuous), "finite_time_exceedance").vacuous
    assert time_rows == []
    live = make_config(**LIVE_EXCEEDANCE, mc={"n_states": 20, "n_times": 16}, concentration=None)
    assert not record_by_name(run_scenario(live), "finite_time_exceedance").vacuous
    assert time_rows == [16] * 20


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
    """``sets`` is 1 where every level couples to B, so the contributing set is the spectrum, and 2 where
    a strict subset couples (the macro projector leaves out the last level).  The spectral section reads
    the contributing set's counts where that set is the spectrum."""
    # a forked lane that built a quantity again would add to these counts too
    calls = SharedCounts(["contributing_set", "gap_phase_matrix", "gauss_rule", "operator_norm", "GapIndex",
                          "eigenbasis_observable", "spectral_counts", "mixture_block_overlap", "window_counts"])

    def count(name, home):
        original = getattr(sys.modules[home], name)
        for module in [m for key, m in sys.modules.items() if key == "gaplab" or key.startswith("gaplab.")]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, calls.wrap(name, original))

    count("contributing_set", "gaplab.spectra")
    count("gap_phase_matrix", "gaplab.dynamics")
    count("gauss_rule", "gaplab.dynamics")
    count("operator_norm", "gaplab.linalg")
    count("eigenbasis_observable", "gaplab.dynamics")
    count("spectral_counts", "gaplab.spectra")
    count("mixture_block_overlap", "gaplab.dynamics")
    monkeypatch.setattr(GapIndex, "__init__", calls.wrap("GapIndex", GapIndex.__init__))
    monkeypatch.setattr(GapIndex, "window_counts", calls.wrap("window_counts", GapIndex.window_counts))
    with_cores(monkeypatch, 2)
    grids = (([4.0, 8.0], [0.5, 1.5]), ([2.0, 4.0, 8.0], [0.5, 1.0, 1.5, 3.0]))
    cases = (({"kind": "random_projector"}, 1), ({"kind": "macro_projector"}, 2))
    # one chunk of states and three, on one lane and on two
    for (observable, sets), (horizons, kappas), n_states, workers in itertools.product(
        cases, grids, (256, 768), (1, 2)
    ):
        calls.reset()
        config = make_config(horizons=horizons, kappas=kappas, mc={"n_states": n_states, "n_times": 16},
                             observable=observable)
        report = run_scenario(config, workers=workers)
        assert report.timings["ensemble"]["lanes"] == workers
        assert report.violations == 0
        assert report.spectral["contributing"]["n_distinct"] == 8 - (sets - 1)
        # V* B V once on the contributing set, which every chunk reads, whatever the chunk count, and,
        # unless that set is the spectrum, once on the full spectrum, which B(t) and the mixture reference
        # of the concentration tail read
        assert calls["eigenbasis_observable"] == sets
        assert calls["mixture_block_overlap"] == sets
        # the contributing set's counts, which every (kappa, T) cell reads, and, unless that set is the
        # spectrum, the full spectrum's
        assert calls["spectral_counts"] == sets
        assert calls["contributing_set"] == 1
        assert calls["gap_phase_matrix"] <= 2 * len(config.horizons)
        # one rule per horizon, which the phase norm and the moments forms share
        assert calls["gauss_rule"] == len(config.horizons)
        # one index for each set of eigenvalues, and its window counts of every kappa at once, which every
        # (kappa, T) cell reads
        assert calls["GapIndex"] == sets
        assert calls["window_counts"] == sets
        # |B| only: the phase-matrix norm is an eigenvalue, not a singular value
        assert calls["operator_norm"] == 1
