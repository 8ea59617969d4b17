"""One workload run: a fresh process with one closed-loop caller.

Sets the workload's BLAS thread count before numpy loads, imports gaplab
from ``<root>/src``, writes the workload's configs, prints ``ready``, then
hands one scenario at a time to ``gaplab.cli.main(["run", ...])``.  A pass
runs every scenario once; passes repeat while another one fits in
``--seconds`` (at least one).  An untraced run interleaves single runs of
the scenarios already measured with its passes (see ``measure``).  Reports
are verified after the timed runs.
The last stdout line is a JSON record for ``run.py``.

    python3 perfbench/workload.py --workload sweep --seed 0 --seconds 40 \\
        --trace 0 --root . --work .perfbench/work [--trace-file F] [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import sys
import time
import traceback
from resource import RUSAGE_SELF, getrusage

import spans
import verify
import workloads

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Seconds over which a shared host's speed holds roughly steady (on the
#: 2-vCPU machine this was tuned on it drifts by 15-25 % over some seconds).
DRIFT_S = 5.0


def set_thread_budget(workload: str) -> tuple:
    workers, blas = workloads.THREADS[workload]
    workers = min(workers, os.cpu_count() or 1)
    for var in BLAS_ENV:
        if blas is None:
            os.environ.pop(var, None)
        else:
            os.environ[var] = str(blas)
    return workers, blas


def import_gaplab(root: str):
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    import gaplab
    import gaplab.cli

    if not os.path.abspath(gaplab.__file__).startswith(src + os.sep):
        raise SystemExit(f"gaplab was imported from {gaplab.__file__}, not from {src}")
    return gaplab


def write_configs(gaplab, workload: str, seed: int, work: str) -> list:
    """Write the configs; check that gaplab parses the intended Monte Carlo budget."""
    os.makedirs(work, exist_ok=True)
    paths = []
    for i, config in enumerate(workloads.GENERATORS[workload](seed)):
        path = os.path.join(work, f"config{i:02d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh, indent=1)
        parsed = gaplab.scenarios.load_scenario(path)
        budget = (parsed.n_states, parsed.n_times)
        if budget != (config["mc"]["n_states"], config["mc"]["n_times"]):
            raise SystemExit(f"{path}: gaplab parsed n_states, n_times = {budget}, not the mc section")
        paths.append((path, config))
    return paths


def blas_threads() -> dict:
    """Thread count of each OpenBLAS library mapped into this process."""
    import ctypes

    libs = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path):
                libs.add(path)
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def environment(workers: int, blas) -> dict:
    import numpy
    import platform
    import scipy

    blas_info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "workers": workers,
        "blas_threads_setting": "default" if blas is None else blas,
        "blas_threads": blas_threads(),
        "blas": f"{blas_info.get('name')} {blas_info.get('version')}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_scenario(gaplab, workload: str, i: int, path: str, out_dir: str, workers: int) -> tuple:
    """One ``cli.main`` call; returns (wall seconds, exit code)."""
    argv = ["run", "--config", path, "--out", os.path.join(out_dir, f"report{i:02d}.json"),
            "--workers", str(workers)]
    if workload in workloads.CSV_WORKLOADS:
        argv += ["--csv", os.path.join(out_dir, f"csv{i:02d}")]
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = gaplab.cli.main(argv)
    except Exception:  # a crash is a failed scenario run, not a benchmark error
        traceback.print_exc()
        rc = "exception"
    return time.perf_counter() - t0, rc


def run_pass(gaplab, workload: str, paths: list, out_dir: str, workers: int) -> tuple:
    """One closed-loop pass; returns (wall seconds, per-scenario seconds, exit codes)."""
    os.makedirs(out_dir, exist_ok=True)
    times, codes = [], []
    start = time.perf_counter()
    for i, (path, _) in enumerate(paths):
        t, rc = run_scenario(gaplab, workload, i, path, out_dir, workers)
        times.append(t)
        codes.append(rc)
    return time.perf_counter() - start, times, codes


def verify_runs(workload: str, seed: int, paths: list, runs: list, refs: dict) -> int:
    """Failed scenario runs among ``runs``, a list of (output dir, scenario index, exit code)."""
    failed = 0
    for out_dir, i, rc in runs:
        config = paths[i][1]
        csv_dir = os.path.join(out_dir, f"csv{i:02d}") if workload in workloads.CSV_WORKLOADS else None
        try:
            problems = verify.check_scenario(
                workload, i, seed, config, rc, os.path.join(out_dir, f"report{i:02d}.json"), csv_dir, refs
            )
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            failed += 1
            print(f"scenario {i} failed: {problems[:5]}", file=sys.stderr)
    return failed


def size_metrics(paths: list, out_dir: str) -> dict:
    p_max = 0
    for i in range(len(paths)):
        try:
            with open(os.path.join(out_dir, f"report{i:02d}.json"), encoding="utf-8") as fh:
                d = json.load(fh)["spectral"]["contributing"]["n_distinct"]
            p_max = max(p_max, d * (d - 1))
        except (OSError, ValueError, KeyError):
            pass
    return {
        "size.D_max": max(c["dimension"] for _, c in paths),
        "size.P_max": p_max,
        "size.states": sum(c["mc"]["n_states"] for _, c in paths),
        "size.scenarios": len(paths),
    }


def measure(gaplab, args, paths: list, workers: int) -> tuple:
    """The timed runs; returns (pass walls, seconds per scenario run, runs, peak RSS MiB).

    A traced run repeats whole passes while another one fits in --seconds.
    An untraced run also spends, after each scenario of a pass, as much time
    on single runs of the scenarios measured so far as the pass has taken,
    starts another pass only if it fits twice in the time left, and fills
    the rest of --seconds with single runs.  So every
    scenario's median rests on several samples spread over the whole run:
    the speed of a shared host drifts from second to second.  A pass's
    wall time is the sum of its scenario runs.  The next single run is of
    the scenario with the least sampled time, a run counting as at least
    DRIFT_S: a run that short sees the machine at one speed, so short
    scenarios get equal sample counts and long ones, which average over the
    drift, get fewer.
    """
    walls, runs = [], []
    samples = [[] for _ in paths]
    fill = not args.trace
    begin = time.perf_counter()

    def left() -> float:
        return args.seconds - (time.perf_counter() - begin)

    def run_one(i: int, out_dir: str) -> float:
        t, rc = run_scenario(gaplab, args.workload, i, paths[i][0], out_dir, workers)
        samples[i].append(t)
        runs.append((out_dir, i, rc))
        return t

    def run_single() -> float:
        """One single scenario run; its seconds, or 0 if no measured scenario fits."""
        fits = [i for i, ts in enumerate(samples) if ts and statistics.median(ts) <= left()]
        if not fits:
            return 0.0
        i = min(fits, key=lambda i: (len(samples[i]) * max(statistics.median(samples[i]), DRIFT_S), i))
        out_dir = os.path.join(args.work, f"single{len(runs)}")
        os.makedirs(out_dir)
        return run_one(i, out_dir)

    while True:
        out_dir = os.path.join(args.work, f"pass{len(walls)}")
        os.makedirs(out_dir)
        wall = single = 0.0
        for i in range(len(paths)):
            wall += run_one(i, out_dir)
            if not walls and i == len(paths) - 1:
                # peak through set-up and the first run of every scenario, so
                # that the figure does not depend on how many runs fit in --seconds
                peak_rss_mb = getrusage(RUSAGE_SELF).ru_maxrss / 1024.0
            while fill and single < wall:
                t = run_single()
                if not t:
                    break
                single += t
        walls.append(wall)
        if left() < (2 if fill else 1) * statistics.median(walls):
            break
    while fill and run_single():
        pass
    return walls, samples, runs, peak_rss_mb


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--trace-file", default=None, help="where a traced run writes its spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    workers, blas = set_thread_budget(args.workload)
    gaplab = import_gaplab(args.root)
    paths = write_configs(gaplab, args.workload, args.seed, args.work)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    refs = verify.load_refs(args.workload)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(gaplab)

    walls, samples, runs, peak_rss_mb = measure(gaplab, args, paths, workers)

    failed = verify_runs(args.workload, args.seed, paths, runs, refs)
    record = {
        "passes": len(walls),
        "pass_wall_s": walls,
        "scenario_s": samples,
        "peak_rss_mb": peak_rss_mb,
        "attempted": sum(len(ts) for ts in samples),
        "failed": failed,
        "sizes": size_metrics(paths, os.path.join(args.work, "pass0")),
        "environment": environment(workers, blas),
    }
    if tracer is not None:
        record["spans"] = tracer.summary()
        if args.trace_file:
            tracer.write(args.trace_file)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
