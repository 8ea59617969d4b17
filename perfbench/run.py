"""gaplab benchmark: one workload run, verified, printed as metrics.

    python3 perfbench/run.py --workload {ladder,sweep,ensemble} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a gaplab checkout.  Set-up is timed in ``SETUP_PROBES``
fresh processes that only import gaplab and write the configs, plus the
workload process itself; ``setup_s`` is their median.  The workload process
(``workload.py``) runs the scenarios in a closed loop for ``--seconds`` and
verifies every report.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` the per-layer metrics of a traced
run (per pass: one pass runs every scenario of the workload once).  Spans of
a traced run are written to ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

from spans import LAYERS
from workloads import GENERATORS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 2
TIME_LIMIT_S = 170.0

FUNCTIONS = (
    "linalg.operator_norm",
    "dynamics.gap_phase_matrix",
    "dynamics.block_overlap_matrix",
    "moments.quad",
    "moments.k_pair_table",
    "sampling.sample_gap",
    "sampling.derive_rng",
    "spectra.contributing_set",
    "scenarios.build_scenario",
)
SIZES = ("size.D_max", "size.P_max", "size.states", "size.scenarios")


def percentile_75(xs: list) -> float:
    return xs[0] if len(xs) == 1 else statistics.quantiles(xs, n=4, method="inclusive")[2]


def end_to_end(record: dict, setup: list) -> dict:
    # one figure per scenario, the median of its runs, so that a single slow
    # run cannot decide the percentile on workloads with few scenarios
    scenario_s = [statistics.median(ts) for ts in record["scenario_s"]]
    return {
        "wall_s": (statistics.median(record["pass_wall_s"]), "s"),
        "scenario_s.p50": (statistics.median(scenario_s), "s"),
        "scenario_s.p75": (percentile_75(scenario_s), "s"),
        "peak_rss_mb": (record["peak_rss_mb"], "MiB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def per_layer(record: dict) -> dict:
    passes = record["passes"]
    spans = record["spans"]

    def per_pass(x):
        return x // passes if isinstance(x, int) and x % passes == 0 else x / passes

    out = {}
    for layer in LAYERS:
        entries = [e for e in spans.values() if e["layer"] == layer]
        out[f"{layer}.self_s"] = (per_pass(sum(e["self_s"] for e in entries)), "s")
        out[f"{layer}.calls"] = (per_pass(sum(e["calls"] for e in entries)), "count")
    empty = {"calls": 0, "s": 0.0}
    for name in FUNCTIONS:
        entry = spans.get(name, empty)
        out[f"{name}.s"] = (per_pass(entry["s"]), "s")
        out[f"{name}.calls"] = (per_pass(entry["calls"]), "count")
    out["runner.pool_wait_s"] = (per_pass(spans.get("runner.pool_wait", empty)["s"]), "s")
    for name in SIZES:
        out[name] = (record["sizes"][name], "count")
    out["trace.wall_s"] = (statistics.median(record["pass_wall_s"]), "s")
    return out


def start(cmd: list, root: str, timeout: float):
    """Start a workload process; return it with its spawn-to-ready seconds."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(timeout, proc.kill)  # a hung set-up must not outlive the time limit
    watchdog.start()
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    watchdog.cancel()
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"workload process did not finish set-up: {line!r}")
    return proc, ready


def finish(proc, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"workload process exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return out


def main() -> int:
    deadline = time.perf_counter() + TIME_LIMIT_S

    def remaining() -> float:
        return max(1.0, deadline - time.perf_counter())

    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gaplab", "cli.py")):
        print("error: run from the root of a gaplab checkout (src/gaplab is missing)", file=sys.stderr)
        return 2
    scratch = os.path.join(root, ".perfbench")
    work = os.path.join(scratch, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    base = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--root", root]
    try:
        setup = []
        for i in range(SETUP_PROBES):
            proc, ready = start(base + ["--work", os.path.join(work, f"probe{i}"), "--setup-only"], root, remaining())
            finish(proc, remaining())
            setup.append(ready)
        cmd = base + ["--work", os.path.join(work, "run"), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            os.makedirs(os.path.join(scratch, "traces"), exist_ok=True)
            cmd += ["--trace-file", os.path.join(scratch, "traces", f"{args.workload}-seed{args.seed}.json")]
        proc, ready = start(cmd, root, remaining())
        setup.append(ready)
        record = json.loads(finish(proc, remaining()).splitlines()[-1])
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = per_layer(record) if args.trace else end_to_end(record, setup)
    print(json.dumps({"environment": record["environment"]}))
    print(f"failed_ratio {record['failed']}/{record['attempted']} ({record['passes']} passes)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
