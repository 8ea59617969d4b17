"""Checks on the reports and curve CSVs that ``gaplab run`` writes.

Every seed: exit code 0, the report echoes its config, no violations,
every check passed, the check names of the reference scenario with the
same index, and the Monte Carlo budget the config asked for.

Reference seed (``REFERENCE_SEED``), against reports stored under
``refs/`` by ``make_refs.py``: the same structure, the same strings,
integers, ``passed`` and ``vacuous`` flags, and floats within a relative
``RTOL`` plus an absolute ``ATOL`` for values that cancel to rounding
noise (report values are O(1): observables have unit norm).  The
``ensemble`` reference is written with ``--workers 1`` and the workload
runs with ``--workers 2``, so its report must match byte for byte.
"""

from __future__ import annotations

import gzip
import json
import math
import os

REFERENCE_SEED = 0
RTOL = 1e-12
ATOL = 1e-15
REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")
REPORT_SCHEMA = "gaplab-report/1"
CSV_HEADER = "t,re_expectation,im_expectation"

#: Workloads whose reference report must equal the measured one byte for byte.
BYTE_EXACT = {"ensemble"}


def ref_path(workload: str) -> str:
    return os.path.join(REFS_DIR, f"{workload}-seed{REFERENCE_SEED}.json.gz")


def load_refs(workload: str) -> dict:
    """{"reports": [report text per scenario], "csv": [curve summaries per scenario]}."""
    with gzip.open(ref_path(workload), "rt", encoding="utf-8") as fh:
        return json.load(fh)


def csv_summary(csv_dir: str, config: dict) -> dict:
    """Row count, first and last rows, and column sums of each horizon's curve CSV."""
    out = {}
    for T in config["horizons"]:
        path = os.path.join(csv_dir, f"mixture_T{T:g}.csv")
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            rows = [[float(x) for x in line.split(",")] for line in fh]
        if header != CSV_HEADER:
            raise ValueError(f"{path}: header {header!r}")
        if not all(len(r) == 3 and all(math.isfinite(x) for x in r) for r in rows):
            raise ValueError(f"{path}: malformed or non-finite row")
        if rows[0][0] != 0.0 or rows[-1][0] != T:
            raise ValueError(f"{path}: time grid does not span [0, {T}]")
        out[f"{T:g}"] = {
            "rows": len(rows),
            "first": rows[0],
            "last": rows[-1],
            "sums": [math.fsum(r[k] for r in rows) for k in range(3)],
        }
    return out


def compare(got, want, path: str = "") -> list:
    """Differences between two JSON values, floats within RTOL (see module doc)."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return [f"{path}: keys differ"]
        return [d for k in want for d in compare(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: list length differs"]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in compare(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and isinstance(got, (float, int)) and not isinstance(got, bool):
        if abs(got - want) <= RTOL * max(abs(got), abs(want)) + ATOL:
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []


def check_scenario(workload: str, index: int, seed: int, config: dict, rc, report_path: str,
                   csv_dir: str | None, refs: dict) -> list:
    """Problems with one scenario run; an empty list means it is verified."""
    if rc != 0:
        return [f"exit code {rc!r}"]
    with open(report_path, encoding="utf-8") as fh:
        text = fh.read()
    report = json.loads(text)
    want_text = refs["reports"][index]
    want = json.loads(want_text)
    problems = []
    if report.get("schema") != REPORT_SCHEMA:
        problems.append(f"schema {report.get('schema')!r}")
    if report.get("config") != config:
        problems.append("report does not echo its config")
    checks = report.get("checks", [])
    if report.get("violations") != 0 or not all(c.get("passed") is True for c in checks):
        problems.append(f"violations: {[c.get('name') for c in checks if c.get('passed') is not True]}")
    names = [c.get("name") for c in checks]
    if names != [c["name"] for c in want["checks"]]:
        problems.append(f"check names {names}")
    for c in checks:
        detail = c.get("detail", {})
        if c.get("name") == "finite_time_exceedance" and (
            detail.get("n_states") != config["mc"]["n_states"] or detail.get("n_times") != config["mc"]["n_times"]
        ):
            problems.append("Monte Carlo budget differs from the config's mc section")
    got_csv = csv_summary(csv_dir, config) if csv_dir else None
    if seed == REFERENCE_SEED:
        if workload in BYTE_EXACT and text != want_text:
            problems.append("report bytes differ from the --workers 1 reference")
        problems += compare(report, want, "report")
        if got_csv is not None:
            problems += compare(got_csv, refs["csv"][index], "csv")
    return problems
