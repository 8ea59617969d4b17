"""Golden reports: three scenario runs compared against committed reports.

Each file under ``tests/golden/`` is a canonical report; its ``config``
echo is the scenario that produced it.  A rerun must match the file in
structure, strings, integers and the ``passed`` / ``vacuous`` flags exactly,
and in every float to within ``RTOL`` relative plus ``ATOL`` absolute.

Regenerate the files (only when a change is meant to alter reports) with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import pathlib
import sys

import pytest

from gaplab.runner import run_scenario
from gaplab.scenarios import ScenarioConfig

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
RTOL = 1e-12
ATOL = 1e-15

_BASE = {
    "schema": "gaplab-scenario/1",
    "kappas": [0.5, 1.5],
    "epsilon": 0.1,
    "delta": 0.1,
    "checks": ["spectral", "variance", "moments", "equilibration", "concentration"],
}

#: Golden file name -> scenario config.
CONFIGS = {
    # the minimal config of the README
    "readme_minimal": {
        **_BASE,
        "dimension": 8,
        "seed": 11,
        "hamiltonian": {"kind": "random"},
        "rho": {"kind": "random"},
        "observable": {"kind": "random_projector"},
        "mc": {"n_states": 200, "n_times": 64},
        "horizons": [8.0],
    },
    "arithmetic_multiplicities": {
        **_BASE,
        "dimension": 12,
        "seed": 5,
        "hamiltonian": {
            "kind": "random", "eigenvalues": "arithmetic", "spacing": 0.5, "multiplicities": [2] * 6,
        },
        "rho": {"kind": "random"},
        "observable": {"kind": "random_hermitian"},
        "mc": {"n_states": 150, "n_times": 48},
        "horizons": [2.0, 32.0],
    },
    "canonical_macro": {
        **_BASE,
        "dimension": 10,
        "seed": 3,
        "hamiltonian": {"kind": "random"},
        "rho": {"kind": "canonical", "beta": 0.2},
        "observable": {"kind": "macro_projector"},
        "mc": {"n_states": 150, "n_times": 48},
        "horizons": [4.0, 16.0],
        "kappas": [1.0],
        "concentration": {"time": 0.5, "n_states": 400, "scaling_dims": [16, 64], "epsilon_grid": [0.1, 0.3]},
    },
}


def differences(got, want, path="report"):
    """Where two JSON values differ, floats compared within RTOL + ATOL."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return [f"{path}: keys differ"]
        return [d for k in want for d in differences(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: list length differs"]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in differences(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and isinstance(got, (float, int)) and not isinstance(got, bool):
        if abs(got - want) <= RTOL * max(abs(got), abs(want)) + ATOL:
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []


def run(name):
    return json.loads(run_scenario(ScenarioConfig.from_dict(CONFIGS[name])).to_json())


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_matches_golden(name):
    want = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert want["config"] == CONFIGS[name]
    got = run(name)
    assert got["violations"] == 0
    assert differences(got, want) == []


def test_differences_catch_each_kind():
    want = {"a": 1.0, "b": [1, "x", True], "c": {"d": None}}
    assert differences(want, want) == []
    assert differences({**want, "a": 1.0 + 1e-13}, want) == []
    assert differences({**want, "a": 1.0 + 1e-11}, want) != []
    assert differences({**want, "b": [1, "x", False]}, want) != []
    assert differences({**want, "b": [1.0, "x", True]}, want) != []
    assert differences({**want, "c": {}}, want) != []


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in sorted(CONFIGS):
        report = run_scenario(ScenarioConfig.from_dict(CONFIGS[name]))
        (GOLDEN_DIR / f"{name}.json").write_text(report.to_json())
        print(f"wrote {name}: violations {report.violations}", file=sys.stderr)
