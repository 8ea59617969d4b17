"""Scenario configs of the three benchmark workloads, generated from a seed.

Pure Python (no numpy), so the orchestrator can import it cheaply.  The
workload seed only picks the gaplab ``seed`` of every scenario; the shape
of each workload (dimensions, spectra, budgets, checks) is fixed by the
scenario index, so every seed runs the same amount of work.

Every Monte Carlo budget sits under ``mc``: gaplab ignores top-level
``n_states`` / ``n_times`` keys (the parser reads only the ``mc`` section
and falls back to n_states 200, n_times 256).
"""

from __future__ import annotations

import random

SCHEMA = "gaplab-scenario/1"
ALL_CHECKS = ["spectral", "variance", "moments", "equilibration", "concentration"]

#: Workload name -> (gaplab ``run --workers``, BLAS threads or None for the BLAS default).
THREADS = {
    "ladder": (1, None),
    "sweep": (1, None),
    "ensemble": (2, 1),
}

LADDER_DIMS = (8, 16, 24, 32, 48)
SWEEP_SCENARIOS = 40
SWEEP_DIMS = (8, 12, 16)
SWEEP_HORIZONS = (2.0, 8.0, 32.0)


def _scenario_seeds(workload: str, seed: int, n: int) -> list:
    rng = random.Random(f"gaplab-bench/{workload}/{seed}")
    return [rng.randrange(2**31) for _ in range(n)]


def _config(dimension, seed, hamiltonian, rho, observable, n_states, n_times, horizons, checks):
    return {
        "schema": SCHEMA,
        "dimension": dimension,
        "seed": seed,
        "hamiltonian": hamiltonian,
        "rho": rho,
        "observable": observable,
        "mc": {"n_states": n_states, "n_times": n_times},
        "horizons": list(horizons),
        "kappas": [0.5, 1.5],
        "epsilon": 0.1,
        "delta": 0.1,
        "checks": list(checks),
    }


def ladder(seed: int) -> list:
    """The baseline config of the roadmap at D = 8 ... 48 (rank-D/2 projector)."""
    seeds = _scenario_seeds("ladder", seed, len(LADDER_DIMS))
    return [
        _config(
            D, s, {"kind": "random"}, {"kind": "random"},
            {"kind": "random_projector", "rank": D // 2},
            200, 64, [8.0], ALL_CHECKS,
        )
        for D, s in zip(LADDER_DIMS, seeds)
    ]


def _sweep_hamiltonian(kind: int, D: int) -> dict:
    if kind == 0:
        return {"kind": "random"}
    if kind == 1:
        # arithmetic spectrum: maximal gap degeneracy
        return {"kind": "random", "eigenvalues": "arithmetic", "spacing": 0.5, "multiplicities": [2] * (D // 2)}
    return {"kind": "random", "multiplicities": [2] * (D // 2)}


RHO_KINDS = ({"kind": "random"}, {"kind": "canonical", "beta": 0.2}, {"kind": "uniform"})
OBSERVABLE_KINDS = ({"kind": "random_projector"}, {"kind": "macro_projector"}, {"kind": "random_hermitian"})


def sweep(seed: int) -> list:
    """40 small scenarios rotating dimension, spectrum, rho, observable and horizon."""
    seeds = _scenario_seeds("sweep", seed, SWEEP_SCENARIOS)
    configs = []
    for i, s in enumerate(seeds):
        D = SWEEP_DIMS[i % 3]
        ham = (i // 3) % 3
        rho = (i // 9) % 3
        if (D, ham, rho) == (8, 0, 1):
            # A canonical rho at beta 0.2 on 8 nondegenerate Gaussian levels
            # has p_max >= 1/4 for rare seeds, which gaplab rejects; swap in
            # the uniform rho so every seed yields an accepted config.
            rho = 2
        configs.append(
            _config(
                D, s, _sweep_hamiltonian(ham, D), dict(RHO_KINDS[rho]),
                dict(OBSERVABLE_KINDS[(i + i // 3) % 3]),
                200, 64, [SWEEP_HORIZONS[(i + i // 9) % 3]], ALL_CHECKS,
            )
        )
    return configs


def ensemble(seed: int) -> list:
    """One D = 128 scenario, 8 levels of multiplicity 16, 6000 states x 256 times."""
    (s,) = _scenario_seeds("ensemble", seed, 1)
    return [
        _config(
            128, s, {"kind": "random", "multiplicities": [16] * 8}, {"kind": "random"},
            {"kind": "random_projector", "rank": 64},
            6000, 256, [8.0, 32.0], ["moments", "equilibration", "concentration"],
        )
    ]


GENERATORS = {"ladder": ladder, "sweep": sweep, "ensemble": ensemble}

#: ``gaplab run --csv`` is on for these workloads.
CSV_WORKLOADS = {"sweep"}
