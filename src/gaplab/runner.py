"""Monte Carlo verification driver with deterministic, worker-independent reports.

Each enabled inequality becomes one check record holding the bound, the
measurement, the margin, a vacuousness flag, and the Monte Carlo error
allowance.  Work fans out over units (one state draw, or one scaling
dimension); every unit derives its random stream from (seed, domain, unit
index) and results are reduced in unit order, so the report bytes depend
only on (config, seed), never on the worker count.  Wall-clock timings are
kept out of the canonical report for the same reason.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import jsonio
from .dynamics import (
    bound_inputs,
    concentration_tail_bound,
    block_overlap_matrix,
    diagonal_ensemble_expectation,
    equilibration_bound_infinite_time,
    finite_time_branches,
    gap_index,
    gap_phase_matrix,
    mixture_curve_deviation,
    mixture_expectation_curve,
    moment_bounds,
    _dephased_power,
    _offdiagonal,
    _phase_quadratic_forms,
)
from .linalg import operator_norm
from .moments import gap_variance_bound
from .sampling import DensityMatrix, derive_rng, sample_gap
from .scenarios import DOMAIN_CONCENTRATION, DOMAIN_STATES, Scenario, ScenarioConfig, build_scenario
from .spectra import _gap_tolerance, contributing_set, gap_count, spectral_stats

__all__ = [
    "CheckRecord",
    "Report",
    "verify_equilibration",
    "verify_concentration",
    "run_scenario",
]

REPORT_SCHEMA = "gaplab-report/1"

#: Stream domain for the variance Monte Carlo (domains 0..5 live in scenarios).
DOMAIN_VARIANCE = 6

#: Default state count for the concentration checks.
CONCENTRATION_STATES = 1000

#: Default scaling dimensions for the concentration study.
CONCENTRATION_SCALING_DIMS = (16, 64, 256)

#: Default absolute deviation grid for the tail checks.
CONCENTRATION_EPSILON_GRID = (0.1, 0.2, 0.4)


@dataclass
class CheckRecord:
    """One verified inequality or identity."""

    name: str
    bound: float
    measured: float
    margin: float
    vacuous: bool
    mc_error: float | None
    seed: int
    passed: bool
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "bound": self.bound,
            "measured": self.measured,
            "margin": self.margin,
            "vacuous": self.vacuous,
            "mc_error": self.mc_error,
            "seed": self.seed,
            "passed": self.passed,
            "detail": self.detail,
        }


@dataclass
class Report:
    """Deterministic scenario report; serialization excludes wall-clock data.

    ``timings`` (the sidecar) and ``scenario`` (the materialized scenario,
    for exports such as the curve CSVs) stay out of ``to_dict``.
    """

    config: dict
    seed: int
    spectral: dict
    checks: list
    timings: dict = field(default_factory=dict, repr=False)
    scenario: Scenario | None = field(default=None, repr=False, compare=False)

    @property
    def violations(self) -> int:
        return sum(1 for c in self.checks if not c.passed)

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "config": self.config,
            "seed": self.seed,
            "spectral": self.spectral,
            "checks": [c.to_dict() for c in self.checks],
            "violations": self.violations,
        }

    def to_json(self) -> str:
        return jsonio.dumps_canonical(self.to_dict())


def _map_units(fn, n_units: int, workers: int) -> list:
    """Apply fn to unit indices, collecting results in unit order."""
    if workers <= 1 or n_units <= 1:
        return [fn(i) for i in range(n_units)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(n_units)))


def _mean_and_se(x: np.ndarray) -> tuple[float, float]:
    m = float(np.mean(x))
    se = float(np.std(x) / np.sqrt(x.size))
    return m, se


def _variance_and_se(values: np.ndarray) -> tuple[float, float]:
    """Variance mean|x - mean|^2 of complex samples and its delta-method error."""
    center = values.mean()
    sq = np.abs(values - center) ** 2
    var = float(sq.mean())
    se = float(np.std(sq) / np.sqrt(sq.size))
    return var, se


def _spectral_section(scn: Scenario) -> dict:
    spec, B = scn.spec, scn.observable
    stats = spectral_stats(spec)
    cs = contributing_set(spec, B)
    kappas = scn.config.kappas
    return {
        "n_distinct": stats.n_distinct,
        "max_degeneracy": stats.max_degeneracy,
        "max_gap_degeneracy": stats.max_gap_degeneracy,
        "diameter": spec.diameter,
        "norm_b": operator_norm(B),
        "norm_rho": scn.rho.p_max,
        "window_counts": {str(k): gap_count(spec, k) for k in kappas},
        "contributing": {
            "n_distinct": cs.n_distinct,
            "max_degeneracy": cs.max_degeneracy,
            "max_gap_degeneracy": cs.max_gap_degeneracy,
            "window_counts": {str(k): cs.gap_count(k) for k in kappas},
        },
    }


def _phase_norm_record(scn: Scenario) -> CheckRecord:
    """Window bound on the phase-average matrix norm, over the (kappa, T) grid."""
    spec, B = scn.spec, scn.observable
    seed = scn.config.seed
    cs = contributing_set(spec, B)
    if cs.n_distinct < 2:
        return CheckRecord(
            name="phase_norm_window_bound",
            bound=0.0,
            measured=0.0,
            margin=0.0,
            vacuous=True,
            mc_error=None,
            seed=seed,
            passed=True,
            detail={"note": "fewer than two contributing eigenvalues"},
        )
    gi = gap_index(cs.values)
    cells = []
    worst_ratio = 0.0
    for T in scn.config.horizons:
        norm = operator_norm(gap_phase_matrix(gi.values, T))
        for kappa in scn.config.kappas:
            g = cs.gap_count(kappa)
            bound = g * (1.0 + 8.0 * np.log2(cs.n_distinct) / (kappa * T))
            ratio = norm / bound if bound > 0 else np.inf
            worst_ratio = max(worst_ratio, ratio)
            cells.append({"horizon": T, "kappa": kappa, "norm": norm, "bound": bound})
    passed = worst_ratio <= 1.0 + 1e-9
    return CheckRecord(
        name="phase_norm_window_bound",
        bound=1.0,
        measured=float(worst_ratio),
        margin=float(1.0 - worst_ratio),
        vacuous=False,
        mc_error=None,
        seed=seed,
        passed=passed,
        detail={"cells": cells},
    )


def _variance_records(scn: Scenario) -> tuple[list, dict]:
    """Closed-form variance bound dominance plus the Monte Carlo match.

    Also returns the K-integral rule's node count and self-check difference
    for the timings sidecar.
    """
    config = scn.config
    rho, B = scn.rho, scn.observable
    seed = config.seed
    report = gap_variance_bound(rho, B)
    tiny = 1e-12 * (1.0 + abs(report.bound))
    dominance = CheckRecord(
        name="variance_bound_dominance",
        bound=report.bound,
        measured=report.exact_variance,
        margin=report.bound - report.exact_variance,
        vacuous=False,
        mc_error=None,
        seed=seed,
        passed=report.exact_variance <= report.bound + tiny,
        detail={
            "quadrature_bound": report.quadrature_bound,
            "term_breakdown": report.term_breakdown,
            "clamped_terms": report.clamped_terms,
        },
    )
    n = max(config.n_states * 10, 2000)
    rng = derive_rng(seed, DOMAIN_VARIANCE)
    psis = sample_gap(rho, rng, size=n)
    vals = np.einsum("sd,de,se->s", psis.conj(), B, psis)
    mc_var, se = _variance_and_se(vals)
    diff = abs(mc_var - report.exact_variance)
    mc = CheckRecord(
        name="variance_exact_vs_mc",
        bound=4.0 * se,
        measured=diff,
        margin=4.0 * se - diff,
        vacuous=False,
        mc_error=se,
        seed=seed,
        passed=diff <= 4.0 * se,
        detail={"n_samples": n, "mc_variance": mc_var, "exact_variance": report.exact_variance},
    )
    return [dominance, mc], {"nodes": report.rule_nodes, "self_check": report.rule_self_check}


def _equilibration_samples(scn: Scenario, workers: int):
    """Per-state overlap coefficients, long-run averages, and time deviations."""
    config = scn.config
    spec, rho, B = scn.spec, scn.rho, scn.observable
    seed = config.seed
    horizons = config.horizons
    n_times = config.n_times
    cs = contributing_set(spec, B)
    cidx = cs.indices
    gaps = gap_index(cs.values).values if cs.n_distinct >= 2 else np.empty(0)
    center = diagonal_ensemble_expectation(spec, rho, B)

    def unit(i: int):
        rng = derive_rng(seed, DOMAIN_STATES, i)
        psi = sample_gap(rho, rng)
        u = rng.random(n_times)
        S = block_overlap_matrix(spec, psi, B)
        ita = complex(np.trace(S))
        if gaps.size:
            w = _offdiagonal(S[np.ix_(cidx, cidx)])
        else:
            w = np.empty(0, dtype=complex)
        devs = np.empty((len(horizons), n_times))
        for h, T in enumerate(horizons):
            phases = np.exp(1j * np.outer(u * T, gaps)) if gaps.size else np.zeros((n_times, 0))
            f = ita + phases @ w
            devs[h] = np.abs(f - center)
        return w, ita, devs

    results = _map_units(unit, config.n_states, workers)
    W = np.array([r[0] for r in results])
    itas = np.array([r[1] for r in results])
    devs = np.stack([r[2] for r in results])
    return cs, gaps, W, itas, devs, center


def verify_equilibration(scn: Scenario, workers: int = 1) -> list:
    """Second-moment and exceedance checks over sampled projected-ensemble states.

    Emits the four moment-bound records (prefactors 24, 1, 23, 24), the
    identity check that the ensemble-mean long-run average matches the
    dephased expectation, and the finite-horizon exceedance record.
    """
    config = scn.config
    spec, rho, B = scn.spec, scn.rho, scn.observable
    seed = config.seed
    norm_b = operator_norm(B)
    norm_rho = rho.p_max
    cs, gaps, W, itas, devs, center = _equilibration_samples(scn, workers)
    n_states = config.n_states
    records = []

    def inputs_for(kappa: float, T: float):
        return bound_inputs(spec, B, norm_rho, config.epsilon, config.delta, kappa, T)

    run_moments = "moments" in config.checks
    run_exceedance = "equilibration" in config.checks

    if run_moments:
        sq_cap = 4.0 * norm_b**2

        cells = []
        worst = None
        for T in config.horizons:
            forms = _phase_quadratic_forms(gaps, W, T) if gaps.size else np.zeros(n_states)
            measured, se = _mean_and_se(forms)
            per_kappa = {str(k): moment_bounds(inputs_for(k, T)).expected_time_variance for k in config.kappas}
            bound = min(per_kappa.values())
            cell = {
                "horizon": T,
                "bound": bound,
                "measured": measured,
                "se": se,
                "per_kappa": per_kappa,
            }
            cells.append(cell)
            if worst is None or (bound + 4 * se - measured) < (
                worst["bound"] + 4 * worst["se"] - worst["measured"]
            ):
                worst = cell
        records.append(
            CheckRecord(
                name="mean_curve_variance_bound",
                bound=worst["bound"],
                measured=worst["measured"],
                margin=worst["bound"] + 4 * worst["se"] - worst["measured"],
                vacuous=worst["bound"] > sq_cap,
                mc_error=worst["se"],
                seed=seed,
                passed=worst["measured"] <= worst["bound"] + 4 * worst["se"],
                detail={"cells": cells},
            )
        )

        worst = None
        cells = []
        for T in config.horizons:
            measured = mixture_curve_deviation(spec, rho, B, T)
            per_kappa = {str(k): moment_bounds(inputs_for(k, T)).mixture_curve_deviation for k in config.kappas}
            bound = min(per_kappa.values())
            cells.append({"horizon": T, "bound": bound, "measured": measured, "per_kappa": per_kappa})
            if worst is None or bound - measured < worst["bound"] - worst["measured"]:
                worst = cells[-1]
        records.append(
            CheckRecord(
                name="mixture_curve_deviation_bound",
                bound=worst["bound"],
                measured=worst["measured"],
                margin=worst["bound"] - worst["measured"],
                vacuous=worst["bound"] > sq_cap,
                mc_error=None,
                seed=seed,
                passed=worst["measured"] <= worst["bound"] * (1 + 1e-9) + 1e-12,
                detail={"cells": cells},
            )
        )

        var_ita, se = _variance_and_se(itas)
        bound = 23.0 * norm_b**2 * norm_rho
        records.append(
            CheckRecord(
                name="time_average_variance_bound",
                bound=bound,
                measured=var_ita,
                margin=bound + 4 * se - var_ita,
                vacuous=bound > norm_b**2,
                mc_error=se,
                seed=seed,
                passed=var_ita <= bound + 4 * se,
                detail={"n_states": n_states},
            )
        )

        tol = _gap_tolerance(np.asarray(spec.values), None)
        deph = _dephased_power(gaps, W, tol) if gaps.size else np.zeros(n_states)
        measured, se = _mean_and_se(deph)
        inp = inputs_for(config.kappas[0], config.horizons[0])
        bound = moment_bounds(inp).expected_dephasing_variance
        records.append(
            CheckRecord(
                name="mean_dephasing_variance_bound",
                bound=bound,
                measured=measured,
                margin=bound + 4 * se - measured,
                vacuous=bound > sq_cap,
                mc_error=se,
                seed=seed,
                passed=measured <= bound + 4 * se,
                detail={"n_states": n_states},
            )
        )

        mean_ita = itas.mean()
        spread = float(np.sqrt(np.mean(np.abs(itas - mean_ita) ** 2) / n_states))
        diff = abs(complex(mean_ita) - center)
        # zero-spread ensembles (stationary rho) still carry rounding noise
        atol = 1e-12 * max(1.0, abs(center))
        records.append(
            CheckRecord(
                name="mean_time_average_identity",
                bound=4.0 * spread + atol,
                measured=diff,
                margin=4.0 * spread + atol - diff,
                vacuous=False,
                mc_error=spread,
                seed=seed,
                passed=diff <= 4.0 * spread + atol,
                detail={
                    "mean_time_average": [mean_ita.real, mean_ita.imag],
                    "dephased_expectation": [center.real, center.imag],
                },
            )
        )

    if run_exceedance:
        se_frac = float(np.sqrt(config.epsilon * (1 - config.epsilon) / n_states))
        threshold = config.epsilon + 4.0 * se_frac
        cells = []
        any_fail = False
        all_vacuous = True
        worst_fraction = 0.0
        for h, T in enumerate(config.horizons):
            per_kappa = {}
            for k in config.kappas:
                inp = inputs_for(k, T)
                markov, conc = finite_time_branches(inp)
                per_kappa[str(k)] = {"bound": min(markov, conc), "markov": markov, "concentration": conc}
            bound = min(v["bound"] for v in per_kappa.values())
            vacuous = bound > 2.0 * norm_b
            frac_per_state = (devs[:, h, :] > bound).mean(axis=1)
            exceed_fraction = float((frac_per_state > config.delta).mean())
            cell_pass = vacuous or exceed_fraction <= threshold
            any_fail = any_fail or not cell_pass
            all_vacuous = all_vacuous and vacuous
            if not vacuous:
                worst_fraction = max(worst_fraction, exceed_fraction)
            cells.append(
                {
                    "horizon": T,
                    "deviation_bound": bound,
                    "vacuous": vacuous,
                    "exceed_fraction": exceed_fraction,
                    "per_kappa": per_kappa,
                }
            )
        inp0 = inputs_for(config.kappas[0], config.horizons[0])
        records.append(
            CheckRecord(
                name="finite_time_exceedance",
                bound=threshold,
                measured=worst_fraction,
                margin=threshold - worst_fraction,
                vacuous=all_vacuous,
                mc_error=se_frac,
                seed=seed,
                passed=not any_fail,
                detail={
                    "cells": cells,
                    "epsilon": config.epsilon,
                    "delta": config.delta,
                    "n_states": n_states,
                    "n_times": config.n_times,
                    "infinite_time_bound": equilibration_bound_infinite_time(inp0),
                },
            )
        )

    return records


def verify_concentration(scn: Scenario, workers: int = 1) -> list:
    """Concentration checks: tail bound on the scenario and 1/D variance scaling."""
    config = scn.config
    spec, rho, B = scn.spec, scn.rho, scn.observable
    seed = config.seed
    section = config.concentration or {}
    t = float(section.get("time", 1.0))
    grid = [float(e) for e in section.get("epsilon_grid", CONCENTRATION_EPSILON_GRID)]
    n_states = int(section.get("n_states", CONCENTRATION_STATES))
    dims = [int(d) for d in section.get("scaling_dims", CONCENTRATION_SCALING_DIMS)]
    norm_b = operator_norm(B)
    lipschitz = 2.0 * norm_b
    records = []

    # Scenario tail at one time: f(psi) = <psi_t|B|psi_t> vs its ensemble mean.
    V = spec.basis_matrix
    ph = np.exp(1j * spec.column_values * t)
    M = V * ph
    B_t = M @ (V.conj().T @ B @ V) @ M.conj().T
    reference = complex(mixture_expectation_curve(spec, rho, B, [t])[0])
    rng = derive_rng(seed, DOMAIN_CONCENTRATION, 0)
    psis = sample_gap(rho, rng, size=n_states)
    f = np.einsum("sd,de,se->s", psis.conj(), B_t, psis)
    dev = np.abs(f - reference)
    cells = []
    any_fail = False
    all_vacuous = True
    worst = 0.0
    for eps in grid:
        bound = concentration_tail_bound(eps, lipschitz, rho.p_max)
        tail = float((dev > eps).mean())
        vacuous = bound >= 1.0
        se = float(np.sqrt(min(bound, 1.0) * max(1.0 - min(bound, 1.0), 0.0) / n_states))
        cell_pass = vacuous or tail <= bound + 4.0 * se
        any_fail = any_fail or not cell_pass
        all_vacuous = all_vacuous and vacuous
        if not vacuous:
            worst = max(worst, tail - bound)
        cells.append({"epsilon_dev": eps, "bound": bound, "tail": tail, "vacuous": vacuous})
    records.append(
        CheckRecord(
            name="concentration_tail",
            bound=1.0,
            measured=float(worst),
            margin=float(1.0 - worst),
            vacuous=all_vacuous,
            mc_error=None,
            seed=seed,
            passed=not any_fail,
            detail={"time": t, "n_states": n_states, "cells": cells},
        )
    )

    # Variance scaling across uniform mixtures: slope of log Var vs log D near -1.
    def unit(j: int):
        d = dims[j]
        rng_j = derive_rng(seed, DOMAIN_CONCENTRATION, 1 + j)
        uniform = DensityMatrix(probabilities=np.full(d, 1.0 / d), basis=np.eye(d))
        states = sample_gap(uniform, rng_j, size=n_states)
        half = d // 2
        vals = np.einsum("sd,sd->s", states[:, :half].conj(), states[:, :half]).real
        var = float(np.mean((vals - vals.mean()) ** 2))
        tails = {}
        for eps in grid:
            b = concentration_tail_bound(eps, 2.0, 1.0 / d)
            tails[str(eps)] = {
                "bound": b,
                "tail": float((np.abs(vals - 0.5) > eps).mean()),
                "vacuous": b >= 1.0,
            }
        return var, tails

    results = _map_units(unit, len(dims), workers)
    variances = np.array([r[0] for r in results])
    x = np.log(np.asarray(dims, dtype=float))
    y = np.log(variances)
    slope = float(np.sum((x - x.mean()) * (y - y.mean())) / np.sum((x - x.mean()) ** 2))
    tail_fail = False
    for _, tails in results:
        for cell in tails.values():
            if not cell["vacuous"] and cell["tail"] > cell["bound"]:
                tail_fail = True
    measured = abs(slope + 1.0)
    records.append(
        CheckRecord(
            name="concentration_scaling",
            bound=0.2,
            measured=measured,
            margin=0.2 - measured,
            vacuous=False,
            mc_error=None,
            seed=seed,
            passed=measured <= 0.2 and not tail_fail,
            detail={
                "slope": slope,
                "dims": dims,
                "variances": [float(v) for v in variances],
                "n_states": n_states,
                "tails": [r[1] for r in results],
            },
        )
    )
    return records


def run_scenario(config: ScenarioConfig, base_dir: str = ".", workers: int = 1) -> Report:
    """Materialize a scenario, run every enabled check, and assemble the report."""
    t0 = time.perf_counter()
    scn = build_scenario(config, base_dir)
    timings = {"build": time.perf_counter() - t0}
    spectral = _spectral_section(scn)
    checks = []
    if "spectral" in config.checks:
        t1 = time.perf_counter()
        checks.append(_phase_norm_record(scn))
        timings["spectral"] = time.perf_counter() - t1
    if "variance" in config.checks:
        t1 = time.perf_counter()
        records, timings["variance_rule"] = _variance_records(scn)
        checks.extend(records)
        timings["variance"] = time.perf_counter() - t1
    if "moments" in config.checks or "equilibration" in config.checks:
        t1 = time.perf_counter()
        checks.extend(verify_equilibration(scn, workers))
        timings["equilibration"] = time.perf_counter() - t1
    if "concentration" in config.checks:
        t1 = time.perf_counter()
        checks.extend(verify_concentration(scn, workers))
        timings["concentration"] = time.perf_counter() - t1
    timings["total"] = time.perf_counter() - t0
    return Report(
        config=config.raw,
        seed=config.seed,
        spectral=spectral,
        checks=checks,
        timings=timings,
        scenario=scn,
    )
