"""Monte Carlo verification driver with deterministic reports.

Each enabled inequality becomes one check record holding the bound, the
measurement, the margin, a vacuousness flag, and the Monte Carlo error
allowance.  The quantities that depend on the scenario alone (contributing
set, V* B V, |B|, contributing gaps, mixture overlap) are prepared once on
the :class:`Scenario`.  The state ensemble is processed in chunks of
``CHUNK_STATES`` states; every state still draws from its own stream
(seed, DOMAIN_STATES, state index), in index order, so the report bytes
depend only on (config, seed).  Wall-clock timings are kept out of the
canonical report for the same reason.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import jsonio
from .dynamics import (
    BoundInputs,
    block_overlap_matrix,
    concentration_tail_bound,
    dephased_power,
    equilibration_bound_infinite_time,
    finite_time_branches,
    gap_coefficients,
    gap_phase_matrix,
    mixture_expectation_curve,
    moment_bounds,
    overlap_curve,
    phase_quadratic_forms,
)
from .linalg import operator_norm
from .moments import gap_variance_bound
from .sampling import DensityMatrix, derive_rng, sample_gap
from .scenarios import DOMAIN_CONCENTRATION, DOMAIN_STATES, Scenario, ScenarioConfig, build_scenario
from .spectra import gap_count, gap_tolerance, spectral_stats

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

#: States per chunk of the equilibration ensemble.
CHUNK_STATES = 256


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
        return asdict(self)


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


def _record(name, bound, measured, seed, detail, slack=0.0, passed=None, mc_error=None, vacuous=False):
    """Check record with margin bound + slack - measured; by default it passes when that is >= 0."""
    return CheckRecord(
        name=name,
        bound=bound,
        measured=measured,
        margin=bound + slack - measured,
        vacuous=vacuous,
        mc_error=mc_error,
        seed=seed,
        passed=measured <= bound + slack if passed is None else passed,
        detail=detail,
    )


def _tightest(cells: list, margin) -> dict | None:
    """The cell with the smallest margin (the first on ties); None for no cells."""
    return min(cells, key=margin, default=None)


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
    spec, cs = scn.spec, scn.contributing
    stats = spectral_stats(spec)
    kappas = scn.config.kappas
    return {
        "n_distinct": stats.n_distinct,
        "max_degeneracy": stats.max_degeneracy,
        "max_gap_degeneracy": stats.max_gap_degeneracy,
        "diameter": spec.diameter,
        "norm_b": scn.norm_b,
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
    cs, seed = scn.contributing, scn.config.seed
    if cs.n_distinct < 2:
        note = {"note": "fewer than two contributing eigenvalues"}
        return _record("phase_norm_window_bound", 0.0, 0.0, seed, note, vacuous=True)
    cells = []
    for T in scn.config.horizons:
        norm = operator_norm(gap_phase_matrix(scn.gaps.values, T))
        for kappa in scn.config.kappas:
            bound = cs.gap_count(kappa) * (1.0 + 8.0 * np.log2(cs.n_distinct) / (kappa * T))
            cells.append({"horizon": T, "kappa": kappa, "norm": norm, "bound": bound})
    worst = _tightest(cells, lambda c: -c["norm"] / c["bound"])
    ratio = float(worst["norm"] / worst["bound"])
    return _record("phase_norm_window_bound", 1.0, ratio, seed, {"cells": cells}, passed=ratio <= 1.0 + 1e-9)


def _variance_records(scn: Scenario) -> tuple[list, dict]:
    """Closed-form variance bound dominance plus the Monte Carlo match.

    Also returns the K-integral rule's node count and self-check difference
    for the timings sidecar.
    """
    config = scn.config
    rho, B = scn.rho, scn.observable
    seed = config.seed
    report = gap_variance_bound(rho, B)
    exact = report.exact_variance
    detail = {
        "quadrature_bound": report.quadrature_bound,
        "term_breakdown": report.term_breakdown,
        "clamped_terms": report.clamped_terms,
    }
    passed = exact <= report.bound + 1e-12 * (1.0 + abs(report.bound))
    dominance = _record("variance_bound_dominance", report.bound, exact, seed, detail, passed=passed)
    n = max(config.n_states * 10, 2000)
    psis = sample_gap(rho, derive_rng(seed, DOMAIN_VARIANCE), size=n)
    mc_var, se = _variance_and_se(np.einsum("sd,de,se->s", psis.conj(), B, psis))
    detail = {"n_samples": n, "mc_variance": mc_var, "exact_variance": exact}
    mc = _record("variance_exact_vs_mc", 4.0 * se, abs(mc_var - exact), seed, detail, mc_error=se)
    return [dominance, mc], {"nodes": report.rule_nodes, "self_check": report.rule_self_check}


def _ensemble(scn: Scenario, center: complex):
    """Long-run averages, gap coefficients and curve deviations of the sampled states.

    Returns (itas, rows, devs), one entry per state, except that ``rows``
    holds one more row, last: the mixture's gap coefficients, so that all
    phase forms of a horizon come from one phase matrix without a copy of
    the state rows.  devs has shape (n_states, horizons, n_times), at the
    state's uniform times on [0, T].
    """
    config = scn.config
    idx = scn.contributing.indices
    n, n_times = config.n_states, config.n_times
    itas = np.empty(n, dtype=complex)
    rows = np.empty((n + 1, scn.gaps.count), dtype=complex)
    rows[n] = gap_coefficients(scn.mixture_overlap, idx, scn.gaps)
    devs = np.empty((n, len(config.horizons), n_times))
    for lo in range(0, n, CHUNK_STATES):
        hi = min(lo + CHUNK_STATES, n)
        psis = np.empty((hi - lo, scn.spec.dim), dtype=complex)
        u = np.empty((hi - lo, n_times))
        for k in range(hi - lo):
            rng = derive_rng(config.seed, DOMAIN_STATES, lo + k)
            psis[k] = sample_gap(scn.rho, rng)
            u[k] = rng.random(n_times)
        S = block_overlap_matrix(scn.spec, psis, scn.observable)
        itas[lo:hi] = np.trace(S, axis1=1, axis2=2)
        rows[lo:hi] = gap_coefficients(S, idx, scn.gaps)
        sub = S[:, idx[:, None], idx]
        for h, T in enumerate(config.horizons):
            devs[lo:hi, h] = np.abs(overlap_curve(scn.contributing.values, sub, u * T) - center)
    return itas, rows, devs


def verify_equilibration(scn: Scenario, workers: int = 1) -> list:
    """Second-moment and exceedance checks over sampled projected-ensemble states.

    Emits the four moment-bound records (prefactors 24, 1, 23, 24), the
    identity check that the ensemble-mean long-run average matches the
    dephased expectation, and the finite-horizon exceedance record.
    ``workers`` is accepted and has no effect.
    """
    config = scn.config
    seed, n_states, kappas = config.seed, config.n_states, config.kappas
    norm_b, norm_rho = scn.norm_b, scn.rho.p_max
    gaps = scn.gaps.values
    center = complex(np.trace(scn.mixture_overlap))
    itas, rows, devs = _ensemble(scn, center)
    W = rows[:-1]
    inputs = {
        (k, T): BoundInputs.from_contributing(
            scn.contributing, norm_b, norm_rho, config.epsilon, config.delta, k, T
        )
        for T in config.horizons
        for k in kappas
    }
    first = inputs[kappas[0], config.horizons[0]]
    records = []

    if "moments" in config.checks:
        sq_cap = 4.0 * norm_b**2
        curve_cells, mixture_cells = [], []
        for T in config.horizons:
            forms = phase_quadratic_forms(gaps, rows, T)
            bounds = {str(k): moment_bounds(inputs[k, T]) for k in kappas}
            per_kappa = {k: b.expected_time_variance for k, b in bounds.items()}
            measured, se = _mean_and_se(forms[:-1])
            bound = min(per_kappa.values())
            curve_cells.append(
                {"horizon": T, "bound": bound, "measured": measured, "se": se, "per_kappa": per_kappa}
            )
            per_kappa = {k: b.mixture_curve_deviation for k, b in bounds.items()}
            bound = min(per_kappa.values())
            mixture_cells.append(
                {"horizon": T, "bound": bound, "measured": float(forms[-1]), "per_kappa": per_kappa}
            )
        worst = _tightest(curve_cells, lambda c: c["bound"] + 4 * c["se"] - c["measured"])
        records.append(
            _record("mean_curve_variance_bound", worst["bound"], worst["measured"], seed,
                    {"cells": curve_cells}, slack=4 * worst["se"], mc_error=worst["se"],
                    vacuous=worst["bound"] > sq_cap)
        )
        worst = _tightest(mixture_cells, lambda c: c["bound"] - c["measured"])
        passed = worst["measured"] <= worst["bound"] * (1 + 1e-9) + 1e-12
        records.append(
            _record("mixture_curve_deviation_bound", worst["bound"], worst["measured"], seed,
                    {"cells": mixture_cells}, passed=passed, vacuous=worst["bound"] > sq_cap)
        )

        var_ita, se = _variance_and_se(itas)
        bound = 23.0 * norm_b**2 * norm_rho
        records.append(
            _record("time_average_variance_bound", bound, var_ita, seed, {"n_states": n_states},
                    slack=4 * se, mc_error=se, vacuous=bound > norm_b**2)
        )

        measured, se = _mean_and_se(dephased_power(gaps, W, gap_tolerance(scn.spec.values)))
        bound = moment_bounds(first).expected_dephasing_variance
        records.append(
            _record("mean_dephasing_variance_bound", bound, measured, seed, {"n_states": n_states},
                    slack=4 * se, mc_error=se, vacuous=bound > sq_cap)
        )

        mean_ita = itas.mean()
        spread = float(np.sqrt(np.mean(np.abs(itas - mean_ita) ** 2) / n_states))
        # zero-spread ensembles (stationary rho) still carry rounding noise
        atol = 1e-12 * max(1.0, abs(center))
        detail = {
            "mean_time_average": [mean_ita.real, mean_ita.imag],
            "dephased_expectation": [center.real, center.imag],
        }
        records.append(
            _record("mean_time_average_identity", 4.0 * spread + atol, abs(complex(mean_ita) - center), seed,
                    detail, mc_error=spread)
        )

    if "equilibration" in config.checks:
        se_frac = float(np.sqrt(config.epsilon * (1 - config.epsilon) / n_states))
        threshold = config.epsilon + 4.0 * se_frac
        cells = []
        for h, T in enumerate(config.horizons):
            per_kappa = {}
            for k in kappas:
                markov, conc = finite_time_branches(inputs[k, T])
                per_kappa[str(k)] = {"bound": min(markov, conc), "markov": markov, "concentration": conc}
            bound = min(v["bound"] for v in per_kappa.values())
            frac_per_state = (devs[:, h, :] > bound).mean(axis=1)
            cells.append(
                {
                    "horizon": T,
                    "deviation_bound": bound,
                    "vacuous": bound > 2.0 * norm_b,
                    "exceed_fraction": float((frac_per_state > config.delta).mean()),
                    "per_kappa": per_kappa,
                }
            )
        live = [c for c in cells if not c["vacuous"]]
        worst = _tightest(live, lambda c: -c["exceed_fraction"])
        detail = {
            "cells": cells,
            "epsilon": config.epsilon,
            "delta": config.delta,
            "n_states": n_states,
            "n_times": config.n_times,
            "infinite_time_bound": equilibration_bound_infinite_time(first),
        }
        measured = worst["exceed_fraction"] if worst else 0.0
        records.append(
            _record("finite_time_exceedance", threshold, measured, seed, detail,
                    mc_error=se_frac, vacuous=not live)
        )

    return records


def verify_concentration(scn: Scenario, workers: int = 1) -> list:
    """Concentration checks: tail bound on the scenario and 1/D variance scaling.

    ``workers`` is accepted and has no effect.
    """
    spec, rho, seed = scn.spec, scn.rho, scn.config.seed
    section = scn.config.concentration
    t, grid, n_states = section["time"], section["epsilon_grid"], section["n_states"]

    # Scenario tail at one time: f(psi) = <psi_t|B|psi_t> vs its ensemble mean.
    M = spec.basis_matrix * np.exp(1j * spec.column_values * t)
    B_t = M @ scn.observable_eigenbasis @ M.conj().T
    reference = complex(mixture_expectation_curve(spec, rho, scn.observable, [t])[0])
    psis = sample_gap(rho, derive_rng(seed, DOMAIN_CONCENTRATION, 0), size=n_states)
    dev = np.abs(np.einsum("sd,de,se->s", psis.conj(), B_t, psis) - reference)
    cells = []
    for eps in grid:
        bound = concentration_tail_bound(eps, 2.0 * scn.norm_b, rho.p_max)
        tail = float((dev > eps).mean())
        cells.append({"epsilon_dev": eps, "bound": bound, "tail": tail, "vacuous": bound >= 1.0})
    live = [c for c in cells if not c["vacuous"]]
    # a non-vacuous bound p is below 1; the tail may exceed it by four binomial errors
    passed = all(c["tail"] <= c["bound"] + 4.0 * float(np.sqrt(c["bound"] * (1.0 - c["bound"]) / n_states))
                 for c in live)
    worst = _tightest(live, lambda c: c["bound"] - c["tail"])
    excess = max(0.0, worst["tail"] - worst["bound"]) if worst else 0.0
    detail = {"time": t, "n_states": n_states, "cells": cells}
    records = [_record("concentration_tail", 1.0, excess, seed, detail, passed=passed, vacuous=not live)]

    # Variance scaling across uniform mixtures: slope of log Var vs log D near -1.
    dims, variances, tails = section["scaling_dims"], [], []
    for j, d in enumerate(dims):
        uniform = DensityMatrix(probabilities=np.full(d, 1.0 / d), basis=np.eye(d))
        states = sample_gap(uniform, derive_rng(seed, DOMAIN_CONCENTRATION, 1 + j), size=n_states)
        vals = np.einsum("sd,sd->s", states[:, : d // 2].conj(), states[:, : d // 2]).real
        variances.append(float(np.mean((vals - vals.mean()) ** 2)))
        tails.append({})
        for eps in grid:
            b = concentration_tail_bound(eps, 2.0, 1.0 / d)
            tail = float((np.abs(vals - 0.5) > eps).mean())
            tails[-1][str(eps)] = {"bound": b, "tail": tail, "vacuous": b >= 1.0}
    x = np.log(np.asarray(dims, dtype=float))
    y = np.log(np.array(variances))
    slope = float(np.sum((x - x.mean()) * (y - y.mean())) / np.sum((x - x.mean()) ** 2))
    tail_fail = any(not c["vacuous"] and c["tail"] > c["bound"] for cells in tails for c in cells.values())
    measured = abs(slope + 1.0)
    detail = {"slope": slope, "dims": dims, "variances": variances, "n_states": n_states, "tails": tails}
    passed = measured <= 0.2 and not tail_fail
    records.append(_record("concentration_scaling", 0.2, measured, seed, detail, passed=passed))
    return records


def run_scenario(config: ScenarioConfig, base_dir: str = ".", workers: int = 1) -> Report:
    """Materialize a scenario, run every enabled check, and assemble the report.

    ``workers`` is accepted and has no effect.
    """
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
        checks.extend(verify_equilibration(scn))
        timings["equilibration"] = time.perf_counter() - t1
    if "concentration" in config.checks:
        t1 = time.perf_counter()
        checks.extend(verify_concentration(scn))
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
