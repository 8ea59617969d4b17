"""Monte Carlo verification driver with deterministic reports.

Each enabled inequality becomes one check record holding the bound, the
measurement, the margin, a vacuousness flag, and the Monte Carlo error
allowance.  The quantities that depend on the scenario alone (contributing
set with its gap index, counts and V* B V, |B|, mixture overlap, the Gauss
rule of each horizon) are prepared once on the :class:`Scenario`, and every
chunk and every (kappa, T) cell reads that one copy.  The state ensemble is
processed in chunks of ``CHUNK_STATES`` states, each reduced to its
per-state results before the next is drawn.  Every state draws from its
own stream (seed, DOMAIN_STATES, state index): its state, then its
uniform times.  The arithmetic on those draws runs once per chunk
(``sample_gap_each``, ``block_overlap_matrix`` over the stack), and it
gives each state the bits of a state taken alone: the rotation is one
matrix-vector product per state, and the overlaps keep each state's
products and summation order.  So the report bytes depend only on
(config, seed).  Wall-clock timings are kept out of the canonical report
for the same reason.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import jsonio
from .dynamics import (
    BoundInputs,
    PhaseForms,
    block_overlap_matrix,
    concentration_tail_bound,
    dephased_power,
    eigenbasis_observable,
    equilibration_bounds,
    mixture_expectation_curve,
    overlap_curve,
    phase_norm_cells,
)
from .linalg import quadratic_forms
from .moments import gap_variance_bound, mc_variance
from .sampling import derive_rng, sample_gap, sample_gap_diagonal, sample_gap_each
from .scenarios import DOMAIN_CONCENTRATION, DOMAIN_STATES, Scenario, ScenarioConfig, build_scenario
from .spectra import spectral_counts

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


def _spectral_section(scn: Scenario) -> dict:
    kappas = scn.config.kappas
    return {
        **spectral_counts(scn.spec, kappas),
        "diameter": scn.spec.diameter,
        "norm_b": scn.norm_b,
        "norm_rho": scn.rho.p_max,
        "contributing": scn.contributing_counts,
    }


def _phase_norm_record(scn: Scenario) -> tuple[CheckRecord, list]:
    """Window bound on the phase-average matrix norm, over the (kappa, T) grid.

    Also returns the route record of each horizon's norm for the timings
    sidecar (none without a gap).
    """
    cs, seed = scn.contributing, scn.config.seed
    if cs.n_distinct < 2:
        note = {"note": "fewer than two contributing eigenvalues"}
        return _record("phase_norm_window_bound", 0.0, 0.0, seed, note, vacuous=True), []
    cells, routes = phase_norm_cells(cs.gaps, scn.config.kappas, scn.config.horizons, scn.gauss_rules)
    worst = _tightest(cells, lambda c: -c["norm"] / c["bound"])
    ratio = float(worst["norm"] / worst["bound"])
    record = _record("phase_norm_window_bound", 1.0, ratio, seed, {"cells": cells}, passed=ratio <= 1.0 + 1e-9)
    return record, routes


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
    mc_var, se = mc_variance(quadratic_forms(psis, B))
    detail = {"n_samples": n, "mc_variance": mc_var, "exact_variance": exact}
    # a variance that is zero (B = I on the support of rho) still carries rounding noise of order |B|^2
    mc = _record("variance_exact_vs_mc", 4.0 * se, abs(mc_var - exact), seed, detail,
                 slack=(1e-12 * scn.norm_b) ** 2, mc_error=se)
    return [dominance, mc], {"nodes": report.rule_nodes, "self_check": report.rule_self_check}


def _ensemble(scn: Scenario, center: complex, deviation_bounds: list, vacuous: list, forms: list):
    """Per-state results of the sampled states, each chunk reduced to them before the next is drawn.

    Returns (itas, powers, state_forms, fractions), one entry per state:
    the long-run averages; the dephased powers; one array of phase forms
    for each ``PhaseForms`` of ``forms`` (one per horizon, or none when
    ``moments`` is not checked, and then ``powers`` is None, since nothing
    reads it); and the exceedance fractions, of shape (n_states, horizons)
    with one column per entry of ``deviation_bounds``: the share of the
    state's uniform times on [0, T] at which its curve deviates from
    ``center`` by more than the bound.  Curves are evaluated only for the
    live horizons; the column of a horizon flagged in ``vacuous`` (bound
    above 2 |B|, which no deviation reaches) stays 0.  Every overlap
    matrix is built on the contributing set, which is all the curves and
    averages depend on.
    """
    config, cs = scn.config, scn.contributing
    n, n_times = config.n_states, config.n_times
    itas = np.empty(n, dtype=complex)
    powers = np.empty(n) if forms else None
    state_forms = [np.empty(n) for _ in forms]
    fractions = np.zeros((n, len(deviation_bounds)))
    for lo in range(0, n, CHUNK_STATES):
        hi = min(lo + CHUNK_STATES, n)
        rngs = [derive_rng(config.seed, DOMAIN_STATES, i) for i in range(lo, hi)]
        psis = sample_gap_each(scn.rho, rngs)
        u = np.empty((hi - lo, n_times))
        for rng, times in zip(rngs, u):
            rng.random(out=times)
        S = block_overlap_matrix(cs, psis, scn.contributing_observable)
        itas[lo:hi] = np.trace(S, axis1=1, axis2=2)
        if forms:
            powers[lo:hi] = dephased_power(cs.gaps, S)
        for f, values in zip(forms, state_forms):
            values[lo:hi] = f.states(psis, S)
        for h, (T, bound) in enumerate(zip(config.horizons, deviation_bounds)):
            if vacuous[h]:
                continue
            devs = np.abs(overlap_curve(cs.values, S, u * T) - center)
            fractions[lo:hi, h] = (devs > bound).mean(axis=1)
    return itas, powers, state_forms, fractions


def verify_equilibration(scn: Scenario) -> tuple[list, list]:
    """Second-moment and exceedance checks over sampled projected-ensemble states.

    Emits the four moment-bound records, the identity check that the
    ensemble-mean long-run average matches the dephased expectation, and
    the finite-horizon exceedance record.  Every bound is read from the
    ``Bounds`` record of its (kappa, T) cell, which is built before any
    state is drawn, as is the ``PhaseForms`` of each horizon, so each chunk
    of states keeps only its per-state results, not its curves or gap
    coefficients.  Each horizon's vacuity is also decided before then:
    exceedance curves are evaluated only for the live horizons, whose
    deviation bound is at most 2 |B|.  Also returns the route record of
    each horizon's phase forms for the timings sidecar (none without
    ``moments``).
    """
    config = scn.config
    seed, n_states, kappas = config.seed, config.n_states, config.kappas
    cs, norm_b, counts = scn.contributing, scn.norm_b, scn.contributing_counts
    bounds = {
        (k, T): equilibration_bounds(
            BoundInputs.from_counts(counts, norm_b, scn.rho.p_max, config.epsilon, config.delta, k, T)
        )
        for T in config.horizons
        for k in kappas
    }
    first = bounds[kappas[0], config.horizons[0]]
    # the finite-time deviation bound of each horizon: the smallest over kappa
    deviation_bounds = [min(bounds[k, T].finite_time for k in kappas) for T in config.horizons]
    # no deviation from the center exceeds 2 |B|, so a larger bound leaves nothing to measure
    vacuous = [bound > 2.0 * norm_b for bound in deviation_bounds]
    center = complex(np.trace(scn.mixture_overlap))
    forms = []
    if "moments" in config.checks:
        Bt = scn.contributing_observable
        forms = [PhaseForms(cs, Bt, T, rule) for T, rule in zip(config.horizons, scn.gauss_rules)]
    itas, powers, state_forms, fractions = _ensemble(scn, center, deviation_bounds, vacuous, forms)
    records = []

    if "moments" in config.checks:
        sq_cap = 4.0 * norm_b**2
        curve_cells, mixture_cells = [], []
        for T, f, values in zip(config.horizons, forms, state_forms):
            per_kappa = {str(k): bounds[k, T].expected_time_variance for k in kappas}
            measured, se = _mean_and_se(values)
            bound = min(per_kappa.values())
            curve_cells.append(
                {"horizon": T, "bound": bound, "measured": measured, "se": se, "per_kappa": per_kappa}
            )
            per_kappa = {str(k): bounds[k, T].mixture_curve_deviation for k in kappas}
            bound = min(per_kappa.values())
            mixture_cells.append(
                {"horizon": T, "bound": bound, "measured": f.mixture(scn.mixture_overlap), "per_kappa": per_kappa}
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

        var_ita, se = mc_variance(itas)
        bound = first.time_average_variance
        records.append(
            _record("time_average_variance_bound", bound, var_ita, seed, {"n_states": n_states},
                    slack=4 * se, mc_error=se, vacuous=bound > norm_b**2)
        )

        measured, se = _mean_and_se(powers)
        bound = first.expected_dephasing_variance
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
        for h, (T, bound) in enumerate(zip(config.horizons, deviation_bounds)):
            per_kappa = {}
            for k in kappas:
                b = bounds[k, T]
                per_kappa[str(k)] = {"bound": b.finite_time, "markov": b.markov, "concentration": b.concentration}
            cells.append(
                {
                    "horizon": T,
                    "deviation_bound": bound,
                    "vacuous": vacuous[h],
                    "exceed_fraction": float((fractions[:, h] > config.delta).mean()),
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
            "infinite_time_bound": first.infinite_time,
        }
        measured = worst["exceed_fraction"] if worst else 0.0
        records.append(
            _record("finite_time_exceedance", threshold, measured, seed, detail,
                    mc_error=se_frac, vacuous=not live)
        )

    return records, [f.record for f in forms]


def verify_concentration(scn: Scenario) -> list:
    """Concentration checks: tail bound on the scenario and 1/D variance scaling."""
    spec, rho, seed = scn.spec, scn.rho, scn.config.seed
    section = scn.config.concentration
    t, grid, n_states = section["time"], section["epsilon_grid"], section["n_states"]

    # Scenario tail at one time: f(psi) = <psi_t|B|psi_t> vs its ensemble mean.
    M = spec.basis_matrix * np.exp(1j * spec.column_values * t)
    B_t = M @ eigenbasis_observable(spec, scn.observable) @ M.conj().T
    reference = complex(mixture_expectation_curve(spec, rho, scn.observable, [t])[0])
    psis = sample_gap(rho, derive_rng(seed, DOMAIN_CONCENTRATION, 0), size=n_states)
    dev = np.abs(quadratic_forms(psis, B_t) - reference)
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
        states = sample_gap_diagonal(np.full(d, 1.0 / d), derive_rng(seed, DOMAIN_CONCENTRATION, 1 + j), n_states)
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


def run_scenario(config: ScenarioConfig, base_dir: str = ".") -> Report:
    """Materialize a scenario, run every enabled check, and assemble the report."""
    t0 = time.perf_counter()
    scn = build_scenario(config, base_dir)
    timings = {"build": time.perf_counter() - t0}
    spectral = _spectral_section(scn)
    checks = []
    if "spectral" in config.checks:
        t1 = time.perf_counter()
        record, timings["phase_norm"] = _phase_norm_record(scn)
        checks.append(record)
        timings["spectral"] = time.perf_counter() - t1
    if "variance" in config.checks:
        t1 = time.perf_counter()
        records, timings["variance_rule"] = _variance_records(scn)
        checks.extend(records)
        timings["variance"] = time.perf_counter() - t1
    if "moments" in config.checks or "equilibration" in config.checks:
        t1 = time.perf_counter()
        records, forms_routes = verify_equilibration(scn)
        checks.extend(records)
        if forms_routes:
            timings["forms"] = forms_routes
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
