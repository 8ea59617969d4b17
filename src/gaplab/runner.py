"""Monte Carlo verification driver with deterministic reports.

Each enabled inequality becomes one check record holding the bound, the
measurement, the margin, a vacuousness flag, and the Monte Carlo error
allowance.  The quantities that depend on the scenario alone (contributing
set with its gap index, counts and V* B V, |B|, mixture overlap, the Gauss
rule of each horizon) are prepared once on the :class:`Scenario`, and every
chunk and every (kappa, T) cell reads that one copy.  The state ensemble is
processed in chunks, each reduced to its per-state results before the next
is drawn.  A chunk holds at most ``CHUNK_STATES`` states, and fewer where
its states are wide: the chunks in flight hold about ``CHUNK_BYTES`` at
their widest step, which :func:`_state_width` estimates per state from D,
the contributing set, the gap pairs P, each horizon's phase forms and the
live exceedance curves.  So the states in flight do not take more memory
as d^2, P or the Gauss nodes grow, unless one state alone exceeds the
budget.  With ``workers`` above 1 the chunks are spread over lanes
(:func:`ensemble_lanes` sets their number and the chunk size), each
claiming the next chunk whenever it is free: lane 0 runs in the calling
process, after the concentration checks where they are enabled, and each
other lane in a child made by ``os.fork``, which writes its rows of the
per-state results into one anonymous mapping shared with the parent.
The children are forked only after every scenario quantity and phase
form the chunks read is built, so each child inherits those values
instead of building them again and losing them when it ends.  Every
state draws from its own stream (seed, DOMAIN_STATES, state index), whose
generators a chunk derives in one hash (``derive_rngs``): its state, then
its uniform times, which are drawn only when a horizon is live.  The
arithmetic on those draws runs once per chunk (``sample_gap_each``,
``state_overlaps`` over the stack, whose amplitudes V* psi the phase
forms read too), and it gives each state the bits of a state taken
alone: the rotation and V* psi are one matrix-vector product per state,
the overlaps keep each state's products and summation order, and every
per-state sum is taken the same way in a chunk of one state as
in a wider one.  The other Monte Carlo checks read one number per state:
the variance check and the concentration tail its quadratic form
(``sample_gap_forms``), the scaling check a uniform mixture state's weight
on its first half of the coordinates (``sample_gap_weights``).  Their
draws are made at once and the states built in cache-sized blocks of
rows, never all n x D, with the bits of the stacked states: no block of
forms is a lone row, which rounds otherwise.  So the report bytes depend
only on (config, seed), whatever the number of lanes.  Wall-clock timings
are kept out of the canonical report for the same reason.
"""

from __future__ import annotations

import mmap
import os
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import jsonio
from .dynamics import (
    BoundInputs,
    PhaseForms,
    concentration_tail_bound,
    dephased_power,
    equilibration_bounds,
    mixture_curve,
    overlap_curve,
    phase_norm_cells,
    state_overlaps,
)
from .moments import gap_variance_bound, mc_variance
from .sampling import (
    derive_rng, derive_rngs, form_block_rows, sample_gap_each, sample_gap_forms, sample_gap_weights, weight_block_rows,
)
from .scenarios import DOMAIN_CONCENTRATION, DOMAIN_STATES, Scenario, ScenarioConfig, build_scenario

__all__ = [
    "CheckRecord",
    "Report",
    "ensemble_lanes",
    "verify_equilibration",
    "verify_concentration",
    "run_scenario",
]

REPORT_SCHEMA = "gaplab-report/1"

#: Stream domain for the variance Monte Carlo (domains 0..5 live in scenarios).
DOMAIN_VARIANCE = 6

#: States per chunk of the equilibration ensemble, summed over the lanes that run at once.
CHUNK_STATES = 256

#: Bytes that the chunks of the equilibration ensemble in flight hold per
#: state at their widest, summed over the lanes; a wider state makes a
#: chunk of fewer than ``CHUNK_STATES`` states.
CHUNK_BYTES = 4 * 2**20


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
        # a shallow copy: ``jsonio.sanitize`` copies the nested detail anyway
        return {f.name: getattr(self, f.name) for f in fields(self)}


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
    return CheckRecord(name=name, bound=bound, measured=measured, margin=bound + slack - measured, vacuous=vacuous,
                       mc_error=mc_error, seed=seed, passed=measured <= bound + slack if passed is None else passed,
                       detail=detail)


def _tightest(cells: list, margin) -> dict | None:
    """The cell with the smallest margin (the first on ties); None for no cells."""
    return min(cells, key=margin, default=None)


def _mean_and_se(x: np.ndarray) -> tuple[float, float]:
    return float(np.mean(x)), float(np.std(x) / np.sqrt(x.size))


def _spectral_section(scn: Scenario) -> dict:
    return {
        **scn.spectrum_counts,
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
    cells, routes = phase_norm_cells(cs.gaps, scn.contributing_counts, scn.config.kappas, scn.config.horizons,
                                     scn.gauss_rules)
    worst = _tightest(cells, lambda c: -c["norm"] / c["bound"])
    ratio = float(worst["norm"] / worst["bound"])
    record = _record("phase_norm_window_bound", 1.0, ratio, seed, {"cells": cells}, passed=ratio <= 1.0 + 1e-9)
    return record, routes


def _variance_records(scn: Scenario) -> tuple[list, dict]:
    """Closed-form variance bound dominance plus the Monte Carlo match.

    Also returns the timings sidecar's entries: the K-integral rule's node
    count and self-check difference (``variance_rule``) and the rows per
    block of the Monte Carlo (``variance_blocks``, ``{dim, rows}``).
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
    mc_var, se = mc_variance(sample_gap_forms(rho, derive_rng(seed, DOMAIN_VARIANCE), n, B))
    detail = {"n_samples": n, "mc_variance": mc_var, "exact_variance": exact}
    # a variance that is zero (B = I on the support of rho) still carries rounding noise of order |B|^2
    mc = _record("variance_exact_vs_mc", 4.0 * se, abs(mc_var - exact), seed, detail,
                 slack=(1e-12 * scn.norm_b) ** 2, mc_error=se)
    return [dominance, mc], {
        "variance_rule": {"nodes": report.rule_nodes, "self_check": report.rule_self_check},
        "variance_blocks": {"dim": rho.dim, "rows": form_block_rows(rho.dim, n)},
    }


def _usable_cores() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def ensemble_lanes(workers: int, n_states: int, state_bytes: int) -> tuple[int, int]:
    """(lanes, states per chunk) of an ensemble of ``n_states`` states at ``workers``.

    ``state_bytes`` is what a chunk holds per state at its widest (see
    :func:`_state_width`).  A chunk holds
    min(``CHUNK_STATES`` // l, ``CHUNK_BYTES`` // (l ``state_bytes``))
    states, at least one, for l = min(workers, cores) lanes, so the lanes
    that run at once hold about ``CHUNK_STATES`` states and at most about
    ``CHUNK_BYTES`` together.  The lane count is min(workers, cores,
    chunks), cores being the CPUs the process may run on: ``workers`` of
    any size starts no more processes than that or than the ensemble has
    chunks.  Without ``os.fork`` there is one lane.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    lanes = min(workers, _usable_cores()) if hasattr(os, "fork") else 1
    size = max(1, min(CHUNK_STATES // lanes, CHUNK_BYTES // (lanes * state_bytes)))
    return min(lanes, -(-n_states // size)), size


def _state_width(scn: Scenario, forms: list, live: bool) -> int:
    """Complex entries per state that a chunk of the ensemble holds at its widest.

    Throughout a chunk each state holds its vector (D), its amplitudes
    V* psi (m) and its overlap matrix S (d^2).  At its widest step it also
    holds the largest of: with ``moments``, the gap coefficients and
    cluster sums of ``dephased_power`` (2 P) and each horizon's
    ``PhaseForms.state_width``; with a ``live`` horizon, its exceedance
    curves' phases and products (2 d n_times) and the off-diagonal copy of
    S with its temporary (2 d^2).
    """
    cs, n_times = scn.contributing, scn.config.n_times
    d, m = cs.n_distinct, cs.basis_matrix.shape[1]
    steps = [2 * cs.gaps.count, *(f.state_width for f in forms)] if forms else []
    if live:
        steps.append(2 * d * (n_times + d))
    return cs.dim + m + d * d + max(steps, default=0)


def _run_lane(chunk, starts, poll) -> None:
    """One lane of the ensemble, in its process: ``chunk(lo)`` then ``poll()`` for each chunk start it claims."""
    for lo in starts:
        chunk(lo)
        poll()


def _ensemble(scn: Scenario, center: complex, deviation_bounds: list, vacuous: list, forms: list, workers: int,
              beside=None):
    """Per-state results of the sampled states, each chunk reduced to them before the next is drawn.

    Returns (itas, powers, state_forms, fractions, lanes), one entry per
    state: the long-run averages; the dephased powers; one array of phase
    forms for each ``PhaseForms`` of ``forms`` (one per horizon, or none
    when ``moments`` is not checked, and then ``powers`` is None, since
    nothing reads it); and the exceedance fractions, of shape
    (n_states, horizons) with one column per entry of ``deviation_bounds``:
    the share of the state's uniform times on [0, T] at which its curve
    deviates from ``center`` by more than the bound.  Curves are evaluated,
    and a state's times drawn, only for the live horizons; the column of a
    horizon flagged in ``vacuous`` (bound above 2 |B|, which no deviation
    reaches) stays 0.  Every overlap matrix is built on the contributing
    set, which is all the curves and averages depend on.

    Lane 0 runs in this process and every other lane in a forked child
    (see :func:`lanes.run_forked`), which is reaped before this function
    returns or raises.  Each lane claims the next chunks left as it goes,
    so the chunks a lane runs vary from run to run, but the chunk bounds
    and every state's stream do not, and neither do the results.  With
    more than one lane, lane 0 first calls ``beside()``, when given, work
    that reads no ensemble state, so the children run chunks meanwhile;
    one lane runs the chunks in order and leaves ``beside`` to the caller.
    The children are forked after every value they read is built (the
    contributing set's gap index and the arrays cached here, V* B V, the
    mixture overlap and every ``PhaseForms`` before the call): a value a child built would be
    built again in each child and lost when it ends.  The per-state results live
    in one anonymous shared mapping, into whose rows each chunk writes.
    ``lanes`` is the timings sidecar's ``{lanes, chunk_states, chunks,
    child_peak_rss_mb, state_bytes, claimed}``: ``chunk_states`` is sized
    by ``state_bytes`` = 16 :func:`_state_width`, ``child_peak_rss_mb`` is
    the peak RSS of the largest child this process has reaped (None when
    no child ran), and ``claimed`` the chunks each lane ran, lane 0 first.
    """
    config, cs = scn.config, scn.contributing
    n, n_times = config.n_states, config.n_times
    live = not all(vacuous)
    state_bytes = 16 * _state_width(scn, forms, live)
    lanes, size = ensemble_lanes(workers, n, state_bytes)
    Bt = scn.contributing_observable
    for name in ("basis_adjoint", "block_starts"):
        getattr(cs, name)
    horizons = len(deviation_bounds)
    # each result a contiguous block, as np.empty would give it; the mapping starts zeroed
    cells = np.frombuffer(mmap.mmap(-1, 8 * n * (2 + horizons + len(forms) + bool(forms))))
    itas = cells[: 2 * n].view(complex)
    fractions = cells[2 * n : (2 + horizons) * n].reshape(n, horizons)
    blocks = cells.reshape(-1, n)
    state_forms = list(blocks[2 + horizons : 2 + horizons + len(forms)])
    powers = blocks[-1] if forms else None

    def chunk(lo: int) -> None:
        hi = min(lo + size, n)
        rngs = derive_rngs(config.seed, DOMAIN_STATES, lo, hi)
        psis = sample_gap_each(scn.rho, rngs)
        if live:
            # a state's times come after its state on its own stream, so skipping them moves no other draw
            u = np.empty((hi - lo, n_times))
            for rng, times in zip(rngs, u):
                rng.random(out=times)
        y, S = state_overlaps(cs, psis, Bt)
        itas[lo:hi] = np.trace(S, axis1=1, axis2=2)
        if forms:
            powers[lo:hi] = dephased_power(cs.gaps, S)
        for f, values in zip(forms, state_forms):
            values[lo:hi] = f.states(y, S)
        for h, (T, bound) in enumerate(zip(config.horizons, deviation_bounds)):
            if vacuous[h]:
                continue
            devs = np.abs(overlap_curve(cs.values, S, u * T) - center)
            fractions[lo:hi, h] = (devs > bound).mean(axis=1)

    def lane(starts, poll) -> None:
        _run_lane(chunk, starts, poll)

    starts = range(0, n, size)
    child_peak, claimed = None, [len(starts)]
    if lanes == 1:
        lane(starts, lambda: None)
    else:
        # imported here, so that a run on one lane, as on a platform without os.fork, never loads it
        from .lanes import run_forked

        child_peak, claimed = run_forked(lanes, starts, lane, beside)
    sidecar = {
        "lanes": lanes, "chunk_states": size, "chunks": len(starts), "child_peak_rss_mb": child_peak,
        "state_bytes": state_bytes, "claimed": claimed,
    }
    return itas, powers, state_forms, fractions, sidecar


def verify_equilibration(scn: Scenario, workers: int = 1, beside=None) -> tuple[list, dict]:
    """Second-moment and exceedance checks over sampled projected-ensemble states.

    Emits the four moment-bound records, the identity check that the
    ensemble-mean long-run average matches the dephased expectation, and
    the finite-horizon exceedance record.  Every bound is read from the
    ``Bounds`` record of its (kappa, T) cell, which is built before any
    state is drawn, as is the ``PhaseForms`` of each horizon, so each chunk
    of states keeps only its per-state results, not its curves or gap
    coefficients.  Each horizon's vacuity is also decided before then:
    exceedance curves are evaluated only for the live horizons, whose
    deviation bound is at most 2 |B|.  The chunks of states run on
    ``workers`` lanes (see :func:`ensemble_lanes`); the records do not
    depend on their number.  ``beside``, when given, runs in this process
    while forked lanes run chunks, and not at all on one lane (see
    :func:`_ensemble`).  Also returns the timings sidecar's entries: the
    route record of each horizon's phase forms (``forms``, only with
    ``moments``) and the lanes of the ensemble (``ensemble``, ``{lanes,
    chunk_states, chunks, child_peak_rss_mb, state_bytes, claimed}``).
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
    itas, powers, state_forms, fractions, lanes = _ensemble(
        scn, center, deviation_bounds, vacuous, forms, workers, beside
    )
    records = []

    if "moments" in config.checks:
        sq_cap = 4.0 * norm_b**2
        curve_cells, mixture_cells = [], []
        for T, f, values in zip(config.horizons, forms, state_forms):
            per_kappa = {str(k): bounds[k, T].expected_time_variance for k in kappas}
            measured, se = _mean_and_se(values)
            bound = min(per_kappa.values())
            curve_cells.append({"horizon": T, "bound": bound, "measured": measured, "se": se, "per_kappa": per_kappa})
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
            cells.append({"horizon": T, "deviation_bound": bound, "vacuous": vacuous[h],
                          "exceed_fraction": float((fractions[:, h] > config.delta).mean()), "per_kappa": per_kappa})
        live = [c for c in cells if not c["vacuous"]]
        worst = _tightest(live, lambda c: -c["exceed_fraction"])
        detail = {"cells": cells, "epsilon": config.epsilon, "delta": config.delta, "n_states": n_states,
                  "n_times": config.n_times, "infinite_time_bound": first.infinite_time}
        measured = worst["exceed_fraction"] if worst else 0.0
        records.append(
            _record("finite_time_exceedance", threshold, measured, seed, detail,
                    mc_error=se_frac, vacuous=not live)
        )

    sidecar = {"ensemble": lanes}
    if forms:
        sidecar["forms"] = [f.record for f in forms]
    return records, sidecar


def _concentration_tail(scn: Scenario) -> CheckRecord:
    """Tail bound on the scenario at one time: f(psi) = <psi_t|B|psi_t> against its ensemble mean."""
    spec, rho, seed = scn.spec, scn.rho, scn.config.seed
    section = scn.config.concentration
    t, grid, n_states = section["time"], section["epsilon_grid"], section["n_states"]
    M = spec.basis_matrix * np.exp(1j * spec.column_values * t)
    B_t = M @ scn.spectrum_observable @ M.conj().T
    del M  # not held beside the draws
    reference = complex(mixture_curve(spec.values, scn.spectrum_mixture_overlap, [t])[0])
    dev = np.abs(sample_gap_forms(rho, derive_rng(seed, DOMAIN_CONCENTRATION, 0), n_states, B_t) - reference)
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
    return _record("concentration_tail", 1.0, excess, seed, detail, passed=passed, vacuous=not live)


def _concentration_scaling(config: ScenarioConfig) -> CheckRecord:
    """Variance scaling across uniform mixtures: slope of log Var vs log D near -1.

    A state's value is its weight on the first half of the coordinates.
    The check reads only the seed and the ``concentration`` section, not
    the scenario's H, rho or B.
    """
    seed, section = config.seed, config.concentration
    grid, n_states = section["epsilon_grid"], section["n_states"]
    dims, variances, tails = section["scaling_dims"], [], []
    for j, d in enumerate(dims):
        vals = sample_gap_weights(np.full(d, 1.0 / d), derive_rng(seed, DOMAIN_CONCENTRATION, 1 + j), n_states, d // 2)
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
    return _record("concentration_scaling", 0.2, measured, seed, detail, passed=passed)


def verify_concentration(scn: Scenario) -> tuple[list, dict]:
    """Concentration checks: tail bound on the scenario and 1/D variance scaling.

    Also returns the timings sidecar's entries: the seconds of each check
    (``concentration_tail``, ``concentration_scaling``) and the rows per
    block of the tail (``tail_blocks``) and of each scaling dimension
    (``scaling_blocks``), each ``{dim, rows}``.
    """
    t0 = time.perf_counter()
    tail = _concentration_tail(scn)
    t1 = time.perf_counter()
    scaling = _concentration_scaling(scn.config)
    t2 = time.perf_counter()
    n_states, dim = scn.config.concentration["n_states"], scn.rho.dim
    blocks = [{"dim": d, "rows": weight_block_rows(d, n_states)} for d in scn.config.concentration["scaling_dims"]]
    sidecar = {"concentration_tail": t1 - t0, "concentration_scaling": t2 - t1,
               "tail_blocks": {"dim": dim, "rows": form_block_rows(dim, n_states)}, "scaling_blocks": blocks}
    return [tail, scaling], sidecar


def _usage() -> tuple[float | None, int | None]:
    """Peak RSS in MiB (``ru_maxrss`` is in KiB on Linux) and minor page faults of this process so far.

    (None, None) without ``resource``.
    """
    try:
        import resource
    except ImportError:
        return None, None
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_maxrss / 1024.0, usage.ru_minflt


def run_scenario(config: ScenarioConfig, base_dir: str = ".", workers: int = 1) -> Report:
    """Materialize a scenario, run every enabled check, and assemble the report.

    The state ensemble runs on ``workers`` lanes (see :func:`ensemble_lanes`);
    the report bytes are the same for any number.  With more than one
    lane the concentration checks run in this process beside the forked
    lanes, before it claims chunks (so ``equilibration`` seconds include
    theirs); otherwise after the ensemble.  Their records come last either
    way.  The timings sidecar also gives this process's peak RSS
    (``peak_rss_mb``) and minor page faults (``minor_faults``) so far.
    """
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
        records, sidecar = _variance_records(scn)
        checks.extend(records)
        timings.update(sidecar)
        timings["variance"] = time.perf_counter() - t1
    concentration = []  # the concentration checks' (records, sidecar), once they have run

    def check_concentration() -> None:
        concentration.append(verify_concentration(scn))

    if "moments" in config.checks or "equilibration" in config.checks:
        t1 = time.perf_counter()
        beside = check_concentration if "concentration" in config.checks else None
        records, sidecar = verify_equilibration(scn, workers, beside)
        checks.extend(records)
        timings.update(sidecar)
        timings["equilibration"] = time.perf_counter() - t1
    if "concentration" in config.checks:
        if not concentration:
            check_concentration()
        records, sidecar = concentration[0]
        checks.extend(records)
        timings.update(sidecar)
    timings["total"] = time.perf_counter() - t0
    timings["peak_rss_mb"], timings["minor_faults"] = _usage()
    return Report(config=config.raw, seed=config.seed, spectral=spectral, checks=checks, timings=timings, scenario=scn)
