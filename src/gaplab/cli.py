"""Command line front end.

Subcommands: stats, sample, variance, evolve, bounds, run.  Every JSON
output is canonical (sorted keys, two-space indent, trailing newline), so
identical inputs produce identical bytes.  Exit codes: 0 success / all
checks passed, 1 at least one check violated, 2 configuration or input
error, also an input too large for the machine's memory.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from . import jsonio
from .dynamics import (
    CONCENTRATION_CONSTANT,
    BoundInputs,
    equilibration_bounds,
    expectation_curve,
    mixture_curve,
)
from .linalg import quadratic_forms
from .moments import gap_expectation, gap_variance_bound, mc_variance
from .sampling import derive_rng, empirical_density_matrix, sample_gap
from .scenarios import ConfigError, load_scenario
from .spectra import GapIndex, contributing_set, spectral_counts
from .runner import run_scenario

__all__ = ["main"]

#: Points per horizon for the mixture curve CSV export.
CSV_CURVE_POINTS = 1001

#: glibc's ``mallopt`` parameters and the values :func:`keep_freed_memory_mapped` gives them: the mmap
#: threshold at the ceiling of glibc's dynamic threshold on 64-bit hosts, the trim threshold twice that,
#: as the dynamic rule sets it.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 * 2**20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD


def _emit(obj, out: str | None) -> None:
    text = jsonio.dumps_canonical(obj)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_times(spec: str, top: float) -> np.ndarray:
    try:
        t0, t1, n = spec.split(":")
        t0, t1, n = float(t0), float(t1), int(n)
    except ValueError:
        raise ConfigError(f"--times must have the form t0:t1:n, got {spec!r}") from None
    if not (np.isfinite([t0, t1, t1 - t0, top * max(-t0, t1)]).all() and t1 > t0 and n >= 2):
        raise ConfigError(f"--times needs finite t0 < t1, n >= 2 and finite phases E t up to |E| = {top!r}")
    return np.linspace(t0, t1, n)


@functools.cache
def keep_freed_memory_mapped() -> dict | None:
    """Fix glibc's allocator so that freed arrays stay mapped for the next ones; once per process.

    glibc serves each array of at least its mmap threshold with a fresh
    mapping, unmapped again when freed, so every chunk, draw and Monte
    Carlo array of that size faults its pages in afresh; and it returns
    freed memory above its trim threshold at the top of the heap to the
    system.  Its dynamic rule raises both, up to the mmap threshold's
    ceiling, only as it sees large blocks freed.  Setting both at that
    ceiling from the start keeps the blocks below it in the heap for the
    next chunk, stage and scenario; forked lanes inherit the setting.
    Returns ``{mmap_threshold, trim_threshold}`` in bytes, or None where
    the C library has no ``mallopt`` or refuses the values (then nothing
    is changed, or the mmap threshold alone).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library of the process's own, or no mallopt in it
        return None
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    if not (mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)):
        return None
    return {"mmap_threshold": MMAP_THRESHOLD, "trim_threshold": TRIM_THRESHOLD}


def _check_count(flag: str, value: int, minimum: int) -> None:
    if value < minimum:
        raise ConfigError(f"{flag} must be at least {minimum}, got {value}")


def _cmd_stats(args) -> int:
    spec = jsonio.load_spectrum(args.spectrum)
    record = spectral_counts(spec, args.kappa, GapIndex(spec.values, args.gap_tol))
    record["diameter"] = spec.diameter
    if args.observable:
        cs = contributing_set(spec, jsonio.load_matrix(args.observable))
        record["contributing"] = spectral_counts(cs, args.kappa, GapIndex(cs.values, args.gap_tol))
    _emit(record, args.out)
    return 0


def _cmd_sample(args) -> int:
    _check_count("--n", args.n, 1)
    _check_count("--seed", args.seed, 0)
    rho = jsonio.load_density(args.rho)
    rng = derive_rng(args.seed)
    states = sample_gap(rho, rng, size=args.n)
    if args.summary:
        emp = empirical_density_matrix(states)
        record = {
            "n": args.n,
            "seed": args.seed,
            "dim": rho.dim,
            "empirical_density": jsonio.matrix_to_json(emp),
        }
        _emit(record, args.out)
    elif args.out:
        jsonio.save_states(args.out, states)
    else:
        _emit(jsonio.states_to_json(states), None)
    return 0


def _cmd_variance(args) -> int:
    _check_count("--seed", args.seed, 0)
    if args.mc_check < 0 or args.mc_check == 1:  # one sample has no spread to estimate
        raise ConfigError(f"--mc-check must be 0 (off) or at least 2, got {args.mc_check}")
    rho = jsonio.load_density(args.rho)
    A = jsonio.load_matrix(args.A)
    report = gap_variance_bound(rho, A)
    expectation = gap_expectation(rho, A)
    record = {
        "expectation": [float(np.real(expectation)), float(np.imag(expectation))],
        "exact_variance": report.exact_variance,
        "bound": report.bound,
        "quadrature_bound": report.quadrature_bound,
        "term_breakdown": report.term_breakdown,
        "clamped_terms": report.clamped_terms,
    }
    if args.mc_check:
        rng = derive_rng(args.seed)
        psis = sample_gap(rho, rng, size=args.mc_check)
        variance, se = mc_variance(quadratic_forms(psis, A))
        record["mc"] = {"n": args.mc_check, "seed": args.seed, "variance": variance, "se": se}
    _emit(record, args.out)
    return 0


def _cmd_evolve(args) -> int:
    spec = jsonio.load_spectrum(args.spectrum)
    states = jsonio.load_states(args.psi0)
    if states.shape[0] != 1:
        raise ConfigError("--psi0 file must contain exactly one state")
    B = jsonio.load_matrix(args.B)
    times = _parse_times(args.times, float(np.abs(spec.values).max()))
    curve = expectation_curve(spec, states[0], B, times)
    jsonio.write_curve_csv(args.out, times, curve)
    return 0


def _cmd_bounds(args) -> int:
    with open(args.inputs, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError("bound inputs must be a JSON object")
    keys = [f.name for f in dataclasses.fields(BoundInputs)]
    missing = [k for k in keys if k not in data]
    if missing:
        raise ConfigError(f"bound inputs missing keys: {missing}")
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise ConfigError(f"unknown bound input keys: {unknown}")
    inputs = BoundInputs(**data)
    b = equilibration_bounds(inputs)
    moments = ("expected_time_variance", "mixture_curve_deviation", "time_average_variance",
               "expected_dephasing_variance")
    record = {
        "inputs": dataclasses.asdict(inputs),
        "constant": CONCENTRATION_CONSTANT,
        "window_factor": inputs.window_factor,
        "finite_time": {
            "markov": b.markov,
            "concentration": b.concentration,
            "bound": b.finite_time,
            "branch": "markov" if b.markov <= b.concentration else "concentration",
        },
        "infinite_time": b.infinite_time,
        "moment_bounds": {name: getattr(b, name) for name in moments},
    }
    _emit(record, args.out)
    return 0


def _cmd_run(args) -> int:
    _check_count("--workers", args.workers, 1)
    config = load_scenario(args.config)
    base_dir = os.path.dirname(os.path.abspath(args.config))
    report = run_scenario(config, base_dir=base_dir, workers=args.workers)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    if args.csv:
        os.makedirs(args.csv, exist_ok=True)
        scn = report.scenario
        for T in config.horizons:
            times = np.linspace(0.0, T, CSV_CURVE_POINTS)
            curve = mixture_curve(scn.spec.values, scn.spectrum_mixture_overlap, times)
            path = os.path.join(args.csv, f"mixture_T{T:g}.csv")
            jsonio.write_curve_csv(path, times, curve)
    if args.timings:
        with open(args.timings, "w", encoding="utf-8") as fh:
            fh.write(jsonio.dumps_canonical({**report.timings, "allocator": keep_freed_memory_mapped()}))
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        flag = " (vacuous)" if check.vacuous else ""
        print(f"{status} {check.name}: measured={check.measured:.6g} bound={check.bound:.6g}{flag}")
    print(f"violations: {report.violations}")
    return 0 if report.violations == 0 else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (``parse_args`` leaves it unchanged)."""
    parser = argparse.ArgumentParser(prog="gaplab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="spectral statistics of a spectrum file")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--kappa", type=float, action="append", default=[])
    p.add_argument("--gap-tol", type=float, default=None)
    p.add_argument("--observable", default=None, help="restrict to eigenvalues coupled by this observable")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("sample", help="draw projected-ensemble states")
    p.add_argument("--rho", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--summary", action="store_true", help="emit empirical density matrix instead of raw states")
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("variance", help="exact observable variance and its closed-form bound")
    p.add_argument("--rho", required=True)
    p.add_argument("--A", required=True)
    p.add_argument("--mc-check", type=int, default=0, help="Monte Carlo sample count, 0 for none")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_variance)

    p = sub.add_parser("evolve", help="expectation curve of an evolving state")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--psi0", required=True)
    p.add_argument("--B", required=True)
    p.add_argument("--times", required=True, help="t0:t1:n")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_evolve)

    p = sub.add_parser("bounds", help="evaluate every bound from a JSON inputs record")
    p.add_argument("--inputs", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("run", help="run a scenario config and write the report")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--csv", default=None, help="directory for mixture expectation curve CSVs")
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="processes for the state ensemble, at most the usable cores and its chunks; "
        "the report is the same for any value",
    )
    p.add_argument("--timings", default=None, help="sidecar file for wall-clock timings")
    p.set_defaults(fn=_cmd_run)

    return parser


def main(argv=None) -> int:
    keep_freed_memory_mapped()
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "kappa", None) == []:
        args.kappa = [1.0]
    try:
        return args.fn(args)
    except (ConfigError, ValueError, OSError, MemoryError) as exc:  # a run too large for the machine is bad input
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(argv=None))
