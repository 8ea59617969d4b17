"""Scenario construction: model Hamiltonians, ensembles, and config parsing.

A scenario bundles a Hamiltonian in spectral form, a density matrix, an
observable, and the Monte Carlo budget for the verification driver.  All
randomness is drawn from streams derived from the scenario seed with fixed
domain indices, so a config plus seed pins every byte of the run.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dynamics import eigenbasis_observable, gauss_rule, mixture_block_overlap
from .linalg import as_complex_matrix, operator_norm
from .moments import P_MAX_LIMIT
from .sampling import DensityMatrix, derive_rng
from .spectra import SpectralDecomposition, contributing_set, spectral_counts
from . import jsonio

__all__ = [
    "ConfigError",
    "MacroDecomposition",
    "ScenarioConfig",
    "Scenario",
    "haar_unitary",
    "random_hamiltonian",
    "random_density",
    "random_projector",
    "macro_decomposition",
    "canonical_density",
    "microcanonical_density",
    "load_scenario",
    "build_scenario",
]

SCHEMA = "gaplab-scenario/1"

# Stream domain indices for derive_rng(seed, domain, ...).
DOMAIN_HAMILTONIAN = 0
DOMAIN_RHO = 1
DOMAIN_OBSERVABLE = 2
DOMAIN_MACRO = 3
DOMAIN_STATES = 4
DOMAIN_CONCENTRATION = 5

#: Default fraction of dimensions held by the dominant macro space.
EQ_FRACTION = 0.9

#: Smallest separation of Gaussian eigenvalues; closer draws are redrawn.
MIN_SEPARATION = 1e-6

#: Draws of a random density's probabilities before its p_max limit is given up.
MAX_DENSITY_TRIES = 1000

#: Largest |B| for which (2 |B|)^4 is finite: deviations are at most 2 |B|, and
#: the Monte Carlo standard errors square their squares.
NORM_B_MAX = (np.finfo(float).max / 16.0) ** 0.25


class ConfigError(ValueError):
    """Scenario configuration is malformed or inconsistent."""


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    if dim < 1:
        raise ValueError("dim must be positive")
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _positive_integers(values, name: str) -> list:
    """``values`` as a nonempty list of ints; ValueError naming ``name`` unless each is an integer >= 1."""
    values = list(values)
    if not values or not all(
        isinstance(v, numbers.Real) and not isinstance(v, bool) and v >= 1 and float(v).is_integer() for v in values
    ):
        raise ValueError(f"{name} must be positive integers, got {values!r}")
    return [int(v) for v in values]


def random_hamiltonian(
    dim: int,
    multiplicities,
    rng: np.random.Generator,
    eigenvalues="gaussian",
    spacing: float = 1.0,
) -> SpectralDecomposition:
    """Random Hamiltonian with a prescribed degeneracy plan.

    ``multiplicities`` lists the eigenspace dimensions.  Eigenvalues are
    either sorted standard normals (resampled until all separations exceed
    ``MIN_SEPARATION``), an arithmetic progression with step ``spacing``
    (which maximizes gap degeneracies), or an explicit ascending sequence.
    The eigenbasis, the spectrum's one basis, is a Haar unitary.
    """
    mult = _positive_integers(multiplicities, "multiplicities")
    if sum(mult) != dim:
        raise ValueError(f"multiplicities sum to {sum(mult)}, expected {dim}")
    k = len(mult)
    if isinstance(eigenvalues, str):
        if eigenvalues == "gaussian":
            for _ in range(1000):
                vals = np.sort(rng.standard_normal(k))
                if k < 2 or np.diff(vals).min() > MIN_SEPARATION:
                    break
            else:
                raise RuntimeError(
                    f"could not draw {k} Gaussian eigenvalues all spaced above MIN_SEPARATION = {MIN_SEPARATION:g}"
                    ' in 1000 tries; set hamiltonian.eigenvalues to "arithmetic" or to explicit levels')
        elif eigenvalues == "arithmetic":
            if spacing <= 0:
                raise ValueError("spacing must be positive")
            with np.errstate(over="ignore"):  # SpectralDecomposition refuses levels that overflow
                vals = spacing * np.arange(k, dtype=float)
        else:
            raise ValueError(f"unknown eigenvalue mode {eigenvalues!r}")
    else:
        vals = np.asarray(eigenvalues, dtype=float).ravel()
        if vals.size != k:
            raise ValueError("explicit eigenvalues must match the multiplicity count")
        if k > 1 and np.any(np.diff(vals) <= 0):
            raise ValueError("explicit eigenvalues must be strictly increasing")
    return SpectralDecomposition(values=vals, basis_matrix=haar_unitary(dim, rng), multiplicities=np.array(mult))


def random_density(dim: int, rng: np.random.Generator, p_max_limit=None) -> DensityMatrix:
    """Random full-rank density matrix with a Haar eigenbasis.

    Probabilities are a flat-Dirichlet draw, resampled (at most
    ``MAX_DENSITY_TRIES`` times) until the largest one is below
    ``p_max_limit`` (if given).
    """
    if dim < 1:
        raise ValueError("dim must be positive")
    for _ in range(MAX_DENSITY_TRIES):
        p = rng.standard_exponential(dim)
        p /= p.sum()
        if p_max_limit is None or p.max() < p_max_limit:
            break
    else:
        raise RuntimeError(f"no admissible spectrum after {MAX_DENSITY_TRIES} draws")
    p = np.sort(p)[::-1]
    return DensityMatrix(probabilities=p, basis=haar_unitary(dim, rng))


def random_projector(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Rank-``rank`` orthogonal projector with Haar-random range."""
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must lie in [1, {dim}]")
    U = haar_unitary(dim, rng)[:, :rank]
    return U @ U.conj().T


@dataclass
class MacroDecomposition:
    """Orthogonal macro-space decomposition of the Hilbert space.

    Blocks have orthonormal columns, are mutually orthogonal, and resolve
    the identity.  By convention the largest block carries the label "eq".
    """

    labels: list
    blocks: list

    @property
    def dim(self) -> int:
        return self.blocks[0].shape[0]

    def block(self, label: str) -> np.ndarray:
        try:
            return self.blocks[self.labels.index(label)]
        except ValueError:
            raise ValueError(f"no macro space labeled {label!r}") from None

    def projector(self, label: str) -> np.ndarray:
        b = self.block(label)
        return b @ b.conj().T


def macro_decomposition(
    spec: SpectralDecomposition,
    dims=None,
    labels=None,
) -> MacroDecomposition:
    """Split the energy eigenbasis into contiguous macro spaces.

    Default: two spaces, the dominant one holding ~90% of all dimensions
    and labeled "eq".  Building macro spaces from energy eigenbasis columns
    makes every macro projector commute with the Hamiltonian.
    """
    total = spec.dim
    if dims is None:
        d_eq = max(1, min(total - 1, round(EQ_FRACTION * total))) if total > 1 else total
        dims = [d_eq, total - d_eq] if total - d_eq > 0 else [d_eq]
    dims = _positive_integers(dims, "macro dimensions")
    if sum(dims) != total:
        raise ValueError(f"macro dimensions sum to {sum(dims)}, expected {total}")
    if labels is None:
        labels = ["eq"] + [f"m{i}" for i in range(1, len(dims))]
    labels = [str(x) for x in labels]
    if len(labels) != len(dims) or len(set(labels)) != len(labels):
        raise ValueError("labels must be distinct and match the dimension list")
    if labels[int(np.argmax(dims))] != "eq":
        raise ValueError('the largest macro space must carry the label "eq"')
    V = spec.basis_matrix
    starts = np.concatenate(([0], np.cumsum(dims)[:-1]))
    blocks = [V[:, s : s + d] for s, d in zip(starts, dims)]
    return MacroDecomposition(labels=labels, blocks=blocks)


def canonical_density(spec: SpectralDecomposition, beta: float) -> DensityMatrix:
    """Canonical ensemble exp(-beta H) / Z in the eigenbasis of H.

    Weights are computed with the most weighted energy shifted out (the
    minimum for beta >= 0, the maximum for beta < 0), so no weight exceeds
    1 and no |beta| can overflow.  beta = 0 gives the uniform density.
    """
    if not np.isfinite(beta):
        raise ValueError("beta must be finite")
    energies = spec.column_values
    w = np.exp(-beta * (energies - (energies.min() if beta >= 0 else energies.max())))
    p = w / w.sum()
    order = np.argsort(-p, kind="stable")
    return DensityMatrix(probabilities=p[order], basis=spec.basis_matrix[:, order])


def microcanonical_density(macro: MacroDecomposition, label: str = "eq") -> DensityMatrix:
    """Normalized projector onto one macro space: P / dim(P).

    Its operator norm is 1 / dim(P), the flattest state supported there.
    """
    idx = macro.labels.index(label) if label in macro.labels else None
    if idx is None:
        raise ValueError(f"no macro space labeled {label!r}")
    d_mu = macro.blocks[idx].shape[1]
    cols = [macro.blocks[idx]] + [b for i, b in enumerate(macro.blocks) if i != idx]
    basis = np.hstack(cols)
    p = np.zeros(macro.dim)
    p[:d_mu] = 1.0 / d_mu
    return DensityMatrix(probabilities=p, basis=basis)


#: Marks a config field without a default.
REQUIRED = object()

#: The checks a config can enable.
CHECKS = ("spectral", "variance", "moments", "equilibration", "concentration")

#: Every config key: (path, type, low, high, default).  A type is int,
#: float, str (a nonempty string), a tuple of allowed strings (whose last
#: member may be a list type allowed next to them), or a one-element list
#: for a nonempty list of that type.  Integer ranges are closed, number
#: ranges open; a default of None leaves an absent field None.
FIELDS = (
    ("schema", (SCHEMA,), None, None, REQUIRED),
    ("dimension", int, 2, math.inf, REQUIRED),
    ("seed", int, 0, math.inf, REQUIRED),
    ("hamiltonian.kind", ("random", "file"), None, None, REQUIRED),
    ("hamiltonian.multiplicities", [int], 1, math.inf, None),
    ("hamiltonian.eigenvalues", ("gaussian", "arithmetic", [float]), -math.inf, math.inf, "gaussian"),
    ("hamiltonian.spacing", float, 0.0, math.inf, 1.0),
    ("hamiltonian.path", str, None, None, None),
    ("rho.kind", ("uniform", "canonical", "microcanonical", "random", "file"), None, None, REQUIRED),
    ("rho.beta", float, -math.inf, math.inf, 1.0),
    ("rho.label", str, None, None, "eq"),
    ("rho.p_max_limit", float, 0.0, math.inf, None),
    ("rho.path", str, None, None, None),
    ("observable.kind", ("macro_projector", "random_projector", "random_hermitian", "file"), None, None, REQUIRED),
    ("observable.rank", int, 1, math.inf, None),
    ("observable.label", str, None, None, "eq"),
    ("observable.path", str, None, None, None),
    ("macro.dims", [int], 1, math.inf, None),
    ("macro.labels", [str], None, None, None),
    ("mc.n_states", int, 2, 2**32, 200),
    ("mc.n_times", int, 1, math.inf, 256),
    ("horizons", [float], 0.0, math.inf, [10.0]),
    ("kappas", [float], 0.0, math.inf, [1.0]),
    ("epsilon", float, 0.0, 1.0, 0.1),
    ("delta", float, 0.0, 1.0, 0.1),
    ("checks", [CHECKS], None, None, list(CHECKS)),
    ("concentration.time", float, -math.inf, math.inf, 1.0),
    ("concentration.n_states", int, 2, math.inf, 1000),
    ("concentration.scaling_dims", [int], 2, math.inf, [16, 64, 256]),
    ("concentration.epsilon_grid", [float], 0.0, math.inf, [0.1, 0.2, 0.4]),
)

#: Sections that may be null, meaning every default.
NULLABLE = ("macro", "concentration")


def _valid(value, kind, low, high) -> bool:
    if isinstance(kind, list):
        return isinstance(value, list) and bool(value) and all(_valid(v, kind[0], low, high) for v in value)
    if isinstance(kind, tuple):
        if isinstance(value, str):
            return value in kind
        return isinstance(kind[-1], list) and _valid(value, kind[-1], low, high)
    if kind is str:
        return isinstance(value, str) and value != ""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    if kind is int:
        return (isinstance(value, int) or value.is_integer()) and low <= value <= high
    try:
        value = float(value)
    except OverflowError:
        return False
    return math.isfinite(value) and low < value < high


def _convert(value, kind):
    if isinstance(kind, list):
        return [_convert(v, kind[0]) for v in value]
    if isinstance(kind, tuple):
        return value if isinstance(value, str) else _convert(value, kind[-1])
    return kind(value)


def _describe(kind, low, high, many: bool = False) -> str:
    """What a field of ``FIELDS`` must be, e.g. "an integer >= 2"."""
    if isinstance(kind, list):
        return "a nonempty list of " + _describe(kind[0], low, high, many=True)
    if isinstance(kind, tuple):
        names = ", ".join(repr(c) for c in kind if isinstance(c, str))
        lists = "".join(f" or {_describe(c, low, high)}" for c in kind if isinstance(c, list))
        return ("names from " if many else "one of ") + names + lists
    if kind is str:
        return "nonempty strings" if many else "a nonempty string"
    ops = (">=", "<=") if kind is int else (">", "<")
    limits = [f"{op} {x if kind is int else format(x, 'g')}" for op, x in zip(ops, (low, high)) if math.isfinite(x)]
    if kind is int:
        what = "integers" if many else "an integer"
    else:
        what = "finite numbers" if many else "a finite number"
    return " ".join([what, " and ".join(limits)]).rstrip()


def _parse_fields(obj: dict) -> dict:
    """Every field of ``FIELDS``, checked and converted, nested by section.

    A key that is no row of ``FIELDS`` is refused.
    """
    out, holders = {}, {"": obj}
    for path, kind, low, high, default in FIELDS:
        section, _, key = path.rpartition(".")
        if section not in holders:
            holder = obj.get(section, {})
            if holder is None and section in NULLABLE:
                holder = {}
            if not isinstance(holder, dict):
                raise ConfigError(f"{section} must be a JSON object, got {holder!r}")
            holders[section], out[section] = holder, {}
        holder, target = holders[section], out[section] if section else out
        if key not in holder and default is None:
            target[key] = None
            continue
        value = holder.get(key, default)
        if value is REQUIRED:
            raise ConfigError(f"{path} is required")
        if not _valid(value, kind, low, high):
            raise ConfigError(f"{path} must be {_describe(kind, low, high)}, got {value!r}")
        target[key] = _convert(value, kind)
    for section, holder in holders.items():
        known = [p.rpartition(".")[2] for p, *_ in FIELDS if p.rpartition(".")[0] == section]
        known += [] if section else [s for s in holders if s]
        for key in holder:
            if key not in known:
                path = f"{section}.{key}" if section else key
                raise ConfigError(f"unknown key: {path} must be one of {', '.join(sorted(known))}")
    return out


@dataclass
class ScenarioConfig:
    """Parsed scenario configuration (schema gaplab-scenario/1).

    Each section (``hamiltonian``, ``rho``, ``observable``, ``macro``,
    ``concentration``) is a dict of its parsed ``FIELDS`` by key; the
    ``mc`` section is ``n_states`` and ``n_times``.  ``raw`` is the config
    as given.
    """

    dimension: int
    seed: int
    hamiltonian: dict
    rho: dict
    observable: dict
    macro: dict
    n_states: int
    n_times: int
    horizons: list
    kappas: list
    epsilon: float
    delta: float
    checks: list
    concentration: dict
    raw: dict = field(repr=False, default_factory=dict)

    @classmethod
    def from_dict(cls, obj: dict) -> "ScenarioConfig":
        if not isinstance(obj, dict):
            raise ConfigError("scenario config must be a JSON object")
        # an absent rho section means the uniform density
        fields = _parse_fields({"rho": {"kind": "uniform"}, **obj})
        dims = fields["concentration"]["scaling_dims"]
        if len(set(dims)) < 2:
            raise ConfigError(f"concentration.scaling_dims needs two distinct dimensions, got {dims!r}")
        for section in ("hamiltonian", "rho", "observable"):
            if fields[section]["kind"] == "file" and fields[section]["path"] is None:
                raise ConfigError(f"{section}.path is required for {section}.kind 'file'")
        del fields["schema"]
        mc = fields.pop("mc")
        return cls(**fields, n_states=mc["n_states"], n_times=mc["n_times"], raw=obj)


def load_scenario(path) -> ScenarioConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read scenario config {path!r}: {exc}") from exc
    return ScenarioConfig.from_dict(obj)


@dataclass
class Scenario:
    """Materialized scenario: spectrum, density matrix, observable, macro spaces.

    ``norm_b`` is the observable's operator norm, taken when it is built.
    The other quantities that depend on the scenario alone are computed on
    first use and kept, so every check shares one copy.  Where every level
    couples, ``contributing`` is ``spec``, and the spectrum's V* B V, W and
    counts are the contributing ones.
    """

    config: ScenarioConfig
    spec: SpectralDecomposition
    rho: DensityMatrix
    observable: np.ndarray
    norm_b: float
    macro: MacroDecomposition

    @cached_property
    def contributing(self) -> SpectralDecomposition:
        """The spectrum restricted to the eigenvalues that couple to the observable (``spec`` when all do)."""
        return contributing_set(self.spec, self.observable)

    @cached_property
    def contributing_observable(self) -> np.ndarray:
        """V* B V over the contributing set's columns, which the overlaps and phase forms read."""
        return eigenbasis_observable(self.contributing, self.observable)

    @cached_property
    def spectrum_observable(self) -> np.ndarray:
        """V* B V over every column of the full spectrum, from which the concentration tail builds B(t)."""
        if self.contributing is self.spec:
            return self.contributing_observable
        return eigenbasis_observable(self.spec, self.observable)

    @cached_property
    def spectrum_mixture_overlap(self) -> np.ndarray:
        """W over the full spectrum, which the concentration reference and the ``--csv`` curves read."""
        if self.contributing is self.spec:
            return self.mixture_overlap
        return mixture_block_overlap(self.spec, self.rho, self.spectrum_observable)

    @cached_property
    def spectrum_counts(self) -> dict:
        """The ``spectral_counts`` of the full spectrum at the config's kappas, for the report's spectral section."""
        if self.contributing is self.spec:
            return self.contributing_counts
        return spectral_counts(self.spec, self.config.kappas)

    @cached_property
    def contributing_counts(self) -> dict:
        """The ``spectral_counts`` of the contributing set at the config's kappas, which every bound reads."""
        return spectral_counts(self.contributing, self.config.kappas)

    @cached_property
    def mixture_overlap(self) -> np.ndarray:
        """W[i, j] = tr(P_i B P_j rho) over the contributing set; its trace is the dephased expectation."""
        return mixture_block_overlap(self.contributing, self.rho, self.contributing_observable)

    @cached_property
    def gauss_rules(self) -> list:
        """The ``gauss_rule`` of the contributing gaps at each horizon, which the phase norm and forms both read."""
        return [gauss_rule(self.contributing.gaps, T) for T in self.config.horizons]


@contextmanager
def _building(section: str):
    """Turn a builder's refusal of its section into a ConfigError naming it."""
    try:
        yield
    except (OSError, ValueError, RuntimeError) as exc:
        raise ConfigError(f"bad {section} section: {exc}") from exc


def _build_hamiltonian(config: ScenarioConfig, base_dir: str) -> SpectralDecomposition:
    ham, d = config.hamiltonian, config.dimension
    with _building("hamiltonian"):
        if ham["kind"] == "file":
            return jsonio.load_spectrum(os.path.join(base_dir, ham["path"]))
        rng = derive_rng(config.seed, DOMAIN_HAMILTONIAN)
        mult = ham["multiplicities"] or [1] * d
        return random_hamiltonian(d, mult, rng, eigenvalues=ham["eigenvalues"], spacing=ham["spacing"])


def _build_macro(config: ScenarioConfig, spec: SpectralDecomposition) -> MacroDecomposition:
    with _building("macro"):
        return macro_decomposition(spec, dims=config.macro["dims"], labels=config.macro["labels"])


def _build_rho(config: ScenarioConfig, spec, macro, base_dir: str) -> DensityMatrix:
    rho, d = config.rho, config.dimension
    with _building("rho"):
        if rho["kind"] == "uniform":
            return DensityMatrix(probabilities=np.full(d, 1.0 / d), basis=np.eye(d))
        if rho["kind"] == "canonical":
            return canonical_density(spec, rho["beta"])
        if rho["kind"] == "microcanonical":
            return microcanonical_density(macro, rho["label"])
        if rho["kind"] == "random":
            limit = rho["p_max_limit"]
            if limit is None and {"variance", "equilibration"} & set(config.checks):
                # variance bounds require p_max < 1/4
                limit = 0.25
            return random_density(d, derive_rng(config.seed, DOMAIN_RHO), p_max_limit=limit)
        return jsonio.load_density(os.path.join(base_dir, rho["path"]))


def _build_observable(config: ScenarioConfig, macro, base_dir: str) -> tuple[np.ndarray, float]:
    """The observable and its operator norm; refused where (2 |B|)^4 overflows (see ``NORM_B_MAX``)."""
    obs, d = config.observable, config.dimension
    with _building("observable"):
        if obs["kind"] == "macro_projector":
            B = macro.projector(obs["label"])
        elif obs["kind"] == "random_projector":
            rng = derive_rng(config.seed, DOMAIN_OBSERVABLE)
            B = random_projector(d, obs["rank"] or max(1, d // 2), rng)
        elif obs["kind"] == "random_hermitian":
            rng = derive_rng(config.seed, DOMAIN_OBSERVABLE)
            z = rng.standard_normal((d, d))
            z = z + 1j * rng.standard_normal((d, d))
            H = (z + z.conj().T) / 2.0
            B = H / operator_norm(H)
        else:
            M = jsonio.load_matrix(os.path.join(base_dir, obs["path"]))
            B = as_complex_matrix(M, name="observable", square=True)
        norm_b = operator_norm(B)
        if not norm_b <= NORM_B_MAX:
            raise ValueError(f"|B| = {norm_b:.4g} exceeds {NORM_B_MAX:.4g}, above which (2 |B|)^4 overflows")
    return B, norm_b


def _check_phases(config: ScenarioConfig, spec: SpectralDecomposition) -> None:
    """Refuse a horizon or concentration time at which a phase of the run overflows.

    Up to a horizon T the run takes the phases E t, t in [0, T], of every
    level E, and (G_a - G_b) T, where two gaps differ by at most twice the
    diameter; the concentration tail takes E t at its time t.
    """
    top = float(np.abs(spec.values).max())
    reach = max(top, 2.0 * spec.diameter)
    checks = (("horizons", config.horizons, reach), ("concentration.time", [config.concentration["time"]], top))
    for name, times, scale in checks:
        for t in times:
            if not math.isfinite(scale * t):
                raise ConfigError(f"{name} must keep every phase finite, but {t!r} times {scale!r} overflows")


def build_scenario(config: ScenarioConfig, base_dir: str = ".") -> Scenario:
    """Materialize a scenario from its config, deterministically in the seed."""
    spec = _build_hamiltonian(config, base_dir)
    if spec.dim != config.dimension:
        raise ConfigError(
            f"hamiltonian dimension {spec.dim} does not match config dimension {config.dimension}"
        )
    _check_phases(config, spec)
    macro = _build_macro(config, spec)
    rho = _build_rho(config, spec, macro, base_dir)
    if rho.dim != config.dimension:
        raise ConfigError("rho dimension does not match config dimension")
    B, norm_b = _build_observable(config, macro, base_dir)
    if B.shape[0] != config.dimension:
        raise ConfigError("observable dimension does not match config dimension")
    needs_small_pmax = {"variance", "equilibration"} & set(config.checks)
    if needs_small_pmax and rho.p_max > P_MAX_LIMIT:
        raise ConfigError(
            f"p_max = {rho.p_max!r} must be < 1/4 for checks {sorted(needs_small_pmax)}"
        )
    return Scenario(config=config, spec=spec, rho=rho, observable=B, norm_b=norm_b, macro=macro)
