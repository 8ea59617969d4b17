"""Scenario construction: model Hamiltonians, ensembles, and config parsing.

A scenario bundles a Hamiltonian in spectral form, a density matrix, an
observable, and the Monte Carlo budget for the verification driver.  All
randomness is drawn from streams derived from the scenario seed with fixed
domain indices, so a config plus seed pins every byte of the run.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dynamics import GapIndex, gap_index, mixture_block_overlap
from .linalg import as_complex_matrix, operator_norm
from .sampling import DensityMatrix, derive_rng
from .spectra import ContributingSet, SpectralDecomposition, contributing_set
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


def random_hamiltonian(
    dim: int,
    multiplicities,
    rng: np.random.Generator,
    eigenvalues="gaussian",
    spacing: float = 1.0,
    min_separation: float = 1e-6,
) -> SpectralDecomposition:
    """Random Hamiltonian with a prescribed degeneracy plan.

    ``multiplicities`` lists the eigenspace dimensions.  Eigenvalues are
    either sorted standard normals (resampled until all separations exceed
    ``min_separation``), an arithmetic progression with step ``spacing``
    (which maximizes gap degeneracies), or an explicit ascending sequence.
    The eigenbasis is Haar random.
    """
    mult = [int(m) for m in multiplicities]
    if not mult or any(m < 1 for m in mult):
        raise ValueError("multiplicities must be positive integers")
    if sum(mult) != dim:
        raise ValueError(f"multiplicities sum to {sum(mult)}, expected {dim}")
    k = len(mult)
    if isinstance(eigenvalues, str):
        if eigenvalues == "gaussian":
            for _ in range(1000):
                vals = np.sort(rng.standard_normal(k))
                if k < 2 or np.diff(vals).min() > min_separation:
                    break
            else:
                raise RuntimeError("could not draw separated eigenvalues")
        elif eigenvalues == "arithmetic":
            if spacing <= 0:
                raise ValueError("spacing must be positive")
            vals = spacing * np.arange(k, dtype=float)
        else:
            raise ValueError(f"unknown eigenvalue mode {eigenvalues!r}")
    else:
        vals = np.asarray(eigenvalues, dtype=float).ravel()
        if vals.size != k:
            raise ValueError("explicit eigenvalues must match the multiplicity count")
        if k > 1 and np.any(np.diff(vals) <= 0):
            raise ValueError("explicit eigenvalues must be strictly increasing")
    U = haar_unitary(dim, rng)
    starts = np.concatenate(([0], np.cumsum(mult)[:-1]))
    blocks = [U[:, s : s + m] for s, m in zip(starts, mult)]
    return SpectralDecomposition(values=vals, blocks=blocks)


def random_density(
    dim: int,
    rng: np.random.Generator,
    p_max_limit=None,
    max_tries: int = 1000,
) -> DensityMatrix:
    """Random full-rank density matrix with a Haar eigenbasis.

    Probabilities are a flat-Dirichlet draw, resampled until the largest
    one is below ``p_max_limit`` (if given).
    """
    if dim < 1:
        raise ValueError("dim must be positive")
    for _ in range(max_tries):
        p = rng.standard_exponential(dim)
        p /= p.sum()
        if p_max_limit is None or p.max() < p_max_limit:
            break
    else:
        raise RuntimeError(f"no admissible spectrum after {max_tries} draws")
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
    def dims(self) -> np.ndarray:
        return np.array([b.shape[1] for b in self.blocks], dtype=int)

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
    dims = [int(d) for d in dims]
    if any(d < 1 for d in dims):
        raise ValueError("macro dimensions must be positive")
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

    Weights are computed with the minimum energy shifted out, so large
    beta cannot overflow.  beta = 0 gives the uniform density.
    """
    if not np.isfinite(beta):
        raise ValueError("beta must be finite")
    energies = spec.column_values
    w = np.exp(-beta * (energies - energies.min()))
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

#: Numeric config fields: (path, type, low, high, default).  A type in a
#: list means a nonempty list of such values.  Integer ranges are closed,
#: number ranges open; a default of None leaves an absent field out.
FIELDS = (
    ("dimension", int, 2, math.inf, REQUIRED),
    ("seed", int, 0, math.inf, REQUIRED),
    ("mc.n_states", int, 2, math.inf, 200),
    ("mc.n_times", int, 1, math.inf, 256),
    ("horizons", [float], 0.0, math.inf, [10.0]),
    ("kappas", [float], 0.0, math.inf, [1.0]),
    ("epsilon", float, 0.0, 1.0, 0.1),
    ("delta", float, 0.0, 1.0, 0.1),
    ("observable.rank", int, 1, math.inf, None),
    ("concentration.time", float, -math.inf, math.inf, 1.0),
    ("concentration.n_states", int, 2, math.inf, 1000),
    ("concentration.scaling_dims", [int], 2, math.inf, [16, 64, 256]),
    ("concentration.epsilon_grid", [float], 0.0, math.inf, [0.1, 0.2, 0.4]),
)


def _in_range(value, kind, low, high) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    if kind is int:
        return (isinstance(value, int) or value.is_integer()) and low <= value <= high
    try:
        value = float(value)
    except OverflowError:
        return False
    return math.isfinite(value) and low < value < high


def _describe(many: bool, kind, low, high) -> str:
    """What a field of ``FIELDS`` must be, e.g. "an integer >= 2"."""
    ops = (">=", "<=") if kind is int else (">", "<")
    limits = [f"{op} {x:g}" for op, x in zip(ops, (low, high)) if math.isfinite(x)]
    what = "integer" if kind is int else "finite number"
    what = f"a nonempty list of {what}s" if many else f"{'an' if kind is int else 'a'} {what}"
    return " ".join([what, " and ".join(limits)]).rstrip()


def _parse_fields(obj: dict) -> dict:
    """Every field of ``FIELDS``, checked and converted, by path."""
    out = {}
    for path, kind, low, high, default in FIELDS:
        section, _, key = path.rpartition(".")
        holder = (obj.get(section) or {}) if section else obj
        if key not in holder:
            if default is REQUIRED:
                raise ConfigError(f"{path} is required")
            if default is None:
                out[path] = None
                continue
        value = holder.get(key, default)
        many = isinstance(kind, list)
        item = kind[0] if many else kind
        if many:
            ok = isinstance(value, list) and value and all(_in_range(v, item, low, high) for v in value)
        else:
            ok = _in_range(value, item, low, high)
        if not ok:
            raise ConfigError(f"{path} must be {_describe(many, item, low, high)}, got {value!r}")
        out[path] = [item(v) for v in value] if many else item(value)
    return out


@dataclass
class ScenarioConfig:
    """Parsed scenario configuration (schema gaplab-scenario/1)."""

    dimension: int
    seed: int
    hamiltonian: dict
    rho: dict
    observable: dict
    observable_rank: int | None
    macro: dict | None
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
        schema = obj.get("schema")
        if schema != SCHEMA:
            raise ConfigError(f"unsupported schema {schema!r}, expected {SCHEMA!r}")
        ham = obj.get("hamiltonian")
        rho = obj.get("rho", {"kind": "uniform"})
        observable = obj.get("observable")
        if not isinstance(ham, dict) or "kind" not in ham:
            raise ConfigError("hamiltonian section with a 'kind' is required")
        if not isinstance(rho, dict) or "kind" not in rho:
            raise ConfigError("rho section must have a 'kind'")
        if not isinstance(observable, dict) or "kind" not in observable:
            raise ConfigError("observable section with a 'kind' is required")
        macro = obj.get("macro")
        if macro is not None and not isinstance(macro, dict):
            raise ConfigError("macro section must be an object")
        if not isinstance(obj.get("mc", {}), dict):
            raise ConfigError("mc section must be an object")
        if not isinstance(obj.get("concentration") or {}, dict):
            raise ConfigError("concentration section must be an object")
        fields = _parse_fields(obj)
        dims = fields["concentration.scaling_dims"]
        if len(set(dims)) < 2:
            raise ConfigError(f"concentration.scaling_dims needs two distinct dimensions, got {dims!r}")
        checks = obj.get("checks", ["spectral", "variance", "moments", "equilibration", "concentration"])
        known = {"spectral", "variance", "moments", "equilibration", "concentration"}
        if not isinstance(checks, list) or not checks:
            raise ConfigError("checks must be a nonempty list")
        unknown = set(checks) - known
        if unknown:
            raise ConfigError(f"unknown checks: {sorted(unknown)}")
        return cls(
            dimension=fields["dimension"],
            seed=fields["seed"],
            hamiltonian=ham,
            rho=rho,
            observable=observable,
            observable_rank=fields["observable.rank"],
            macro=macro,
            n_states=fields["mc.n_states"],
            n_times=fields["mc.n_times"],
            horizons=fields["horizons"],
            kappas=fields["kappas"],
            epsilon=fields["epsilon"],
            delta=fields["delta"],
            checks=list(checks),
            concentration={
                k: fields[f"concentration.{k}"] for k in ("time", "n_states", "scaling_dims", "epsilon_grid")
            },
            raw=obj,
        )


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

    The quantities that depend on the scenario alone are computed on first
    use and kept, so every check shares one copy.
    """

    config: ScenarioConfig
    spec: SpectralDecomposition
    rho: DensityMatrix
    observable: np.ndarray
    macro: MacroDecomposition

    @cached_property
    def contributing(self) -> ContributingSet:
        """Eigenvalues that couple to the observable."""
        return contributing_set(self.spec, self.observable)

    @cached_property
    def gaps(self) -> GapIndex:
        """Ordered pairs of contributing eigenvalues (local indices) and their gaps."""
        return gap_index(self.contributing.values)

    @cached_property
    def observable_eigenbasis(self) -> np.ndarray:
        """V* B V over the columns of ``spec.basis_matrix``."""
        V = self.spec.basis_matrix
        return V.conj().T @ self.observable @ V

    @cached_property
    def norm_b(self) -> float:
        return operator_norm(self.observable)

    @cached_property
    def mixture_overlap(self) -> np.ndarray:
        """W[i, j] = tr(P_i B P_j rho); its trace is the dephased expectation."""
        return mixture_block_overlap(self.spec, self.rho, self.observable)


def _build_hamiltonian(config: ScenarioConfig, base_dir: str) -> SpectralDecomposition:
    ham = config.hamiltonian
    kind = ham["kind"]
    if kind == "file":
        path = ham.get("path")
        if not path:
            raise ConfigError("hamiltonian file kind needs a 'path'")
        try:
            return jsonio.load_spectrum(os.path.join(base_dir, path))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load spectrum: {exc}") from exc
    if kind == "random":
        mult = ham.get("multiplicities", [1] * config.dimension)
        mode = ham.get("eigenvalues", "gaussian")
        spacing = float(ham.get("spacing", 1.0))
        rng = derive_rng(config.seed, DOMAIN_HAMILTONIAN)
        try:
            return random_hamiltonian(config.dimension, mult, rng, eigenvalues=mode, spacing=spacing)
        except ValueError as exc:
            raise ConfigError(f"bad hamiltonian plan: {exc}") from exc
    raise ConfigError(f"unknown hamiltonian kind {kind!r}")


def _build_macro(config: ScenarioConfig, spec: SpectralDecomposition) -> MacroDecomposition:
    macro = config.macro or {}
    try:
        return macro_decomposition(spec, dims=macro.get("dims"), labels=macro.get("labels"))
    except ValueError as exc:
        raise ConfigError(f"bad macro decomposition: {exc}") from exc


def _build_rho(config: ScenarioConfig, spec, macro, base_dir: str) -> DensityMatrix:
    rho = config.rho
    kind = rho["kind"]
    try:
        if kind == "uniform":
            d = config.dimension
            return DensityMatrix(probabilities=np.full(d, 1.0 / d), basis=np.eye(d))
        if kind == "canonical":
            return canonical_density(spec, float(rho.get("beta", 1.0)))
        if kind == "microcanonical":
            return microcanonical_density(macro, rho.get("label", "eq"))
        if kind == "random":
            limit = rho.get("p_max_limit")
            if limit is None and {"variance", "equilibration"} & set(config.checks):
                # variance bounds require p_max < 1/4
                limit = 0.25
            rng = derive_rng(config.seed, DOMAIN_RHO)
            try:
                return random_density(config.dimension, rng, p_max_limit=limit)
            except RuntimeError as exc:
                raise ConfigError(f"bad rho section: {exc}") from exc
        if kind == "file":
            path = rho.get("path")
            if not path:
                raise ConfigError("rho file kind needs a 'path'")
            return jsonio.load_density(os.path.join(base_dir, path))
    except (OSError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad rho section: {exc}") from exc
    raise ConfigError(f"unknown rho kind {kind!r}")


def _build_observable(config: ScenarioConfig, macro, base_dir: str) -> np.ndarray:
    obs = config.observable
    kind = obs["kind"]
    try:
        if kind == "macro_projector":
            return macro.projector(obs.get("label", "eq"))
        if kind == "random_projector":
            rank = config.observable_rank or max(1, config.dimension // 2)
            rng = derive_rng(config.seed, DOMAIN_OBSERVABLE)
            return random_projector(config.dimension, rank, rng)
        if kind == "random_hermitian":
            rng = derive_rng(config.seed, DOMAIN_OBSERVABLE)
            z = rng.standard_normal((config.dimension, config.dimension))
            z = z + 1j * rng.standard_normal((config.dimension, config.dimension))
            H = (z + z.conj().T) / 2.0
            return H / operator_norm(H)
        if kind == "file":
            path = obs.get("path")
            if not path:
                raise ConfigError("observable file kind needs a 'path'")
            M = jsonio.load_matrix(os.path.join(base_dir, path))
            return as_complex_matrix(M, name="observable", square=True)
    except (OSError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad observable section: {exc}") from exc
    raise ConfigError(f"unknown observable kind {kind!r}")


def build_scenario(config: ScenarioConfig, base_dir: str = ".") -> Scenario:
    """Materialize a scenario from its config, deterministically in the seed."""
    spec = _build_hamiltonian(config, base_dir)
    if spec.dim != config.dimension:
        raise ConfigError(
            f"hamiltonian dimension {spec.dim} does not match config dimension {config.dimension}"
        )
    macro = _build_macro(config, spec)
    rho = _build_rho(config, spec, macro, base_dir)
    if rho.dim != config.dimension:
        raise ConfigError("rho dimension does not match config dimension")
    B = _build_observable(config, macro, base_dir)
    if B.shape[0] != config.dimension:
        raise ConfigError("observable dimension does not match config dimension")
    needs_small_pmax = {"variance", "equilibration"} & set(config.checks)
    if needs_small_pmax and rho.p_max > 0.25 + 2e-15:
        raise ConfigError(
            f"p_max = {rho.p_max!r} must be < 1/4 for checks {sorted(needs_small_pmax)}"
        )
    return Scenario(config=config, spec=spec, rho=rho, observable=B, macro=macro)
