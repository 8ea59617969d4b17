"""Unitary dynamics, time-averaged deviations, and the equilibration bounds.

Evolution under a Hamiltonian given in spectral form is a phase rotation per
eigenvalue.  The expectation curve of an observable decomposes over ordered
pairs of distinct eigenvalues, and its time-averaged squared deviation from
the infinite-time average is an exact quadratic form

    <|f|^2>_[0,T] = sum_{a,b} c_a R_ab conj(c_b),
    R_ab = <exp(i (G_a - G_b) t)>_[0,T]

over the gap list G_a = e - e', with the closed form
<exp(i D t)>_T = exp(i D T / 2) sinc(D T / (2 pi)) (value 1 at D = 0).  The
phase-average matrix R is Hermitian positive semidefinite with unit
diagonal, and its operator norm obeys the window bound
G(kappa) (1 + 8 log2(d) / (kappa T)) for every window width kappa > 0.

A time-grid oracle (composite Simpson quadrature of the same averages)
exists solely to cross-check the exact quadratic forms.

The bound evaluators at the end assemble the finite- and infinite-time
equilibration bounds, the four second-moment bounds, and the concentration
tail bound from precomputed spectral counts; they never look at matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import simpson

from .linalg import as_complex_matrix, operator_norm
from .spectra import SpectralDecomposition, contributing_set, gap_count, gap_tolerance

__all__ = [
    "CONCENTRATION_CONSTANT",
    "GapIndex",
    "BoundInputs",
    "MomentBounds",
    "evolve",
    "expectation_curve",
    "mixture_expectation_curve",
    "block_overlap_matrix",
    "overlap_curve",
    "mixture_block_overlap",
    "infinite_time_average",
    "diagonal_ensemble_expectation",
    "gap_index",
    "gap_coefficients",
    "gap_phase_matrix",
    "phase_quadratic_forms",
    "dephased_power",
    "expectation_curve_variance",
    "expectation_curve_variance_infinite",
    "expectation_curve_variance_quadrature",
    "mixture_curve_deviation",
    "mixture_curve_deviation_quadrature",
    "phase_matrix_norm_bound",
    "bound_inputs",
    "finite_time_branches",
    "equilibration_bound_finite_time",
    "equilibration_bound_infinite_time",
    "moment_bounds",
    "concentration_tail_bound",
]

#: Concentration constant of the tail bound, 1 / (288 pi^2).
CONCENTRATION_CONSTANT = 1.0 / (288.0 * math.pi**2)

#: Default point count for the Simpson time-grid oracle.
QUADRATURE_POINTS = 10001


def _check_state(psi0, dim: int, stack: bool = False) -> np.ndarray:
    """One unit state of length dim, or with ``stack`` also an (n, dim) stack of them."""
    psi = np.asarray(psi0, dtype=np.complex128)
    if not (stack and psi.ndim == 2):
        psi = psi.ravel()
    if psi.shape[-1] != dim:
        raise ValueError(f"state dimension {psi.shape[-1]} does not match spectrum dim {dim}")
    if not np.all(np.isfinite(psi)):
        raise ValueError("state contains NaN or Inf")
    norms = np.atleast_1d(np.linalg.norm(psi, axis=-1))
    bad = np.abs(norms - 1.0) > 1e-8
    if np.any(bad):
        raise ValueError(f"state norm {float(norms[np.argmax(bad)])!r} is not 1")
    return psi


def _check_observable(B, dim: int) -> np.ndarray:
    B = as_complex_matrix(B, name="observable", square=True)
    if B.shape[0] != dim:
        raise ValueError(f"observable dimension {B.shape[0]} does not match spectrum dim {dim}")
    return B


def evolve(spec: SpectralDecomposition, psi0, t: float) -> np.ndarray:
    """State at time t: phase-rotate each eigencomponent of the initial state."""
    psi = _check_state(psi0, spec.dim)
    V = spec.basis_matrix
    c = V.conj().T @ psi
    return V @ (np.exp(-1j * spec.column_values * t) * c)


def expectation_curve(spec: SpectralDecomposition, psi0, B, times) -> np.ndarray:
    """<psi_t|B|psi_t> on a grid of times (complex for non-Hermitian B)."""
    psi = _check_state(psi0, spec.dim)
    B = _check_observable(B, spec.dim)
    ts = np.asarray(times, dtype=float).ravel()
    if ts.size == 0:
        raise ValueError("empty time grid")
    V = spec.basis_matrix
    c = V.conj().T @ psi
    Bt = V.conj().T @ B @ V
    phases = np.exp(-1j * np.outer(ts, spec.column_values))
    amp = phases * c
    return np.einsum("ti,ij,tj->t", amp.conj(), Bt, amp)


def _block_sums(M: np.ndarray, starts: np.ndarray) -> np.ndarray:
    rows = np.add.reduceat(M, starts, axis=0)
    return np.add.reduceat(rows, starts, axis=1)


def block_overlap_matrix(spec: SpectralDecomposition, psi0, B) -> np.ndarray:
    """Matrix S with S[i, j] = <psi0| P_i B P_j |psi0> over eigenprojectors.

    ``psi0`` is one state, or a stack of states (n, dim) that gives one
    matrix per state, shape (n, d, d).
    """
    psi = _check_state(psi0, spec.dim, stack=True)
    B = _check_observable(B, spec.dim)
    V = spec.basis_matrix
    Bt = V.conj().T @ B @ V
    # one matrix-vector product per state, so a stack rounds like single calls
    y = (V.conj().T @ psi[..., None])[..., 0]
    yc = np.conj(y)
    # one eigenspace of rows at a time keeps a stack at (n, mult, dim) entries
    ends = spec.block_starts + spec.multiplicities
    rows = [
        np.add.reduceat(yc[..., a:b, None] * Bt[a:b] * y[..., None, :], [0], axis=-2)
        for a, b in zip(spec.block_starts, ends)
    ]
    return np.add.reduceat(np.concatenate(rows, axis=-2), spec.block_starts, axis=-1)


def overlap_curve(values, S, times) -> np.ndarray:
    """Expectation curve from block overlaps, f(t) = tr S + a(t)^T S_off conj(a(t)).

    Here a_i(t) = exp(i e_i t) over the eigenvalues ``values`` that index S
    and S_off is S without its diagonal.  For the block overlap matrix of a
    state (restricted to any eigenvalues that include the contributing
    ones) this is <psi_t|B|psi_t>, at d exponentials per time instead of
    d (d - 1) gap phases.  S of shape (..., d, d) and times of shape
    (..., n) broadcast to curves of shape (..., n).
    """
    S = np.asarray(S, dtype=np.complex128)
    a = np.exp(1j * (np.asarray(times, dtype=float)[..., :, None] * np.asarray(values, dtype=float)))
    diagonal = np.diagonal(S, axis1=-2, axis2=-1)
    off = S - diagonal[..., None] * np.eye(S.shape[-1])
    # conj(a) . (a S_off), conjugating and multiplying in place to hold two (..., n, d) arrays
    b = a @ off
    b *= np.conjugate(a, out=a)
    return diagonal.sum(-1)[..., None] + b.sum(-1)


def mixture_block_overlap(spec: SpectralDecomposition, rho, B) -> np.ndarray:
    """Matrix W with W[i, j] = tr(P_i B P_j rho) over eigenprojectors."""
    B = _check_observable(B, spec.dim)
    rho_dense = rho.matrix() if hasattr(rho, "matrix") else as_complex_matrix(rho, square=True)
    if rho_dense.shape[0] != spec.dim:
        raise ValueError("density matrix dimension does not match spectrum")
    V = spec.basis_matrix
    Bt = V.conj().T @ B @ V
    rt = V.conj().T @ rho_dense @ V
    return _block_sums(Bt * rt.T, spec.block_starts)


def mixture_expectation_curve(spec: SpectralDecomposition, rho, B, times) -> np.ndarray:
    """tr(B(t) rho) on a grid of times, with B(t) the Heisenberg-evolved observable."""
    ts = np.asarray(times, dtype=float).ravel()
    if ts.size == 0:
        raise ValueError("empty time grid")
    W = mixture_block_overlap(spec, rho, B)
    phases = np.exp(1j * np.outer(ts, spec.values))
    return np.einsum("te,ef,tf->t", phases, W, phases.conj())


def infinite_time_average(spec: SpectralDecomposition, psi0, B) -> complex:
    """Long-run time average of <psi_t|B|psi_t>: the dephased diagonal sum."""
    S = block_overlap_matrix(spec, psi0, B)
    return complex(np.trace(S))


def diagonal_ensemble_expectation(spec: SpectralDecomposition, rho, B) -> complex:
    """Dephased expectation sum_e tr(P_e B P_e rho).

    Eigenvalues outside the contributing set add exactly zero, so the sum
    over all blocks equals the sum over contributing blocks.
    """
    W = mixture_block_overlap(spec, rho, B)
    return complex(np.trace(W))


@dataclass
class GapIndex:
    """Ordered pairs of distinct eigenvalue indices and their gap values."""

    pairs: np.ndarray
    values: np.ndarray

    @property
    def count(self) -> int:
        return self.values.size


def gap_index(values) -> GapIndex:
    """All ordered pairs (i, j), i != j, in row-major order, with gaps e_i - e_j."""
    v = np.asarray(values, dtype=float).ravel()
    d = v.size
    mask = ~np.eye(d, dtype=bool)
    pairs = np.argwhere(mask)
    gaps = (v[:, None] - v[None, :])[mask]
    return GapIndex(pairs=pairs, values=gaps)


def gap_coefficients(S: np.ndarray, indices, gaps: GapIndex) -> np.ndarray:
    """Phase-form coefficients S[..., indices[i], indices[j]] over the pairs (i, j) of ``gaps``.

    ``indices`` picks the eigenvalues that ``gaps`` was built on (the
    contributing ones) out of the rows and columns of the overlap matrices
    S, shape (..., d, d); the result has shape (..., gaps.count).
    """
    idx = np.asarray(indices)
    return S[..., idx[gaps.pairs[:, 0]], idx[gaps.pairs[:, 1]]]


def gap_phase_matrix(gap_values, horizon: float) -> np.ndarray:
    """Phase-average matrix R_ab = <exp(i (G_a - G_b) t)> over [0, horizon].

    Uses the closed form exp(i D T / 2) sinc(D T / (2 pi)), which is exactly
    1 on the diagonal and Hermitian with all entries of modulus at most 1.
    """
    G = np.asarray(gap_values, dtype=float).ravel()
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    delta = G[:, None] - G[None, :]
    return np.exp(0.5j * delta * horizon) * np.sinc(delta * horizon / (2.0 * np.pi))


def phase_quadratic_forms(gap_values: np.ndarray, coeff_rows: np.ndarray, horizon: float) -> np.ndarray:
    """<|sum_a c_a exp(i G_a t)|^2>_[0,T] for each row of coefficients.

    Each row is summed on its own in a fixed order, so a row's value does
    not depend on the rows stacked with it.
    """
    if gap_values.size == 0:
        return np.zeros(coeff_rows.shape[0])
    R = gap_phase_matrix(gap_values, horizon)
    # einsum, not the faster (C @ R) * conj(C): the stored benchmark reports
    # pin this rounding (ROADMAP item 2)
    forms = np.einsum("sp,pq,sq->s", coeff_rows, R, coeff_rows.conj())
    return np.maximum(forms.real, 0.0)


def dephased_power(gap_values: np.ndarray, coeff_rows: np.ndarray, tol: float) -> np.ndarray:
    """Infinite-horizon limit: cluster equal gaps, then sum squared cluster totals."""
    if gap_values.size == 0:
        return np.zeros(coeff_rows.shape[0])
    order = np.argsort(gap_values, kind="stable")
    v = gap_values[order]
    breaks = np.nonzero(np.diff(v) > tol)[0] + 1
    starts = np.concatenate(([0], breaks))
    sums = np.add.reduceat(coeff_rows[:, order], starts, axis=1)
    return np.einsum("sc,sc->s", sums, sums.conj()).real


def _contributing_coefficients(spec, S: np.ndarray, B) -> tuple[np.ndarray, np.ndarray]:
    """Restrict an overlap matrix to contributing eigenvalues; return (gaps, coeffs)."""
    cs = contributing_set(spec, B)
    gi = gap_index(cs.values)
    return gi.values, gap_coefficients(S, cs.indices, gi)


def expectation_curve_variance(spec: SpectralDecomposition, psi0, B, horizon: float) -> float:
    """Exact <|<psi_t|B|psi_t> - (long-run average)|^2> over [0, horizon].

    Evaluated as the phase quadratic form over contributing gap pairs;
    no time discretization is involved.
    """
    S = block_overlap_matrix(spec, psi0, B)
    gaps, w = _contributing_coefficients(spec, S, B)
    return float(phase_quadratic_forms(gaps, w[None, :], horizon)[0])


def expectation_curve_variance_infinite(spec: SpectralDecomposition, psi0, B, gap_tol=None) -> float:
    """Infinite-horizon limit of :func:`expectation_curve_variance` by dephasing."""
    S = block_overlap_matrix(spec, psi0, B)
    gaps, w = _contributing_coefficients(spec, S, B)
    tol = gap_tolerance(np.asarray(spec.values), gap_tol)
    return float(dephased_power(gaps, w[None, :], tol)[0])


def expectation_curve_variance_quadrature(
    spec: SpectralDecomposition, psi0, B, horizon: float, n_points: int = QUADRATURE_POINTS
) -> float:
    """Time-grid oracle for :func:`expectation_curve_variance` (composite Simpson)."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    n = int(n_points)
    if n < 3:
        raise ValueError("n_points must be at least 3")
    if n % 2 == 0:
        n += 1
    times = np.linspace(0.0, horizon, n)
    curve = expectation_curve(spec, psi0, B, times)
    center = infinite_time_average(spec, psi0, B)
    vals = np.abs(curve - center) ** 2
    return float(simpson(vals, x=times) / horizon)


def mixture_curve_deviation(spec: SpectralDecomposition, rho, B, horizon: float) -> float:
    """Exact <|tr(B(t) rho) - dephased expectation|^2> over [0, horizon].

    B(t) is the Heisenberg-evolved observable; the deviation is again a
    phase quadratic form, now with mixture overlap coefficients.
    """
    W = mixture_block_overlap(spec, rho, B)
    gaps, u = _contributing_coefficients(spec, W, B)
    return float(phase_quadratic_forms(gaps, u[None, :], horizon)[0])


def mixture_curve_deviation_quadrature(
    spec: SpectralDecomposition, rho, B, horizon: float, n_points: int = QUADRATURE_POINTS
) -> float:
    """Time-grid oracle for :func:`mixture_curve_deviation`."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    n = int(n_points)
    if n < 3:
        raise ValueError("n_points must be at least 3")
    if n % 2 == 0:
        n += 1
    times = np.linspace(0.0, horizon, n)
    curve = mixture_expectation_curve(spec, rho, B, times)
    center = diagonal_ensemble_expectation(spec, rho, B)
    vals = np.abs(curve - center) ** 2
    return float(simpson(vals, x=times) / horizon)


def phase_matrix_norm_bound(
    spec: SpectralDecomposition, kappa: float, horizon: float, B=None, gap_tol=None
) -> tuple[float, float]:
    """Operator norm of the phase-average matrix next to its window bound.

    With an observable, pairs run over the contributing eigenvalues and the
    window count is the relative one.  Raises if the bound is violated
    (that would falsify the underlying inequality, not the data).
    """
    if kappa <= 0 or horizon <= 0:
        raise ValueError("kappa and horizon must be positive")
    if B is None:
        values = np.asarray(spec.values, dtype=float)
        d = values.size
        g = gap_count(spec, kappa, gap_tol)
    else:
        cs = contributing_set(spec, B)
        values = cs.values
        d = cs.n_distinct
        g = cs.gap_count(kappa, gap_tol)
    if d < 2:
        raise ValueError("need at least two (contributing) eigenvalues")
    gi = gap_index(values)
    R = gap_phase_matrix(gi.values, horizon)
    norm = operator_norm(R)
    bound = g * (1.0 + 8.0 * math.log2(d) / (kappa * horizon))
    if norm > bound * (1.0 + 1e-9):
        raise RuntimeError(f"phase-matrix norm {norm!r} exceeds window bound {bound!r}")
    return norm, bound


@dataclass
class BoundInputs:
    """Scalar inputs of the equilibration bounds.

    norm_b and norm_rho are operator norms; the four counts are the
    contributing-set statistics of the observable (number of contributing
    eigenvalues, largest degeneracy, largest gap degeneracy, window gap
    count at width kappa).
    """

    epsilon: float
    delta: float
    kappa: float
    horizon: float
    norm_b: float
    norm_rho: float
    n_contributing: int
    max_degeneracy: int
    max_gap_degeneracy: int
    gap_window_count: int
    constant: float = field(default=CONCENTRATION_CONSTANT)

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.kappa <= 0.0:
            raise ValueError("kappa must be positive")
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")
        if self.norm_b < 0.0:
            raise ValueError("norm_b must be nonnegative")
        if not 0.0 < self.norm_rho <= 1.0:
            raise ValueError("norm_rho must lie in (0, 1]")
        for name in ("n_contributing", "max_degeneracy", "max_gap_degeneracy", "gap_window_count"):
            v = getattr(self, name)
            if int(v) != v or v < 0:
                raise ValueError(f"{name} must be a nonnegative integer")
        if not math.isclose(self.constant, CONCENTRATION_CONSTANT, rel_tol=1e-12):
            raise ValueError("constant must equal 1 / (288 pi^2)")

    @classmethod
    def from_contributing(
        cls, cs, norm_b: float, norm_rho: float, epsilon: float, delta: float, kappa: float, horizon: float,
        gap_tol=None,
    ) -> "BoundInputs":
        """Inputs from the contributing set ``cs`` of the observable and its norm."""
        return cls(
            epsilon=epsilon,
            delta=delta,
            kappa=kappa,
            horizon=horizon,
            norm_b=norm_b,
            norm_rho=norm_rho,
            n_contributing=cs.n_distinct,
            max_degeneracy=cs.max_degeneracy,
            max_gap_degeneracy=cs.max_gap_degeneracy,
            gap_window_count=cs.gap_count(kappa, gap_tol),
        )

    @property
    def window_factor(self) -> float:
        """1 + 8 log2(d) / (kappa T) over the contributing count d."""
        d = max(self.n_contributing, 1)
        return 1.0 + 8.0 * math.log2(d) / (self.kappa * self.horizon)


def bound_inputs(
    spec: SpectralDecomposition,
    B,
    norm_rho: float,
    epsilon: float,
    delta: float,
    kappa: float,
    horizon: float,
    gap_tol=None,
) -> BoundInputs:
    """Assemble :class:`BoundInputs` from a spectrum and observable."""
    return BoundInputs.from_contributing(
        contributing_set(spec, B), operator_norm(B), norm_rho, epsilon, delta, kappa, horizon, gap_tol
    )


def _moment_base(inputs: BoundInputs) -> float:
    return (
        inputs.norm_b**2
        * inputs.norm_rho
        * inputs.max_degeneracy
        * inputs.gap_window_count
        * inputs.window_factor
    )


def finite_time_branches(inputs: BoundInputs) -> tuple[float, float]:
    """Both branches of the finite-time bound: (Markov branch, concentration branch)."""
    base = _moment_base(inputs)
    eps_delta = inputs.epsilon * inputs.delta
    markov = math.sqrt(188.0 / eps_delta * base)
    concentration = math.sqrt(
        25.0 * math.log(24.0 / eps_delta) / (inputs.delta * inputs.constant) * base
    )
    return markov, concentration


def equilibration_bound_finite_time(inputs: BoundInputs) -> float:
    """Finite-horizon equilibration bound (minimum of the two branches)."""
    return min(finite_time_branches(inputs))


def equilibration_bound_infinite_time(inputs: BoundInputs) -> float:
    """Infinite-horizon equilibration bound."""
    return math.sqrt(
        188.0
        / (inputs.epsilon * inputs.delta)
        * inputs.norm_b**2
        * inputs.norm_rho
        * inputs.max_degeneracy
        * inputs.max_gap_degeneracy
    )


@dataclass
class MomentBounds:
    """The four second-moment bounds (prefactors 24, 1, 23, 24)."""

    expected_time_variance: float
    mixture_curve_deviation: float
    time_average_variance: float
    expected_dephasing_variance: float


def moment_bounds(inputs: BoundInputs) -> MomentBounds:
    """Second-moment bounds shared by the exceedance bounds.

    In order: the ensemble mean of the finite-horizon curve variance, the
    mixture curve deviation, the ensemble variance of the long-run average,
    and the ensemble mean of the dephased (infinite-horizon) variance.
    """
    core = inputs.norm_b**2 * inputs.norm_rho
    base = _moment_base(inputs)
    return MomentBounds(
        expected_time_variance=24.0 * base,
        mixture_curve_deviation=base,
        time_average_variance=23.0 * core,
        expected_dephasing_variance=24.0
        * core
        * inputs.max_degeneracy
        * inputs.max_gap_degeneracy,
    )


def concentration_tail_bound(
    deviation: float,
    lipschitz: float,
    norm_rho: float,
    constant: float = CONCENTRATION_CONSTANT,
) -> float:
    """Tail bound 12 exp(-C dev^2 / (2 L^2 |rho|)) for Lipschitz observables.

    For f(psi) = <psi_t|B|psi_t> the Lipschitz constant is at most 2 |B|.
    Values above 1 are vacuous but still returned; callers flag them.
    """
    if deviation < 0:
        raise ValueError("deviation must be nonnegative")
    if lipschitz <= 0:
        raise ValueError("lipschitz must be positive")
    if not 0.0 < norm_rho <= 1.0:
        raise ValueError("norm_rho must lie in (0, 1]")
    if not math.isclose(constant, CONCENTRATION_CONSTANT, rel_tol=1e-12):
        raise ValueError("constant must equal 1 / (288 pi^2)")
    return 12.0 * math.exp(-constant * deviation**2 / (2.0 * lipschitz**2 * norm_rho))
