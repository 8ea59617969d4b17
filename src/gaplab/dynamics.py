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
G(kappa) (1 + 8 log2(d) / (kappa T)) for every window width kappa > 0
(Short and Farrelly, New J. Phys. 14, 013063, 2012).

The contributing set of the observable is itself a spectrum, the full one
restricted to the eigenvalues that couple to B (the full one itself when
every eigenvalue couples), so the overlap matrices that feed the gap forms
are built on it directly, from V* B V on its columns
(``eigenbasis_observable``; a scenario keeps the contributing one).  B
and rho change basis, checked, through ``linalg.change_basis`` alone.
Pairs, gaps and gap clusters come from one ``spectra.GapIndex`` (the
cached ``gaps`` of the contributing set), which the coefficients, the
forms, their dephased limit and the norm with its window bound all read.  Only the dense routes of the
forms and of the norm build R.  Both other routes read one Gauss-Legendre
rule per horizon (``gauss_rule``, which a scenario computes once and hands
to both): on its n nodes t_k of [0, T], R is approximated by
A^H W A with A_ka = exp(i G_a t_k).  A Bernstein-ellipse bound fixes n
before the evaluation, so that each entry of the approximation misses R
by at most eps, with eps P at most ``PHASE_NORM_ERROR``.  The norm's
kernel route takes the nonzero spectrum of A^H W A from the real n x n
matrix W^(1/2) K W^(1/2), K_jk = |sum_i exp(i e_i (t_j - t_k))|^2 - d over
the d eigenvalues, and adds eps P, so the norm is never understated.  The
forms' rule route needs no gap coefficients: a state's form c^H R c is the
average of |f(t) - tr S|^2 over [0, T], which the rule takes from the
curve f(t_k) = z_k^H (V* B V) z_k, z_k = exp(-i E t_k) V* psi, at each
node.  When n would reach the pair count P, or the rule's n m^2 per state
(m eigenbasis columns) would not be below the dense P^2, the dense route
is the cheaper one and is taken instead.  One ``PhaseForms`` per horizon
makes that choice once and evaluates the forms of each chunk of states and
the mixture's, so a caller keeps per-state results and no rows of gap
coefficients.

A time-grid oracle (composite Simpson quadrature of the same averages)
exists solely to cross-check the exact quadratic forms.

At the end, ``equilibration_bounds`` writes each of the paper's bound
formulas once: from the scalar ``BoundInputs`` of one (kappa, T) cell (the
norms, the contributing-set counts and the window factor) it builds one
frozen ``Bounds`` record holding the finite-time bound with its two
branches, the infinite-time bound and the four second-moment bounds.  The
runner and ``gaplab bounds`` both read that record.  The concentration
tail bound sits beside it; none of these look at matrices.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import astuple, dataclass, fields
from typing import NamedTuple

import numpy as np

from .linalg import change_basis, quadratic_forms, row_powers
from .spectra import GapIndex, SpectralDecomposition, contributing_set

__all__ = [
    "CONCENTRATION_CONSTANT",
    "BoundInputs",
    "Bounds",
    "eigenbasis_observable",
    "expectation_curve",
    "mixture_curve",
    "mixture_expectation_curve",
    "state_amplitudes",
    "block_overlap_matrix",
    "state_overlaps",
    "overlap_curve",
    "mixture_block_overlap",
    "infinite_time_average",
    "diagonal_ensemble_expectation",
    "gap_coefficients",
    "gap_phase_matrix",
    "PhaseForms",
    "dephased_power",
    "gauss_legendre",
    "gauss_phase_error",
    "kernel_nodes",
    "GaussRule",
    "gauss_rule",
    "phase_matrix_norm",
    "window_factor",
    "phase_norm_cells",
    "expectation_curve_variance",
    "expectation_curve_variance_infinite",
    "expectation_curve_variance_quadrature",
    "mixture_curve_deviation",
    "mixture_curve_deviation_quadrature",
    "equilibration_bounds",
    "concentration_tail_bound",
]

#: Concentration constant of the tail bound, 1 / (288 pi^2).
CONCENTRATION_CONSTANT = 1.0 / (288.0 * math.pi**2)

#: Point count of the Simpson time-grid oracle (odd, as Simpson's rule needs).
QUADRATURE_POINTS = 10001

#: Bytes of the products that ``block_overlap_matrix`` holds at once: a
#: run of states times a band of eigenspaces of one multiplicity, small
#: enough to stay in a core's cache.
OVERLAP_RUN_BYTES = 2**20

#: Largest error the kernel route may add to the phase-matrix norm.  The
#: norm is at least 1 (R has a unit diagonal), so this is below one
#: rounding unit of it.
PHASE_NORM_ERROR = 1e-16


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


def eigenbasis_observable(spec: SpectralDecomposition, B) -> np.ndarray:
    """Bt = V* B V over the columns V of ``spec.basis_matrix``, for a finite square B of dimension ``spec.dim``."""
    return change_basis(B, spec.basis_matrix, "observable")


def expectation_curve(spec: SpectralDecomposition, psi0, B, times) -> np.ndarray:
    """<psi_t|B|psi_t> on a grid of times (complex for non-Hermitian B)."""
    psi = _check_state(psi0, spec.dim)
    Bt = eigenbasis_observable(spec, B)
    ts = np.asarray(times, dtype=float).ravel()
    if ts.size == 0:
        raise ValueError("empty time grid")
    c = spec.basis_matrix.conj().T @ psi
    phases = np.exp(-1j * np.outer(ts, spec.column_values))
    return quadratic_forms(phases * c, Bt)


def _block_sums(M: np.ndarray, starts: np.ndarray) -> np.ndarray:
    rows = np.add.reduceat(M, starts, axis=0)
    return np.add.reduceat(rows, starts, axis=1)


def state_amplitudes(spec: SpectralDecomposition, psi0) -> np.ndarray:
    """y = V* psi0 over the columns of ``spec.basis_matrix``, shape (..., columns).

    ``psi0`` is one state or a stack of states (n, dim).  Each state takes
    one matrix-vector product of its own, so a stack rounds like single
    calls.
    """
    psi = _check_state(psi0, spec.dim, stack=True)
    return (spec.basis_adjoint @ psi[..., None])[..., 0]


def _bands(multiplicities: np.ndarray, run: int, columns: int) -> list:
    """(first, stop, multiplicity): runs of consecutive eigenspaces of one multiplicity.

    A band's products for ``run`` states, (multiplicity, run, band,
    columns) complex entries, fit in ``OVERLAP_RUN_BYTES``, unless one
    eigenspace alone does not.
    """
    bands, i, d = [], 0, multiplicities.size
    while i < d:
        mult = int(multiplicities[i])
        width = max(1, OVERLAP_RUN_BYTES // (16 * run * mult * columns))
        stop = i + 1
        while stop < min(d, i + width) and multiplicities[stop] == mult:
            stop += 1
        bands.append((i, stop, mult))
        i = stop
    return bands


def _pairwise_sum(x: np.ndarray) -> np.ndarray:
    """x[0] + x[1] + ... over the first axis, in numpy's pairwise order, taken in place in ``x``.

    Summing k complex terms, numpy adds fewer than 4 in order; up to 64 in
    4 interleaved accumulators, combined as (r0 + r1) + (r2 + r3), and then
    the ones left over in order; above 64 the sums of the first
    4 floor(k / 8) terms and of the others.  Each add here takes one whole
    slab x[i], so every entry of a slab is summed as ``np.add.reduce``
    sums it.
    """
    k = len(x)
    if k > 64:
        head = 4 * (k // 8)
        total = _pairwise_sum(x[:head])
        total += _pairwise_sum(x[head:])
        return total
    total, left = x[0], range(1, k)
    if k >= 4:
        full = k - k % 4
        for i in range(4, full, 4):
            x[:4] += x[i : i + 4]
        total += x[1]
        x[2] += x[3]
        total += x[2]
        left = range(full, k)
    for i in left:
        total += x[i]
    return total


def block_overlap_matrix(spec: SpectralDecomposition, psi0, Bt, amplitudes=None) -> np.ndarray:
    """Matrix S with S[i, j] = <psi0| P_i B P_j |psi0> over the eigenprojectors of ``spec``, from ``Bt`` = V* B V.

    ``psi0`` is one state, or a stack of states (n, dim) that gives one
    matrix per state, shape (n, d, d).  ``amplitudes``, when given, is
    ``state_amplitudes(spec, psi0)``, which a caller that reads it too
    computes once; S is then built from it alone.  On a contributing set
    S is the contributing submatrix of the full spectrum's S.  With simple
    levels each entry is one product (conj(y_a) Bt_ab) y_b, taken over the
    whole stack at once.  Otherwise a stack is taken in runs of states,
    and each run in bands of consecutive eigenspaces of one multiplicity
    whose products fit in about ``OVERLAP_RUN_BYTES``, in one buffer
    reused by every run and band.  The products are laid out one slab per
    row of an eigenspace, and an eigenspace's rows are summed slab by slab
    in the order ``np.add.reduceat`` sums them: the first row plus the
    pairwise sum of the others (``_pairwise_sum``); then each eigenspace's
    columns by ``np.add.reduceat`` along the rows.  Each entry is the same
    products, summed in the same order, as for a single state, so a stack
    gives every state's S bit for bit.
    """
    y = state_amplitudes(spec, psi0) if amplitudes is None else amplitudes
    if spec.n_distinct == 0:  # a contributing set of an observable that couples to nothing
        return np.zeros(y.shape[:-1] + (0, 0), dtype=complex)
    states = y.reshape(-1, y.shape[-1])  # a single state as a stack of one
    conj = np.conj(states)
    (n, m), d, mult = states.shape, spec.n_distinct, int(spec.multiplicities.max())
    if mult == 1:
        # a sum of one product is that product, as the runs' reductions below leave it
        S = conj[:, :, None] * Bt
        S *= states[:, None, :]
        return S.reshape(y.shape[:-1] + (d, d))
    run = max(1, min(n, OVERLAP_RUN_BYTES // (16 * mult * m)))
    bands = _bands(spec.multiplicities, run, m)
    products = np.empty(max(run * (stop - i) * k * m for i, stop, k in bands), dtype=complex)
    rows = np.empty((run, d, m), dtype=complex)
    S = np.empty((n, d, d), dtype=complex)
    for lo in range(0, n, run):
        hi = min(lo + run, n)
        for i, stop, k in bands:
            width, a = stop - i, spec.block_starts[i]
            b = a + width * k
            # block[r, s, e] is row r of eigenspace i + e for state lo + s
            block = products[: k * (hi - lo) * width * m].reshape(k, hi - lo, width, m)
            np.multiply(conj[lo:hi, a:b].reshape(hi - lo, width, k).transpose(2, 0, 1)[..., None],
                        Bt[a:b].reshape(width, k, m).transpose(1, 0, 2)[:, None], out=block)
            block *= states[lo:hi, None, :]
            if k == 1:
                rows[: hi - lo, i:stop] = block[0]
            else:
                np.add(block[0], _pairwise_sum(block[1:]), out=rows[: hi - lo, i:stop])
        np.add.reduceat(rows[: hi - lo], spec.block_starts, axis=-1, out=S[lo:hi])
    return S.reshape(y.shape[:-1] + (d, d))


def state_overlaps(spec: SpectralDecomposition, psis, Bt) -> tuple[np.ndarray, np.ndarray]:
    """(``state_amplitudes``, ``block_overlap_matrix``) of a stack of states, with V* psi taken once for both.

    A chunk of the state ensemble reads the amplitudes again in its phase
    forms (``PhaseForms.states``).
    """
    y = state_amplitudes(spec, psis)
    return y, block_overlap_matrix(spec, psis, Bt, amplitudes=y)


def overlap_curve(values, S, times) -> np.ndarray:
    """Expectation curve from block overlaps, f(t) = tr S + a(t)^T S_off conj(a(t)).

    Here a_i(t) = exp(i e_i t) over the eigenvalues ``values`` that index S
    and S_off is S without its diagonal.  For the block overlap matrix of a
    state, on the full spectrum or on the contributing set, this is
    <psi_t|B|psi_t>, at d exponentials per time instead of
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


def mixture_block_overlap(spec: SpectralDecomposition, rho, Bt) -> np.ndarray:
    """Matrix W with W[i, j] = tr(P_i B P_j rho) over the eigenprojectors of ``spec``, from ``Bt`` = V* B V."""
    rt = change_basis(rho.matrix() if hasattr(rho, "matrix") else rho, spec.basis_matrix, "density matrix")
    return _block_sums(Bt * rt.T, spec.block_starts)


def mixture_curve(values, W, times) -> np.ndarray:
    """tr(B(t) rho) on a grid of times from the mixture overlap ``W`` over the eigenvalues ``values``."""
    ts = np.asarray(times, dtype=float).ravel()
    if ts.size == 0:
        raise ValueError("empty time grid")
    phases = np.exp(1j * np.outer(ts, values))
    return quadratic_forms(phases.conj(), W)


def mixture_expectation_curve(spec: SpectralDecomposition, rho, B, times) -> np.ndarray:
    """tr(B(t) rho) on a grid of times, with B(t) the Heisenberg-evolved observable."""
    return mixture_curve(spec.values, mixture_block_overlap(spec, rho, eigenbasis_observable(spec, B)), times)


def infinite_time_average(spec: SpectralDecomposition, psi0, B) -> complex:
    """Long-run time average of <psi_t|B|psi_t>: the dephased diagonal sum."""
    S = block_overlap_matrix(spec, psi0, eigenbasis_observable(spec, B))
    return complex(np.trace(S))


def diagonal_ensemble_expectation(spec: SpectralDecomposition, rho, B) -> complex:
    """Dephased expectation sum_e tr(P_e B P_e rho).

    Eigenvalues outside the contributing set add exactly zero, so the sum
    over all blocks equals the sum over contributing blocks.
    """
    W = mixture_block_overlap(spec, rho, eigenbasis_observable(spec, B))
    return complex(np.trace(W))


def gap_coefficients(S: np.ndarray, gaps: GapIndex) -> np.ndarray:
    """Phase-form coefficients S[..., i, j] of overlap matrices over the gap pairs (i, j) of ``gaps``.

    S has shape (..., d, d) over the d eigenvalues that ``gaps`` indexes
    (for a contributing set ``cs``, S built on ``cs`` and ``gaps = cs.gaps``).
    The result has shape (..., gaps.count), in the row-major order of ``gaps.values``.
    """
    d = gaps.eigenvalues.size
    return S[..., ~np.eye(d, dtype=bool)]


def gap_phase_matrix(gap_values, horizon: float) -> np.ndarray:
    """Phase-average matrix R_ab = <exp(i (G_a - G_b) t)> over [0, horizon].

    Uses the closed form exp(i D T / 2) sinc(D T / (2 pi)), which is exactly
    1 on the diagonal and Hermitian with all entries of modulus at most 1.
    It is built in place, with the roundings of
    ``exp(0.5j * D * T) * sinc(D * T / (2 pi))``.
    """
    G = np.asarray(gap_values, dtype=float).ravel()
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    delta = G[:, None] - G[None, :]
    R = np.multiply(delta, 0.5j)
    R *= horizon
    np.exp(R, out=R)
    delta *= horizon
    delta /= 2.0 * np.pi
    # sinc(x) = sin(pi x) / (pi x), as np.sinc computes it, without its temporaries
    delta *= np.pi
    delta[delta == 0] = np.finfo(float).eps
    s = np.sin(delta)
    s /= delta
    R *= s
    return R


def _centred(values: np.ndarray) -> np.ndarray:
    """The eigenvalues less their midpoint: the curves turn by a global phase only, and the phases stay small."""
    return values - 0.5 * (values.max() + values.min())


def _route(horizon: float, route: str, pairs: int, rule=None) -> dict:
    """Route record ``{horizon, route, nodes, pairs, error}``: the nodes and eps P of ``rule``, None and 0 if dense."""
    nodes, error = (None, 0.0) if rule is None else (rule.nodes, rule.error)
    return {"horizon": horizon, "route": route, "nodes": nodes, "pairs": pairs, "error": error}


class PhaseForms:
    """The phase forms c^H R c of one horizon over a contributing set ``cs``, on the cheaper of two routes.

    Built once per horizon from ``cs``, ``Bt = eigenbasis_observable(cs, B)``,
    the horizon and its ``gauss_rule`` (or None).  The rule route is taken
    where the rule's n nodes cost less per state than the dense form,
    n m^2 < P^2 (an (n x m) by (m x m) product against c^H R c over the P
    pairs); otherwise the dense route holds R.  ``record`` is the route
    record; a rule form misses the exact one by at most its error eps P
    times |S_off|_F^2.  ``state_width`` is the complex entries per
    state that ``states`` holds at once: the coefficients and their
    conjugates (2 P) on the dense route, and on the rule route the node
    amplitudes z, their conjugates and the products with V* B V
    (3 n m).  Each form is summed on its own in a fixed order, so a
    state's form does not depend on the states evaluated with it.
    """

    def __init__(self, cs: SpectralDecomposition, Bt, horizon: float, rule):
        self.cs = cs
        pairs, columns = cs.gaps.count, cs.basis_matrix.shape[1]
        self.rule = rule if rule is not None and rule.nodes * columns**2 < pairs**2 else None
        if self.rule is None:
            self.R = gap_phase_matrix(cs.gaps.values, horizon)
            self.state_width = 2 * pairs
            self.record = _route(horizon, "dense", pairs)
            return
        self.Bt = Bt
        self.centred = _centred(cs.values)
        # exp(-i E t_k) of every node and column, the same for every state
        self.phases = np.exp(-1j * np.outer(rule.times, np.repeat(self.centred, cs.multiplicities)))
        self.state_width = 3 * self.phases.size
        self.record = _route(horizon, "rule", pairs, rule)

    def states(self, amplitudes, S) -> np.ndarray:
        """Forms of the states with ``amplitudes`` V* psi (n, m) and overlap matrices ``S`` (n, d, d) on ``cs``.

        ``amplitudes``, ``state_amplitudes(cs, psis)``, only the rule route
        reads; it sums weights_k |z_k^H (V* B V) z_k - tr S|^2 over the nodes,
        z_k = exp(-i E t_k) V* psi (see the module docstring).
        """
        if self.rule is None:
            c = gap_coefficients(S, self.cs.gaps)
            if len(c) == 1:
                # a stack's coefficients come F-ordered, and einsum sums in the order of the strides: a lone
                # row goes first in an F-ordered pair, so that it gets the bits it has in any stack
                pair = np.zeros((2, c.shape[1]), dtype=complex, order="F")
                pair[0] = c[0]
                return self._dense(pair)[:1]
            return self._dense(c)
        z = self.phases * amplitudes[:, None, :]
        g = ((z.conj() @ self.Bt) * z).sum(-1) - np.trace(S, axis1=1, axis2=2)[:, None]
        return ((g.real**2 + g.imag**2) * self.rule.weights).sum(-1)

    def _dense(self, c: np.ndarray) -> np.ndarray:
        """c^H R c of each row of ``c``, as the forms of the rows' conjugates, whose conjugate is c again, bit for bit."""
        return np.maximum(quadratic_forms(c.conj(), self.R).real, 0.0)

    def mixture(self, W) -> float:
        """Form of the mixture's overlap matrix ``W`` on ``cs``: the average of |tr(B(t) rho) - tr W|^2."""
        if self.rule is None:
            return float(self._dense(gap_coefficients(W[None], self.cs.gaps))[0])
        deviation = overlap_curve(self.centred, W, self.rule.times) - complex(np.trace(W))
        return float(((deviation.real**2 + deviation.imag**2) * self.rule.weights).sum())


def dephased_power(gaps: GapIndex, S: np.ndarray) -> np.ndarray:
    """Infinite-horizon forms of overlap matrices ``S`` (n, d, d): each gap cluster's coefficients summed, squared.

    The coefficients are gathered in cluster order, at the flat positions
    ``gaps.positions`` of each S, so a state holds its P coefficients once,
    then its cluster sums, whose power ``linalg.row_powers`` takes the same
    way for a lone state as in a stack.
    """
    if gaps.count == 0:
        return np.zeros(S.shape[0])
    d = gaps.eigenvalues.size
    return row_powers(np.add.reduceat(S.reshape(len(S), d * d)[:, gaps.positions], gaps.starts, axis=1))


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and its derivative P_n'(x), from the three-term recurrence (x inside (-1, 1))."""
    p0, p1 = np.ones_like(x), x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, n * (x * p1 - p0) / (x * x - 1)


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1], nodes descending.

    Newton's method from Tricomi's estimate of the roots of P_n, run in
    extended precision on the nonnegative half and mirrored, keeps every
    weight to a rounding unit, also the small ones at the ends of the
    interval that the eigenvalue method of ``numpy``'s ``leggauss`` loses
    digits in.
    """
    k = np.arange(1, (n + 1) // 2 + 1, dtype=np.longdouble)
    x = (1 - 1 / (8 * n**2) + 1 / (8 * n**3)) * np.cos(np.pi * (k - 0.25) / (n + 0.5))
    tol = 4 * np.finfo(np.longdouble).eps
    for _ in range(10):
        p, dp = _legendre(n, x)
        step = p / dp
        x -= step
        if np.abs(step).max() <= tol:
            break
    p, dp = _legendre(n, x)
    w = 2 / ((1 - x * x) * dp * dp)
    mirror = slice(n % 2, None)  # an odd rule's middle node, 0, is not mirrored
    return (
        np.concatenate((x, -x[::-1][mirror])).astype(float),
        np.concatenate((w, w[::-1][mirror])).astype(float),
    )


def gauss_phase_error(n: int, omega: float) -> float:
    """Bound on the error of the n-node Gauss-Legendre average of exp(i w t) over [0, T], for |w| T <= 2 omega.

    The Bernstein-ellipse bound of Gauss quadrature (Trefethen,
    *Approximation Theory and Approximation Practice*, Thm 19.3, whose
    n + 1 points give rho^(-2n)), halved for an average:
    (32/15) exp(omega (rho - 1/rho) / 2) rho^(-2 (n - 1)) / (rho^2 - 1),
    at the rho > 1 that minimizes it.  Every rho gives a valid bound; in
    s = log rho the exponent is convex, and bisection on its derivative
    finds the minimum.
    """
    # in s the log of the bound is log(32/15) + omega sinh(s) - 2 n s - log(1 - exp(-2 s)), finite for s > 0;
    # its derivative omega cosh(s) - 2 (n - 1) - 2 / (1 - exp(-2 s)) is positive at cosh(s) >= (2n + 2) / omega
    # with s >= 1, and cosh stays finite below s = 690
    hi = min(math.acosh(max((2 * n + 2) / omega, math.cosh(1.0))) if omega > 0 else math.inf, 690.0)
    lo = 0.0
    for _ in range(60):
        s = 0.5 * (lo + hi)
        if omega * math.cosh(s) - 2 * (n - 1) + 2.0 / math.expm1(-2.0 * s) < 0:
            lo = s
        else:
            hi = s
    return math.exp(math.log(32.0 / 15.0) + omega * math.sinh(hi) - 2 * n * hi - math.log(-math.expm1(-2.0 * hi)))


def kernel_nodes(omega: float, pairs: int) -> int | None:
    """Fewest Gauss nodes n < ``pairs`` with ``gauss_phase_error(n, omega) * pairs <= PHASE_NORM_ERROR``, else None.

    ``omega`` is the diameter of the eigenvalues times the horizon.  At
    n <= omega / 2 the bound exceeds 32/15, so the search starts at
    ceil(omega / 2); the bound falls as n grows, so it bisects.
    """
    target = PHASE_NORM_ERROR / pairs
    lo = max(1, math.ceil(omega / 2)) if omega < 2 * pairs else pairs
    if lo >= pairs or gauss_phase_error(pairs - 1, omega) > target:
        return None
    hi = pairs - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if gauss_phase_error(mid, omega) <= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


#: A Gauss-Legendre rule of the phase averages on [0, T]: node times, weights, node count n and error eps P.
GaussRule = NamedTuple("GaussRule", [("times", np.ndarray), ("weights", np.ndarray), ("nodes", int), ("error", float)])


def gauss_rule(gaps: GapIndex, horizon: float) -> GaussRule | None:
    """The Gauss-Legendre rule of the phase averages over ``gaps`` on [0, horizon], or None.

    Returns (times, weights, n, error): the n nodes t_k = (T/2)(1 + x_k)
    and weights w_k / 2 of ``kernel_nodes(diameter T, P)`` nodes, so that
    sum_k weights_k g(t_k) averages g over [0, T], and error = eps P, the
    bound of ``gauss_phase_error`` times the pair count.  Every entry of R
    is the average of one exp(i (G_a - G_b) t) with |G_a - G_b| T at most
    twice the diameter times T, so the rule's R_q misses R by at most eps
    in each entry, and a form c^H R_q c misses c^H R c by at most
    eps (sum |c_a|)^2 <= eps P |c|^2.  None where the rule would need P
    nodes or more, or where there is no pair.
    """
    e, pairs = gaps.eigenvalues, gaps.count
    if pairs == 0:
        return None
    omega = float(e.max() - e.min()) * horizon
    n = kernel_nodes(omega, pairs)
    if n is None:
        return None
    x, w = gauss_legendre(n)
    return GaussRule(0.5 * horizon * (1.0 + x), 0.5 * w, n, gauss_phase_error(n, omega) * pairs)


def phase_matrix_norm(gaps: GapIndex, horizon: float, rule) -> tuple[float, dict]:
    """Operator norm of the phase-average matrix R over ``gaps``, with the record of its route.

    R is Hermitian PSD, so its norm is its largest eigenvalue.  The kernel
    route (see the module docstring) returns lambda_max(W^(1/2) K W^(1/2))
    on the nodes of ``rule``, the ``gauss_rule`` of ``gaps`` at ``horizon``,
    plus its error bound eps P, never less than |R|, since
    |c^H (R_q - R) c| <= eps P |c|^2.  Where the rule is None (no n below
    P) it takes the dense route, ``eigvalsh`` of R itself.  The route
    record's ``error`` is the eps P that was added.
    """
    if rule is None:
        norm = float(np.linalg.eigvalsh(gap_phase_matrix(gaps.values, horizon))[-1])
        return norm, _route(horizon, "dense", gaps.count)
    # centred eigenvalues leave |S_jk| as it is
    E = np.exp(1j * np.outer(rule.times, _centred(gaps.eigenvalues)))
    S = E @ E.conj().T
    K = S.real**2 + S.imag**2 - gaps.eigenvalues.size
    r = np.sqrt(rule.weights)
    norm = float(np.linalg.eigvalsh(r[:, None] * K * r)[-1]) + rule.error
    return norm, _route(horizon, "kernel", gaps.count, rule)


def window_factor(d: int, kappa: float, horizon: float) -> float:
    """1 + 8 log2(d) / (kappa T): the window bound over d eigenvalues is G(kappa) times this."""
    if not kappa * horizon > 0.0:
        raise ValueError(f"kappa * horizon must be positive, got kappa={kappa!r} and horizon={horizon!r}")
    return 1.0 + 8.0 * math.log2(max(d, 1)) / (kappa * horizon)


def phase_norm_cells(gaps: GapIndex, counts: dict, kappas, horizons, rules) -> tuple[list, list]:
    """Phase-matrix norm (one per horizon) and its window bound on every (kappa, T) cell.

    ``rules`` holds the ``gauss_rule`` of each horizon.  The bound is
    G(kappa) (1 + 8 log2(d) / (kappa T)) over the d eigenvalues of
    ``gaps``, with G(kappa) read from ``counts``, their ``spectral_counts``
    (each kappa among its widths).  Also returns the route record of each
    horizon's norm.
    """
    d = gaps.eigenvalues.size
    cells, routes = [], []
    for T, rule in zip(horizons, rules):
        norm, route = phase_matrix_norm(gaps, T, rule)
        routes.append(route)
        for kappa in kappas:
            bound = counts["window_counts"][str(kappa)] * window_factor(d, kappa, T)
            cells.append({"horizon": T, "kappa": kappa, "norm": norm, "bound": bound})
    return cells, routes


def expectation_curve_variance(spec: SpectralDecomposition, psi0, B, horizon: float) -> float:
    """Exact <|<psi_t|B|psi_t> - (long-run average)|^2> over [0, horizon].

    Evaluated as the phase quadratic form over contributing gap pairs;
    no time discretization is involved.
    """
    cs = contributing_set(spec, B)
    Bt = eigenbasis_observable(cs, B)
    return float(PhaseForms(cs, Bt, horizon, None).states(None, block_overlap_matrix(cs, psi0, Bt)[None])[0])


def expectation_curve_variance_infinite(spec: SpectralDecomposition, psi0, B) -> float:
    """Infinite-horizon limit of :func:`expectation_curve_variance` by dephasing.

    Gaps are clustered as for the gap degeneracy of the contributing
    eigenvalues, relative to their diameter.
    """
    cs = contributing_set(spec, B)
    return float(dephased_power(cs.gaps, block_overlap_matrix(cs, psi0, eigenbasis_observable(cs, B))[None])[0])


def _simpson_deviation(curve, center: complex, horizon: float) -> float:
    """Composite Simpson average of |curve(t) - center|^2 over [0, horizon] on ``QUADRATURE_POINTS`` points.

    ``curve`` maps a time grid to the curve's values on it.
    """
    from scipy.integrate import simpson  # the oracle alone needs it; no run path pays its import

    if horizon <= 0:
        raise ValueError("horizon must be positive")
    times = np.linspace(0.0, horizon, QUADRATURE_POINTS)
    vals = np.abs(curve(times) - center) ** 2
    return float(simpson(vals, x=times) / horizon)


def expectation_curve_variance_quadrature(spec: SpectralDecomposition, psi0, B, horizon: float) -> float:
    """Time-grid oracle for :func:`expectation_curve_variance` (composite Simpson)."""
    center = infinite_time_average(spec, psi0, B)
    return _simpson_deviation(lambda ts: expectation_curve(spec, psi0, B, ts), center, horizon)


def mixture_curve_deviation(spec: SpectralDecomposition, rho, B, horizon: float) -> float:
    """Exact <|tr(B(t) rho) - dephased expectation|^2> over [0, horizon].

    B(t) is the Heisenberg-evolved observable; the deviation is again a
    phase quadratic form, now with mixture overlap coefficients.
    """
    cs = contributing_set(spec, B)
    Bt = eigenbasis_observable(cs, B)
    return PhaseForms(cs, Bt, horizon, None).mixture(mixture_block_overlap(cs, rho, Bt))


def mixture_curve_deviation_quadrature(spec: SpectralDecomposition, rho, B, horizon: float) -> float:
    """Time-grid oracle for :func:`mixture_curve_deviation`."""
    center = diagonal_ensemble_expectation(spec, rho, B)
    return _simpson_deviation(lambda ts: mixture_expectation_curve(spec, rho, B, ts), center, horizon)


def _finite_real(v) -> bool:
    """True for a finite int or float (numpy ones included), False for bools."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


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

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not _finite_real(v):
                raise ValueError(f"{f.name} must be a finite real number, got {v!r}")
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

    @classmethod
    def from_counts(cls, counts: dict, norm_b, norm_rho, epsilon, delta, kappa, horizon) -> "BoundInputs":
        """Inputs from the ``spectral_counts`` of the contributing set (``kappa`` among its widths) and the norms."""
        return cls(
            epsilon=epsilon,
            delta=delta,
            kappa=kappa,
            horizon=horizon,
            norm_b=norm_b,
            norm_rho=norm_rho,
            n_contributing=counts["n_distinct"],
            max_degeneracy=counts["max_degeneracy"],
            max_gap_degeneracy=counts["max_gap_degeneracy"],
            gap_window_count=counts["window_counts"][str(kappa)],
        )

    @property
    def window_factor(self) -> float:
        """1 + 8 log2(d) / (kappa T) over the contributing count d."""
        return window_factor(self.n_contributing, self.kappa, self.horizon)


@dataclass(frozen=True)
class Bounds:
    """Every equilibration bound of one (kappa, T) cell.

    ``finite_time`` is the smaller of its Markov and concentration
    branches.  The four second-moment bounds (prefactors 24, 1, 23, 24)
    are, in order: the ensemble mean of the finite-horizon curve variance,
    the mixture curve deviation, the ensemble variance of the long-run
    average, and the ensemble mean of the dephased (infinite-horizon)
    variance.
    """

    markov: float
    concentration: float
    finite_time: float
    infinite_time: float
    expected_time_variance: float
    mixture_curve_deviation: float
    time_average_variance: float
    expected_dephasing_variance: float


def equilibration_bounds(inputs: BoundInputs) -> Bounds:
    """The bound record of the cell of ``inputs``; raises ValueError if a bound is not finite."""
    i = inputs
    eps_delta = i.epsilon * i.delta
    try:
        core = i.norm_b**2 * i.norm_rho
        base = core * i.max_degeneracy * i.gap_window_count * i.window_factor
        markov = math.sqrt(188.0 / eps_delta * base)
        concentration = math.sqrt(25.0 * math.log(24.0 / eps_delta) / (i.delta * CONCENTRATION_CONSTANT) * base)
        bounds = Bounds(
            markov=markov,
            concentration=concentration,
            finite_time=min(markov, concentration),
            infinite_time=math.sqrt(
                188.0 / eps_delta * i.norm_b**2 * i.norm_rho * i.max_degeneracy * i.max_gap_degeneracy
            ),
            expected_time_variance=24.0 * base,
            mixture_curve_deviation=base,
            time_average_variance=23.0 * i.norm_b**2 * i.norm_rho,
            expected_dephasing_variance=24.0 * core * i.max_degeneracy * i.max_gap_degeneracy,
        )
        finite = all(math.isfinite(v) for v in astuple(bounds))
    except (OverflowError, ZeroDivisionError):
        finite = False
    if not finite:
        raise ValueError(
            f"a bound is not finite at kappa={i.kappa!r}, horizon={i.horizon!r}, norm_b={i.norm_b!r}, "
            f"epsilon={i.epsilon!r}, delta={i.delta!r}"
        )
    return bounds


def concentration_tail_bound(
    deviation: float,
    lipschitz: float,
    norm_rho: float,
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
    try:
        return 12.0 * math.exp(-CONCENTRATION_CONSTANT * deviation**2 / (2.0 * lipschitz**2 * norm_rho))
    except (OverflowError, ZeroDivisionError):
        # dev^2 overflows, or L^2 |rho| underflows to 0: the exponent tends to -inf, the bound to 0
        return 0.0 if deviation > 0 else 12.0
