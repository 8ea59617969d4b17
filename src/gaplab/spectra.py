"""Spectral decompositions and degeneracy / gap statistics.

A Hamiltonian with pure point spectrum is held as its distinct eigenvalues
together with orthonormal column blocks spanning the eigenspaces.  The
statistics computed here count eigenvalue degeneracies, gap degeneracies,
and the maximal number of ordered-pair gaps inside a sliding half-open
window, both for the full spectrum and relative to the set of eigenvalues
that actually couple to a given observable.

Every gap statistic, here and in ``dynamics``, reads one :class:`GapIndex`
per set of eigenvalues; a spectral decomposition and a contributing set
keep theirs, at the default tolerance, as the cached member ``gaps``.

Tolerance convention: realized gap values are clustered by transitive
chaining within ``gap_tol`` (two gaps are equal iff they land in the same
cluster), by default ``GAP_TOL_RELATIVE`` times the diameter of the
eigenvalues the index is built on.  Both the maximal gap degeneracy and
the window counts are computed on the clustered multiset, so the window
count converges to the gap degeneracy as the window shrinks and is
monotone in the window width.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import as_complex_matrix

__all__ = [
    "GapIndex",
    "SpectralDecomposition",
    "SpectralStats",
    "ContributingSet",
    "group_eigenvalues",
    "spectral_stats",
    "gap_count",
    "contributing_set",
    "gap_tolerance",
]

#: Default gap-equality tolerance, relative to the spectral diameter.
GAP_TOL_RELATIVE = 1e-9

#: Default relative Frobenius threshold below which a block does not couple.
ZERO_TOL = 1e-12


@dataclass
class SpectralDecomposition:
    """Distinct eigenvalues (strictly ascending) with orthonormal eigenspace blocks.

    ``blocks[i]`` has shape (dim, multiplicity_i); its columns span the
    eigenspace of ``values[i]``.  The blocks are mutually orthogonal and
    together resolve the identity.
    """

    values: np.ndarray
    blocks: list

    @property
    def dim(self) -> int:
        return self.blocks[0].shape[0]

    @property
    def n_distinct(self) -> int:
        return len(self.values)

    @cached_property
    def multiplicities(self) -> np.ndarray:
        return np.array([b.shape[1] for b in self.blocks], dtype=int)

    @cached_property
    def basis_matrix(self) -> np.ndarray:
        """All eigenvector columns side by side, in block order."""
        return np.hstack(self.blocks)

    @cached_property
    def block_starts(self) -> np.ndarray:
        """Column offset of each block inside ``basis_matrix``."""
        return np.concatenate(([0], np.cumsum(self.multiplicities)[:-1]))

    @cached_property
    def column_values(self) -> np.ndarray:
        """Eigenvalue of each column of ``basis_matrix``."""
        return np.repeat(self.values, self.multiplicities)

    def projector(self, i: int) -> np.ndarray:
        b = self.blocks[i]
        return b @ b.conj().T

    @property
    def diameter(self) -> float:
        if self.n_distinct < 2:
            return 0.0
        return float(self.values[-1] - self.values[0])

    @cached_property
    def gaps(self) -> GapIndex:
        """Gap index of the distinct eigenvalues at the default tolerance."""
        return GapIndex(self.values)


@dataclass
class SpectralStats:
    """Counting statistics of a spectrum.

    n_distinct: number of distinct eigenvalues.
    max_degeneracy: largest eigenspace dimension.
    max_gap_degeneracy: largest number of ordered eigenvalue pairs sharing
    one gap value.
    """

    n_distinct: int
    max_degeneracy: int
    max_gap_degeneracy: int


def group_eigenvalues(raw_eigenvalues, eigenvectors, group_tol: float) -> SpectralDecomposition:
    """Merge numerically repeated eigenvalues into eigenspace blocks.

    Values are sorted and merged by transitive chaining: consecutive sorted
    values closer than ``group_tol`` land in one group.  Each group is
    represented by its mean, and the group's eigenvector columns are
    re-orthonormalized by QR.
    """
    raw = np.asarray(raw_eigenvalues, dtype=float).ravel()
    if raw.size == 0:
        raise ValueError("empty eigenvalue list")
    if not np.all(np.isfinite(raw)):
        raise ValueError("eigenvalues contain NaN or Inf")
    if group_tol <= 0:
        raise ValueError("group_tol must be positive")
    V = as_complex_matrix(eigenvectors, name="eigenvectors")
    if V.shape[1] != raw.size:
        raise ValueError(
            f"eigenvector count {V.shape[1]} does not match eigenvalue count {raw.size}"
        )

    order = np.argsort(raw, kind="stable")
    vals = raw[order]
    vecs = V[:, order]

    breaks = np.nonzero(np.diff(vals) > group_tol)[0] + 1
    starts = np.concatenate(([0], breaks))
    ends = np.concatenate((breaks, [vals.size]))

    reps = np.empty(starts.size, dtype=float)
    blocks = []
    for g, (a, b) in enumerate(zip(starts, ends)):
        reps[g] = vals[a:b].mean()
        Q, _ = np.linalg.qr(vecs[:, a:b])
        blocks.append(Q)
    return SpectralDecomposition(values=reps, blocks=blocks)


def gap_tolerance(values: np.ndarray, gap_tol=None) -> float:
    """Gap-equality tolerance: ``gap_tol`` if given, else relative to the diameter of ``values``."""
    if gap_tol is not None:
        if gap_tol < 0:
            raise ValueError("gap_tol must be nonnegative")
        return float(gap_tol)
    if values.size < 2:
        return 0.0
    return GAP_TOL_RELATIVE * float(values.max() - values.min())


class GapIndex:
    """Ordered pairs of distinct eigenvalues, their gaps, and the gap clusters.

    ``pairs`` holds every ordered pair (i, j), i != j, of positions in
    ``eigenvalues`` in row-major order and ``values`` their gaps e_i - e_j.
    ``order`` is the stable sort order of the gaps.  Sorted gaps closer than
    ``tol`` chain into one cluster; cluster k starts at position
    ``starts[k]`` of the sorted gaps and holds ``counts[k]`` of them, with
    mean gap ``representatives[k]``.
    """

    def __init__(self, eigenvalues, gap_tol=None):
        e = np.asarray(eigenvalues, dtype=float).ravel()
        self.eigenvalues = e
        self.tol = gap_tolerance(e, gap_tol)
        mask = ~np.eye(e.size, dtype=bool)
        self.pairs = np.argwhere(mask)
        self.values = (e[:, None] - e[None, :])[mask]
        self.order = np.argsort(self.values, kind="stable")
        ordered = self.values[self.order]
        self.starts = np.flatnonzero(np.diff(ordered, prepend=-np.inf) > self.tol)
        self.counts = np.diff(self.starts, append=ordered.size)
        self.representatives = np.add.reduceat(ordered, self.starts) / self.counts

    @property
    def count(self) -> int:
        return self.values.size

    @property
    def max_degeneracy(self) -> int:
        """Size of the largest gap cluster (0 without gaps)."""
        return int(self.counts.max(initial=0))

    def window_count(self, kappa: float) -> int:
        """Maximal number of gaps in a half-open window of width kappa.

        Windows are anchored at the cluster representatives; the window
        [a, a + kappa) includes its left edge only.
        """
        if kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.count == 0:
            return 0
        cum = np.concatenate(([0], np.cumsum(self.counts)))
        hi = np.searchsorted(self.representatives, self.representatives + kappa, side="left")
        return int((cum[hi] - cum[:-1]).max())

    def with_tolerance(self, gap_tol) -> GapIndex:
        """This index for ``gap_tol`` None, else the same eigenvalues indexed at ``gap_tol``."""
        return self if gap_tol is None else GapIndex(self.eigenvalues, gap_tol)


def spectral_stats(spec: SpectralDecomposition, gap_tol=None) -> SpectralStats:
    """Degeneracy and gap-degeneracy counts for a spectral decomposition."""
    return SpectralStats(
        n_distinct=spec.n_distinct,
        max_degeneracy=int(spec.multiplicities.max()),
        max_gap_degeneracy=spec.gaps.with_tolerance(gap_tol).max_degeneracy,
    )


def gap_count(spec: SpectralDecomposition, kappa: float, gap_tol=None) -> int:
    """Maximal number of ordered-pair gaps inside any half-open window of width kappa."""
    return spec.gaps.with_tolerance(gap_tol).window_count(kappa)


@dataclass
class ContributingSet:
    """Eigenvalues whose eigenspaces couple to a given observable.

    An eigenvalue is a member iff its projector hits the observable on
    either side above a relative Frobenius threshold.  The counting
    statistics mirror :class:`SpectralStats` but run over members only.
    """

    indices: np.ndarray
    values: np.ndarray
    multiplicities: np.ndarray
    n_distinct: int
    max_degeneracy: int

    @cached_property
    def gaps(self) -> GapIndex:
        """Gap index of the member eigenvalues at the default tolerance.

        Its pair positions are positions in ``values``; ``indices`` maps
        them to eigenvalues of the spectrum.
        """
        return GapIndex(self.values)

    @property
    def max_gap_degeneracy(self) -> int:
        return self.gaps.max_degeneracy

    def gap_count(self, kappa: float, gap_tol=None) -> int:
        """Window gap count over member eigenvalues only."""
        return self.gaps.with_tolerance(gap_tol).window_count(kappa)


def contributing_set(spec: SpectralDecomposition, B, zero_tol: float = ZERO_TOL) -> ContributingSet:
    """Find the eigenvalues of ``spec`` that couple to observable ``B``.

    Membership: ``|P_e B|_F > zero_tol * |B|_F`` or ``|B P_e|_F > zero_tol * |B|_F``.
    Since the blocks have orthonormal columns, ``|P_e B|_F = |U_e* B|_F`` and
    ``|B P_e|_F = |B U_e|_F``.
    """
    B = as_complex_matrix(B, name="observable", square=True)
    if B.shape[0] != spec.dim:
        raise ValueError(f"observable dimension {B.shape[0]} does not match spectrum dim {spec.dim}")
    if zero_tol < 0:
        raise ValueError("zero_tol must be nonnegative")
    norm_b = np.linalg.norm(B)
    members = []
    if norm_b > 0:
        threshold = zero_tol * norm_b
        for i, U in enumerate(spec.blocks):
            left = np.linalg.norm(U.conj().T @ B)
            right = np.linalg.norm(B @ U)
            if left > threshold or right > threshold:
                members.append(i)
    idx = np.array(members, dtype=int)
    mult = spec.multiplicities[idx]
    return ContributingSet(
        indices=idx,
        values=spec.values[idx],
        multiplicities=mult,
        n_distinct=int(idx.size),
        max_degeneracy=int(mult.max()) if idx.size else 0,
    )
