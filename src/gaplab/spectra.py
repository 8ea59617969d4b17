"""Spectral decompositions, contributing sets and their degeneracy / gap counts.

A Hamiltonian with pure point spectrum is held as its distinct eigenvalues
together with one orthonormal basis, whose column blocks (views into it)
span the eigenspaces.  The contributing set of an observable is that
spectrum restricted to the eigenvalues whose eigenspaces couple to the
observable: a :class:`SpectralDecomposition` in its own right, so every
routine that takes a spectrum also takes it, and no routine translates
positions between the two.  Where every eigenvalue couples, as for a
generic observable, it is the spectrum itself, built on once.

Every count, of a full spectrum or of a contributing set, comes from
:func:`spectral_counts` as one record: distinct eigenvalues, largest
degeneracy, largest gap degeneracy and the window counts.  The gap counts,
here and in ``dynamics``, read one :class:`GapIndex` per set of
eigenvalues; a spectrum keeps its own, at the default tolerance, as the
cached member ``gaps``, which holds each pair once, as its flat position in
a d x d matrix, in gap order, beside the cluster starts: 16 bytes per pair.

Tolerance convention: realized gap values are clustered by transitive
chaining within ``gap_tol`` (two gaps are equal iff they land in the same
cluster), by default ``GAP_TOL_RELATIVE`` times the diameter of the
eigenvalues the index is built on.  ``GapIndex`` is the one place that
takes ``gap_tol``.  Both the maximal gap degeneracy and the window counts
are computed on the clustered multiset, so the window count converges to
the gap degeneracy as the window shrinks and is monotone in the window
width.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import as_complex_matrix

__all__ = [
    "GapIndex",
    "SpectralDecomposition",
    "contributing_set",
    "spectral_counts",
]

#: Default gap-equality tolerance, relative to the spectral diameter.
GAP_TOL_RELATIVE = 1e-9

#: Relative Frobenius threshold below which a block does not couple.
ZERO_TOL = 1e-12


@dataclass
class SpectralDecomposition:
    """Distinct eigenvalues (strictly ascending) with one orthonormal eigenbasis.

    ``basis_matrix`` is C-contiguous, (dim, columns); block i of its
    columns, ``multiplicities[i]`` wide, spans the eigenspace of
    ``values[i]``.  A full spectrum's columns resolve the identity, a
    contributing set's span the members' eigenspaces; ``dim`` holds also
    when there are none.  Levels that are not finite, or whose spread
    overflows, are refused.
    """

    values: np.ndarray
    basis_matrix: np.ndarray
    multiplicities: np.ndarray

    def __post_init__(self):
        # every gap, and every phase built on one, is a difference of the levels
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(self.values).all() and np.isfinite(self.diameter)
        if not finite:
            low, high = float(self.values[0]), float(self.values[-1])
            raise ValueError(f"eigenvalues must be finite and differ by a finite spread, got {low!r} to {high!r}")

    @property
    def dim(self) -> int:
        return self.basis_matrix.shape[0]

    @property
    def n_distinct(self) -> int:
        return len(self.values)

    @cached_property
    def blocks(self) -> list:
        """The eigenspace blocks, ``blocks[i]`` of shape (dim, multiplicities[i]), as views into ``basis_matrix``."""
        return [self.basis_matrix[:, s : s + m] for s, m in zip(self.block_starts, self.multiplicities)]

    @cached_property
    def basis_adjoint(self) -> np.ndarray:
        """V*, the conjugate transpose of ``basis_matrix``, as a transposed view of its conjugate."""
        return self.basis_matrix.conj().T

    @cached_property
    def block_starts(self) -> np.ndarray:
        """Column offset of each block inside ``basis_matrix``."""
        return np.cumsum(self.multiplicities) - self.multiplicities

    @cached_property
    def column_values(self) -> np.ndarray:
        """Eigenvalue of each column of ``basis_matrix``."""
        return np.repeat(self.values, self.multiplicities)

    @property
    def diameter(self) -> float:
        if self.n_distinct < 2:
            return 0.0
        return float(self.values[-1] - self.values[0])

    @cached_property
    def gaps(self) -> GapIndex:
        """Gap index of the distinct eigenvalues at the default tolerance."""
        return GapIndex(self.values)


class GapIndex:
    """Ordered pairs of distinct eigenvalues, their gaps, and the gap clusters.

    A pair (i, j), i != j, of the d ``eigenvalues`` is held once, as its flat
    position i d + j in a d x d matrix; ``positions`` lists the pairs in the
    stable sort order of their gaps e_i - e_j.  Sorted gaps closer than
    ``tol`` chain into one cluster; cluster k starts at sorted gap
    ``starts[k]``.  ``tol`` is ``gap_tol`` if given, else
    ``GAP_TOL_RELATIVE`` times the diameter of the eigenvalues.
    """

    def __init__(self, eigenvalues, gap_tol=None):
        e = np.asarray(eigenvalues, dtype=float).ravel()
        self.eigenvalues = e
        if gap_tol is None:
            self.tol = GAP_TOL_RELATIVE * float(e.max() - e.min()) if e.size > 1 else 0.0
        elif 0 <= gap_tol < np.inf:
            self.tol = float(gap_tol)
        else:
            raise ValueError(f"gap_tol must be a finite nonnegative number, got {gap_tol!r}")
        gaps = np.subtract.outer(e, e).ravel()
        order = np.argsort(gaps, kind="stable")
        self.positions = order[order % (e.size + 1) != 0]  # off the diagonal, still in stable gap order
        ordered = gaps[self.positions]
        del gaps, order
        self.starts = np.flatnonzero(np.diff(ordered, prepend=-np.inf) > self.tol)

    @property
    def count(self) -> int:
        return self.eigenvalues.size * (self.eigenvalues.size - 1)

    @property
    def values(self) -> np.ndarray:
        """The gaps e_i - e_j of the pairs in row-major order of (i, j), the order of ``gap_coefficients``."""
        return np.subtract.outer(self.eigenvalues, self.eigenvalues)[~np.eye(self.eigenvalues.size, dtype=bool)]

    @property
    def counts(self) -> np.ndarray:
        """Number of gaps in each cluster."""
        return np.diff(self.starts, append=self.count)

    @property
    def max_degeneracy(self) -> int:
        """Size of the largest gap cluster (0 without gaps)."""
        return int(self.counts.max(initial=0))

    def window_counts(self, kappas) -> list:
        """Maximal number of gaps in a half-open window of each width in ``kappas``.

        Windows are anchored at the clusters' mean gaps; the window
        [a, a + kappa) includes its left edge only, so it holds at least
        its anchor cluster, also where a + kappa rounds to a.  The sorted
        gaps and the cluster means are built once for all widths.
        """
        for kappa in kappas:
            if not kappa > 0:
                raise ValueError(f"kappa must be positive, got {kappa!r}")
        if self.count == 0:
            return [0] * len(kappas)
        e = self.eigenvalues
        first, second = np.divmod(self.positions, e.size)
        gaps = e[first]  # the sorted gaps, by the subtraction that sorted them
        gaps -= e[second]
        del first, second
        bounds = np.append(self.starts, self.count)  # cluster k holds the sorted gaps bounds[k]:bounds[k + 1]
        reps = np.add.reduceat(gaps, self.starts) / np.diff(bounds)
        del gaps
        least = np.arange(1, reps.size + 1)  # the window at cluster k holds it, whatever kappa
        counts = []
        for kappa in kappas:
            hi = np.maximum(np.searchsorted(reps, reps + kappa, side="left"), least)
            counts.append(int((bounds[hi] - self.starts).max()))
        return counts


def contributing_set(spec: SpectralDecomposition, B) -> SpectralDecomposition:
    """The spectrum ``spec`` restricted to the eigenvalues that couple to observable ``B``.

    That is ``spec`` itself when every eigenvalue couples; otherwise the
    members' values, multiplicities and columns, the columns as a
    C-contiguous copy (a bare column gather gives Fortran order, on which
    the products with the basis round otherwise).
    Membership: ``|P_e B|_F > ZERO_TOL * |B|_F`` or ``|B P_e|_F > ZERO_TOL * |B|_F``.
    Since the blocks have orthonormal columns, ``|P_e B|_F = |U_e* B|_F`` and
    ``|B P_e|_F = |B U_e|_F``.  An observable whose Frobenius norm overflows
    is refused: against an infinite threshold no eigenvalue would couple.
    """
    B = as_complex_matrix(B, name="observable", square=True)
    if B.shape[0] != spec.dim:
        raise ValueError(f"observable dimension {B.shape[0]} does not match spectrum dim {spec.dim}")
    with np.errstate(over="ignore"):
        norm_b = np.linalg.norm(B)
    if not np.isfinite(norm_b):
        raise ValueError("observable Frobenius norm overflows; scale the observable down")
    members = np.zeros(spec.n_distinct, dtype=bool)
    if norm_b > 0:
        threshold = ZERO_TOL * norm_b
        for i, U in enumerate(spec.blocks):
            left = np.linalg.norm(U.conj().T @ B)
            right = np.linalg.norm(B @ U)
            members[i] = left > threshold or right > threshold
    if members.all():
        return spec
    columns = np.compress(np.repeat(members, spec.multiplicities), spec.basis_matrix, axis=1)
    return SpectralDecomposition(spec.values[members], columns, spec.multiplicities[members])


def spectral_counts(spec: SpectralDecomposition, kappas, gaps: GapIndex | None = None) -> dict:
    """The counts record of a spectrum, full or contributing.

    Number of distinct eigenvalues, largest degeneracy, largest gap
    degeneracy, and the window gap count at each width in ``kappas`` (keyed
    by ``str(kappa)``).  The gap counts read ``gaps``, by default the
    spectrum's own index ``spec.gaps``.
    """
    gaps = spec.gaps if gaps is None else gaps
    return {
        "n_distinct": spec.n_distinct,
        "max_degeneracy": int(spec.multiplicities.max(initial=0)),
        "max_gap_degeneracy": gaps.max_degeneracy,
        "window_counts": dict(zip(map(str, kappas), gaps.window_counts(kappas))),
    }
