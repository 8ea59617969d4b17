"""Exact sampling from the Gaussian, adjusted, and projected state ensembles.

For a density matrix rho with spectral resolution rho = sum_n p_n |n><n|,
three ensembles over the Hilbert space are handled here:

* the Gaussian measure: psi = sum_n Z_n |n> with independent complex
  centered Gaussians Z_n of mean square p_n (real and imaginary parts
  independent with variance p_n / 2 each);
* the adjusted measure, which reweights the Gaussian measure by |psi|^2;
* the projected measure, the pushforward of the adjusted measure to the
  unit sphere, whose ensemble density matrix is exactly rho.

The adjusted measure admits an exact finite recipe: it is the mixture,
with weight p_n, of product measures in which every coordinate m != n is
the plain complex Gaussian of mean square p_m while coordinate n is
size-biased, i.e. its squared radius follows a Gamma(shape 2, scale p_n)
law with an independent uniform phase.  Drawing the mixture index from
(p_n), drawing the coordinates, and normalizing therefore samples the
projected ensemble exactly, with no acceptance step.  An importance
resampling oracle over plain Gaussian batches is kept as an independent
cross-check of that recipe.

The recipe is written once (``_gap_coordinates`` and ``_normalized``),
and every sampler runs it on each row alone.  So a block of rows gives
the bits of the whole: :func:`sample_gap_weights` makes the draws of
:func:`sample_gap_diagonal` and runs the recipe over cache-sized blocks of
rows in one reused buffer, keeping each state's weight on its first
coordinates bit for bit, without building the states.

Zero eigenvalues are carried as exact zeros: the Gaussian scale vanishes
and the mixture index never selects them.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .linalg import as_complex_matrix, hermitian_eigendecomposition, row_powers

__all__ = [
    "DensityMatrix",
    "derive_rng",
    "derive_rngs",
    "sample_gaussian",
    "sample_gap",
    "sample_gap_each",
    "sample_gap_diagonal",
    "sample_gap_weights",
    "weight_block_rows",
    "sample_gap_resampling_oracle",
    "empirical_density_matrix",
]

#: Allowed deviation of the probability sum from one.
TRACE_TOL = 1e-12

#: Allowed deviation of the eigenbasis from unitarity (max-entry norm).
UNITARITY_TOL = 1e-10

#: Minimum batch size for the importance-resampling oracle.
MIN_ORACLE_BATCH = 1000

#: Bytes of one block of complex coordinate rows in ``sample_gap_weights``:
#: small enough to stay in a core's cache.
WEIGHT_BLOCK_BYTES = 256 * 1024

# The constants of numpy's SeedSequence hash (numpy/random/bit_generator.pyx), for derive_rngs.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _checked_probabilities(probabilities) -> np.ndarray:
    """Finite, nonnegative, nonincreasing probabilities that sum to one within TRACE_TOL, renormalized."""
    p = np.asarray(probabilities, dtype=float).ravel()
    if not np.all(np.isfinite(p)):
        raise ValueError("probabilities contain NaN or Inf")
    if np.any(p < -TRACE_TOL):
        raise ValueError("probabilities must be nonnegative")
    p = np.where(p < 0, 0.0, p)
    if np.any(np.diff(p) > 0):
        raise ValueError("probabilities must be nonincreasing")
    total = p.sum()
    if abs(total - 1.0) > TRACE_TOL:
        raise ValueError(f"probabilities sum to {total!r}, not 1 within {TRACE_TOL}")
    return p / total


@dataclass
class DensityMatrix:
    """Spectral form of a density matrix: probabilities and eigenbasis.

    ``probabilities`` are nonincreasing and sum to one; column n of
    ``basis`` is the eigenvector of ``probabilities[n]``.  The largest
    probability equals the operator norm of the matrix.
    """

    probabilities: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        p = _checked_probabilities(self.probabilities)
        U = as_complex_matrix(self.basis, name="eigenbasis", square=True)
        if p.size != U.shape[0]:
            raise ValueError(
                f"probability count {p.size} does not match basis dimension {U.shape[0]}"
            )
        defect = np.abs(U.conj().T @ U - np.eye(U.shape[0])).max()
        if defect > UNITARITY_TOL:
            raise ValueError(
                f"eigenbasis is not unitary: max |U*U - I| = {defect:.3e}"
            )
        self.probabilities = p
        self.basis = U

    @classmethod
    def from_matrix(cls, M) -> "DensityMatrix":
        """Build from a dense density matrix (Hermitian, PSD, unit trace)."""
        M = as_complex_matrix(M, name="density matrix", square=True)
        eig = hermitian_eigendecomposition(M)
        w = eig.eigenvalues
        if np.any(w < -1e-10):
            raise ValueError(f"density matrix has negative eigenvalue {w.min():.3e}")
        w = np.where(w < 0, 0.0, w)
        order = np.argsort(-w, kind="stable")
        return cls(probabilities=w[order], basis=eig.basis[:, order])

    @property
    def dim(self) -> int:
        return self.probabilities.size

    @property
    def p_max(self) -> float:
        return float(self.probabilities[0])

    def matrix(self) -> np.ndarray:
        """Dense form U diag(p) U*."""
        return (self.basis * self.probabilities) @ self.basis.conj().T


def derive_rng(seed: int, *path: int) -> np.random.Generator:
    """Deterministic generator for (seed, path).

    Child streams are derived with ``SeedSequence(seed, spawn_key=path)``,
    so distinct paths give statistically independent streams and the same
    (seed, path, draw sequence) always reproduces the same bits.  Each
    state of an ensemble derives its own stream from its index, so its
    draws do not depend on how the states are batched.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(path)))


def _hash_steps(const: int, mult: int, count: int) -> tuple:
    """The constants (xor, times) of ``count`` successive hash steps from hash constant ``const``, as uint32 arrays."""
    consts = [const & _MASK32]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts[:-1], dtype=np.uint32), np.array(consts[1:], dtype=np.uint32)


def _hashmix(value, xor, times):
    """SeedSequence's ``hashmix`` of 32-bit words, Python ints or uint32 arrays, with its constants."""
    value = (value ^ xor) * times & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's ``mix`` of two 32-bit words, Python ints or uint32 arrays."""
    value = (_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32) & _MASK32
    return value ^ value >> 16


#: The constants (xor, times) of the eight hash steps of ``SeedSequence.generate_state(4, uint64)``.
_GENERATE_STEPS = _hash_steps(_INIT_B, _MULT_B, 8)


@functools.cache
def _stream_words() -> type:
    """The seed sequence type that hands ``PCG64`` the four 64-bit words a ``SeedSequence`` would generate for it.

    Made on first use: its base class loads ``numpy.random``, which
    importing the sampler leaves to the first draw.
    """
    from numpy.random.bit_generator import ISeedSequence

    class StreamWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            # only PCG64's constructor calls this, for its 128-bit state and increment
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"holds 4 uint64 words, asked for {n_words} {np.dtype(dtype)}")
            return self.words

    return StreamWords


def derive_rngs(seed: int, domain: int, lo: int, hi: int) -> list:
    """The generators ``[derive_rng(seed, domain, i) for i in range(lo, hi)]``, state for state, hashed at once.

    ``SeedSequence(seed, spawn_key=(domain, i))`` hashes its entropy words
    (the seed's, padded with zeros to its pool of four, then the domain's,
    then the index's) into the pool, four hash steps a word, and the pool
    into the four 64-bit words that seed ``PCG64``.  Only the index word
    differs between the streams, and it comes last; every hash constant is
    the same for all.  So numpy hashes the words up to the index once, into
    the pool of ``SeedSequence(seed, spawn_key=(domain,))``, and the index
    word of each stream is mixed in and the state words generated as
    uint32 vector operations over the range.  Each ``PCG64`` is then
    seeded from its four words, so its ``seed_seq`` holds only them.
    Indices must be below 2**32, one word each.
    """
    seed, domain, lo, hi = map(operator.index, (seed, domain, lo, hi))
    for name, value in (("seed", seed), ("domain", domain), ("index", lo)):
        if value < 0:
            raise ValueError(f"stream {name} must be nonnegative, got {value}")
    if hi > 2**32:
        raise ValueError(f"stream indices must be below 2**32, got {hi - 1}")
    pool = np.random.SeedSequence(seed, spawn_key=(domain,)).pool
    # the hash steps taken so far: four per word of the seed, padded to four words, and of the domain
    step = 4 * (max(4, (seed.bit_length() + 31) // 32) + max(1, (domain.bit_length() + 31) // 32))
    # the four pool words take the index word with the next four constants, each on its own
    xor, times = _hash_steps(_INIT_A * pow(_MULT_A, step, 2**32), _MULT_A, 4)
    index = np.arange(lo, hi, dtype=np.uint32)[:, None]
    mixed = _mix(pool, _hashmix(index, xor, times))
    # generate_state(4, uint64): eight uint32 words from pool words 0-3 twice, read as little-endian pairs
    state = _hashmix(np.tile(mixed, 2), *_GENERATE_STEPS).astype("<u4").view("<u8").astype(np.uint64)
    seed_words = _stream_words()
    return [np.random.Generator(np.random.PCG64(seed_words(row))) for row in state]


def sample_gaussian(rho: DensityMatrix, rng: np.random.Generator, size=None) -> np.ndarray:
    """Draw from the Gaussian ensemble of ``rho`` (not normalized).

    Returns one state (1-D array) for ``size=None``, else an array of
    shape (size, dim) with one state per row.  Draw order per call: all
    real parts, then all imaginary parts.
    """
    n = 1 if size is None else int(size)
    if n < 1:
        raise ValueError("size must be at least 1")
    scale = np.sqrt(rho.probabilities / 2.0)
    z = rng.standard_normal((n, rho.dim)) + 1j * rng.standard_normal((n, rho.dim))
    z *= scale
    psi = z @ rho.basis.T
    return psi[0] if size is None else psi


def _gap_draws(rng: np.random.Generator, n: int, dim: int) -> tuple:
    """The draws of n projected-ensemble states from one generator, in the recipe's order.

    Mixture uniforms, real parts, imaginary parts, standard Gamma(2)
    radii, phase uniforms: each kind for all n states before the next.
    """
    u = rng.random(n)
    re = rng.standard_normal((n, dim))
    im = rng.standard_normal((n, dim))
    g = rng.standard_gamma(2.0, size=n)
    return u, re, im, g, rng.random(n)


def _gap_coordinates(p: np.ndarray, draws: tuple, out: np.ndarray) -> np.ndarray:
    """Eigenbasis coordinates of the mixture recipe from its draws, written into ``out`` (n, dim).

    ``draws`` = (u, re, im, g, v) as :func:`_gap_draws` lays them out:
    mixture uniforms (n,), standard normal real and imaginary parts
    (n, dim), standard Gamma(2) draws (n,) and phase uniforms (n,).
    Every step acts on each row alone, so a row's bits do not depend on
    the other rows, and a block of rows gives the bits of the whole.
    """
    u, re, im, g, v = draws
    # mixture index k with probability p_k, by inversion
    cdf = np.cumsum(p)
    cdf[-1] = 1.0
    idx = np.searchsorted(cdf, u, side="right")
    out.real[...] = re
    out.imag[...] = im
    out *= np.sqrt(p / 2.0)
    # p_n g is Gamma(shape 2, scale p_n), bit for bit as Generator.gamma scales it
    r2 = p[idx] * g
    phase = v * (2.0 * np.pi)
    out[np.arange(u.size), idx] = np.sqrt(r2) * np.exp(1j * phase)
    return out


def _normalized(psi: np.ndarray, cut=None) -> np.ndarray:
    """The first ``cut`` columns (all for None) of the rows of ``psi`` divided by the full rows' norms, in place."""
    norms = np.linalg.norm(psi, axis=1)
    if np.any(norms == 0.0):
        raise RuntimeError("degenerate zero-norm draw")
    head = psi[:, :cut]
    head /= norms[:, None]
    return head


def _gap_states(p: np.ndarray, draws: tuple, rotate=None) -> np.ndarray:
    """Unit states of the mixture recipe from its draws, one state per row.

    ``rotate`` maps the eigenbasis coordinates (n, dim) of
    :func:`_gap_coordinates` to the states before they are normalized;
    None keeps the eigenbasis.  Every step but the rotation acts on each
    row alone, so a state's bits depend on the other rows only through
    the rotation.
    """
    z = _gap_coordinates(p, draws, np.empty(draws[1].shape, dtype=complex))
    return _normalized(z if rotate is None else rotate(z))


def sample_gap(rho: DensityMatrix, rng: np.random.Generator, size=None) -> np.ndarray:
    """Draw unit vectors from the projected (GAP) ensemble of ``rho``, exactly.

    Mixture recipe: draw index n with probability p_n; draw every
    coordinate as the plain complex Gaussian of mean square p_m; replace
    coordinate n by a size-biased draw whose squared radius is
    Gamma(shape 2, scale p_n) with uniform phase; normalize.  Draw order
    per call: mixture uniforms, real parts, imaginary parts, radii,
    phases.

    Returns one state for ``size=None``, else (size, dim) rows.  Each row
    has unit norm to within 1e-12.
    """
    n = 1 if size is None else int(size)
    if n < 1:
        raise ValueError("size must be at least 1")
    psi = _gap_states(rho.probabilities, _gap_draws(rng, n, rho.dim), lambda z: z @ rho.basis.T)
    return psi[0] if size is None else psi


def sample_gap_each(rho: DensityMatrix, rngs) -> np.ndarray:
    """One projected-ensemble state from each generator of ``rngs``, as rows (len(rngs), dim).

    Row k equals ``sample_gap(rho, rngs[k])`` bit for bit and leaves
    ``rngs[k]`` where that call leaves it: each generator makes the draws
    of one state in the order of :func:`sample_gap`, and the recipe then
    runs once over all rows.  Its rotation is one matrix-vector product
    per row, the product a single state takes, where a matrix product
    over the rows would round differently.
    """
    n, dim = len(rngs), rho.dim
    if n < 1:
        raise ValueError("at least one generator is needed")
    u, re, im, g, v = np.empty(n), np.empty((n, dim)), np.empty((n, dim)), np.empty(n), np.empty(n)
    for k, rng in enumerate(rngs):
        u[k] = rng.random()
        rng.standard_normal(out=re[k])
        rng.standard_normal(out=im[k])
        g[k] = rng.standard_gamma(2.0)
        v[k] = rng.random()
    return _gap_states(rho.probabilities, (u, re, im, g, v), lambda z: (z[:, None, :] @ rho.basis.T)[:, 0, :])


def sample_gap_diagonal(probabilities, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` projected-ensemble states of diag(``probabilities``), as rows.

    These are the states of any density matrix with that spectrum written
    in its own eigenbasis, with the draws of :func:`sample_gap` and no
    rotation, so no eigenbasis is built or checked.  For
    ``rho.basis = I`` they equal ``sample_gap(rho, rng, size)`` bit for
    bit, since z @ I == z.
    """
    p = _checked_probabilities(probabilities)
    n = int(size)
    if n < 1:
        raise ValueError("size must be at least 1")
    return _gap_states(p, _gap_draws(rng, n, p.size))


def weight_block_rows(dim: int, size: int) -> int:
    """Rows per block of ``sample_gap_weights`` for ``size`` states of dimension ``dim``.

    As many complex rows as fit in ``WEIGHT_BLOCK_BYTES``, at least one and
    at most ``size``.
    """
    return min(int(size), max(1, WEIGHT_BLOCK_BYTES // (16 * int(dim))))


def sample_gap_weights(probabilities, rng: np.random.Generator, size: int, cut: int) -> np.ndarray:
    """Weights sum_{k < cut} |psi_k|^2 of ``size`` projected-ensemble states of diag(``probabilities``).

    Equal bit for bit to the weights of the rows of
    :func:`sample_gap_diagonal` with the same generator, taken as
    ``einsum("sd,sd->s", x.conj(), x).real`` over their first ``cut``
    columns x in a stack of at least two rows (``linalg.row_powers``, which
    sums a lone row in such a stack), and the generator is left where that
    call leaves it.  The draws are made as there, all at once; the recipe
    then runs in blocks of ``weight_block_rows`` rows through one reused
    buffer, each row with its full norm, and only the first ``cut`` columns
    are divided by it.  So no (size, dim) array of states is built.
    """
    p = _checked_probabilities(probabilities)
    n = int(size)
    if n < 1:
        raise ValueError("size must be at least 1")
    draws = _gap_draws(rng, n, p.size)
    rows = weight_block_rows(p.size, n)
    z = np.empty((rows, p.size), dtype=complex)
    weights = np.empty(n)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        block = _gap_coordinates(p, tuple(x[lo:hi] for x in draws), z[: hi - lo])
        head = _normalized(block, cut)
        weights[lo:hi] = row_powers(head)
    return weights


def sample_gap_resampling_oracle(
    rho: DensityMatrix, rng: np.random.Generator, batch: int = 10000
) -> np.ndarray:
    """One projected-ensemble draw by importance resampling of a Gaussian batch.

    Draws ``batch`` Gaussian states, picks one with probability
    proportional to its squared norm, and normalizes it.  The resampling
    bias is O(1/batch); batches below 1000 are rejected.  This is the
    slow reference route used to cross-check :func:`sample_gap`.
    """
    batch = int(batch)
    if batch < MIN_ORACLE_BATCH:
        raise ValueError(f"batch must be at least {MIN_ORACLE_BATCH}")
    g = sample_gaussian(rho, rng, size=batch)
    w = row_powers(g)
    cdf = np.cumsum(w)
    pick = int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
    pick = min(pick, batch - 1)
    psi = g[pick]
    return psi / np.linalg.norm(psi)


def empirical_density_matrix(samples) -> np.ndarray:
    """Average projector (1/N) sum_i |psi_i><psi_i| over unit-norm rows."""
    S = np.asarray(samples, dtype=np.complex128)
    if S.ndim == 1:
        S = S[None, :]
    if S.ndim != 2 or S.shape[0] == 0:
        raise ValueError("samples must be a nonempty (N, dim) array")
    norms = np.linalg.norm(S, axis=1)
    if np.abs(norms - 1.0).max() > 1e-9:
        raise ValueError("samples must all have unit norm")
    return (S.T @ S.conj()) / S.shape[0]
