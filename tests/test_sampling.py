"""Gaussian and projected ensembles against analytic and resampling oracles."""

import numpy as np
import pytest
from scipy import stats

from conftest import diagonal_density
from gaplab import sampling
from gaplab.sampling import (
    DensityMatrix,
    derive_rng,
    derive_rngs,
    empirical_density_matrix,
    sample_gap,
    sample_gap_diagonal,
    sample_gap_each,
    sample_gap_resampling_oracle,
    sample_gap_weights,
    sample_gaussian,
    weight_block_rows,
)
from gaplab.scenarios import haar_unitary, random_density


def test_density_matrix_validates_trace_and_unitarity():
    with pytest.raises(ValueError):
        DensityMatrix(probabilities=np.array([0.6, 0.6]), basis=np.eye(2))
    with pytest.raises(ValueError):
        DensityMatrix(probabilities=np.array([0.5, 0.5]), basis=np.ones((2, 2)))


def test_density_matrix_from_matrix_sorts_descending():
    rng = derive_rng(300)
    rho = random_density(5, rng)
    rebuilt = DensityMatrix.from_matrix(rho.matrix())
    assert np.all(np.diff(rebuilt.probabilities) <= 1e-15)
    assert np.abs(rebuilt.matrix() - rho.matrix()).max() <= 1e-10


def test_gaussian_mean_square_norm_is_one():
    rng = derive_rng(301)
    rho = random_density(5, rng)
    g = sample_gaussian(rho, rng, size=100_000)
    sq = np.einsum("ij,ij->i", g.conj(), g).real
    se = sq.std() / np.sqrt(sq.size)
    assert abs(sq.mean() - 1.0) <= 4.0 * se


def test_gaussian_covariance_split_evenly():
    rng = derive_rng(302)
    rho = diagonal_density([0.5, 0.5])
    g = sample_gaussian(rho, rng, size=200_000)
    parts = np.column_stack([g[:, 0].real, g[:, 0].imag, g[:, 1].real, g[:, 1].imag])
    cov = np.cov(parts, rowvar=False)
    assert np.abs(cov - np.diag([0.25, 0.25, 0.25, 0.25])).max() <= 5e-3


def test_pure_state_supported_on_one_coordinate():
    rho = diagonal_density([1.0, 0.0, 0.0])
    rng = derive_rng(303)
    g = sample_gaussian(rho, rng, size=50)
    assert np.abs(g[:, 1:]).max() == 0.0
    psi = sample_gap(rho, rng, size=50)
    assert np.abs(np.abs(psi[:, 0]) - 1.0).max() <= 1e-12
    assert np.abs(psi[:, 1:]).max() == 0.0


def test_gap_states_have_unit_norm():
    rng = derive_rng(304)
    rho = random_density(6, rng)
    psi = sample_gap(rho, rng, size=2000)
    assert np.abs(np.linalg.norm(psi, axis=1) - 1.0).max() <= 1e-12


def test_gap_matches_target_density_matrix():
    rho = diagonal_density([0.3, 0.3, 0.2, 0.2])
    rng = derive_rng(305)
    psi = sample_gap(rho, rng, size=50_000)
    emp = empirical_density_matrix(psi)
    assert np.linalg.norm(emp - rho.matrix(), "nuc") <= 0.03


def test_gap_covariant_under_change_of_basis():
    p = np.array([0.4, 0.3, 0.2, 0.1])
    U = haar_unitary(4, derive_rng(306))
    plain = sample_gap(diagonal_density(p), derive_rng(307), size=64)
    rotated = sample_gap(DensityMatrix(probabilities=p, basis=U), derive_rng(307), size=64)
    assert np.abs(rotated - plain @ U.T).max() <= 1e-12


def test_stream_determinism_and_independence():
    rho = diagonal_density([0.25, 0.25, 0.25, 0.25])
    a = sample_gap(rho, derive_rng(308, 0, 4), size=8)
    b = sample_gap(rho, derive_rng(308, 0, 4), size=8)
    c = sample_gap(rho, derive_rng(308, 0, 5), size=8)
    assert np.array_equal(a, b)
    assert np.abs(a - c).max() > 1e-3


@pytest.mark.parametrize(
    "seed", [0, 2**32 - 1, 2**32, 2**130 + 5, 2**200], ids=["0", "2^32-1", "2^32", "2^130+5", "2^200"]
)
@pytest.mark.parametrize("domain", [0, 5, 2**40], ids=["0", "5", "2^40"])
@pytest.mark.parametrize("lo, hi", [(0, 40), (7, 7), (2**32 - 3, 2**32)], ids=["first-40", "empty", "to-2^32"])
def test_derive_rngs_are_the_streams_of_derive_rng(seed, domain, lo, hi):
    """One hash over an index range gives each index the generator ``SeedSequence`` gives it alone: seeds of
    more than four words and a domain of two, whose word counts set the index's hash constants, included."""
    rngs = derive_rngs(seed, domain, lo, hi)
    alone = [derive_rng(seed, domain, i) for i in range(lo, hi)]
    assert len(rngs) == hi - lo
    assert [r.bit_generator.state for r in rngs] == [a.bit_generator.state for a in alone]
    assert all(np.array_equal(r.random(4), a.random(4)) for r, a in zip(rngs, alone))


def test_derive_rngs_refuse_what_seed_sequence_cannot_take_as_words():
    """Negative words, and an index of 2**32 or more, which would be two words and which no run reaches:
    ``mc.n_states`` is at most 2**32."""
    for args, name in [((-1, 0, 0, 3), "seed"), ((0, -1, 0, 3), "domain"), ((0, 0, -1, 3), "index")]:
        with pytest.raises(ValueError, match=f"stream {name} must be nonnegative"):
            derive_rngs(*args)
    with pytest.raises(ValueError, match="below 2\\*\\*32"):
        derive_rngs(0, 0, 2**32 - 1, 2**32 + 1)


def _bits(states: np.ndarray) -> np.ndarray:
    return states.view(float)


def _recipe_written_out(rho: DensityMatrix, rng: np.random.Generator, n: int) -> np.ndarray:
    """The mixture recipe step by step, with the radii scaled by Generator.gamma itself."""
    p = rho.probabilities
    cdf = np.cumsum(p)
    cdf[-1] = 1.0
    idx = np.searchsorted(cdf, rng.random(n), side="right")
    z = rng.standard_normal((n, rho.dim)) + 1j * rng.standard_normal((n, rho.dim))
    z *= np.sqrt(p / 2.0)
    r2 = rng.gamma(2.0, scale=p[idx])
    phase = rng.random(n) * (2.0 * np.pi)
    z[np.arange(n), idx] = np.sqrt(r2) * np.exp(1j * phase)
    psi = z @ rho.basis.T
    return psi / np.linalg.norm(psi, axis=1)[:, None]


def _ensemble_rho(kind: str) -> DensityMatrix:
    """A random rho, one with zero probabilities, and a degenerate one, each in a random basis."""
    rng = derive_rng(316)
    if kind == "random":
        return random_density(24, rng)
    p = {"zeros": [0.4, 0.3, 0.2, 0.1] + [0.0] * 8, "degenerate": [0.25] * 2 + [0.05] * 10}[kind]
    return DensityMatrix(probabilities=np.array(p), basis=haar_unitary(len(p), rng))


@pytest.mark.parametrize("kind", ["random", "zeros", "degenerate"])
def test_sample_gap_matches_the_recipe_written_out(kind):
    rho = _ensemble_rho(kind)
    assert np.array_equal(_bits(sample_gap(rho, derive_rng(317), size=40)),
                          _bits(_recipe_written_out(rho, derive_rng(317), 40)))
    assert np.array_equal(_bits(sample_gap(rho, derive_rng(318))), _bits(_recipe_written_out(rho, derive_rng(318), 1)[0]))


@pytest.mark.parametrize("kind", ["random", "zeros", "degenerate"])
def test_sample_gap_each_matches_one_call_per_generator(kind):
    rho = _ensemble_rho(kind)
    each = [derive_rng(319, k) for k in range(300)]
    alone = [derive_rng(319, k) for k in range(300)]
    states = sample_gap_each(rho, each)
    assert states.shape == (300, rho.dim)
    assert np.array_equal(_bits(states), _bits(np.array([sample_gap(rho, rng) for rng in alone])))
    # each generator is left where its own call leaves it
    assert all(np.array_equal(a.random(64), b.random(64)) for a, b in zip(each, alone))
    if kind == "zeros":
        assert np.abs(states @ rho.basis.conj()[:, 4:]).max() <= 1e-14


def test_sample_gap_each_needs_a_generator():
    with pytest.raises(ValueError):
        sample_gap_each(diagonal_density([0.5, 0.5]), [])


@pytest.mark.parametrize("p", [np.full(64, 1.0 / 64), [0.5, 0.3, 0.2, 0.0]])
def test_sample_gap_diagonal_is_sample_gap_in_the_identity_basis(p):
    rho = diagonal_density(p)
    assert np.array_equal(_bits(sample_gap_diagonal(p, derive_rng(320), 500)),
                          _bits(sample_gap(rho, derive_rng(320), size=500)))


def test_sample_gap_diagonal_checks_its_probabilities():
    for p in ([0.6, 0.6], [0.2, 0.8], [1.0, np.nan], [1.5, -0.5]):
        with pytest.raises(ValueError):
            sample_gap_diagonal(p, derive_rng(321), 4)
    with pytest.raises(ValueError):
        sample_gap_diagonal([0.5, 0.5], derive_rng(321), 0)


@pytest.mark.parametrize("rows", [1, 7, 64, None])
@pytest.mark.parametrize("d", [2, 3, 17, 64, 255, 20000])
def test_sample_gap_weights_are_the_diagonal_states_weights_bit_for_bit(monkeypatch, d, rows):
    """At d = 20000 a default block holds one row, and a half row of 10000 entries is more than
    ``einsum`` sums in one piece: each weight is still its row's in a stack of the states."""
    if rows is not None:  # blocks of that many rows; None keeps the default budget
        monkeypatch.setattr(sampling, "WEIGHT_BLOCK_BYTES", rows * 16 * d)
    p = np.full(d, 1.0 / d)
    for seed, n in ((330, 1), (331, 130), (332, 200)):
        if rows is not None:
            assert weight_block_rows(d, n) == min(n, rows)
        alone, blocked = derive_rng(seed), derive_rng(seed)
        states = sample_gap_diagonal(p, alone, n)
        # a zero row under the heads keeps the lone state of n = 1 in a stack of two
        head = np.concatenate((states[:, : d // 2], np.zeros((1, d // 2))))
        expected = np.einsum("sd,sd->s", head.conj(), head).real[:n]
        assert np.array_equal(_bits(sample_gap_weights(p, blocked, n, d // 2)), _bits(expected))
        # the generator is left where the states leave it
        assert np.array_equal(alone.random(8), blocked.random(8))


def test_sample_gap_weights_take_any_cut_and_check_their_inputs():
    p = [0.4, 0.3, 0.2, 0.1, 0.0]
    states = sample_gap_diagonal(p, derive_rng(333), 50)
    for cut in (0, 1, 4, 5):
        head = states[:, :cut]
        expected = np.einsum("sd,sd->s", head.conj(), head).real
        assert np.array_equal(_bits(sample_gap_weights(p, derive_rng(333), 50, cut)), _bits(expected))
    # the whole row of a unit state weighs 1
    assert np.abs(sample_gap_weights(p, derive_rng(333), 50, 5) - 1.0).max() <= 1e-15
    with pytest.raises(ValueError):
        sample_gap_weights([0.6, 0.6], derive_rng(334), 4, 1)
    with pytest.raises(ValueError):
        sample_gap_weights([0.5, 0.5], derive_rng(334), 0, 1)
    assert weight_block_rows(4, 10_000) == sampling.WEIGHT_BLOCK_BYTES // 64
    assert weight_block_rows(10**9, 5) == 1


def test_haar_fourth_moment_at_uniform_rho():
    rng = derive_rng(309)
    rho = diagonal_density([0.25] * 4)
    psi = sample_gap(rho, rng, size=200_000)
    m = np.abs(psi[:, 0]) ** 4
    se = m.std() / np.sqrt(m.size)
    assert abs(m.mean() - 0.1) <= 4.0 * se


def test_resampling_oracle_requires_large_batch():
    rho = diagonal_density([0.5, 0.5])
    with pytest.raises(ValueError):
        sample_gap_resampling_oracle(rho, derive_rng(310), batch=10)


def test_oracle_and_mixture_sampler_agree():
    rng = derive_rng(311)
    rho = diagonal_density([0.3, 0.3, 0.2, 0.2])
    direct = np.abs(sample_gap(rho, rng, size=40_000)[:, 0]) ** 2
    oracle = np.array(
        [
            np.abs(sample_gap_resampling_oracle(rho, rng, batch=1000)[0]) ** 2
            for _ in range(1500)
        ]
    )
    assert stats.ks_2samp(direct, oracle).pvalue > 1e-3


def test_empirical_density_rank_one_cases():
    rng = derive_rng(312)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    single = empirical_density_matrix(psi)
    assert np.abs(single - np.outer(psi, psi.conj())).max() <= 1e-14
    repeated = empirical_density_matrix(np.tile(psi, (10, 1)))
    assert np.abs(repeated - single).max() <= 1e-14


def test_empirical_density_rejects_unnormalized():
    with pytest.raises(ValueError):
        empirical_density_matrix(np.array([[2.0, 0.0]]))


def test_fidelity_improves_at_root_n_rate():
    rng = derive_rng(313)
    rho = random_density(8, rng, p_max_limit=0.25)
    target = rho.matrix()
    small = sample_gap(rho, derive_rng(314), size=20_000)
    large = sample_gap(rho, derive_rng(315), size=80_000)
    d_small = np.linalg.norm(empirical_density_matrix(small) - target, "nuc")
    d_large = np.linalg.norm(empirical_density_matrix(large) - target, "nuc")
    ratio = d_small / d_large
    assert 1.4 <= ratio <= 2.6
