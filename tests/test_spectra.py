"""Gap statistics and the contributing set."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_hermitian, random_state, simple_spectrum
from gaplab.dynamics import block_overlap_matrix, dephased_power, eigenbasis_observable
from gaplab.linalg import row_powers
from gaplab.sampling import derive_rng
from gaplab.scenarios import random_hamiltonian
from gaplab.spectra import GapIndex, contributing_set, spectral_counts


def test_stats_two_levels():
    s = spectral_counts(simple_spectrum([0.0, 1.0]), [])
    assert s == {"n_distinct": 2, "max_degeneracy": 1, "max_gap_degeneracy": 1, "window_counts": {}}


def test_stats_three_levels_gap_degeneracy():
    s = spectral_counts(simple_spectrum([0.0, 1.0, 2.0]), [])
    assert (s["n_distinct"], s["max_degeneracy"], s["max_gap_degeneracy"]) == (3, 1, 2)


def test_stats_uneven_four_levels():
    # Ordered gaps of {0,1,2,4}: +-1 twice, +-2 twice, +-3, +-4.
    assert simple_spectrum([0.0, 1.0, 2.0, 4.0]).gaps.max_degeneracy == 2


def test_stats_with_multiplicities():
    rng = derive_rng(201)
    spec = random_hamiltonian(6, [2, 3, 1], rng)
    s = spectral_counts(spec, [])
    assert s["n_distinct"] == 3
    assert s["max_degeneracy"] == 3


def test_window_count_worked_example():
    spec = simple_spectrum([0.0, 1.0, 2.0])
    # Window [1, 2.5) captures the two +1 gaps and the +2 gap.
    assert spec.gaps.window_counts([1.5])[0] == 3
    assert spec.gaps.window_counts([0.5])[0] == 2
    assert spectral_counts(spec, [1.5, 0.5])["window_counts"] == {"1.5": 3, "0.5": 2}
    # a gap index at another tolerance replaces the spectrum's own
    assert spectral_counts(spec, [0.5], GapIndex(spec.values, 1.5))["window_counts"] == {"0.5": 3}


def test_gap_index_pairs_and_clusters():
    gi = GapIndex([0.0, 1.0, 2.0])
    # the pairs (0, 2), (0, 1), (1, 2), (1, 0), (2, 1), (2, 0) at flat positions 3 i + j;
    # stable: equal gaps keep row-major order
    assert gi.positions.tolist() == [2, 1, 5, 3, 7, 6]
    assert gi.values.tolist() == [-1.0, -2.0, 1.0, -1.0, 2.0, 1.0]
    assert gi.starts.tolist() == [0, 1, 3, 5]
    assert gi.counts.tolist() == [1, 2, 2, 1]
    assert gi.tol == pytest.approx(2e-9)
    assert gi.max_degeneracy == 2
    assert gi.window_counts([1.5])[0] == 3
    coarse = GapIndex(gi.eigenvalues, 1.5)
    assert coarse.counts.tolist() == [3, 3] and coarse.max_degeneracy == 3
    empty = GapIndex([4.0])
    assert (empty.count, empty.max_degeneracy, empty.window_counts([1.0, 2.0])) == (0, 0, [0, 0])
    with pytest.raises(ValueError):
        empty.window_counts([1.0, 0.0])
    with pytest.raises(ValueError):
        GapIndex([0.0, 1.0], gap_tol=-1.0)


def pair_layout(eigenvalues, tol: float) -> dict:
    """Brute-force oracle of a gap index as (i, j) pairs: row-major pairs from ``np.argwhere``, their gaps,
    the stable sort order, and clusters chained within ``tol``, each with its mean gap."""
    e = np.asarray(eigenvalues, dtype=float)
    pairs = np.argwhere(~np.eye(e.size, dtype=bool))
    values = np.array([e[i] - e[j] for i, j in pairs])
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = [k for k in range(ordered.size) if k == 0 or ordered[k] - ordered[k - 1] > tol]
    counts = np.diff(starts + [ordered.size]).astype(int)
    means = [ordered[a : a + c].mean() for a, c in zip(starts, counts)]
    return {"pairs": pairs, "values": values, "order": order, "starts": starts, "counts": counts, "means": means}


def oracle_window_count(layout: dict, kappa: float) -> int:
    """Most gaps in clusters whose mean lies in [a, a + kappa), over the cluster means a."""
    means, counts = np.array(layout["means"]), layout["counts"]
    return max((int(counts[(means >= a) & (means < a + kappa)].sum()) for a in means), default=0)


GAP_LAYOUT_CASES = {
    "empty": ([], None),
    "one-level": ([0.5], None),
    "two-levels": ([-1.0, 2.0], None),
    "arithmetic": (0.3 * np.arange(12.0), None),
    "gaussian": (np.sort(derive_rng(206).standard_normal(15)), None),
    "uneven-clustered": ([0.0, 1.0, 2.0, 4.0, 4.5, 7.0], 0.6),
}


@pytest.mark.parametrize("levels, gap_tol", GAP_LAYOUT_CASES.values(), ids=GAP_LAYOUT_CASES.keys())
def test_gap_index_matches_the_pair_layout(levels, gap_tol):
    gi = GapIndex(levels, gap_tol)
    layout = pair_layout(levels, gi.tol)
    d = len(levels)
    flat = layout["pairs"][:, 0] * d + layout["pairs"][:, 1]
    assert gi.count == d * (d - 1) == len(flat)
    assert gi.positions.tolist() == flat[layout["order"]].tolist()
    assert gi.values.tolist() == layout["values"].tolist()
    assert gi.starts.tolist() == layout["starts"] and gi.counts.tolist() == layout["counts"].tolist()
    assert gi.max_degeneracy == max(layout["counts"], default=0)
    kappas = (1e-12, 0.45, 1.05, 2.9, 1e3)
    assert gi.window_counts(kappas) == [oracle_window_count(layout, kappa) for kappa in kappas]


@pytest.mark.parametrize(
    "levels, gap_tol",
    [(0.3 * np.arange(12.0), None), (np.sort(derive_rng(209).standard_normal(15)), None),
     (np.sort(derive_rng(210).standard_normal(15)), 0.4)],
    ids=["arithmetic", "gaussian", "coarse-tolerance"],
)
def test_window_counts_of_all_widths_are_the_counts_of_each(levels, gap_tol):
    """The cluster means are built once for all widths, and each width gets the count it gets alone."""
    gi = GapIndex(levels, gap_tol)
    layout = pair_layout(levels, gi.tol)
    kappas = [1e-300, 0.05, 0.3, 0.45, 1.0, 2.9, 1e3]
    counts = gi.window_counts(kappas)
    assert counts == [gi.window_counts([kappa])[0] for kappa in kappas]
    # a width below the float spacing holds the anchor cluster alone, where the oracle's window is empty
    assert counts[0] == gi.max_degeneracy
    assert counts[1:] == [oracle_window_count(layout, kappa) for kappa in kappas[1:]]
    assert spectral_counts(simple_spectrum(levels), kappas, gi)["window_counts"] == dict(zip(map(str, kappas), counts))


@pytest.mark.parametrize(
    "levels, multiplicities",
    [("arithmetic", [2, 1, 3, 1, 2, 1]), ("gaussian", [1] * 7), ([0.0, 1.0, 2.0, 4.0], [3, 1, 1, 2]), ([1.5], [3])],
    ids=["arithmetic-blocks", "gaussian", "uneven-blocks", "one-level"],
)
def test_dephased_power_matches_the_pair_layout(levels, multiplicities):
    """The parent layout's gather S[:, i, j] in gap order, summed per cluster, gives the same bits."""
    rng = derive_rng(207)
    dim = sum(multiplicities)
    spec = random_hamiltonian(dim, multiplicities, rng, eigenvalues=levels, spacing=0.4)
    psis = np.array([random_state(dim, rng) for _ in range(3)])
    S = block_overlap_matrix(spec, psis, eigenbasis_observable(spec, random_hermitian(dim, rng)))
    gi = spec.gaps
    layout = pair_layout(spec.values, gi.tol)
    first, second = layout["pairs"][layout["order"]].T
    power = dephased_power(gi, S)
    if gi.count:
        assert power.tolist() == row_powers(np.add.reduceat(S[:, first, second], layout["starts"], axis=1)).tolist()
    sums = [[S[k, first[a : a + c], second[a : a + c]].sum() for a, c in zip(layout["starts"], layout["counts"])]
            for k in range(3)]
    assert power == pytest.approx(np.sum(np.abs(sums) ** 2, axis=1), rel=1e-12, abs=0.0)


def test_a_gap_index_holds_sixteen_bytes_per_pair():
    """At D = 512 with nearly all gaps distinct the index holds its sorted positions and cluster starts,
    at most 8 B per pair each, and keeps nothing it derives where its counts are read."""
    levels = np.sort(derive_rng(208).uniform(-1.0, 1.0, 512))
    tracemalloc.start()
    try:
        gi = GapIndex(levels)
        assert gi.window_counts([0.1])[0] > 0 and gi.max_degeneracy >= 1 and gi.values.size == gi.count
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 16 * gi.count + 64 * 1024


@pytest.mark.parametrize("gap_tol", [float("nan"), float("inf")])
def test_gap_index_refuses_a_non_finite_tolerance(gap_tol):
    with pytest.raises(ValueError, match="gap_tol"):
        GapIndex([0.0, 1.0, 2.0], gap_tol)


@pytest.mark.parametrize("kappa", [float("nan"), 0.0, -1.0])
def test_window_count_refuses_a_nan_or_nonpositive_width(kappa):
    with pytest.raises(ValueError, match="kappa"):
        GapIndex([0.0, 1.0, 2.0]).window_counts([1.0, kappa])


def test_window_count_limits_and_monotonicity():
    rng = derive_rng(202)
    for trial in range(10):
        d = int(rng.integers(3, 9))
        spec = simple_spectrum(np.sort(rng.standard_normal(d)) * 3.0)
        gaps = spec.gaps
        diameter = spec.values[-1] - spec.values[0]
        counts = gaps.window_counts(np.linspace(1e-9, 2.2 * diameter, 12))
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        assert counts[0] == gaps.max_degeneracy
        assert counts[-1] == d * (d - 1)
        assert all(c >= gaps.max_degeneracy for c in counts)


def test_a_window_below_the_float_spacing_holds_its_anchor_cluster():
    # gaps +-1, +-1.5 (twice), +-2.5, +-3, +-4: the two 1.5 gaps make the largest cluster
    gi = GapIndex([0.0, 1.0, 2.5, 4.0])
    assert gi.max_degeneracy == 2
    # 4 + 1e-17 == 4 and 1.5 + 1e-300 == 1.5, yet [a, a + kappa) still holds the cluster at a
    assert gi.window_counts([1e-300, 1e-17, 1e-15, 0.4]) == [2, 2, 2, 2]
    # every representative of a spacing of 1e300 swallows kappa = 1
    huge = GapIndex(1e300 * np.arange(4.0))
    assert huge.window_counts([1.0])[0] == huge.max_degeneracy == 3


def test_contributing_single_projector():
    spec = simple_spectrum([0.0, 1.0, 2.0])
    P0 = spec.blocks[1] @ spec.blocks[1].conj().T
    cs = contributing_set(spec, P0)
    assert cs.n_distinct == 1
    assert cs.values.tolist() == [1.0]
    assert cs.gaps.window_counts([1.0])[0] == 0
    assert np.array_equal(cs.blocks[0], spec.blocks[1]) and cs.dim == 3
    # a column gather alone would be Fortran-ordered, and the products on it would round otherwise
    assert cs.basis_matrix.flags.c_contiguous


def test_contributing_identity_keeps_everything():
    rng = derive_rng(203)
    spec = random_hamiltonian(7, [2, 2, 3], rng)
    # every level couples, so the contributing set is the spectrum itself, with its one basis and gap index
    assert contributing_set(spec, np.eye(7)) is spec


def test_contributing_two_block_coupling():
    spec = simple_spectrum([0.0, 1.0, 2.0, 3.0])
    v0 = spec.blocks[0][:, 0]
    v2 = spec.blocks[2][:, 0]
    B = np.outer(v0, v2.conj()) + np.outer(v2, v0.conj())
    cs = contributing_set(spec, B)
    assert np.searchsorted(spec.values, cs.values).tolist() == [0, 2]
    assert cs.gaps.max_degeneracy == 1


def test_contributing_never_exceeds_absolute_stats():
    rng = derive_rng(204)
    for trial in range(8):
        spec = random_hamiltonian(8, [1, 2, 2, 3], rng)
        X = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        B = (X + X.conj().T) / 2
        s = spectral_counts(spec, [1.0])
        c = spectral_counts(contributing_set(spec, B), [1.0])
        assert c["n_distinct"] <= s["n_distinct"]
        assert c["max_degeneracy"] <= s["max_degeneracy"]
        assert c["max_gap_degeneracy"] <= s["max_gap_degeneracy"]
        assert c["window_counts"]["1.0"] <= s["window_counts"]["1.0"]


def test_contributing_set_of_a_zero_observable_is_empty():
    spec = random_hamiltonian(5, [2, 1, 2], derive_rng(205))
    cs = contributing_set(spec, np.zeros((5, 5)))
    assert (cs.n_distinct, cs.values.size, cs.blocks, cs.dim) == (0, 0, [], 5)
    assert cs.basis_matrix.shape == (5, 0) and cs.block_starts.size == 0
    assert spectral_counts(cs, [1.0]) == {
        "n_distinct": 0, "max_degeneracy": 0, "max_gap_degeneracy": 0, "window_counts": {"1.0": 0}
    }


def test_contributing_set_refuses_an_observable_whose_frobenius_norm_overflows():
    spec = simple_spectrum(np.arange(6.0))
    with pytest.raises(ValueError, match="Frobenius norm overflows"):
        contributing_set(spec, 1e160 * np.diag(np.arange(6.0)))
    # just below the overflow every level but the zero one still couples
    assert contributing_set(spec, 1e150 * np.diag(np.arange(6.0))).values.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        min_size=2,
        max_size=8,
        unique=True,
    ),
    k1=st.floats(min_value=1e-6, max_value=40.0),
    k2=st.floats(min_value=1e-6, max_value=40.0),
)
def test_window_count_monotone_property(values, k1, k2):
    spec = simple_spectrum(sorted(values))
    lo, hi = sorted((k1, k2))
    assert spec.gaps.window_counts([lo])[0] <= spec.gaps.window_counts([hi])[0]
