"""Exact moments of the projected ensemble and the closed-form variance bound.

Every moment of interest reduces to one-dimensional integrals of the form

    I(k; q_1..q_r) = integral_0^inf x^k prod_j (1 + x q_j)^(-1) dx

evaluated over the spectrum (p_n) of the density matrix.  The normalized
integrals K(k) = I(k; p) / k! and the pair integrals K(m, n) (the same
integrand with the factors for p_m and p_n doubled) determine the mean and
variance of <psi|A|psi> under the projected ensemble:

    mean           = tr(A rho)
    exact variance = sum_{m,n} (A'_mm conj(A'_nn) + |A'_mn|^2) p_m p_n K(m, n)

with A' = A - tr(A rho) I written in the eigenbasis of rho.  The closed-form
upper bound replaces every K(k) by the product bound
prod_{j=1..k+1} (1 - j p_max)^(-1) and bounds cross terms by absolute
values; a sharper variant that keeps the quadrature values of K(k) is
reported alongside.

``k_table`` computes K(0), K(1), K(2) and the whole pair table from one
trapezoid rule in s = log x with step ``RULE_STEP``.  In s
every integrand is analytic in the strip |Im s| < pi, so the rule converges
geometrically (Trefethen & Weideman, SIAM Review 56, 2014).  With node
weights w_j = h x_j prod_i (1 + x_j p_i)^(-1) and G_jm = (1 + x_j p_m)^(-1),
K(k) = sum_j w_j x_j^k / k! and the pair table is G^T diag(w) G, one matrix
product.  Every log-integrand, (k + 1) s - sum_j log(1 + e^s p_j) or its
pair form, lies below s for s <= 0 and below c - s everywhere, where
c = -sum of log p_j over the four largest p_j.  So cutting the grid at
s = -RULE_TAIL and s = c + RULE_TAIL leaves tails below exp(-RULE_TAIL)
against integrals that are all at least 1/3.  The every-other-node sum (step 2h) comes free from
the same grid; if it differs from the step-h sum by more than
``RULE_SELF_CHECK_TOL`` relative, the rule raises ``RuntimeError``.

The bound's trace terms and cross sums are two matrix products over the
columns p, p^2, p^3 of the spectrum, P = [p, p^2, p^3]: with
A' = A in the eigenbasis of rho, t = P^T |A'|^2 P holds
tr(A rho^a A* rho^b) = sum_{n,m} |A'_nm|^2 p_m^a p_n^b at t[b-1, a-1], and
s = |diag A'|^T P holds the cross-sum factors s_k = sum_n |A'_nn| p_n^k.

``k_integral`` and ``k_pair_integral`` keep adaptive Gauss-Kronrod
quadrature (after the compactifying substitution x = u / (1 - u), tolerance
1e-10) as independent oracles for tests.  Their integrand factors are paired
(numerator powers against the largest denominators) so the integrand stays
bounded all the way to u = 1.

``mc_variance`` is the Monte Carlo estimate that the exact variance is
checked against, shared by the runner and ``gaplab variance --mc-check``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import change_basis
from .sampling import DensityMatrix

__all__ = [
    "KIntegralTable",
    "VarianceReport",
    "gap_expectation",
    "k_integral",
    "k_pair_integral",
    "k_product_bound",
    "k_table",
    "gap_variance_exact",
    "gap_variance_bound",
    "mc_variance",
    "P_MAX_LIMIT",
]

#: Largest p_max the variance bound takes: 1/4, where every denominator
#: 1 - j p_max of the bound is still positive, and rounding room above it.
P_MAX_LIMIT = 0.25 + 1e-15

#: Absolute quadrature tolerance for the K-integrals.
QUAD_ABS_TOL = 1e-10
#: Relative quadrature tolerance for the K-integrals.
QUAD_REL_TOL = 1e-10
#: Subdivision cap for the adaptive rule.
QUAD_LIMIT = 10000

#: Step h of the trapezoid rule in s = log x.
RULE_STEP = 0.1
#: The rule's grid ends where the integrands' asymptotes fall below exp(-RULE_TAIL).
RULE_TAIL = 46.0
#: Largest relative difference allowed between the step-h and step-2h sums.
RULE_SELF_CHECK_TOL = 1e-13

#: Tiny negative values from cancellation are clamped to zero down to this floor.
CLAMP_FLOOR = -1e-12


def _raw_moment_integral(denominator_ps, k: int) -> float:
    """integral_0^inf x^k prod_j (1 + x q_j)^(-1) dx by compactified quadrature.

    Convergence requires at least k + 2 strictly positive q_j; the factors
    x^k and the substitution weight (1 + x)^2 are paired with the k + 2
    largest q_j so the transformed integrand is bounded on [0, 1].
    """
    from scipy.integrate import quad  # the oracle alone needs it; no run path pays its import

    ps = np.sort(np.asarray(denominator_ps, dtype=float))[::-1]
    if np.any(ps < 0):
        raise ValueError("denominator factors must be nonnegative")
    npos = int(np.count_nonzero(ps > 0))
    if npos < k + 2:
        raise ValueError(
            f"integrand decays too slowly: needs at least {k + 2} positive factors, got {npos}"
        )
    head = ps[:2]
    mid = ps[2 : 2 + k]
    tail = ps[2 + k :]

    def integrand(u: float) -> float:
        om = 1.0 - u
        x = u / om if om > 0.0 else 1e300
        val = 1.0
        for q in head:
            val *= (1.0 + x) / (1.0 + x * q)
        for q in mid:
            val *= x / (1.0 + x * q)
        if tail.size:
            val *= float(np.prod(1.0 / (1.0 + x * tail)))
        return val

    out = quad(
        integrand,
        0.0,
        1.0,
        epsabs=QUAD_ABS_TOL,
        epsrel=QUAD_REL_TOL,
        limit=QUAD_LIMIT,
        full_output=1,
    )
    if len(out) > 3:
        raise RuntimeError(f"quadrature did not converge: {out[3]}")
    return float(out[0])


def _check_probabilities(probabilities) -> np.ndarray:
    p = np.asarray(probabilities, dtype=float).ravel()
    if p.size == 0:
        raise ValueError("empty probability vector")
    if not np.all(np.isfinite(p)):
        raise ValueError("probabilities contain NaN or Inf")
    if np.any(p < 0):
        raise ValueError("probabilities must be nonnegative")
    if abs(p.sum() - 1.0) > 1e-10:
        raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
    return p


def _check_integrable(p: np.ndarray, k: int) -> None:
    pmax = p.max()
    if pmax >= 1.0 / (k + 1):
        raise ValueError(
            f"integrability violated: p_max = {pmax!r} >= 1/{k + 1}"
        )


def k_integral(probabilities, k: int) -> float:
    """Normalized spectral integral K(k) = (1/k!) I(k; p), k in {0, 1, 2}.

    Integrable iff p_max < 1/(k+1), which is also the stated precondition.
    For the uniform spectrum p_n = 1/D the closed forms are
    K(0) = D/(D-1), K(1) = D^2/((D-1)(D-2)), K(2) = D^3/((D-1)(D-2)(D-3)).
    """
    if k not in (0, 1, 2):
        raise ValueError("k must be 0, 1, or 2")
    p = _check_probabilities(probabilities)
    _check_integrable(p, k)
    return _raw_moment_integral(p, k) / math.factorial(k)


def k_pair_integral(probabilities, m: int, n: int) -> float:
    """Pair integral K(m, n): the K(0) integrand with factors m and n doubled."""
    p = _check_probabilities(probabilities)
    d = p.size
    if not (0 <= m < d and 0 <= n < d):
        raise ValueError(f"indices ({m}, {n}) out of range for dimension {d}")
    ps = np.concatenate((p, [p[m], p[n]]))
    return _raw_moment_integral(ps, 0)


def k_product_bound(p_max: float, k: int) -> float:
    """Closed-form upper bound prod_{j=1..k+1} (1 - j p_max)^(-1) for K(k).

    Equality holds exactly for the uniform spectrum.
    """
    if k not in (0, 1, 2):
        raise ValueError("k must be 0, 1, or 2")
    if not 0.0 <= p_max < 1.0 / (k + 1):
        raise ValueError(f"p_max must lie in [0, 1/{k + 1})")
    out = 1.0
    for j in range(1, k + 2):
        out /= 1.0 - j * p_max
    return out


def _k_rule(p: np.ndarray, n_moments: int):
    """K(0..n_moments-1) and the pair table from the trapezoid rule in s = log x.

    Returns (moments, pair, nodes, self_check): the K(k) as an array, the
    exactly symmetric pair table, the node count, and the largest relative
    difference between the step-h and step-2h results.
    """
    h = RULE_STEP
    with np.errstate(divide="ignore"):
        log_p = np.log(p)
    # every log-integrand lies below s for s <= 0 and below c - s everywhere
    c = -float(np.sort(log_p[p > 0])[::-1][:4].sum())
    j = np.arange(math.floor(-RULE_TAIL / h), math.ceil((c + RULE_TAIL) / h) + 1)
    s = h * j
    xp = np.exp(s[:, None] + log_p)
    G = 1.0 / (1.0 + xp)
    log_w = math.log(h) + s - np.log1p(xp).sum(axis=1)
    w = np.exp(log_w)
    k = np.arange(n_moments)
    terms = np.exp(log_w + k[:, None] * s) / np.array([math.factorial(i) for i in k])[:, None]

    def integrate(nodes, scale):
        Gn = G[nodes]
        return scale * terms[:, nodes].sum(axis=1), (Gn * (scale * w[nodes])[:, None]).T @ Gn

    moments, pair = integrate(slice(None), 1.0)
    moments_2h, pair_2h = integrate(j % 2 == 0, 2.0)
    self_check = float(
        np.concatenate((np.abs(moments_2h / moments - 1.0), np.abs(pair_2h / pair - 1.0).ravel())).max()
    )
    if not self_check <= RULE_SELF_CHECK_TOL:
        raise RuntimeError(
            f"K-integral rule did not converge: step-h and step-2h sums differ by {self_check:.3g} relative"
        )
    pair = np.triu(pair) + np.triu(pair, 1).T
    return moments, pair, s.size, self_check


@dataclass
class KIntegralTable:
    """K(0), K(1), K(2) and the pair table, with the rule's node count and self-check."""

    k0: float
    k1: float
    k2: float
    pair: np.ndarray
    nodes: int
    self_check: float


def k_table(probabilities) -> KIntegralTable:
    """All K-integrals for one spectrum from one rule.  Requires p_max < 1/3 for K(2)."""
    p = _check_probabilities(probabilities)
    for k in (0, 1, 2):
        _check_integrable(p, k)
    (k0, k1, k2), pair, nodes, self_check = _k_rule(p, 3)
    return KIntegralTable(
        k0=float(k0), k1=float(k1), k2=float(k2), pair=pair, nodes=nodes, self_check=self_check
    )


def gap_expectation(rho: DensityMatrix, A) -> complex:
    """Ensemble mean of <psi|A|psi> under the projected ensemble: tr(A rho)."""
    return complex(np.dot(change_basis(A, rho.basis, "observable").diagonal(), rho.probabilities))


def _exact_variance(At: np.ndarray, p: np.ndarray, pair: np.ndarray) -> float:
    """The quadratic form of the exact variance, given A in the eigenbasis of rho."""
    mean = complex(np.dot(At.diagonal(), p))
    Ac = At - mean * np.eye(p.size)
    diag = Ac.diagonal()
    weights = np.outer(p, p) * pair
    total = np.sum((np.outer(diag, diag.conj()) + np.abs(Ac) ** 2) * weights)
    if abs(total.imag) > 1e-9 * (1.0 + abs(total.real)):
        raise RuntimeError(f"variance has a non-real residue: {total!r}")
    val = float(total.real)
    if val < CLAMP_FLOOR:
        raise RuntimeError(f"variance is negative beyond roundoff: {val!r}")
    return max(val, 0.0)


def gap_variance_exact(rho: DensityMatrix, A) -> float:
    """Exact variance of <psi|A|psi> under the projected ensemble.

    Valid for strictly positive spectra of dimension at least 4.  The
    observable is centered internally (the variance is shift invariant);
    the result is real and nonnegative up to roundoff.
    """
    p = rho.probabilities
    if rho.dim < 4:
        raise ValueError("dimension must be at least 4")
    if np.any(p <= 0.0):
        raise ValueError("all probabilities must be strictly positive")
    return _exact_variance(change_basis(A, rho.basis, "observable"), p, _k_rule(p, 0)[1])


@dataclass
class VarianceReport:
    """Exact variance next to the closed-form bound and its term breakdown.

    ``bound`` is the closed-form product-bound evaluation; ``quadrature_bound``
    keeps the quadrature values of K(0..2) and is sharper.  ``clamped_terms``
    is always 0: every trace term is a sum of nonnegative products, so none
    can come out negative; the field stays because the stored reports carry
    the key.
    ``rule_nodes`` and ``rule_self_check`` are the node count and the
    step-h against step-2h difference of the K-integral rule (see ``k_table``).
    """

    exact_variance: float
    bound: float
    quadrature_bound: float
    term_breakdown: dict
    clamped_terms: int = 0
    rule_nodes: int = 0
    rule_self_check: float = 0.0


def gap_variance_bound(rho: DensityMatrix, A) -> VarianceReport:
    """Closed-form upper bound on the projected-ensemble variance of <psi|A|psi>.

    Evaluates, term by term over the eigenbasis of rho,

        K(0) T11 + K(1) (T21 + T12) + 2 K(2) (T31 + T22 + T13 + S31 + S22 + S13)

    with every K(k) at its product bound (see ``k_product_bound``) for
    ``bound`` and at its rule value for ``quadrature_bound``.  Here
    q = p_max, Tab = tr(A rho^a A* rho^b), and the Sab are the
    absolute-value cross sums over eigenprojectors.  The observable enters
    as given (no centering).  Requires q <= 1/4 and dimension >= 4; the
    boundary q = 1/4 (uniform spectrum on four levels) is accepted since
    every denominator is still positive there.
    """
    p = rho.probabilities
    q = rho.p_max
    if rho.dim < 4:
        raise ValueError("dimension must be at least 4")
    if np.any(p <= 0.0):
        raise ValueError("all probabilities must be strictly positive")
    if q > P_MAX_LIMIT:
        raise ValueError(f"p_max = {q!r} exceeds 1/4")
    At = change_basis(A, rho.basis, "observable")
    P = p[:, None] ** np.arange(1, 4)
    t = P.T @ (np.abs(At) ** 2) @ P
    s1, s2, s3 = (np.abs(At.diagonal()) @ P).tolist()
    # row a - 1 of t.T holds Tab = tr(A rho^a A* rho^b) at column b - 1
    (t11, t12, t13), (t21, t22, _), (t31, _, _) = t.T.tolist()
    cross31 = s3 * s1
    cross22 = s2 * s2
    cross13 = s1 * s3

    inner = t31 + t22 + t13 + cross31 + cross22 + cross13
    table = k_table(p)

    def bound_with(k0: float, k1: float, k2: float) -> float:
        return float(k0 * t11 + k1 * (t21 + t12) + 2.0 * k2 * inner)

    breakdown = {
        "tr_a_rho_astar_rho": t11,
        "tr_a_rho2_astar_rho": t21,
        "tr_a_rho_astar_rho2": t12,
        "tr_a_rho3_astar_rho": t31,
        "tr_a_rho2_astar_rho2": t22,
        "tr_a_rho_astar_rho3": t13,
        "cross_sum_31": cross31,
        "cross_sum_22": cross22,
        "cross_sum_13": cross13,
        "k0": table.k0,
        "k1": table.k1,
        "k2": table.k2,
    }
    return VarianceReport(
        exact_variance=_exact_variance(At, p, table.pair),
        bound=bound_with(*(k_product_bound(q, k) for k in (0, 1, 2))),
        quadrature_bound=bound_with(table.k0, table.k1, table.k2),
        term_breakdown=breakdown,
        rule_nodes=table.nodes,
        rule_self_check=table.self_check,
    )


def mc_variance(values) -> tuple[float, float]:
    """Monte Carlo variance mean |x - mean|^2 of complex samples, with its standard error.

    The error is the standard deviation of the squared deviations over the
    square root of the sample count.
    """
    sq = np.abs(values - values.mean()) ** 2
    return float(sq.mean()), float(np.std(sq) / np.sqrt(sq.size))
