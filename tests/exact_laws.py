"""Exact laws that the tests band-check Monte Carlo frequencies against,
written from their formulas, not from the library's tables."""

import math

import numpy as np

from pfest.estimators import ESTIMATORS, _quantile_rank, group_count, within_multiplicative

ALPHA = 1e-6


def log_binom_pmf(n: int, p: float, x: int) -> float:
    return (
        math.lgamma(n + 1) - math.lgamma(x + 1) - math.lgamma(n - x + 1)
        + x * math.log(p) + (n - x) * math.log1p(-p)
    )


def binom_tail(n: int, p: float, first: int) -> float:
    """P[X >= first] for X ~ Bin(n, p), its pmf summed from first up; at
    p = 0 and p = 1, where ``log_binom_pmf`` takes the log of 0, X is 0
    or n."""
    first = max(first, 0)
    if not 0.0 < p < 1.0:
        return float(first <= (n if p >= 1.0 else 0))
    return math.fsum(math.exp(log_binom_pmf(n, p, x)) for x in range(first, n + 1))


def two_level_fail(pair, method: str, n: int, eps: float, delta: float, g=None) -> float:
    """Exact probability that mom, snis or plain IS ("is") from n draws
    on two atoms with proposal mass misses (1 +/- eps) of its truth: z
    for mom, E_nu[g] for the others.

    With ratios r_i = nu_i / mu_i and levels lambda_i = z r_i, snis's
    estimate is (X lambda_1 g_1 + (n - X) lambda_0 g_0) / (X lambda_1 +
    (n - X) lambda_0) and plain IS's (X r_1 g_1 + (n - X) r_0 g_0) / n,
    for X ~ Bin(n, mu_1) draws on atom 1. The pmf is summed over the X
    whose estimate misses, below the truth and above it. For mom, X is a
    group's count and (X lambda_1 + (size - X) lambda_0) / size its
    mean, in k = ``group_count(delta)`` groups of size = n // k. The
    lower median (index j = (k - 1) // 2) misses iff at least j + 1
    groups fall below or at least k - j above: two disjoint binomial
    tails over the groups."""
    mu, nu, z = pair.mu_weights, pair.nu_weights, pair.z_true
    assert mu.size == 2 and mu.all()
    (r0, r1), q = (nu / mu).tolist(), float(mu[1])
    lam0, lam1 = z * r0, z * r1
    if method == "mom":
        k = group_count(delta)
        size, truth = n // k, z
        estimate = lambda x: (lam1 * x + lam0 * (size - x)) / size
    elif method == "snis":
        size, truth = n, pair.nu_mean(g)
        estimate = lambda x: (
            (x * lam1 * g[1] + (n - x) * lam0 * g[0]) / (x * lam1 + (n - x) * lam0)
        )
    else:
        assert method == "is", method
        size, truth = n, pair.nu_mean(g)
        estimate = lambda x: (x * r1 * g[1] + (n - x) * r0 * g[0]) / n
    below_above = [0.0, 0.0]
    for x in range(size + 1):
        value = estimate(x)
        if not within_multiplicative(value, truth, eps):
            below_above[int(value > truth)] += math.exp(log_binom_pmf(size, q, x))
    if method != "mom":
        return sum(below_above)
    j = (k - 1) // 2
    return binom_tail(k, below_above[0], j + 1) + binom_tail(k, below_above[1], k - j)


def quantile_fail(pair, n: int, eps: float, m: float) -> tuple[float, float]:
    """Exact (P_low, P_high) that the quantile estimate from n draws on
    any support fails below the truth z, and above it.

    The estimate is the r-th least of the n levels z nu / mu drawn, r =
    ``_quantile_rank(eps, m, n)``. ``ESTIMATORS["quantile"].success``
    holds on an interval of levels, so the estimate fails low iff at
    least r draws land on the levels it fails below z, and high iff at
    least n - r + 1 land on those it fails above z: two binomial tails."""
    drawn = pair.mu_weights > 0
    mu = pair.mu_weights[drawn]
    lam = pair.z_true * (pair.nu_weights[drawn] / mu)
    fails = ~ESTIMATORS["quantile"].success(lam, pair.z_true, eps, m)
    low = fails & (lam < pair.z_true)
    rank = _quantile_rank(eps, m, n)
    return (
        binom_tail(n, math.fsum(mu[low]), rank),
        binom_tail(n, math.fsum(mu[fails & ~low]), n - rank + 1),
    )


def binomial_band(trials: int, p: float, alpha: float = ALPHA) -> tuple[int, int]:
    """Smallest [lo, hi] with P[X < lo] and P[X > hi] each at most
    alpha / 2 for X ~ Bin(trials, p). The pmf is summed from each end
    inward, from no further out than 12 standard deviations and 20 past
    the mean: by Bernstein's inequality the mass left out beyond that is
    below 1e-13, far under alpha / 2."""
    if p <= 0.0 or p >= 1.0:
        return (0, 0) if p <= 0.0 else (trials, trials)
    reach = 12.0 * math.sqrt(trials * p * (1.0 - p)) + 20.0
    first = max(0, math.floor(trials * p - reach))
    last = min(trials, math.ceil(trials * p + reach))
    lo, tail = first, math.exp(log_binom_pmf(trials, p, first))
    while tail <= alpha / 2:
        lo += 1
        tail += math.exp(log_binom_pmf(trials, p, lo))
    hi, tail = last, math.exp(log_binom_pmf(trials, p, last))
    while tail <= alpha / 2:
        hi -= 1
        tail += math.exp(log_binom_pmf(trials, p, hi))
    return lo, hi


def _unit(x: float) -> float:
    return min(max(x, 0.0), 1.0)


def race_law(pair, n: int) -> tuple[np.ndarray, float]:
    """The winner law per atom, and the null probability, of the
    exponential race of length n on ``pair``.

    Given the n-th arrival, the first n - 1 arrivals are i.i.d. uniform
    fractions u of it. With q_a(u) = sum_j mu_j min(1, u lam_j / lam_a)
    and c_a(u) = sum over j with u lam_j < lam_a of mu_j, atom a wins
    with probability

        mu_a (1 - q_a(1))^(n-1)
        + (n - 1) mu_a int_0^1 (1 - q_a(u))^(n-2) c_a(u) du:

    X_n at a beats the other n - 1 draws, or one of those draws sits at
    a with fraction u, beats the other n - 2 and X_n. Between the
    breakpoints u = lam_a / lam_j, 1 - q_a(u) = alpha - beta u is linear
    and c_a(u) = alpha (the mass of the atoms not yet saturated), so a
    segment [s, t] integrates to mu_a alpha ((alpha - beta s)^(n-1) -
    (alpha - beta t)^(n-1)) / beta. The race is null with probability
    mu(lam = 0)^n. Python floats throughout, O(S^2) over S atoms.

    alpha and beta are exact sums rounded once (math.fsum), and each base
    of a power is clipped to [0, 1], where the exact base lies: a base
    rounded above 1 would grow without bound in n, and overflow past
    n of about 2^52."""
    mu = [float(m) for m in pair.mu_weights]
    lam = [
        pair.z_true * float(r) if m > 0 else 0.0
        for m, r in zip(mu, pair.ratio_cache)
    ]
    e = n - 1
    law = np.zeros(pair.support_size)
    for a, (mu_a, lam_a) in enumerate(zip(mu, lam)):
        if mu_a == 0.0 or lam_a == 0.0:
            continue
        cuts = sorted({lam_a / lj for lj in lam if lj > lam_a} | {0.0, 1.0})
        total = 0.0
        for s, t in zip(cuts, cuts[1:]):
            mid = 0.5 * (s + t)
            linear = [(m, lj) for m, lj in zip(mu, lam) if mid * lj < lam_a]
            alpha = math.fsum(m for m, _ in linear)
            beta = math.fsum(m * lj for m, lj in linear) / lam_a
            total += mu_a * alpha * (
                _unit(alpha - beta * s) ** e - _unit(alpha - beta * t) ** e
            ) / beta
        # at u = 1 every atom at or above lam_a is saturated
        survive = math.fsum(m for m, lj in zip(mu, lam) if lj < lam_a) - math.fsum(
            m * lj for m, lj in zip(mu, lam) if lj < lam_a
        ) / lam_a
        law[a] = total + mu_a * _unit(survive) ** e
    null = sum(m for m, lj in zip(mu, lam) if lj == 0.0) ** n
    return law, null


def check_race_counts(counts, nulls: int, trials: int, pair, n: int) -> None:
    """Every atom's winner count, and the null count, lies in its
    alpha-band of the exact race law."""
    law, null = race_law(pair, n)
    for observed, p in [*zip(counts.tolist(), law.tolist()), (nulls, null)]:
        lo, hi = binomial_band(trials, p)
        assert lo <= observed <= hi, (observed, lo, hi, p, n)
