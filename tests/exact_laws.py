"""Exact laws that the tests band-check Monte Carlo frequencies against,
written from their formulas, not from the library's tables."""

import math

import numpy as np

ALPHA = 1e-6


def log_binom_pmf(n: int, p: float, x: int) -> float:
    return (
        math.lgamma(n + 1) - math.lgamma(x + 1) - math.lgamma(n - x + 1)
        + x * math.log(p) + (n - x) * math.log1p(-p)
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
