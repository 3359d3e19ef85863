"""The count engine of run_trials: per-atom hit counts in place of atom
sequences on supports that are small against n."""

import dataclasses
import math

import numpy as np
import pytest

from pfest import (
    SampleBatch,
    make_bernoulli_pair,
    make_finite_pair,
    make_pointmass_pair,
    make_random_pair,
    sample_counts,
    within_multiplicative,
)
from pfest import estimators
from pfest.estimators import ESTIMATORS, group_count, run_trials
from pfest.rng import make_generator

ALPHA = 1e-6


def _log_binom_pmf(n: int, p: float, x: int) -> float:
    return (
        math.lgamma(n + 1) - math.lgamma(x + 1) - math.lgamma(n - x + 1)
        + x * math.log(p) + (n - x) * math.log1p(-p)
    )


def _binomial_band(trials: int, p: float, alpha: float = ALPHA) -> tuple[int, int]:
    """Smallest [lo, hi] with P[X < lo] and P[X > hi] each at most
    alpha / 2 for X ~ Bin(trials, p)."""
    pmf = [math.exp(_log_binom_pmf(trials, p, x)) for x in range(trials + 1)]
    lo, tail = 0, pmf[0]
    while tail <= alpha / 2:
        lo += 1
        tail += pmf[lo]
    hi, tail = trials, pmf[trials]
    while tail <= alpha / 2:
        hi -= 1
        tail += pmf[hi]
    return lo, hi


def _mom_success_two_atom(pair, n: int, delta: float, eps: float) -> float:
    """Exact success probability of median-of-means on a two-atom pair.

    A group mean is a function of its hits X ~ Bin(m, mu_1) on atom 1.
    The lower median of k groups (index j = (k - 1) // 2 once sorted)
    is inside the interval iff at most j groups fall below it and at
    most k - 1 - j above it: a trinomial sum."""
    k = group_count(delta)
    m = n // k
    lam0, lam1 = pair.lambda_values
    q = float(pair.mu_weights[1])
    below = inside = above = 0.0
    for x in range(m + 1):
        p = math.comb(m, x) * q**x * (1.0 - q) ** (m - x)
        mean = (lam0 * (m - x) + lam1 * x) / m
        if within_multiplicative(mean, pair.z_true, eps):
            inside += p
        elif mean < pair.z_true:
            below += p
        else:
            above += p
    j = (k - 1) // 2
    total = 0.0
    for b in range(j + 1):
        for a in range(k - j):
            total += (
                math.factorial(k)
                / (math.factorial(b) * math.factorial(a) * math.factorial(k - a - b))
                * below**b * above**a * inside ** (k - a - b)
            )
    return total


def test_count_engine_mom_success_follows_the_exact_law():
    # below the plan (1 253): k = 19 groups of 8 draws, where a group
    # mean lands inside the eps = 0.05 interval only with 4 hits of 8
    pair = make_bernoulli_pair(0.5, 0.25)
    n, delta, eps, trials = 152, 0.1, 0.05, 4000
    p = _mom_success_two_atom(pair, n, delta, eps)
    assert 0.05 < p < 0.95
    results = run_trials(pair, "mom", n, trials, 20261018, eps, delta)
    hits = sum(ok for _, ok in results)
    lo, hi = _binomial_band(trials, p)
    assert lo <= hits <= hi, (hits, lo, hi, p)


COUNT_PAIRS = {
    "two-atom": make_random_pair(2, 0, z=2.5),
    "five-atom": make_random_pair(5, 1, z=0.3),
    "forty-atom": make_random_pair(40, 2),
    # lambda is inf on atoms the proposal never visits
    "singular-trailing": make_pointmass_pair(0.3),
    "singular-interior": make_finite_pair([0.5, 0.0, 0.5], [0.25, 0.5, 0.25], 1.5),
}


@pytest.mark.parametrize("name", list(COUNT_PAIRS))
def test_counts_forms_match_the_batch_estimators(name):
    pair = COUNT_PAIRS[name]
    delta, eps, level, m = 0.1, 0.3, 2.0, 13
    k = group_count(delta)
    gen = make_generator(len(name))
    g = gen.random(pair.support_size)
    for seed in range(5):
        counts = sample_counts(pair, m, k, seed)
        # each group's atoms in a shuffled order, the groups one after another
        atoms = np.concatenate([
            gen.permutation(np.repeat(np.arange(pair.support_size), row))
            for row in counts
        ])
        batch = SampleBatch(atoms=atoms, lambdas=pair.lambda_at(atoms), seed=seed,
                            n=atoms.size)
        for method, entry in ESTIMATORS.items():
            hist = counts if method == "mom" else counts.sum(axis=0, keepdims=True)
            by_counts = entry.from_counts(pair, hist, eps, delta, level, g, 1.0)
            by_batch = entry.estimate(batch, eps, delta, level, g, 1.0)
            assert by_counts.estimate == pytest.approx(by_batch.estimate, rel=1e-12)
            assert dataclasses.replace(by_counts, estimate=by_batch.estimate) == by_batch


def test_run_trials_draws_counts_only_where_the_support_is_small(monkeypatch):
    calls = []
    draw = estimators.sample

    def counted(*args):
        calls.append(args)
        return draw(*args)

    monkeypatch.setattr(estimators, "sample", counted)
    run_trials(make_bernoulli_pair(0.5, 0.25), "mom", 1000, 4, 1, 0.25, 0.1)
    assert calls == []
    run_trials(make_random_pair(1 << 17, 3), "mom", 1000, 3, 1, 0.5, 0.1)
    assert len(calls) == 3
