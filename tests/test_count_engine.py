"""The count engine of run_trials: per-atom hit counts in place of atom
sequences on supports that are small against n."""

import math
import tracemalloc

import numpy as np
import pytest

from pfest import (
    EstimateReport,
    SampleBatch,
    make_bernoulli_pair,
    make_finite_pair,
    make_pointmass_pair,
    make_random_pair,
    median_of_means,
    quantile_estimator,
    sample,
    sample_counts,
    snis,
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
            (by_counts,) = entry.from_counts(pair, hist[None], eps, delta, level, g)
            (by_batch,) = entry.estimate(
                batch.lambdas[None], batch.atoms[None], eps, delta, level, g
            )
            assert by_counts == pytest.approx(by_batch, rel=1e-12)


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


def _replay(pair, method, n, t, seed, eps, delta, level, g):
    """Trial t of ``run_trials`` rebuilt from its key alone, through the
    one-row forms: the public estimator on ``sample``'s batch, or the
    counts form on the one-row block of ``sample_counts``'s histograms."""
    entry = ESTIMATORS[method]
    key, truth = seed + (t << 64), entry.truth(pair, g)
    k, size = entry.groups(n, delta)
    if k * (pair.last_drawable_atom + 1) <= n:
        counts = sample_counts(pair, size, k, key)
        (estimate,) = entry.from_counts(pair, counts[None], eps, delta, level, g)
        return EstimateReport(estimate, k * size, k if entry.grouped else 0, truth)
    batch = sample(pair, n, key)
    if method == "mom":
        return median_of_means(batch, delta, truth)
    if method == "quantile":
        return quantile_estimator(batch, eps, level, truth)
    return snis(batch, g, truth)


def _assert_blocks_equal_replays(pair, method, n, trials, seed, level=2.0):
    eps, delta = 0.3, 0.1
    g = make_generator(seed).random(pair.support_size)
    results = run_trials(pair, method, n, trials, seed, eps, delta, m=level, g=g)
    assert len(results) == trials
    for t, (report, ok) in enumerate(results):
        replay = _replay(pair, method, n, t, seed, eps, delta, level, g)
        assert report == replay, (t, report, replay)
        assert ok == ESTIMATORS[method].success(replay.estimate, replay.true_value,
                                                eps, level)


@pytest.mark.parametrize("method", list(ESTIMATORS))
@pytest.mark.parametrize("name", list(COUNT_PAIRS))
def test_count_blocks_equal_their_replays(monkeypatch, name, method):
    # blocks of 7 trials: 30 trials fill four and leave 2 for a fifth
    pair, n = COUNT_PAIRS[name], 1300
    k = ESTIMATORS[method].groups(n, 0.1)[0]
    assert k * pair.support_size <= n
    monkeypatch.setattr(estimators, "RACE_CHUNK_ELEMENTS", 7 * k * pair.support_size + 1)
    _assert_blocks_equal_replays(pair, method, n, 30, 11 + len(name))


def test_mom_count_blocks_of_the_full_budget_equal_their_replays():
    # 19 histograms of 64 atoms: 862 trials in the first 2^20 block, 38
    # in the second
    _assert_blocks_equal_replays(make_random_pair(64, 5), "mom", 5000, 900, 41)


@pytest.fixture(scope="module")
def wide_pair():
    return make_random_pair(1 << 18, 9)


@pytest.mark.parametrize("method", list(ESTIMATORS))
def test_draw_blocks_equal_their_replays(wide_pair, method):
    # 2^17 draws per trial on 2^18 atoms: 8 trials in the first 2^20
    # block, 1 in the second
    _assert_blocks_equal_replays(wide_pair, method, 1 << 17, 9, 7)


@pytest.mark.parametrize("method", list(ESTIMATORS))
def test_run_trials_of_no_trials_is_empty(method):
    pair = make_random_pair(64, 1)
    g = np.ones(pair.support_size)
    for n in (40, 5000):  # the draw and the count engine
        assert run_trials(pair, method, n, 0, 3, 0.3, 0.1, m=2.0, g=g) == []


@pytest.mark.parametrize("method", list(ESTIMATORS))
def test_draw_blocks_stay_within_the_budget(method):
    """2^22 draws over 1 024 trials: stacked whole, their density values
    and atoms would take 64 MiB; run in blocks of 2^20 draws, the two
    block arrays take 16 MiB and quantile's partition 8 MiB more."""
    pair, n, trials = make_random_pair(8192, 3), 4096, 1024
    g = np.ones(pair.support_size)
    assert ESTIMATORS[method].groups(n, 0.1)[0] * pair.support_size > n
    tracemalloc.start()
    try:
        run_trials(pair, method, n, trials, 5, 0.3, 0.1, m=2.0, g=g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
