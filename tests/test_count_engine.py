"""The count engine of run_trials: per-atom hit counts in place of atom
sequences on supports that are small against n."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pfest import (
    CoverageProfile,
    EstimateReport,
    SampleBatch,
    make_bernoulli_pair,
    make_finite_pair,
    make_pointmass_pair,
    make_random_pair,
    median_of_means,
    plan_n_quantile,
    quantile_estimator,
    sample,
    sample_counts,
    snis,
)
from pfest import estimators
from pfest.distributions import count_block
from pfest.estimators import ESTIMATORS, group_count, run_trials
from pfest.rng import make_generator

from exact_laws import binomial_band, quantile_fail, two_level_fail


def test_count_engine_mom_success_follows_the_exact_law():
    # below the plan (1 253): k = 19 groups of 8 draws, where a group
    # mean lands inside the eps = 0.05 interval only with 4 hits of 8
    pair = make_bernoulli_pair(0.5, 0.25)
    n, delta, eps, trials = 152, 0.1, 0.05, 4000
    p = two_level_fail(pair, "mom", n, eps, delta)
    assert 0.05 < p < 0.95
    record = run_trials(pair, "mom", n, trials, 20261018, eps, delta)
    misses = trials - int(np.count_nonzero(record.success))
    lo, hi = binomial_band(trials, p)
    assert lo <= misses <= hi, (misses, lo, hi, p)


# (pair, n, eps, level, g) per method, each below its plan, where the
# exact failure probability is far from 0 and 1: mom as above; quantile
# succeeds on the low atom only (level 1.2 < lambda_1 = 1.5), at rank
# 180 of 200; snis's estimate stays at least 0.004 eps away from the
# interval's edges.
EXACT_LAW_CASES = {
    "mom": (make_bernoulli_pair(0.5, 0.25), 152, 0.05, None, None),
    "quantile": (make_finite_pair([0.9, 0.1], [0.85, 0.15], 1.0), 200, 0.5, 1.2, None),
    "snis": (make_bernoulli_pair(0.5, 0.25), 100, 0.05, None, np.array([0.0, 1.0])),
}


@pytest.mark.parametrize("engine", ["count", "draw"])
def test_snis_of_a_g_near_the_float_maximum_is_that_g(monkeypatch, engine):
    """Every weighted sum of g = 1e308 passes the float range, yet the
    SNIS estimate of a constant g is the constant, on either engine."""
    pair, n, g = make_bernoulli_pair(0.5, 0.25), 6120, np.array([1e308, 1e308])
    if engine == "draw":
        monkeypatch.setattr(estimators, "COUNT_ENGINE_RATIO", n + 1)
    calls = []
    form = "from_counts" if engine == "count" else "estimate"
    original = getattr(ESTIMATORS["snis"], form)
    monkeypatch.setitem(ESTIMATORS, "snis", dataclasses.replace(
        ESTIMATORS["snis"], **{form: lambda *args: calls.append(1) or original(*args)}
    ))
    record = run_trials(pair, "snis", n, 5, 1, 0.25, 0.1, g=g)
    assert calls and record.truth == 1e308
    assert np.all(np.abs(record.estimates - 1e308) <= 1e-12 * 1e308)
    assert record.success.all()


# mom on the count engine is test_count_engine_mom_success_follows_the_exact_law
@pytest.mark.parametrize(
    "method, engine",
    [(method, engine) for method in EXACT_LAW_CASES for engine in ("count", "draw")
     if (method, engine) != ("mom", "count")],
)
def test_success_follows_the_exact_law(monkeypatch, method, engine):
    pair, n, eps, level, g = EXACT_LAW_CASES[method]
    delta, trials = 0.1, 4000
    k = ESTIMATORS[method].groups(n, delta)[0]
    assert k * pair.support_size <= n
    if engine == "draw":
        monkeypatch.setattr(estimators, "COUNT_ENGINE_RATIO", n + 1)
    if method == "quantile":
        p = sum(quantile_fail(pair, n, eps, level))
    else:
        p = two_level_fail(pair, method, n, eps, delta, g)
    assert 0.05 < p < 0.95
    record = run_trials(pair, method, n, trials, 20261019, eps, delta, m=level, g=g)
    misses = trials - int(np.count_nonzero(record.success))
    lo, hi = binomial_band(trials, p)
    assert lo <= misses <= hi, (misses, lo, hi, p)



@pytest.mark.parametrize("engine", ["count", "draw"])
@pytest.mark.parametrize("size, seed", [(64, 1), (1024, 1), (64, 7)])
def test_quantile_failures_follow_the_exact_law_on_many_levels(
    monkeypatch, size, seed, engine
):
    # at the quantile plan, where the high side fails with probability
    # 0.239, 0.076 and 0.042 and the low side with at most 3e-206; how
    # these compare with delta is ROADMAP item 10's, not this test's
    pair, eps, delta, trials = make_random_pair(size, seed), 0.25, 0.1, 4000
    plan = plan_n_quantile(eps, delta, profile=CoverageProfile.from_pair(pair))
    assert size <= plan.n
    if engine == "draw":
        monkeypatch.setattr(estimators, "COUNT_ENGINE_RATIO", plan.n + 1)
    record = run_trials(pair, "quantile", plan.n, trials, 20261020, eps, delta, m=plan.m)
    observed = (
        int(np.count_nonzero(record.estimates < (1.0 - eps) * pair.z_true)),
        int(np.count_nonzero(record.estimates > plan.m * pair.z_true)),
    )
    assert sum(observed) == trials - np.count_nonzero(record.success)
    for misses, p in zip(observed, quantile_fail(pair, plan.n, eps, plan.m)):
        lo, hi = binomial_band(trials, p)
        assert lo <= misses <= hi, (misses, lo, hi, p)

COUNT_PAIRS = {
    "two-atom": make_random_pair(2, 0, z=2.5),
    "five-atom": make_random_pair(5, 1, z=0.3),
    "forty-atom": make_random_pair(40, 2),
    # lambda is inf on atoms the proposal never visits
    "singular-trailing": make_pointmass_pair(0.3),
    "singular-interior": make_finite_pair([0.5, 0.0, 0.5], [0.25, 0.5, 0.25], 1.5),
}


# zeros give atoms without proposal mass (trailing ones among them) and
# a density level of 0.0, which a target weight of -0.0 joins as 0.0
_count_weight = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0])


@given(
    weights=st.lists(st.tuples(_count_weight, _count_weight), min_size=1, max_size=8),
    seed=st.integers(0, 2**32), n=st.integers(1, 60),
    eps=st.floats(0.01, 0.99), m=st.floats(1.0, 8.0),
)
def test_quantile_counts_take_the_order_statistic_bit_for_bit(weights, seed, n, eps, m):
    """The quantile from hit counts is the density value of the draw at
    the estimator's rank when the draws are laid out by value, ties in
    increasing order of atom. A -0.0 weight is read as 0.0, so an
    estimate on the level 0 is 0.0."""
    mu = np.array([w[0] for w in weights])
    nu = np.array([w[1] for w in weights])
    if mu.sum() <= 0 or nu.sum() <= 0:
        return
    pair = make_finite_pair(mu / mu.sum(), nu / nu.sum(), 1.5)
    counts = count_block(pair, make_generator(seed), n, 3, 1)
    got = estimators._quantile_counts(pair, counts, eps, None, m, None)
    rank = estimators._quantile_rank(eps, m, n)
    for row, value in zip(counts[:, 0], got):
        drawn = pair.lambda_drawn[np.repeat(np.arange(row.size), row)]
        expected = drawn[np.argsort(drawn, kind="stable")[rank - 1]]
        assert np.float64(value).tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", list(COUNT_PAIRS))
def test_counts_forms_match_the_batch_estimators(name):
    pair = COUNT_PAIRS[name]
    delta, eps, level, m = 0.1, 0.3, 2.0, 13
    k = group_count(delta)
    gen = make_generator(len(name))
    g = gen.random(pair.support_size)
    for seed in range(5):
        # the histograms over the atoms up to the last one with proposal mass
        counts = count_block(pair, make_generator(seed), m, 1, k)[0]
        # each group's atoms in a shuffled order, the groups one after another
        atoms = np.concatenate([
            gen.permutation(np.repeat(np.arange(counts.shape[1]), row))
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

    def recorded(name):
        draw = getattr(estimators, name)

        def record(pair, gen, *args):
            result = draw(pair, gen, *args)
            calls.append((name, (result if name == "count_block" else args[0]).shape))
            return result

        return record

    for name in ("draw_block", "count_block"):
        monkeypatch.setattr(estimators, name, recorded(name))
    run_trials(make_bernoulli_pair(0.5, 0.25), "mom", 1000, 4, 1, 0.25, 0.1)
    assert calls == [("count_block", (4, 19, 2))]
    calls.clear()
    run_trials(make_random_pair(1 << 17, 3), "mom", 1000, 3, 1, 0.5, 0.1)
    assert calls == [("draw_block", (3, 1000))]


def _block_rows(pair, method, n, delta):
    """B, the trials per block of ``run_trials``, and whether it counts."""
    k = ESTIMATORS[method].groups(n, delta)[0]
    drawable = pair.last_drawable_atom + 1
    counting = estimators.COUNT_ENGINE_RATIO * k * drawable <= n
    return max(1, estimators.TRIAL_BLOCK_ELEMENTS // (k * drawable if counting else n)), counting


def _replays(pair, method, n, trials, seed, eps, delta, level, g):
    """Every trial of ``run_trials`` rebuilt by the block-and-row rule,
    through the one-row forms: trial t is row r = t mod B of block
    b = t // B, the last n draws of ``sample(pair, (r + 1) n, key)`` or
    the last k histograms of ``sample_counts(pair, size, (r + 1) k,
    key)`` under key = seed + (b << 64). Its report is the public
    estimator's on that batch, or the counts form's on the one-row block
    of those histograms. Each block is drawn once, as the replay of its
    last row, whose rows r are the replays of the shorter draws; that
    they are is checked on its first row."""
    entry = ESTIMATORS[method]
    truth = entry.truth(pair, g)
    k, size = entry.groups(n, delta)
    per_block, counting = _block_rows(pair, method, n, delta)
    reports = []
    for b, start in enumerate(range(0, trials, per_block)):
        key, rows = seed + (b << 64), min(per_block, trials - start)
        if counting:
            counts = sample_counts(pair, size, rows * k, key)
            np.testing.assert_array_equal(counts[:k], sample_counts(pair, size, k, key))
            assert not counts[:, pair.last_drawable_atom + 1:].any()
            for r in range(rows):
                (estimate,) = entry.from_counts(
                    pair, counts[None, r * k:(r + 1) * k, :pair.last_drawable_atom + 1],
                    eps, delta, level, g,
                )
                reports.append(EstimateReport(float(estimate), k * size, true_value=truth))
            continue
        drawn = sample(pair, rows * n, key)
        np.testing.assert_array_equal(drawn.atoms[:n], sample(pair, n, key).atoms)
        for r in range(rows):
            batch = SampleBatch(atoms=drawn.atoms[r * n:(r + 1) * n],
                                lambdas=drawn.lambdas[r * n:(r + 1) * n], seed=key, n=n)
            if method == "mom":
                reports.append(median_of_means(batch, delta, truth))
            elif method == "quantile":
                reports.append(quantile_estimator(batch, eps, level, truth))
            else:
                reports.append(snis(batch, g, truth))
    return reports


def _assert_blocks_equal_replays(pair, method, n, trials, seed, level=2.0):
    eps, delta = 0.3, 0.1
    g = make_generator(seed).random(pair.support_size)
    record = run_trials(pair, method, n, trials, seed, eps, delta, m=level, g=g)
    assert record.estimates.shape == record.success.shape == (trials,)
    rel_errors = record.rel_errors
    replays = _replays(pair, method, n, trials, seed, eps, delta, level, g)
    assert len(replays) == trials
    for t, replay in enumerate(replays):
        got = (record.estimates[t], record.n_used, record.truth, rel_errors[t])
        assert got == (replay.estimate, replay.n_used, replay.true_value,
                       replay.rel_error), (t, got, replay)
        assert record.success[t] == ESTIMATORS[method].success(
            replay.estimate, replay.true_value, eps, level
        )


@pytest.mark.parametrize("method", list(ESTIMATORS))
@pytest.mark.parametrize("name", list(COUNT_PAIRS))
def test_count_blocks_equal_their_replays(monkeypatch, name, method):
    # blocks of 7 trials: 30 trials fill four and leave 2 for a fifth
    pair, n = COUNT_PAIRS[name], 1300
    k = ESTIMATORS[method].groups(n, 0.1)[0]
    row = k * (pair.last_drawable_atom + 1)
    assert k * pair.support_size <= n
    monkeypatch.setattr(estimators, "TRIAL_BLOCK_ELEMENTS", 8 * row - 1)
    assert _block_rows(pair, method, n, 0.1) == (7, True)
    _assert_blocks_equal_replays(pair, method, n, 30, 11 + len(name))


def test_mom_count_blocks_of_the_full_budget_equal_their_replays():
    # 19 histograms of 64 atoms: 862 trials in the first 2^20 block, 38
    # in the second
    pair = make_random_pair(64, 5)
    assert _block_rows(pair, "mom", 5000, 0.1) == (862, True)
    _assert_blocks_equal_replays(pair, "mom", 5000, 900, 41)


@pytest.fixture(scope="module")
def wide_pair():
    return make_random_pair(1 << 18, 9)


@pytest.mark.parametrize("method", list(ESTIMATORS))
def test_draw_blocks_equal_their_replays(wide_pair, method):
    # 2^17 draws per trial on 2^18 atoms: 8 trials in the first 2^20
    # block, 1 in the second
    assert _block_rows(wide_pair, method, 1 << 17, 0.1) == (8, False)
    _assert_blocks_equal_replays(wide_pair, method, 1 << 17, 9, 7)


@pytest.mark.parametrize("engine", ["count", "draw"])
@pytest.mark.parametrize("method", list(ESTIMATORS))
def test_an_estimate_does_not_depend_on_the_trial_count(monkeypatch, method, engine):
    # blocks of 4 trials: 6 trials end inside the second block, 11 in
    # the third
    pair, n, level = make_random_pair(5, 1, z=0.3), 1300, 2.0
    g = make_generator(2).random(pair.support_size)
    if engine == "draw":
        monkeypatch.setattr(estimators, "COUNT_ENGINE_RATIO", n + 1)
    k = ESTIMATORS[method].groups(n, 0.1)[0]
    row = k * pair.support_size if engine == "count" else n
    monkeypatch.setattr(estimators, "TRIAL_BLOCK_ELEMENTS", 4 * row)
    assert _block_rows(pair, method, n, 0.1) == (4, engine == "count")
    short, full = (
        run_trials(pair, method, n, trials, 3, 0.3, 0.1, m=level, g=g)
        for trials in (6, 11)
    )
    np.testing.assert_array_equal(short.estimates, full.estimates[:6])
    np.testing.assert_array_equal(short.success, full.success[:6])


@pytest.mark.parametrize("method", list(ESTIMATORS))
def test_draw_blocks_stay_within_the_budget(method):
    """2^22 draws over 1 024 trials: stacked whole, their density values
    and atoms would take 64 MiB; run in blocks of 2^20 draws, the
    density block takes 8 MiB, snis's atoms block 8 MiB more and
    quantile's partition 8 MiB more."""
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
    # only snis reads atoms, so only snis fills an atoms block
    assert peak < {"mom": 12, "quantile": 20}.get(method, 32) * 2**20
