"""The sub-stream rule: item i of a seed is the Philox stream keyed by
the words [seed, i], walked with one re-keyed generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pfest
from pfest import distributions, estimators, harness, rng, sampler
from pfest import make_bernoulli_pair, make_random_pair
from pfest.distributions import sample, sample_counts
from pfest.estimators import ESTIMATORS, EstimateReport, median_of_means, run_trials
from pfest.rng import make_generator, substreams
from pfest.sampler import run_races

ITEMS = 6


def _draws(gen):
    # an odd number of 32-bit draws leaves half a word buffered, which
    # the re-key must drop
    return (
        gen.random(5).tolist(),
        gen.integers(0, 2**31, size=3, dtype=np.int32).tolist(),
        gen.multinomial(50, [0.25, 0.75], size=2).tolist(),
        gen.standard_normal(3).tolist(),
    )


def _check_rule(seed):
    items = [(key, _draws(gen)) for key, gen in substreams(seed, ITEMS)]
    assert [key for key, _ in items] == [seed + (i << 64) for i in range(ITEMS)]
    for key, drawn in items:
        assert drawn == _draws(make_generator(key))


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_item_i_is_the_stream_keyed_by_seed_and_i(seed):
    _check_rule(seed)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_item_i_is_the_stream_keyed_by_seed_and_i_for_any_seed(seed):
    _check_rule(seed)


def test_key_words_are_seed_then_item():
    state = make_generator(7 + (3 << 64)).bit_generator.state["state"]
    assert state["key"].tolist() == [7, 3]


def test_key_and_seed_bounds():
    make_generator(2**128 - 1)
    for bad in (2**128, -1):
        with pytest.raises(ValueError):
            make_generator(bad)
    for bad in (2**64, -1):
        with pytest.raises(ValueError):
            next(substreams(bad, 1))
    assert list(substreams(3, 0)) == []


@pytest.mark.parametrize("n", [600, 5000], ids=["draw-path", "count-path"])
def test_a_trial_replays_from_its_key(monkeypatch, n):
    # 64 atoms and 19 groups: 600 draws take the batch path, 5000 the
    # count path
    pair, seed, delta = make_random_pair(64, 5), 41, 0.1
    batches = []
    draw = estimators.sample

    def recorded(*args):
        batches.append(draw(*args))
        return batches[-1]

    monkeypatch.setattr(estimators, "sample", recorded)
    results = run_trials(pair, "mom", n, 3, seed, 0.25, delta)
    entry = ESTIMATORS["mom"]
    k, size = entry.groups(n, delta)
    for t, (rep, _) in enumerate(results):
        key = seed + (t << 64)
        if n < k * pair.support_size:
            batch = sample(pair, n, key)
            np.testing.assert_array_equal(batch.atoms, batches[t].atoms)
            assert batch.seed == batches[t].seed == key
            replay = median_of_means(batch, delta, true_value=1.0)
        else:
            counts = sample_counts(pair, size, k, key)
            estimate = entry.from_counts(pair, counts[None], 0.25, delta, None, None)
            replay = EstimateReport(float(estimate[0]), k * size, k, 1.0)
        assert replay == rep
    assert len(batches) == (3 if n < k * pair.support_size else 0)


def _count_seeding(monkeypatch):
    """Count derive_seed calls, under every name pfest holds it by, and
    Philox constructions."""
    calls = {"derive_seed": 0, "Philox": 0}
    derive, philox = rng.derive_seed, np.random.Philox

    def counted_derive(*args):
        calls["derive_seed"] += 1
        return derive(*args)

    def counted_philox(*args, **kwargs):
        calls["Philox"] += 1
        return philox(*args, **kwargs)

    for mod in (pfest, rng, distributions, estimators, sampler, harness):
        if hasattr(mod, "derive_seed"):
            monkeypatch.setattr(mod, "derive_seed", counted_derive)
    monkeypatch.setattr(np.random, "Philox", counted_philox)
    return calls


@pytest.mark.parametrize(
    "pair",
    [make_bernoulli_pair(0.5, 0.25), make_random_pair(1 << 12, 3)],
    ids=["count-engine", "draw-engine"],
)
def test_run_trials_seeds_one_generator_per_call(monkeypatch, pair):
    calls = _count_seeding(monkeypatch)
    run_trials(pair, "mom", 1000, 5, 1, 0.25, 0.1)
    assert calls == {"derive_seed": 0, "Philox": 1}


def test_run_races_seeds_one_generator_per_call(monkeypatch, bern):
    calls = _count_seeding(monkeypatch)
    # 2^20 // 2^17 = 8 races per block: 3 blocks
    summary = run_races(bern, 1 << 17, 24, 9)
    assert summary.counts.sum() + summary.null_races == 24
    assert calls == {"derive_seed": 0, "Philox": 1}
