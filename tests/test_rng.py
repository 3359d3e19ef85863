"""The sub-stream rule: item i of a seed is the Philox stream keyed by
the words [seed, i], each item with a generator of its own."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pfest
from pfest import distributions, estimators, harness, rng, sampler
from pfest import make_bernoulli_pair, make_random_pair
from pfest.distributions import SampleBatch, sample, sample_counts
from pfest.estimators import ESTIMATORS, median_of_means, run_trials
from pfest.rng import make_generator, substreams
from pfest.sampler import run_races

ITEMS = 6


def _draws(gen):
    # an odd number of 32-bit draws leaves half a word buffered, which
    # no other item may see
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


def test_items_are_independent_of_the_order_they_are_drawn_in():
    # all items first, then their draws, last item first
    seed = 2**64 - 3
    items = list(substreams(seed, 3))
    drawn = {key: _draws(gen) for key, gen in reversed(items)}
    assert list(drawn) == [seed + (i << 64) for i in (2, 1, 0)]
    for key, gen in items:
        assert drawn[key] == _draws(make_generator(key))
        assert gen.bit_generator.state["state"]["key"].tolist() == [seed, key >> 64]


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


@pytest.mark.parametrize("start", [*range(10), 2**16 + 3])
def test_a_generator_started_at_word_s_draws_the_stream_from_word_s(start):
    # Generator.random takes one 64-bit word per double, and a Philox4x64
    # counter step makes four: a numpy that changed either fails here
    drawn = make_generator(20260818, start=start).random(9)
    assert drawn.tolist() == make_generator(20260818).random(start + 9)[start:].tolist()


def test_a_far_start_draws_the_tail_of_the_same_draw():
    far = 2**70 + 1
    drawn = make_generator(7 + (5 << 64), start=far).random(12)
    for j in range(1, 8):
        later = make_generator(7 + (5 << 64), start=far + j).random(12 - j)
        assert later.tolist() == drawn[j:].tolist()


def test_start_bounds():
    make_generator(3, start=2**258 - 1).random(2)
    for bad in (2**258, -1):
        with pytest.raises(ValueError, match="start must be a word of the stream"):
            make_generator(3, start=bad)


@pytest.mark.parametrize("n", [600, 5000], ids=["draw-path", "count-path"])
def test_a_trial_replays_from_its_key(monkeypatch, n):
    # 64 atoms and 19 groups: 600 draws take the batch path, 5000 the
    # count path; blocks of 2 trials, so 5 trials fill three blocks
    pair, seed, delta, trials = make_random_pair(64, 5), 41, 0.1, 5
    entry = ESTIMATORS["mom"]
    k, size = entry.groups(n, delta)
    counting = k * pair.support_size <= n
    row = k * pair.support_size if counting else n
    monkeypatch.setattr(estimators, "TRIAL_BLOCK_ELEMENTS", 2 * row + 1)
    blocks = []

    def recorded(name):
        draw = getattr(estimators, name)

        def record(pair, gen, *args):
            key = gen.bit_generator.state["state"]["key"].tolist()
            result = draw(pair, gen, *args)
            drawn = result if name == "count_block" else args[0]
            blocks.append((name, key, drawn.copy()))
            return result

        return record

    for name in ("draw_block", "count_block"):
        monkeypatch.setattr(estimators, name, recorded(name))
    record = run_trials(pair, "mom", n, trials, seed, 0.25, delta)
    assert (record.estimates.size, record.n_used, record.truth) == (
        trials, k * size, 1.0
    )
    # one call per block, each under the key words [seed, b]
    engine = "count_block" if counting else "draw_block"
    assert [(name, key) for name, key, _ in blocks] == [
        (engine, [seed, b]) for b in range(3)
    ]
    for t, estimate in enumerate(record.estimates):
        r, b = t % 2, t // 2
        key, drawn = seed + (b << 64), blocks[b][2][r]
        if counting:
            counts = sample_counts(pair, size, (r + 1) * k, key)[r * k:]
            np.testing.assert_array_equal(counts, drawn)
            (replay,) = entry.from_counts(pair, counts[None], 0.25, delta, None, None)
        else:
            batch = sample(pair, (r + 1) * n, key)
            assert batch.seed == key
            np.testing.assert_array_equal(batch.lambdas[r * n:], drawn)
            row_batch = SampleBatch(atoms=batch.atoms[r * n:],
                                    lambdas=batch.lambdas[r * n:], seed=key, n=n)
            report = median_of_means(row_batch, delta)
            assert (report.n_used, report.k_groups) == (k * size, k)
            replay = report.estimate
        assert replay == estimate


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
    # one multinomial draw per call, whatever the race count
    calls = _count_seeding(monkeypatch)
    for trials in (1, 699_051, 10**12):
        summary = run_races(bern, 12, trials, 9)
        assert summary.counts.sum() + summary.null_races == trials
    assert calls == {"derive_seed": 0, "Philox": 3}


def _plain(state):
    return {
        k: _plain(v) if isinstance(v, dict) else np.asarray(v).tolist()
        for k, v in state.items()
    }


def _check_philox_keyed_by(key):
    """make_generator(key) is Generator(Philox(key=key)): the same state
    (key words, counter, buffer), the same draws, and it survives a
    pickle round trip and a deep copy."""
    gen, ref = make_generator(key), np.random.Generator(np.random.Philox(key=key))
    assert _plain(gen.bit_generator.state) == _plain(ref.bit_generator.state)
    assert _draws(gen) == _draws(ref)
    for clone in (lambda g: pickle.loads(pickle.dumps(g)), copy.deepcopy):
        copied = clone(gen)
        assert _draws(copied) == _draws(gen)


@pytest.mark.parametrize("key", [0, 1, 2**64 - 1, 7 + (3 << 64), 2**128 - 1])
def test_generator_is_philox_keyed_by_the_seed(key):
    _check_philox_keyed_by(key)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**128 - 1))
def test_generator_is_philox_keyed_by_the_seed_for_any_key(key):
    _check_philox_keyed_by(key)


@pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (1, np.uint64), (4, np.uint64)])
def test_key_words_refuse_any_other_request(n_words, dtype):
    with pytest.raises(RuntimeError, match="not the 2 uint64 key words"):
        rng._KeyWords(5).generate_state(n_words, dtype)
