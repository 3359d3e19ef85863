import gc
import hashlib
import math
import tracemalloc
import weakref

import numpy as np
import pytest

import pfest
from pfest import sampler
from pfest import (
    AllNullDrawsError,
    CoverageProfile,
    astar_sample,
    empirical_tv,
    make_bernoulli_pair,
    make_finite_pair,
    make_random_pair,
    make_twopoint_mu_pair,
    plan_n_sampling,
    run_races,
)
from pfest.coverage import PlanResult
from pfest.sampler import RaceSummary, sampling_plan

from exact_laws import binomial_band, check_race_counts, race_law


def test_identity_race_first_draw(identity_pair):
    """With a constant density the scores are the raw arrival times,
    which increase, so the first draw always wins."""
    for seed in (0, 1, 7, 123):
        atom, state = astar_sample(identity_pair, 5, seed)
        assert state.best_index == 0
        assert atom == state.atoms[0]
        assert state.best_score == state.scores[0]


def test_race_state_contents(bern):
    atom, state = astar_sample(bern, 8, 42)
    # the scores are checked against the arrivals in test_distributions.py
    assert state.atoms.shape == state.scores.shape == (8,)
    assert state.best_score == state.scores.min()
    assert atom == state.atoms[np.argmin(state.scores)]


def test_null_atoms_get_infinite_scores(twopoint):
    # find a seed whose draws include the zero-density atom
    for seed in range(50):
        try:
            atom, state = astar_sample(twopoint, 6, seed)
        except AllNullDrawsError:
            continue
        if (state.atoms == 0).any():
            break
    assert np.all(np.isinf(state.scores[state.atoms == 0]))
    assert atom == 1


def test_all_null_draws_raise(twopoint):
    # seed 0 puts all three draws on the zero-density atom
    with pytest.raises(AllNullDrawsError):
        astar_sample(twopoint, 3, 0)


def test_winner_invariant_under_scaling():
    base = make_twopoint_mu_pair(0.25)
    scaled = make_twopoint_mu_pair(0.25, z=7.0)

    def outcome(pair, seed):
        try:
            return astar_sample(pair, 6, seed)[0]
        except AllNullDrawsError:
            return None

    for seed in range(40):
        assert outcome(base, seed) == outcome(scaled, seed)


@pytest.mark.parametrize("z", [1e-310, 1e-320])
def test_a_z_past_the_float_range_does_not_move_the_winner(z):
    """lambda = z ratio is subnormal, so arrival over lambda overflows;
    the winner is picked on arrival over ratio, as at z = 1."""
    for make in (lambda z: make_bernoulli_pair(0.5, 0.25, z=z),
                 lambda z: make_random_pair(64, 9, z=z)):
        base, tiny = make(1.0), make(z)
        for seed in range(200):
            atom, state = astar_sample(base, 12, seed)
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                tiny_atom, tiny_state = astar_sample(tiny, 12, seed)
            assert (tiny_atom, tiny_state.best_index) == (atom, state.best_index)


def test_plan_anchors():
    assert plan_n_sampling(1.0, 0.3) == 5
    assert plan_n_sampling(4.0, 0.03) == 37
    assert plan_n_sampling(4.0, 0.1) == math.ceil(8 * math.log(30.0)) == 28
    # log(3/eps) can vanish; the plan never drops below one race draw
    assert plan_n_sampling(1.0, 2.9) == 1


def test_plan_past_float_range_is_an_int():
    # 2 M ln(3/eps) passes the float range although M does not
    m, eps = 1e308, 0.01
    n = plan_n_sampling(m, eps)
    assert isinstance(n, int)
    log_ref = math.log(2.0) + math.log(m) + math.log(math.log(3.0 / eps))
    assert math.log(n) == pytest.approx(log_ref, rel=1e-14)


def test_plan_validation():
    with pytest.raises(ValueError):
        plan_n_sampling(1.0, 3.0)
    with pytest.raises(ValueError):
        plan_n_sampling(1.0, 0.0)
    with pytest.raises(ValueError):
        plan_n_sampling(0.5, 0.3)
    with pytest.raises(ValueError, match="m must be >= 1, got nan"):
        plan_n_sampling(math.nan, 0.1)


def test_sampling_plan_is_a_plan_result(bern_profile):
    # one record for every plan, under every name it is exported as
    assert PlanResult is pfest.PlanResult is pfest.estimators.PlanResult
    plan = sampling_plan(bern_profile, 0.25)
    assert plan == PlanResult(7, 1.25, {"plan_constant": 2.0})
    assert plan.n == plan_n_sampling(plan.m, 0.25)


@pytest.mark.parametrize("eps", [5.0, 3.0, 0.0, -1.0])
def test_sampling_plan_checks_eps_before_the_profile(bern_profile, eps):
    # eps / 3 would otherwise reach the profile query as its target
    with pytest.raises(ValueError, match=r"eps must be in \(0, 3\)"):
        sampling_plan(bern_profile, eps)


@pytest.mark.parametrize("n", [2**63, 2**1024])
def test_races_past_int64_name_n(bern, n):
    # the single race holds its n draws; repeated races hold their
    # winner law over the atoms, so they run
    with pytest.raises(ValueError, match=f"n={n} "):
        astar_sample(bern, n, 0)
    summary = run_races(bern, n, 2, 0)
    assert (summary.n_per_race, summary.trials) == (n, 2)
    assert summary.counts.sum() + summary.null_races == 2


def test_races_of_any_length_follow_the_exact_law(twopoint):
    """run_races holds the winner law over the atoms, not n draws, so n
    may pass the int64 and the float range. Past 2^63 the law is still
    the exact one. Past the float range the level M* of the first n - 1
    draws' least score is above every ratio here, so the winner is a nu
    draw over the atoms with positive density."""
    trials = 1 << 20
    for pair in (make_bernoulli_pair(0.5, 0.25), make_random_pair(64, 20260864), twopoint):
        summary = run_races(pair, 2**63 + 1, trials, 5)
        check_race_counts(summary.counts, summary.null_races, trials, pair, 2**63 + 1)
        for n in (2**1024, 2**1100):
            summary = run_races(pair, n, trials, 6)
            assert summary.n_per_race == n
            assert summary.null_races == 0
            for count, p in zip(summary.counts.tolist(), pair.nu_weights.tolist()):
                lo, hi = binomial_band(trials, p)
                assert lo <= count <= hi, (count, lo, hi, p)


def test_run_races_deterministic(bern):
    a = run_races(bern, 6, 5000, 99)
    b = run_races(bern, 6, 5000, 99)
    np.testing.assert_array_equal(a.counts, b.counts)
    assert a.null_races == b.null_races
    c = run_races(bern, 6, 5000, 100)
    assert (a.counts != c.counts).any()


def test_run_races_accounting(twopoint):
    summary = run_races(twopoint, 2, 4000, 7)
    assert summary.counts.sum() + summary.null_races == 4000
    # the zero-density atom can never win
    assert summary.counts[0] == 0
    assert summary.null_races > 0
    assert summary.n_per_race == 2


def test_empirical_tv_manual(bern):
    summary = RaceSummary(
        counts=np.array([600, 300]), null_races=100, trials=1000, n_per_race=5
    )
    # 0.5 * (|0.6 - 0.375| + |0.3 - 0.625| + 0.1)
    assert empirical_tv(summary, bern) == pytest.approx(0.325, rel=1e-14)


def test_empirical_tv_converges(bern):
    n = plan_n_sampling(1.25, 0.03)
    assert n == 12
    summary = run_races(bern, n, 20_000, 20260814)
    tv_hat = empirical_tv(summary, bern)
    assert tv_hat <= 0.03 + 3 * math.sqrt(2 / 20_000)


def test_run_races_rejects_trials_past_int64(bern):
    # numpy's multinomial counts are int64: 2^63 - 1 races run, 2^63 do not
    summary = run_races(bern, 6, 2**63 - 1, 1)
    assert summary.counts.sum() + summary.null_races == 2**63 - 1
    for trials in (2**63, 2**1024):
        with pytest.raises(ValueError, match=f"trials={trials} "):
            run_races(bern, 6, trials, 1)


@pytest.mark.parametrize("bad", [2.5, math.nan, math.inf])
def test_a_race_length_or_count_that_is_not_an_integer_is_named(bern, bad):
    # int() would truncate 2.5 to a race of 2 draws, or to 2 races
    for call in (pfest.race_law, pfest.exact_tv, lambda pair, n: astar_sample(pair, n, 1),
                 lambda pair, n: run_races(pair, n, 2, 1)):
        with pytest.raises(ValueError, match=f"n must be an integer, got {bad!r}"):
            call(bern, bad)
    with pytest.raises(ValueError, match=f"trials must be an integer, got {bad!r}"):
        run_races(bern, 3, bad, 1)
    # an integer-valued float is that integer
    summary = run_races(bern, 3.0, 10.0, 1)
    assert (summary.n_per_race, summary.trials) == (3, 10)
    assert type(summary.n_per_race) is type(summary.trials) is int


@pytest.mark.parametrize(
    "pair, n, trials",
    [
        (make_bernoulli_pair(0.5, 0.25), 12, 100_000),
        (make_random_pair(64, 20260864), 88, 32_768),
        (make_random_pair(64, 20260864), 88, 10**6),
        (make_random_pair(1 << 14, 20261019), 88, 10**3),
    ],
    ids=["bernoulli", "random64", "random64-1e6", "random16k"],
)
def test_run_races_holds_one_block_at_a_time(pair, n, trials):
    """The one block a call holds is the race's law and a few tables
    over the S atoms, never anything per race: its tracemalloc peak is
    the same at 10^3, 10^6, ``trials`` and 10^12 races, and within 24
    doubles per atom. The first call, at 10^3 races, also sorts the
    pair's ratios (``ratio_order``) and builds its race table, once per
    pair; it is held to the same bound, and the calls after it to the
    same peak."""
    peaks = []
    for t in [10**3, *sorted({10**3, 10**6, trials, 10**12})]:
        tracemalloc.start()
        try:
            run_races(pair, n, t, 20261018)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks[1:]) - min(peaks[1:]) < 4096, peaks
    assert max(peaks) < 24 * 8 * pair.support_size + 16384, peaks


def _law_pairs():
    # a tied level (atoms 1 and 2, ratio 1.5) and a level lambda = 0
    # with proposal mass (atom 3)
    tied = make_finite_pair([0.3, 0.2, 0.1, 0.25, 0.15], [0.1, 0.3, 0.15, 0.0, 0.45], 2.0)
    return {
        "bernoulli": make_bernoulli_pair(0.5, 0.25),
        "twopoint": make_twopoint_mu_pair(0.25),
        "random64": make_random_pair(64, 20260864),
        "tied": tied,
    }


LAW_PAIRS = _law_pairs()
LAW_CASES = [
    (name, n)
    for name, pair in LAW_PAIRS.items()
    for n in (1, 2, sampling_plan(CoverageProfile.from_pair(pair), 0.1).n)
]


# mu sums to 1 + 2^-52 in floats on this pair, which a yardstick that
# sums it in floats raises to the power n - 1; the yardstick takes about
# a second per n on it, so it is checked at the largest n alone
WIDE_LAW_PAIR = make_random_pair(200, 3)


@pytest.mark.parametrize("name", [*LAW_PAIRS, "random200"])
def test_race_law_matches_the_yardstick(name):
    """The library's O(S) law, and the TV summed from it, against the
    O(S^2) yardstick written from the race's integral formula: within
    1e-12 on every atom and on the null races, n from 1 past 2^63."""
    if name == "random200":
        pair, ns = WIDE_LAW_PAIR, (2**63 + 1,)
    else:
        pair = LAW_PAIRS[name]
        ns = _law_ns(pair)
    for n in ns:
        law, null = pfest.race_law(pair, n)
        ref, ref_null = race_law(pair, n)
        np.testing.assert_allclose(law, ref, rtol=0, atol=1e-12)
        assert abs(null - ref_null) <= 1e-12
        ref_tv = 0.5 * (float(np.abs(ref - pair.nu_weights).sum()) + ref_null)
        assert abs(pfest.exact_tv(pair, n) - ref_tv) <= 1e-12
    # past the float range (1 - q)^(n - 1) is 0 at every level: the least
    # of the first n - 1 scores sits above every ratio, so the winner is
    # a nu draw over the atoms of positive density, and no race is null
    live = (pair.mu_weights > 0) & (pair.nu_weights > 0)
    nu_live = np.where(live, pair.nu_weights, 0.0) / pair.nu_weights[live].sum()
    for n in (2**1024, 2**1100):
        law, null = pfest.race_law(pair, n)
        np.testing.assert_allclose(law, nu_live, rtol=0, atol=1e-12)
        assert null == 0.0


def _law_ns(pair):
    return (1, 2, 7, 88, 1000, sampling_plan(CoverageProfile.from_pair(pair), 0.1).n,
            2**63 + 1)


# SHA-256 of race_law(pair, n) for each n of _law_ns(pair) in turn: the
# law's bytes, then its null probability's as a float64. run_races draws
# its winners from these bits. Recorded with numpy 2.4 on x86-64 with
# AVX-512; numpy's vectorized exp and log may round differently on
# other CPUs, as may the golden sweep fingerprints.
RACE_LAW_SHA256 = {
    "bernoulli": "114c2dbe15c35fdf1a90b14f55adec307b04233c498d335aac468a60cce3a4e6",
    "twopoint": "b6e1df00819e7143abefbc3359092687ddb37a15c917062e89ef4aac5ce5380d",
    "random64": "24ab9be0021dec16f7914fc3230e5e6623b3fd28bc5010e9ac184845555dadb7",
    "tied": "f1d9de131b7d69c53275e3222015a9e4b0ebb42d142e64addc79bad11289a8ed",
}


@pytest.mark.parametrize("name", LAW_PAIRS)
def test_race_law_bits_are_pinned(name):
    pair = LAW_PAIRS[name]
    digest = hashlib.sha256()
    for n in _law_ns(pair):
        law, null = pfest.race_law(pair, n)
        digest.update(law.tobytes())
        digest.update(np.float64(null).tobytes())
    assert digest.hexdigest() == RACE_LAW_SHA256[name]


@pytest.mark.parametrize("name", [*LAW_PAIRS, "random200"])
def test_a_built_race_table_gives_the_law_of_a_fresh_pair(name):
    """race_law on a pair whose race table is built equals, bit for bit
    at every n of ``_law_ns``, the law of a fresh copy of the pair, whose
    first call builds the table at that n."""
    if name == "random200":
        pair, fresh = WIDE_LAW_PAIR, lambda: make_random_pair(200, 3)
    else:
        pair, fresh = LAW_PAIRS[name], lambda: _law_pairs()[name]
    pfest.race_law(pair, 3)
    for n in _law_ns(pair):
        law, null = pfest.race_law(pair, n)
        fresh_law, fresh_null = pfest.race_law(fresh(), n)
        assert law.tobytes() == fresh_law.tobytes()
        assert np.float64(null).tobytes() == np.float64(fresh_null).tobytes()


def test_a_pair_builds_its_race_table_once(monkeypatch):
    """The first race_law, exact_tv or run_races call on a pair builds
    its race table; the calls after it read the same table, whose arrays
    are read-only."""
    builds = []
    build = sampler._build_race_table

    def counted(pair):
        builds.append(pair)
        return build(pair)

    monkeypatch.setattr(sampler, "_build_race_table", counted)
    calls = (
        lambda pair: pfest.race_law(pair, 7),
        lambda pair: pfest.exact_tv(pair, 88),
        lambda pair: run_races(pair, 1000, 10, 1),
    )
    for first in range(len(calls)):
        pair = make_random_pair(64, 20260864)
        for call in calls[first:] + calls[:first]:
            call(pair)
        assert builds == [pair]
        builds.clear()
        table = sampler.race_table(pair)
        assert table is sampler.race_table(pair) and not builds
        arrays = [value for value in table if isinstance(value, np.ndarray)]
        assert len(arrays) == 6
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0


def test_a_race_table_is_freed_with_its_pair():
    # the map holds the table, so its array outlives the pair only if the
    # pair's entry does
    pair = make_random_pair(64, 20260864)
    pfest.race_law(pair, 7)
    pair_ref = weakref.ref(pair)
    array_ref = weakref.ref(sampler.race_table(pair).log_neg_log)
    del pair
    gc.collect()
    assert pair_ref() is None and array_ref() is None


@pytest.mark.parametrize("name, n", LAW_CASES, ids=[f"{k}-n{n}" for k, n in LAW_CASES])
def test_races_follow_the_exact_law(name, n):
    """Both engines against the exact race law, atom by atom and for the
    null races, in alpha-1e-6 binomial bands: run_races over 2^20 races,
    and 2^13 per-draw races of astar_sample over consecutive seeds, a
    race without a winner counted as null."""
    pair = LAW_PAIRS[name]
    trials = 1 << 20
    summary = run_races(pair, n, trials, 20261019)
    assert summary.counts.sum() + summary.null_races == trials
    check_race_counts(summary.counts, summary.null_races, trials, pair, n)

    trials = 1 << 13
    counts = np.zeros(pair.support_size, dtype=np.int64)
    for seed in range(20261020, 20261020 + trials):
        try:
            counts[astar_sample(pair, n, seed)[0]] += 1
        except AllNullDrawsError:
            pass
    check_race_counts(counts, trials - int(counts.sum()), trials, pair, n)


def test_exact_race_law_sums_to_one():
    # the yardstick itself: winners and null races make up every race
    for pair in LAW_PAIRS.values():
        for n in (1, 2, 7, 300, 2**63 + 1):
            law, null = race_law(pair, n)
            assert law.min() >= 0.0
            assert float(law.sum()) + null == pytest.approx(1.0, abs=1e-12)
    # one atom with lambda = 0: every race is null
    assert race_law(make_twopoint_mu_pair(0.25), 3)[1] == 0.75**3
