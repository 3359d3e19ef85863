import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfest import (
    DistributionPair,
    load_pair,
    make_bernoulli_pair,
    make_finite_pair,
    make_pointmass_pair,
    make_random_pair,
    make_twopoint_mu_pair,
    make_weighted_pair,
    sample,
    save_pair,
)
from pfest import distributions, sampler
from pfest.distributions import (
    DOT_CHUNK,
    GuideTable,
    draw_atoms,
    ordered_dot,
    sample_counts,
)
from pfest.rng import make_generator, standard_exponential
from pfest.sampler import astar_sample, run_races


def test_bernoulli_pair_layout(bern):
    np.testing.assert_array_equal(bern.mu_weights, [0.5, 0.5])
    np.testing.assert_allclose(bern.nu_weights, [0.375, 0.625], rtol=0, atol=1e-15)
    np.testing.assert_allclose(bern.ratio_cache, [0.75, 1.25], rtol=1e-15)
    assert bern.z_true == 1.0
    assert bern.singular_mass == 0.0
    assert bern.absolutely_continuous
    assert bern.support_size == 2


def test_bernoulli_accepts_boundary_eps():
    # eps = 1/4 is the largest admissible spread
    pair = make_bernoulli_pair(0.1, 0.25)
    np.testing.assert_allclose(pair.ratio_cache, [0.75, 1 + 0.25 * 9], rtol=1e-12)


def test_bernoulli_p_one_degenerates_to_identity():
    pair = make_bernoulli_pair(1.0, 0.1)
    np.testing.assert_array_equal(pair.mu_weights, pair.nu_weights)


@pytest.mark.parametrize("p,eps", [(0.0, 0.1), (1.1, 0.1), (0.5, 0.0), (0.5, 0.26), (0.5, -0.1)])
def test_bernoulli_rejects_out_of_range(p, eps):
    with pytest.raises(ValueError):
        make_bernoulli_pair(p, eps)


def test_twopoint_layout(twopoint):
    np.testing.assert_array_equal(twopoint.mu_weights, [0.75, 0.25])
    np.testing.assert_array_equal(twopoint.nu_weights, [0.0, 1.0])
    np.testing.assert_array_equal(twopoint.ratio_cache, [0.0, 4.0])
    # nu vanishing where mu is positive is fine; only the converse is singular
    assert twopoint.singular_mass == 0.0
    assert twopoint.absolutely_continuous


def test_pointmass_layout():
    pair = make_pointmass_pair(0.3)
    np.testing.assert_array_equal(pair.mu_weights, [1.0, 0.0])
    np.testing.assert_allclose(pair.nu_weights, [0.7, 0.3], rtol=1e-15)
    assert pair.ratio_cache[0] == pytest.approx(0.7)
    assert math.isinf(pair.ratio_cache[1])
    assert pair.singular_mass == pytest.approx(0.3)
    assert not pair.absolutely_continuous


def test_lambda_values_scale_with_z():
    a = make_bernoulli_pair(0.5, 0.25, z=1.0)
    b = make_bernoulli_pair(0.5, 0.25, z=3.5)
    np.testing.assert_allclose(b.lambda_values, 3.5 * a.lambda_values, rtol=1e-15)


def test_nu_mean(bern):
    assert bern.nu_mean([0.0, 1.0]) == pytest.approx(0.625)
    assert bern.nu_mean([1.0, 1.0]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        bern.nu_mean([1.0, 2.0, 3.0])


def test_make_finite_rejects_unnormalized():
    with pytest.raises(ValueError, match="sums to"):
        make_finite_pair([0.5, 0.4], [0.5, 0.5], 1.0)


def test_make_finite_rejects_bad_weights():
    with pytest.raises(ValueError):
        make_finite_pair([0.5, -0.5, 1.0], [0.5, 0.5, 0.0], 1.0)
    with pytest.raises(ValueError):
        make_finite_pair([0.5, math.nan], [0.5, 0.5], 1.0)
    with pytest.raises(ValueError):
        make_finite_pair([0.5, 0.5], [0.5, 0.25, 0.25], 1.0)
    with pytest.raises(ValueError):
        make_finite_pair([0.5, 0.5], [0.5, 0.5], 0.0)
    with pytest.raises(ValueError):
        make_finite_pair([0.5, 0.5], [0.5, 0.5], math.inf)


# tiny positive weights make nu/mu overflow, which the constructor
# rightly rejects as inconsistent; keep atoms either zero or well scaled
_atom_weight = st.one_of(st.just(0.0), st.floats(1e-6, 1.0, allow_nan=False))


@given(
    weights=st.lists(
        st.tuples(_atom_weight, _atom_weight),
        min_size=2,
        max_size=32,
    )
)
def test_ratio_mean_plus_singular_is_one(weights):
    mu = np.array([w[0] for w in weights])
    nu = np.array([w[1] for w in weights])
    if mu.sum() <= 0 or nu.sum() <= 0:
        return
    pair = make_finite_pair(mu / mu.sum(), nu / nu.sum(), 1.0)
    pos = pair.mu_weights > 0
    mean = float(np.dot(pair.mu_weights[pos], pair.ratio_cache[pos]))
    assert abs(mean + pair.singular_mass - 1.0) <= 1e-9


def test_draw_clips_to_last_atom_with_mass():
    # the cumulative mass of ten 0.1 atoms ends one ulp below 1, so
    # u = 1 - 2^-53 lies past it and used to land on the zero-mass atom
    mu = [0.1] * 10 + [0.0]
    pair = make_finite_pair(mu, mu, 1.0)
    assert pair.last_drawable_atom == 9
    atoms = draw_atoms(pair, np.array([1.0 - 2.0**-53]))
    assert pair.mu_weights[atoms[0]] > 0


@given(
    weights=st.lists(_atom_weight, min_size=1, max_size=16),
    u=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=8),
)
def test_draws_never_land_on_zero_mass_atoms(weights, u):
    mu = np.array(weights)
    if mu.sum() <= 0:
        return
    pair = make_finite_pair(mu / mu.sum(), mu / mu.sum(), 1.0)
    u = np.array(u + [np.nextafter(1.0, 0.0)])
    assert np.all(pair.mu_weights[draw_atoms(pair, u)] > 0)


def test_weighted_pair_indicator(bern):
    # reweighting by the indicator of the high atom concentrates the
    # target there and multiplies z by the selected target mass
    wpair = make_weighted_pair(bern, [0.0, 1.0])
    np.testing.assert_array_equal(wpair.nu_weights, [0.0, 1.0])
    np.testing.assert_array_equal(wpair.mu_weights, bern.mu_weights)
    assert wpair.z_true == pytest.approx(0.625)
    assert wpair.ratio_cache[1] == pytest.approx(2.0)


def test_weighted_pair_rejects(bern):
    with pytest.raises(ValueError):
        make_weighted_pair(bern, [1.0, -0.5])
    with pytest.raises(ValueError):
        make_weighted_pair(bern, [0.0, 0.0])
    with pytest.raises(ValueError):
        make_weighted_pair(bern, [1.0, 1.0, 1.0])


def test_random_pair_reproducible():
    a = make_random_pair(17, 4242)
    b = make_random_pair(17, 4242)
    np.testing.assert_array_equal(a.mu_weights, b.mu_weights)
    np.testing.assert_array_equal(a.nu_weights, b.nu_weights)
    assert a.support_size == 17
    assert a.absolutely_continuous
    assert make_random_pair(17, 4243).nu_weights[0] != a.nu_weights[0]


def test_random_pair_rejects_non_integer_support_or_seed():
    for support, seed, message in [
        (2.7, 3, "support_size must be an integer, got 2.7"),
        (2, 3.9, "seed must be an integer, got 3.9"),
        (math.inf, 3, "support_size must be an integer, got inf"),
        (2, math.nan, "seed must be an integer, got nan"),
    ]:
        with pytest.raises(ValueError, match=message):
            make_random_pair(support, seed)
    # a whole float still builds, and names, the pair of its integer
    whole = make_random_pair(2.0, 3.0)
    np.testing.assert_array_equal(whole.nu_weights, make_random_pair(2, 3).nu_weights)
    assert whole.name == "random[2,3]"


def test_sample_deterministic(bern):
    a = sample(bern, 100, 7)
    b = sample(bern, 100, 7)
    np.testing.assert_array_equal(a.atoms, b.atoms)
    np.testing.assert_array_equal(a.lambdas, b.lambdas)
    assert (a.atoms != sample(bern, 100, 8).atoms).any()


def test_sample_lambdas_are_table_lookups(bern):
    batch = sample(bern, 50, 3)
    np.testing.assert_array_equal(batch.lambdas, bern.lambda_values[batch.atoms])
    assert batch.n == 50 and batch.seed == 3


def test_sample_rejects_empty(bern):
    with pytest.raises(ValueError):
        sample(bern, 0, 1)


def test_sample_matches_proposal_law(bern):
    """Atom frequencies stay within 4 sigma of mu for at least 99 of 100
    fixed seeds (the binomial tail at 4 sigma is ~6e-5 per seed)."""
    n = 2000
    sigma = math.sqrt(0.25 / n)
    hits = 0
    for seed in range(100):
        freq = float((sample(bern, n, seed).atoms == 0).mean())
        hits += abs(freq - 0.5) <= 4 * sigma
    assert hits >= 99


def test_roundtrip_exact(tmp_path):
    pair = make_random_pair(23, 99, z=math.pi)
    path = tmp_path / "pair.json"
    save_pair(pair, path)
    back = load_pair(path)
    np.testing.assert_array_equal(back.mu_weights, pair.mu_weights)
    np.testing.assert_array_equal(back.nu_weights, pair.nu_weights)
    assert back.z_true == pair.z_true
    assert back.name == pair.name


def test_roundtrip_zero_weights(tmp_path, twopoint):
    path = tmp_path / "tp.json"
    save_pair(twopoint, path)
    back = load_pair(path)
    np.testing.assert_array_equal(back.nu_weights, twopoint.nu_weights)
    np.testing.assert_array_equal(back.ratio_cache, twopoint.ratio_cache)


def test_load_rejects_missing_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"mu": [1.0], "z": 1.0}')
    with pytest.raises(ValueError, match="missing field"):
        load_pair(path)


def test_arrays_are_frozen(bern):
    with pytest.raises(ValueError):
        bern.mu_weights[0] = 0.9


def _cumsum_draw(pair, u):
    """The inverse-CDF draw as it was before the table was cached: the
    cumulative mass rebuilt on every call."""
    atoms = np.searchsorted(np.cumsum(pair.mu_weights), u, side="right")
    return np.clip(atoms, 0, pair.last_drawable_atom)


def _race_reference(pair, n, rows, gen):
    """Winner counts and null races of ``rows`` races of length n drawn
    from ``gen``, written out as the race was before its block helper."""
    atoms = _cumsum_draw(pair, gen.random((rows, n)))
    arrivals = np.cumsum(-np.log1p(-gen.random((rows, n))), axis=1)
    lam = pair.z_true * pair.ratio_cache[atoms]
    scores = np.full(lam.shape, np.inf)
    np.divide(arrivals, lam, out=scores, where=lam > 0)
    best = np.argmin(scores, axis=1)
    winners = atoms[np.arange(rows), best]
    alive = np.isfinite(scores[np.arange(rows), best])
    counts = np.bincount(winners[alive], minlength=pair.support_size)
    return counts, int(rows - alive.sum())


# the last atom has no proposal mass and the cumulative mass ends one
# ulp below 1
TRAILING_ZERO = make_finite_pair([0.1] * 10 + [0.0], [0.05] * 10 + [0.5], 2.0)
DRAW_PAIRS = [
    make_bernoulli_pair(0.5, 0.25),
    make_random_pair(64, 5, z=3.0),
    TRAILING_ZERO,
]


@pytest.mark.parametrize("pair", DRAW_PAIRS, ids=["bernoulli", "random", "trailing-zero"])
def test_draws_match_the_per_call_cumsum(pair):
    for seed in (0, 1, 99):
        batch = sample(pair, 300, seed)
        atoms = _cumsum_draw(pair, make_generator(seed).random(300))
        np.testing.assert_array_equal(batch.atoms, atoms)
        np.testing.assert_array_equal(batch.lambdas, pair.z_true * pair.ratio_cache[atoms])

        _, state = astar_sample(pair, 40, seed)
        np.testing.assert_array_equal(
            state.atoms, _cumsum_draw(pair, make_generator(seed).random(40))
        )

    # one block of races: its generator is keyed by the seed itself
    n, trials, seed = 6, 500, 11
    counts, nulls = _race_reference(pair, n, trials, make_generator(seed))
    summary = run_races(pair, n, trials, seed)
    np.testing.assert_array_equal(summary.counts, counts)
    assert summary.null_races == nulls


@pytest.mark.parametrize(
    "pair",
    [make_bernoulli_pair(0.5, 0.25), make_random_pair(64, 5, z=3.0), make_twopoint_mu_pair(0.25)],
    ids=["bernoulli", "random", "twopoint"],
)
def test_race_blocks_match_the_reference_block_by_block(pair, monkeypatch):
    # 3 000-element blocks: 500 races of 6 draws, walked through the
    # guide table, then a last block of 200 races, searched directly
    monkeypatch.setattr(sampler, "RACE_CHUNK_ELEMENTS", 3000)
    n, trials, seed = 6, 1700, 2**64 - 5
    counts = np.zeros(pair.support_size, dtype=np.int64)
    nulls = 0
    for b, start in enumerate(range(0, trials, 500)):
        gen = make_generator(seed + (b << 64))
        block_counts, block_nulls = _race_reference(pair, n, min(500, trials - start), gen)
        counts += block_counts
        nulls += block_nulls
    summary = run_races(pair, n, trials, seed)
    np.testing.assert_array_equal(summary.counts, counts)
    assert summary.null_races == nulls
    assert summary.counts.sum() + summary.null_races == trials
    # twopoint's heavy atom has lambda = 0: its scores take the masked
    # divide, and some races draw nothing else
    assert (nulls > 0) == (pair.lambda_values.min() == 0)


def test_standard_exponential_is_the_negated_log1p():
    for size in (1, 7, (300, 11)):
        expected = -np.log1p(-make_generator(5).random(size))
        np.testing.assert_array_equal(standard_exponential(make_generator(5), size), expected)


def test_draw_tables_are_cached_and_read_only():
    pair = make_random_pair(32, 8, z=2.5)
    text = repr(pair)
    assert pair.mu_cdf is pair.mu_cdf
    assert pair.lambda_values is pair.lambda_values
    assert pair.mu_guide is pair.mu_guide
    np.testing.assert_array_equal(pair.mu_cdf, np.cumsum(pair.mu_weights))
    np.testing.assert_array_equal(pair.lambda_values, 2.5 * pair.ratio_cache)
    assert isinstance(pair.mu_guide, GuideTable) and pair.mu_guide.scale == 32
    for table in (pair.mu_cdf, pair.lambda_values, pair.mu_guide.guide, pair.mu_guide.cdf_ext):
        with pytest.raises(ValueError):
            table[0] = 0.0
    with pytest.raises(AttributeError):
        pair.mu_guide.max_steps = 0
    # the tables are not fields: repr and == read the same as before
    assert repr(pair) == text
    assert [f.name for f in dataclasses.fields(pair)] == [
        "mu_weights", "nu_weights", "z_true", "name",
        "ratio_cache", "singular_mass", "last_drawable_atom",
    ]
    one = make_finite_pair([1.0], [1.0], 2.0)
    other = make_finite_pair([1.0], [1.0], 2.0)
    assert one.mu_cdf.size == one.lambda_values.size == 1
    assert one.mu_guide.scale == 1 and one.mu_guide.guide.tolist() == [0]
    assert one == other and repr(one) == repr(other)


@pytest.mark.parametrize("size", [1, 7, DOT_CHUNK - 1, DOT_CHUNK])
def test_ordered_dot_is_np_dot_up_to_one_chunk(size):
    gen = make_generator(size)
    a, b = gen.random(size), gen.random(size) - 0.5
    assert ordered_dot(a, b) == float(np.dot(a, b))


def test_ordered_dot_sums_chunks_in_order():
    gen = make_generator(3)
    a, b = gen.random(2 * DOT_CHUNK + 17), gen.random(2 * DOT_CHUNK + 17)
    parts = [float(np.dot(a[i:i + DOT_CHUNK], b[i:i + DOT_CHUNK]))
             for i in range(0, a.size, DOT_CHUNK)]
    assert ordered_dot(a, b) == (parts[0] + parts[1]) + parts[2]
    assert ordered_dot(a, b) == pytest.approx(math.fsum(a * b), rel=1e-12)


# Seven weights whose float sum is one ulp below 1, then an atom without
# proposal mass.
ROUNDS_BELOW_ONE = make_finite_pair(
    [0.12661475295395277, 0.08389999688678956, 0.22304623398947507,
     0.14660443556956262, 0.09177127353249417, 0.1996873098208151,
     0.12837599724691065, 0.0],
    [0.125] * 8,
    1.0,
)


def test_sample_counts_never_hit_a_zero_mass_atom():
    pair = ROUNDS_BELOW_ONE
    assert float(np.sum(pair.mu_weights[:7])) < 1.0
    m, k, seed = 10**15, 8, 1
    # numpy's multinomial over every weight hands the atom the leftover
    raw = make_generator(seed).multinomial(m, pair.mu_weights, size=k)
    assert raw[:, 7].any()
    counts = sample_counts(pair, m, k, seed)
    assert counts.shape == (k, 8)
    assert not counts[:, 7].any()
    np.testing.assert_array_equal(counts.sum(axis=1), np.full(k, m))


def test_sample_counts_seeded_and_zero_on_massless_atoms():
    pair = make_finite_pair([0.5, 0.0, 0.5, 0.0], [0.25, 0.25, 0.25, 0.25], 1.0)
    counts = sample_counts(pair, 1000, 6, 42)
    np.testing.assert_array_equal(counts, sample_counts(pair, 1000, 6, 42))
    assert counts.dtype == np.int64 and counts.shape == (6, 4)
    assert not counts[:, [1, 3]].any()
    np.testing.assert_array_equal(counts.sum(axis=1), np.full(6, 1000))
    with pytest.raises(ValueError):
        sample_counts(pair, 0, 6, 42)


def test_ordered_dot_of_rows():
    gen = make_generator(4)
    a, b = gen.integers(0, 50, size=(7, 33)), gen.random(33)
    rows = ordered_dot(a, b)
    assert rows.shape == (7,)
    for got, row in zip(rows, a):
        assert got == pytest.approx(ordered_dot(row, b), rel=1e-14)


_WEIGHTS = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=1, max_size=40
).filter(lambda w: sum(w) > 0)
# runs of interior zero-mass atoms: repeated cumulative values
_ZERO_RUNS = st.builds(
    lambda w, at, run: w[:at] + [0.0] * run + w[at:],
    _WEIGHTS, st.integers(0, 40), st.integers(2, 6),
)
# many tiny atoms between two heavy ones: more cumulative values in one
# guide bucket than draw_atoms steps over, so searchsorted finishes
_SKEWED = st.builds(
    lambda heavy, tiny, last: [heavy] + [1e-6] * tiny + [last],
    st.floats(0.05, 1.0), st.integers(3, 40), st.floats(0.05, 1.0),
)


def _in_pieces(pair, u, width):
    """draw_atoms over consecutive pieces of ``u`` of ``width`` uniforms."""
    flat = u.ravel()
    return np.concatenate(
        [draw_atoms(pair, flat[i:i + width]) for i in range(0, flat.size, width)]
    )


@settings(max_examples=60, deadline=None)
@given(
    weights=st.one_of(_WEIGHTS, _ZERO_RUNS, _SKEWED),
    trailing=st.integers(0, 3),
    seed=st.integers(0, 2**32),
    shape=st.sampled_from([(1,), (57,), (9, 13)]),
)
def test_draw_atoms_is_the_plain_search(weights, trailing, seed, shape):
    w = np.array(weights + [0.0] * trailing)

    def fresh():
        return make_finite_pair(w / w.sum(), np.full(w.size, 1.0 / w.size), 1.0)

    pair = fresh()
    cdf, size = pair.mu_cdf, pair.support_size
    scale = 1 << (size - 1).bit_length()
    u = make_generator(seed).random(shape)
    u.flat[0] = 1.0 - 2.0**-53  # at or past the end of the table
    # 0, every bucket edge j/K, every cumulative value below 1 and the
    # largest uniform, then the random ones: at least K >= S uniforms
    edges = np.concatenate(
        [[0.0, 1.0 - 2.0**-53], np.arange(scale) / scale, cdf[cdf < 1.0], u.ravel()]
    )

    def plain(x):
        return np.clip(np.searchsorted(cdf, x, side="right"), 0, pair.last_drawable_atom)

    # both sides of the guide rule (calls of fewer than S uniforms, and of
    # at least S with the draw floor at 1) and of the support gate
    for sorted_gate in (distributions.SORTED_SEARCH_MIN_SUPPORT, 1):
        pair = fresh()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(distributions, "SORTED_SEARCH_MIN_SUPPORT", sorted_gate)
            atoms = draw_atoms(pair, u)
            assert atoms.shape == shape
            np.testing.assert_array_equal(atoms, plain(u))
            if size > 1:
                np.testing.assert_array_equal(_in_pieces(pair, edges, size - 1), plain(edges))
            assert draw_atoms(pair, edges[:0]).size == 0
            assert "mu_guide" not in vars(pair)
            mp.setattr(distributions, "GUIDE_MIN_DRAWS", 1)
            np.testing.assert_array_equal(draw_atoms(pair, edges), plain(edges))
            assert "mu_guide" in vars(pair)
            atoms = draw_atoms(pair, u)
            assert atoms.shape == shape
            np.testing.assert_array_equal(atoms, plain(u))

    # the table itself, against its definition
    table = pair.mu_guide
    assert table.scale == scale and scale >= size > scale // 2
    j = np.arange(scale)
    np.testing.assert_array_equal(
        table.guide, (cdf[None, :] <= (j / scale)[:, None]).sum(axis=1)
    )
    np.testing.assert_array_equal(table.cdf_ext, np.append(cdf, np.inf))
    bucket = np.floor(cdf * scale)
    inside = [int(((bucket == b) & (cdf * scale != b)).sum()) for b in range(scale)]
    assert table.max_steps == max(inside)


def test_guide_table_steps_and_finishes():
    # heavy-tiny-heavy: 30 cumulative values inside one of 32 buckets
    pair = make_finite_pair([0.5] + [1e-6] * 30 + [0.5 - 3e-5], [1 / 32] * 32, 1.0)
    table = pair.mu_guide
    assert table.scale == 32
    assert table.max_steps == 30 > distributions.GUIDE_MAX_STEPS
    u = np.concatenate([0.5 + np.arange(40) * 1e-6, make_generator(4).random(5000)])
    np.testing.assert_array_equal(
        table.search(u), np.searchsorted(pair.mu_cdf, u, side="right")
    )
    # two atoms whose boundary sits on a bucket edge need no step
    assert make_bernoulli_pair(0.5, 0.25).mu_guide.max_steps == 0
