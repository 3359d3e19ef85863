import dataclasses
import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pfest import (
    AllNullDrawsError,
    CoverageProfile,
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
from pfest import distributions, estimators
from pfest.distributions import (
    DOT_CHUNK,
    PARALLEL_FILL_MIN,
    ROW_DOT_CHUNK,
    GuideTable,
    count_block,
    descending_order,
    draw_atoms,
    ordered_dot,
    sample_counts,
)
from pfest.estimators import run_trials
from pfest.rng import make_generator
from pfest.sampler import astar_sample, race_law, run_races


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
    np.testing.assert_allclose(b.lambda_drawn, 3.5 * a.lambda_drawn, rtol=1e-15)


def test_nu_mean(bern):
    assert bern.nu_mean([0.0, 1.0]) == pytest.approx(0.625)
    assert bern.nu_mean([1.0, 1.0]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        bern.nu_mean([1.0, 2.0, 3.0])


def test_make_finite_rejects_unnormalized():
    with pytest.raises(ValueError, match="sums to"):
        make_finite_pair([0.5, 0.4], [0.5, 0.5], 1.0)


@pytest.mark.parametrize("label", ["mu", "nu"])
@pytest.mark.parametrize(
    "bad,message",
    [
        ([0.5, math.nan, 0.5], "contains non-finite entries"),
        ([0.5, math.inf, 0.5], "contains non-finite entries"),
        ([0.5, -math.inf, 1.5], "contains non-finite entries"),
        ([0.5, -0.5, 1.0], "contains negative entries"),
        ([math.nan, -0.5, 1.5], "contains non-finite entries"),
        ([1e308, 1e308, 0.0], "sums to inf; must be within 1e-09 of 1"),
    ],
    ids=["nan", "inf", "minus-inf", "negative", "nan-and-negative", "sum-overflows"],
)
def test_make_finite_keeps_its_weight_messages(label, bad, message):
    good = [0.25, 0.25, 0.5]
    mu, nu = (bad, good) if label == "mu" else (good, bad)
    # numpy warns when the sum overflows; the message is what is pinned
    with np.errstate(over="ignore"), pytest.raises(
        ValueError, match=f"^{label}_weights {re.escape(message)}$"
    ):
        make_finite_pair(mu, nu, 1.0)


def test_make_finite_never_touches_the_callers_arrays():
    weights = [
        # the first sums to 1 + 2^-52, within tolerance, so it is renormalized
        ([0.25, 0.25, 0.5 + 2.0**-52], [0.5, 0.25, 0.25]),
        # an atom without proposal mass, whose target mass is singular
        ([0.5, 0.0, 0.5 + 2.0**-52], [0.25, 0.5, 0.25 - 2.0**-54]),
    ]
    for build in (make_finite_pair, DistributionPair):
        for mu, nu in weights:
            mu, nu = np.array(mu), np.array(nu)
            before = mu.tobytes(), nu.tobytes()
            pair = build(mu, nu, 1.0)
            assert (mu.tobytes(), nu.tobytes()) == before
            assert mu.flags.writeable and nu.flags.writeable
            assert not np.shares_memory(mu, pair.mu_weights)
            assert not np.shares_memory(nu, pair.nu_weights)
            assert pair.positive == bool((mu > 0).all() and (nu > 0).all())


class _WeightArray(np.ndarray):
    """An ndarray subclass, as a caller might pass."""


@st.composite
def _weight_inputs(draw):
    """Weights within tolerance of summing to 1, in one of the forms a
    caller passes: a list, an int array, a float32 array, a strided
    float64 view, an ndarray subclass, or floats with -0.0 entries."""
    kind = draw(st.sampled_from(
        ["list", "int", "float32", "strided", "subclass", "negative-zero"]
    ))
    raw = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40)))
    if kind == "int":
        w = np.zeros(raw.size, dtype=np.int64)
        w[draw(st.integers(0, raw.size - 1))] = 1
        return w
    if kind == "float32":
        # small counts over a power of two are exact in float32
        counts = np.floor(raw * 8)
        counts = np.append(counts, 2.0 ** math.ceil(math.log2(counts.sum() + 1)) - counts.sum())
        return (counts / counts.sum()).astype(np.float32)
    if raw.sum() == 0:
        raw[-1] = 1.0
    w = raw / raw.sum()
    if kind == "list":
        return w.tolist()
    if kind == "strided":
        buffer = np.full(2 * w.size, 7.0)
        buffer[::2] = w
        return buffer[::2]
    if kind == "subclass":
        return w.view(_WeightArray)
    if kind == "negative-zero":
        w[w == 0] = -0.0
    return w


def _copy_then_divide(w):
    """The normalization the pair made before it divided straight into a
    new array: a float64 copy, divided in place by its sum, and then
    -0.0 read as 0.0."""
    arr = np.array(w, dtype=np.float64)
    arr /= float(arr.sum())
    arr += 0.0
    return arr


@settings(max_examples=200)
@given(w=_weight_inputs())
@example(w=np.array([-0.0, 1.0]))
def test_pair_weights_are_the_copy_then_divide_bit_for_bit(w):
    expected = _copy_then_divide(w)
    if isinstance(w, np.ndarray):
        # a view is checked through the buffer it looks into
        owner = w if w.base is None else w.base
        before = owner.tobytes(), owner.flags.writeable
    pair = DistributionPair(mu_weights=w, nu_weights=w, z_true=1.0)
    for arr in (pair.mu_weights, pair.nu_weights):
        assert arr.dtype == expected.dtype and arr.tobytes() == expected.tobytes()
    if isinstance(w, np.ndarray):
        assert (owner.tobytes(), owner.flags.writeable) == before
        assert not np.shares_memory(owner, pair.mu_weights)


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


def test_make_finite_rejects_a_density_past_the_float_range():
    # every weight and ratio is finite, but z * ratio at atom 0 is 5e309
    with pytest.raises(ValueError, match=r"^z_true \* ratio at atom 0 passes the float range"):
        make_finite_pair([1e-300, 1 - 1e-300], [0.5, 0.5], 1e10)
    # the same ratio at z = 1, and an atom without proposal mass, whose
    # infinite ratio is never scaled, build
    assert make_finite_pair([1e-300, 1 - 1e-300], [0.5, 0.5], 1.0).lambda_drawn[0] == pytest.approx(5e299)
    assert make_finite_pair([0.0, 1.0], [0.5, 0.5], 1e300).lambda_drawn.tolist() == [0.0, 5e299]


@pytest.mark.parametrize(
    "mu,nu,atom",
    [([1e-320, 1.0], [0.5, 0.5], 0), ([0.0, 1e-320, 1.0], [0.2, 0.3, 0.5], 1)],
    ids=["every-atom-live", "zero-mass-atom"],
)
def test_make_finite_names_a_ratio_past_the_float_range(mu, nu, atom):
    # the quotient overflows without a RuntimeWarning, which the suite
    # makes an error, and the error names the atom and both weights
    with pytest.raises(
        ValueError, match=rf"^ratio at atom {atom} passes the float range: nu .+ / mu 1e-320$"
    ):
        make_finite_pair(mu, nu, 1.0)


# tiny positive weights make nu/mu overflow, which the constructor
# rightly rejects; keep atoms either zero or well scaled
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


def _pair_bits(pair):
    """Everything a pair and its draw tables hold, as comparable values:
    the arrays as (dtype, bytes)."""
    guide = pair.mu_guide
    arrays = (pair.mu_weights, pair.nu_weights, pair.ratio_cache, pair.mu_cdf,
              guide.guide, guide.cdf_ext, pair.lambda_drawn)
    return (
        [(arr.dtype, arr.tobytes()) for arr in arrays],
        pair.z_true, pair.name, pair.singular_mass, pair.last_drawable_atom,
        pair.positive, guide.scale, guide.max_steps,
    )


def _copying_path(monkeypatch):
    """Make the builders hand copies of their weight rows to the pair,
    which then normalizes them into a new buffer as it does a caller's.
    Returns the list of the shapes of the buffers handed over since."""
    handed = []

    def copying(rows, z, name):
        handed.append(rows.shape)
        return DistributionPair(rows[0].copy(), rows[1].copy(), z, name)

    monkeypatch.setattr(distributions, "_handed_pair", copying)
    return handed


@pytest.mark.parametrize("size", [1, 2, 7, 1000, DOT_CHUNK + 3, 1 << 17])
def test_random_pair_normalized_in_place_is_the_copying_path(size, monkeypatch):
    owned = _pair_bits(make_random_pair(size, 20260818 + size, z=2.5))
    handed = _copying_path(monkeypatch)
    assert _pair_bits(make_random_pair(size, 20260818 + size, z=2.5)) == owned
    assert handed == [(3, size)]


def test_weighted_pair_normalized_in_place_is_the_copying_path(monkeypatch):
    base = make_finite_pair([0.25, 0.0, 0.5, 0.25], [0.2, 0.1, 0.3, 0.4], 3.0)
    g = np.array([1.0, 2.0, 0.0, 0.5])
    frozen = base.mu_weights.tobytes(), g.tobytes()
    owned = _pair_bits(make_weighted_pair(base, g))
    assert (base.mu_weights.tobytes(), g.tobytes()) == frozen
    wide = make_random_pair(5000, 9)
    g_wide = make_generator(10).random(5000)
    wide_owned = _pair_bits(make_weighted_pair(wide, g_wide))
    handed = _copying_path(monkeypatch)
    assert _pair_bits(make_weighted_pair(base, g)) == owned
    assert _pair_bits(make_weighted_pair(wide, g_wide)) == wide_owned
    assert handed == [(3, 4), (3, 5000)]
    # and the weighted target is the one it always was
    weighted = base.nu_weights * g / ordered_dot(base.nu_weights, g)
    np.testing.assert_array_equal(
        make_weighted_pair(base, g).nu_weights, weighted / weighted.sum()
    )


@pytest.mark.parametrize("weights", [
    [0.25, 0.0, 0.5 + 2.0**-52, 0.25],
    np.array([0.125, 0.375, 0.5, 0.0], dtype=np.float32),
], ids=["list", "float32"])
def test_handed_over_weights_are_the_callers_weights_bit_for_bit(weights, tmp_path):
    nu = [0.25, 0.25, 0.25, 0.25]
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"mu": np.asarray(weights).tolist(), "nu": nu, "z": 1.5}))
    copied = make_finite_pair(weights, nu, 1.5)
    rows = np.empty((3, len(nu)))
    rows[0], rows[1] = np.asarray(weights, dtype=np.float64), nu
    owned = distributions._handed_pair(rows, 1.5, "")
    assert _pair_bits(owned) == _pair_bits(copied) == _pair_bits(load_pair(path))


def test_random_pair_reproducible():
    a = make_random_pair(17, 4242)
    b = make_random_pair(17, 4242)
    np.testing.assert_array_equal(a.mu_weights, b.mu_weights)
    np.testing.assert_array_equal(a.nu_weights, b.nu_weights)
    assert a.support_size == 17
    assert a.absolutely_continuous
    assert make_random_pair(17, 4243).nu_weights[0] != a.nu_weights[0]


# SHA-256 of make_random_pair(2**18, 20260818)'s mu_weights, nu_weights
# and ratio_cache bytes, in that order
WIDE_RANDOM_PAIR_SHA256 = "c95374b4bba63f36d2e3fd9709c4e0fc710fcbbd89c9695092d1f3703661deb4"


def _wide_random_pair_sha256():
    pair = make_random_pair(2**18, 20260818)
    digest = hashlib.sha256()
    for arr in (pair.mu_weights, pair.nu_weights, pair.ratio_cache):
        digest.update(arr.tobytes())
    return digest.hexdigest()


def test_wide_random_pair_bytes_are_pinned():
    assert _wide_random_pair_sha256() == WIDE_RANDOM_PAIR_SHA256


def _serial_random_pair(support, seed, z):
    """make_random_pair on one thread: mu's weights are the first
    ``support`` words of the seed's stream and nu's the next, each
    shifted to [0.05, 1.05) and divided by its sum."""
    gen = make_generator(seed)
    mu, nu = gen.random(support), gen.random(support)
    for raw in (mu, nu):
        raw += 0.05
        raw /= raw.sum()
    return DistributionPair(mu_weights=mu, nu_weights=nu, z_true=z,
                            name=f"random[{support},{seed}]")


@pytest.mark.parametrize("size", [
    PARALLEL_FILL_MIN - 1, PARALLEL_FILL_MIN, PARALLEL_FILL_MIN + 1,
    PARALLEL_FILL_MIN + 2, PARALLEL_FILL_MIN + 3, 1 << 18,
])
def test_random_pair_is_the_serial_draw_bit_for_bit(size):
    seed = 20260818 + size
    assert (_pair_bits(make_random_pair(size, seed, z=2.5))
            == _pair_bits(_serial_random_pair(size, seed, 2.5)))


@pytest.mark.parametrize("size", [PARALLEL_FILL_MIN - 1, PARALLEL_FILL_MIN])
def test_positive_tells_whether_every_atom_has_both_masses(size):
    """Random pairs, filled serially or on two threads, have both masses
    on every atom; a weighted pair whose g has a zero has an atom of no
    target mass."""
    pair = make_random_pair(size, 7)
    assert pair.positive is True
    g = np.ones(size)
    g[size // 2] = 0.0
    assert make_weighted_pair(pair, g).positive is False


def _fills_by_thread(monkeypatch, fill, cpus=2):
    """Patch ``_fill_weights`` with ``fill(gen, raw, on_caller)``, where
    ``on_caller`` tells whether the call runs on the test's thread, and
    let the process use ``cpus`` CPUs (None: those it may really use)."""
    caller = threading.get_ident()
    monkeypatch.setattr(
        distributions, "_fill_weights",
        lambda gen, raw: fill(gen, raw, threading.get_ident() == caller),
    )
    if cpus is not None:
        monkeypatch.setattr(distributions, "_usable_cpus", lambda: cpus)


@pytest.mark.parametrize("size, on_caller", [
    (PARALLEL_FILL_MIN - 1, [True, True]),  # below the cut: both on the caller
    (PARALLEL_FILL_MIN, [False, True]),
])
def test_nu_is_filled_on_a_helper_thread_from_the_cut_on(monkeypatch, size, on_caller):
    seen = []
    fill = distributions._fill_weights

    def recording(gen, raw, here):
        seen.append(here)
        fill(gen, raw)

    _fills_by_thread(monkeypatch, recording)
    make_random_pair(size, 5)
    assert sorted(seen) == on_caller


@pytest.mark.parametrize("fails_on_caller", [False, True], ids=["helper", "caller"])
def test_a_failed_fill_is_raised_in_the_caller_and_joins_the_helper(
    monkeypatch, fails_on_caller
):
    fill = distributions._fill_weights

    def failing(gen, raw, here):
        if here == fails_on_caller:
            raise MemoryError("fill failed")
        fill(gen, raw)

    _fills_by_thread(monkeypatch, failing)
    before = threading.active_count()
    with pytest.raises(MemoryError, match="fill failed"):
        make_random_pair(PARALLEL_FILL_MIN, 5)
    assert threading.active_count() == before


def test_one_usable_cpu_builds_a_wide_pair_serially(monkeypatch):
    """On one CPU a wide build starts no thread, and its bytes are the
    pinned ones."""
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(distributions, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(distributions, "threading", SimpleNamespace(Thread=no_thread))
    assert _wide_random_pair_sha256() == WIDE_RANDOM_PAIR_SHA256


def test_a_wide_build_threads_only_with_a_second_usable_cpu(monkeypatch):
    """The CPUs the process may really use decide the thread: under
    ``taskset -c 0`` the calling thread fills both mu and nu, otherwise
    a helper fills nu."""
    usable = distributions._usable_cpus()
    if hasattr(os, "sched_getaffinity"):
        assert usable == len(os.sched_getaffinity(0))
    else:
        assert usable == (os.cpu_count() or 1)
    seen = []
    fill = distributions._fill_weights
    _fills_by_thread(monkeypatch, lambda gen, raw, here: seen.append(here) or fill(gen, raw),
                     cpus=None)
    assert _wide_random_pair_sha256() == WIDE_RANDOM_PAIR_SHA256
    assert sorted(seen) == ([False, True] if usable >= 2 else [True, True])


def test_no_thread_outlives_a_wide_build():
    before = threading.active_count()
    make_random_pair(1 << 18, 5)
    assert threading.active_count() == before


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


@pytest.mark.parametrize("bad", [2.5, math.nan, math.inf, "5"])
def test_a_draw_or_histogram_count_that_is_not_an_integer_is_named(bad):
    # int() would truncate 2.5 to 2 draws per batch or histogram, and
    # parse "5"
    pair = make_bernoulli_pair(0.5, 0.25)
    for label, call in (
        ("n", lambda v: sample(pair, v, 1)),
        ("m", lambda v: sample_counts(pair, v, 3, 1)),
        ("k", lambda v: sample_counts(pair, 4, v, 1)),
        ("m", lambda v: count_block(pair, make_generator(1), v, 2, 3)),
        ("k", lambda v: count_block(pair, make_generator(1), 4, 2, v)),
    ):
        with pytest.raises(ValueError, match=f"^{label} must be an integer, got {bad!r}$"):
            call(bad)
    # an integer-valued float is that integer
    assert sample(pair, 5.0, 1).n == 5
    assert sample(pair, 5.0, 1).atoms.tobytes() == sample(pair, 5, 1).atoms.tobytes()
    assert sample_counts(pair, 5.0, 3.0, 1).tobytes() == sample_counts(pair, 5, 3, 1).tobytes()


@pytest.mark.parametrize("support", [2**63, 1e30])
def test_random_pair_names_a_support_past_the_array_size_range(support):
    # numpy array dimensions are int64; the error names the argument
    message = f"^support_size={int(support)} passes the 64-bit array size range$"
    with pytest.raises(ValueError, match=message):
        make_random_pair(support, 3)


def test_sample_deterministic(bern):
    a = sample(bern, 100, 7)
    b = sample(bern, 100, 7)
    np.testing.assert_array_equal(a.atoms, b.atoms)
    np.testing.assert_array_equal(a.lambdas, b.lambdas)
    assert (a.atoms != sample(bern, 100, 8).atoms).any()


def test_sample_lambdas_are_table_lookups(bern):
    batch = sample(bern, 50, 3)
    np.testing.assert_array_equal(batch.lambdas, bern.lambda_drawn[batch.atoms])
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


def _pair_with_a_zero(way, zero, path):
    """A pair holding the zero weight ``zero`` (0.0 or -0.0), entered
    ``way``: as a target or a proposal weight of ``make_finite_pair``, as
    an entry of ``make_weighted_pair``'s g, or in a JSON file at
    ``path``. Most of the proposal mass sits on atoms of ratio 0, where
    the quantile estimate falls."""
    mu, nu = [0.05, 0.05, 0.9], [0.5, 0.5, zero]
    if way == "proposal":
        mu, nu = [0.05, zero, 0.05, 0.9], [0.5, 0.0, 0.5, 0.0]
    if way == "g":
        return make_weighted_pair(make_finite_pair(mu, [0.25, 0.25, 0.5], 1.5), [1.0, 1.0, zero])
    if way == "file":
        text = json.dumps({"mu": mu, "nu": nu, "z": 1.5})
        assert ("-0.0" in text) == (math.copysign(1.0, zero) < 0)
        path.write_text(text)
        return load_pair(path)
    return make_finite_pair(mu, nu, 1.5)


@pytest.mark.parametrize("way", ["target", "proposal", "g", "file"])
def test_a_negative_zero_weight_gives_the_pair_of_a_zero_weight(way, tmp_path, monkeypatch):
    """However a -0.0 weight enters a pair, the pair reads it as 0.0: no
    row holds -0.0, and the pair is the one built with 0.0, bit for bit,
    in its rows and tables, its complete profile, its race law and its
    trials' estimates on either engine."""
    signed, plain = (_pair_with_a_zero(way, zero, tmp_path / f"{i}.json")
                     for i, zero in enumerate((-0.0, 0.0)))

    def same(a, b):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    for pair in (signed, plain):
        for row in (pair.mu_weights, pair.nu_weights, pair.ratio_cache):
            assert not np.signbit(row).any()
    for name in ("mu_weights", "nu_weights", "ratio_cache", "ratio_order", "lambda_drawn"):
        same(getattr(signed, name), getattr(plain, name))
    profiles = [CoverageProfile.from_pair(pair) for pair in (signed, plain)]
    for name in ("thresholds", "nu_masses", "mu_masses",
                 "_nu_suffix", "_mu_suffix", "_nu_r_prefix"):
        same(*(getattr(profile, name) for profile in profiles))
    for n in (1, 2, 88):
        (law, null), (plain_law, plain_null) = race_law(signed, n), race_law(plain, n)
        same(law, plain_law)
        same(np.float64(null), np.float64(plain_null))
    g = np.arange(1.0, signed.support_size + 1)
    for ratio in (0, math.inf):  # every trial on hit counts, then on draws
        monkeypatch.setattr(estimators, "COUNT_ENGINE_RATIO", ratio)
        for method in ("mom", "quantile", "snis"):
            same(*(run_trials(pair, method, 200, 5, 1, 0.9, 0.1, m=1.0, g=g).estimates
                   for pair in (signed, plain)))


def test_load_rejects_missing_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"mu": [1.0], "z": 1.0}')
    with pytest.raises(ValueError, match="missing field"):
        load_pair(path)


@pytest.mark.parametrize("text", ["[1, 2]", "3.5", "null"])
def test_load_rejects_non_object(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="must be a JSON object"):
        load_pair(path)


def test_arrays_are_frozen(bern):
    with pytest.raises(ValueError):
        bern.mu_weights[0] = 0.9


def _cumsum_draw(pair, u):
    """The inverse-CDF draw as it was before the table was cached: the
    cumulative mass rebuilt on every call."""
    atoms = np.searchsorted(np.cumsum(pair.mu_weights), u, side="right")
    return np.clip(atoms, 0, pair.last_drawable_atom)


def _race_trace_reference(pair, n, rows, gen):
    """Atoms, arrivals and scores, shape (rows, n), of ``rows`` races of
    length n drawn from ``gen``, written out as the race was before its
    block helper."""
    atoms = _cumsum_draw(pair, gen.random((rows, n)))
    arrivals = np.cumsum(-np.log1p(-gen.random((rows, n))), axis=1)
    lam = pair.z_true * pair.ratio_cache[atoms]
    scores = np.full(lam.shape, np.inf)
    np.divide(arrivals, lam, out=scores, where=lam > 0)
    return atoms, arrivals, scores


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


@pytest.mark.parametrize(
    "pair", DRAW_PAIRS + [make_twopoint_mu_pair(0.25)],
    ids=["bernoulli", "random", "trailing-zero", "twopoint"],
)
def test_single_race_trace_matches_the_reference(pair):
    """astar_sample is one row of the block race, on the stream keyed by
    the seed itself: its atoms and scores equal the reference's bit for
    bit, and the arrivals behind them strictly increase."""
    for n, seed in ((1, 0), (8, 42), (40, 7), (3000, 2**64 - 1)):
        atoms, arrivals, scores = _race_trace_reference(pair, n, 1, make_generator(seed))
        assert np.all(np.diff(arrivals[0]) > 0)
        if np.isinf(scores).all():
            with pytest.raises(AllNullDrawsError):
                astar_sample(pair, n, seed)
            continue
        atom, state = astar_sample(pair, n, seed)
        np.testing.assert_array_equal(state.atoms, atoms[0])
        np.testing.assert_array_equal(state.scores, scores[0])
        assert state.best_index == np.argmin(scores[0])
        assert state.best_score == scores[0].min()
        assert atom == atoms[0, state.best_index]


def _races_reference(pair, n, trials, seed):
    """Winner counts and null races of ``trials`` races: one multinomial
    draw, from the stream keyed by the seed itself, over the atoms of
    positive law and then null if its law is positive, in that order but
    for the likeliest category (the first, if tied), which goes last."""
    law, null = race_law(pair, n)
    p = law.tolist() + [null]
    cats = [i for i, x in enumerate(p) if x > 0]
    likeliest = max(cats, key=p.__getitem__)
    cats.sort(key=lambda i: i == likeliest)
    counts = [0] * len(p)
    drawn = make_generator(seed).multinomial(trials, [p[i] for i in cats])
    for i, c in zip(cats, drawn.tolist()):
        counts[i] = c
    return counts[:-1], counts[-1]


# a tied level (atoms 1 and 2) and a level lambda = 0 with proposal
# mass (atom 3)
TIED = make_finite_pair([0.3, 0.2, 0.1, 0.25, 0.15], [0.1, 0.3, 0.15, 0.0, 0.45], 2.0)
RACE_PAIRS = DRAW_PAIRS + [make_twopoint_mu_pair(0.25), TIED]
RACE_IDS = ["bernoulli", "random", "trailing-zero", "twopoint", "tied"]


@pytest.mark.parametrize("pair", RACE_PAIRS, ids=RACE_IDS)
def test_races_are_one_multinomial_draw_over_the_law(pair):
    """A call's winner counts are one multinomial draw over race_law on
    the Philox stream keyed by the seed itself, whatever the race count."""
    n, seed = 6, 2**64 - 5
    for trials in (1, 2700, 349_526, 2**62):
        summary = run_races(pair, n, trials, seed)
        counts, nulls = _races_reference(pair, n, trials, seed)
        assert summary.counts.tolist() == counts
        assert summary.null_races == nulls
        assert summary.counts.sum() + summary.null_races == trials
        assert (summary.n_per_race, summary.trials) == (n, trials)


@pytest.mark.parametrize("pair", RACE_PAIRS, ids=RACE_IDS)
def test_races_never_land_where_the_law_is_zero(pair):
    """numpy's multinomial hands its last category whatever count the
    others' rounding leaves, so at 2^62 races an atom without proposal
    or target mass, or null on a pair without drawable zero-density
    mass, would collect a few races. None does, and every category of
    positive law wins some."""
    mu0 = float(pair.mu_weights[pair.nu_weights == 0].sum())
    for n in (1, 2, 7):
        summary = run_races(pair, n, 2**62, n)
        law, null = race_law(pair, n)
        np.testing.assert_array_equal(summary.counts > 0, law > 0)
        assert not summary.counts[(pair.mu_weights == 0) | (pair.nu_weights == 0)].any()
        assert (summary.null_races > 0) == (null > 0) == (mu0 > 0)


def test_draw_tables_are_cached_and_read_only():
    pair = make_random_pair(32, 8, z=2.5)
    text = repr(pair)
    assert pair.mu_cdf is pair.mu_cdf
    assert pair.lambda_drawn is pair.lambda_drawn
    assert pair.mu_guide is pair.mu_guide
    assert pair.ratio_order is pair.ratio_order
    np.testing.assert_array_equal(pair.mu_cdf, np.cumsum(pair.mu_weights))
    np.testing.assert_array_equal(pair.lambda_drawn, 2.5 * pair.ratio_cache)
    np.testing.assert_array_equal(
        pair.ratio_order, np.argsort(-pair.ratio_cache, kind="stable")
    )
    assert isinstance(pair.mu_guide, GuideTable) and pair.mu_guide.scale == 32
    for table in (pair.mu_cdf, pair.lambda_drawn, pair.mu_guide.guide,
                  pair.mu_guide.cdf_ext, pair.ratio_order):
        with pytest.raises(ValueError):
            table[0] = 0
    with pytest.raises(AttributeError):
        pair.mu_guide.max_steps = 0
    # the tables are not fields: repr reads the same as before
    assert repr(pair) == text
    assert [f.name for f in dataclasses.fields(pair)] == [
        "mu_weights", "nu_weights", "z_true", "name",
        "ratio_cache", "singular_mass", "last_drawable_atom",
    ]
    one = make_finite_pair([1.0], [1.0], 2.0)
    other = make_finite_pair([1.0], [1.0], 2.0)
    assert one.mu_cdf.size == one.lambda_drawn.size == 1
    assert one.mu_guide.scale == 1 and one.mu_guide.guide.tolist() == [0]
    # pairs compare by identity, however equal their weights
    assert one != other and one == one and repr(one) == repr(other)


_ORDER_SPECIALS = [0.0, -0.0, math.inf, 0.5, 1.0, 3.0]


@st.composite
def _order_values(draw):
    """Arrays of values >= 0, -0.0 or inf: either any mix of ties, the
    specials, plain floats and one-ulp neighbours of a base value, or
    only such neighbours, which all share their high key bits, so that
    one run of keys spans the whole array."""
    size = draw(st.integers(1, 80))
    span = 1 << (size - 1).bit_length()
    base = draw(st.floats(min_value=0.0, max_value=1e300))
    # the base's pattern with the bits an index takes in a key cleared
    low_bits = np.array([base]).view(np.uint64) & ~np.uint64(span - 1)
    near = st.integers(0, span - 1).map(
        lambda k: float((low_bits + np.uint64(k)).view(np.float64)[0])
    )
    if not draw(st.booleans()):
        near = st.one_of(near, st.sampled_from(_ORDER_SPECIALS), st.floats(0.0, 1e6))
    return np.array(draw(st.lists(near, min_size=size, max_size=size)))


@given(values=_order_values())
def test_descending_order_is_the_stable_argsort_of_the_negated_values(values):
    order = descending_order(values)
    assert order.dtype == np.int64
    np.testing.assert_array_equal(order, np.argsort(-values, kind="stable"))


@pytest.mark.parametrize("support, seed", [(2**18, 20260818), (2**14, 1)])
def test_ratio_order_is_sorted_once_and_read_only(support, seed):
    # at 2^18 atoms, seed 20260818 has ratios that share their high key
    # bits out of order, which only the run repair sorts
    pair = make_random_pair(support, seed)
    order = pair.ratio_order
    assert order is pair.ratio_order
    np.testing.assert_array_equal(order, np.argsort(-pair.ratio_cache, kind="stable"))
    with pytest.raises(ValueError):
        order[0] = 0


def test_records_holding_arrays_compare_by_identity():
    """Two distinct records compare unequal without raising, however
    equal their arrays; each equals itself and hashes."""
    def build():
        pair = make_random_pair(16, 3)
        summary = run_races(pair, 5, 10, 1)
        return (pair, CoverageProfile.from_pair(pair), sample(pair, 4, 2),
                astar_sample(pair, 5, 1)[1], summary)

    for one, other in zip(build(), build()):
        assert type(one) is type(other)
        assert one != other and not one == other
        assert one == one and hash(one) == hash(one)
    assert len({*build()}) == 5


WIDE = 1 << 18


def _traced(build):
    """What ``build()`` returns, with the memory it still holds and the
    most it held meanwhile, both in support-sized float64 arrays of WIDE
    atoms, as tracemalloc sees numpy's allocations."""
    tracemalloc.start()
    try:
        out = build()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held / (8 * WIDE), peak / (8 * WIDE)


def test_wide_builders_allocate_each_array_once():
    make_random_pair(2, 0)  # numpy.random and the generator are loaded
    pair, _, peak = _traced(lambda: make_random_pair(WIDE, 20260818))
    # mu, nu and ratio_cache: the drawn weights are normalized in place
    assert peak <= 3.5
    g = make_generator(1).random(WIDE)
    _, _, peak = _traced(lambda: make_weighted_pair(pair, g))
    # a copy of mu, the weighted nu normalized in place, and the ratios
    assert peak <= 3.5
    # the cdf and its sentinel in one buffer, the guide, and while
    # building at most two temporaries besides
    _, held, peak = _traced(lambda: (pair.mu_cdf, pair.mu_guide))
    assert held <= 2.1 and peak <= 4.5
    assert pair.mu_cdf.base is pair.mu_guide.cdf_ext


def _layout_pairs(tmp_path):
    """One pair from each way of building one, by name."""
    base = make_finite_pair([0.25, 0.0, 0.5, 0.25], [0.2, 0.1, 0.3, 0.4], 3.0)
    save_pair(base, tmp_path / "pair.json")
    return {
        "DistributionPair": DistributionPair(np.array([0.5, 0.5]), [0.25, 0.75], 2.0),
        "make_finite_pair": base,
        "load_pair": load_pair(tmp_path / "pair.json"),
        "make_weighted_pair": make_weighted_pair(base, [1.0, 2.0, 0.0, 0.5]),
        "make_random_pair below the cut": make_random_pair(PARALLEL_FILL_MIN - 1, 3),
        "make_random_pair from the cut": make_random_pair(PARALLEL_FILL_MIN, 3),
    }


def test_weights_and_ratios_are_rows_of_one_buffer(tmp_path):
    for how, pair in _layout_pairs(tmp_path).items():
        rows = pair.mu_weights.base
        assert rows is pair.nu_weights.base is pair.ratio_cache.base, how
        assert rows.shape == (3, pair.support_size) and rows.dtype == np.float64, how
        assert rows.flags.c_contiguous and rows.base is None, how
        for i, arr in enumerate((pair.mu_weights, pair.nu_weights, pair.ratio_cache)):
            assert np.shares_memory(arr, rows[i]) and arr.flags.c_contiguous, how
            assert not arr.flags.writeable, how
        assert not rows.flags.writeable, how


# Two wide rebuilds warm the allocator up; the script prints the most
# minor page faults any of the next five took.
_REBUILD_FAULTS = """
import resource
from pfest import CoverageProfile, make_random_pair

def rebuild():
    pair = make_random_pair(2**18, 20260818)
    CoverageProfile.from_pair(pair, top=1024)
    pair.mu_cdf

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

for _ in range(2):
    rebuild()
most = 0
for _ in range(5):
    before = faults()
    rebuild()
    most = max(most, faults() - before)
print(most)
"""


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc"
    or any(name.startswith("MALLOC_") for name in os.environ)
    or "malloc" in os.environ.get("GLIBC_TUNABLES", ""),
    reason="the fault count follows glibc's default malloc thresholds",
)
def test_wide_rebuilds_reuse_the_pages_of_the_last_one():
    """glibc keeps freed memory mapped while the largest freed block sets
    its trim threshold: a 6 MB buffer per 2^18-atom pair lets the next
    rebuild reuse the pages, where separate 2 MB arrays were trimmed
    and faulted in again (about 2 000 faults per rebuild)."""
    src = str(Path(distributions.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", _REBUILD_FAULTS], env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert int(done.stdout) < 100


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


def test_ordered_dot_rows_do_not_depend_on_the_row_count():
    # rows longer than np.einsum's 8 192-element buffer, whose sums would
    # otherwise split where the rows of the call fall in the buffer
    gen = make_generator(6)
    width = 3 * ROW_DOT_CHUNK + 5
    a, w, b = gen.random((9, width)), gen.random((9, width)), gen.random(width)
    by_vector, by_rows = ordered_dot(a, b), ordered_dot(a, w)
    assert by_vector.shape == by_rows.shape == (9,)
    for r in range(9):
        assert by_vector[r] == ordered_dot(a[r:r + 1], b)[0]
        assert by_rows[r] == ordered_dot(a[r:r + 1], w[r:r + 1])[0]
        assert by_rows[r] == pytest.approx(math.fsum(a[r] * w[r]), rel=1e-12)


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
    shape=st.sampled_from([(1,), (57,), (3, 5), (9, 13)]),
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

    # u takes the route its size picks: the guide table is built exactly
    # when a call holds at least S uniforms
    pair = fresh()
    atoms = draw_atoms(pair, u)
    assert atoms.shape == shape
    np.testing.assert_array_equal(atoms, plain(u))
    assert ("mu_guide" in vars(pair)) == (u.size >= size)
    # both routes on every edge: calls of fewer than S uniforms search in
    # sorted order and build no guide, a call of at least S walks it
    pair = fresh()
    if size > 1:
        np.testing.assert_array_equal(_in_pieces(pair, edges, size - 1), plain(edges))
    assert draw_atoms(pair, edges[:0]).size == 0
    assert "mu_guide" not in vars(pair)
    np.testing.assert_array_equal(draw_atoms(pair, edges), plain(edges))
    assert "mu_guide" in vars(pair)

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


def test_workload_shaped_calls_keep_their_routes():
    # a trial block of the wide workload's shape, 8 trials of 14k draws on
    # 2^17 atoms, searches in sorted order and builds no guide table
    wide = make_random_pair(1 << 17, 20260817)
    run_trials(wide, "mom", 14_000, 8, 7, 0.5, 0.1)
    assert "mu_guide" not in vars(wide)
    # races draw nothing from the proposal: the race workload's 32 768
    # races on 64 atoms build no draw table
    pair = make_random_pair(64, 20260864)
    run_races(pair, 88, 32_768, 7)
    assert "mu_guide" not in vars(pair) and "mu_cdf" not in vars(pair)
    # a single race with n >= S draws its atoms in one call, so it walks
    # the guide table: 2^17 draws on the 2^17 atoms above
    astar_sample(wide, 1 << 17, 7)
    assert "mu_guide" in vars(wide)


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
