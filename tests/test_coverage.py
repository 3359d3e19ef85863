import bisect
import contextlib
import dataclasses
import importlib
import math
import pkgutil
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pfest
from pfest import coverage
from pfest import (
    CoverageProfile,
    InfeasiblePlanError,
    SingularPairError,
    TailPlanner,
    chi_squared,
    coverage_bound_fdiv,
    f_divergence,
    icov_bound_fdiv,
    kl,
    make_finite_pair,
    make_pointmass_pair,
    make_random_pair,
    make_weighted_pair,
    min_coverage_threshold,
    mu_tail_bound,
    paley_zygmund_bound_fdiv,
    paley_zygmund_lower_bound,
    plan_n_coverage,
    plan_n_is,
    plan_n_quantile,
    plan_n_snis,
    solve_M_eps,
    tv,
)
from pfest.coverage import (
    TAIL_SAMPLED_SHARE,
    TAIL_SPARSE,
    TAIL_STEP,
    _tail_candidates,
    _with_margin,
)
from pfest.distributions import ordered_dot
from pfest.estimators import PLANS, _quantile_coverage
from pfest.sampler import _race_coverage, sampling_plan

SLACK = 1e-10


def test_no_package_name_shadows_a_submodule():
    for info in pkgutil.iter_modules(pfest.__path__):
        module = importlib.import_module(f"pfest.{info.name}")
        assert getattr(pfest, info.name) is module, info.name


def test_profile_layout(bern, bern_profile):
    np.testing.assert_allclose(bern_profile.thresholds, [0.75, 1.25], rtol=1e-15)
    np.testing.assert_allclose(bern_profile.nu_masses, [0.375, 0.625], atol=1e-15)
    np.testing.assert_array_equal(bern_profile.mu_masses, [0.5, 0.5])
    assert bern_profile.singular_mass == 0.0
    assert bern_profile.truncated_second_moment(math.inf) == pytest.approx(1.0625, rel=1e-14)


def test_profile_from_singular_pair():
    prof = CoverageProfile.from_pair(make_pointmass_pair(0.3))
    assert prof.singular_mass == pytest.approx(0.3)
    np.testing.assert_allclose(prof.thresholds, [0.7], rtol=1e-15)


def _unique_bincount_profile(pair):
    """Profile arrays by np.unique and two bincounts, the reference for
    from_pair's single sort."""
    pos = pair.mu_weights > 0
    uniq, inverse = np.unique(pair.ratio_cache[pos], return_inverse=True)
    nu = np.bincount(inverse, weights=pair.nu_weights[pos], minlength=uniq.size)
    mu = np.bincount(inverse, weights=pair.mu_weights[pos], minlength=uniq.size)
    return uniq, nu, mu


def _reference_tables(thresholds, nu, mu):
    """The profile's suffix and prefix tables, written out as
    concatenations of cumulative sums."""
    return (
        np.concatenate([np.cumsum(nu[::-1])[::-1], [0.0]]),
        np.concatenate([np.cumsum(mu[::-1])[::-1], [0.0]]),
        np.concatenate([[0.0], np.cumsum(nu * thresholds)]),
    )


def _assert_same_profile_arrays(pair):
    """from_pair's arrays and tables equal the references bit for bit,
    signed zeros too, and none of them can be written."""
    prof = CoverageProfile.from_pair(pair)
    arrays = (prof.thresholds, prof.nu_masses, prof.mu_masses)
    tables = (prof._nu_suffix, prof._mu_suffix, prof._nu_r_prefix)
    expected = _unique_bincount_profile(pair)
    for a, b in zip(arrays + tables, expected + _reference_tables(*expected)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
        assert not a.flags.writeable


# few distinct values, so ratios tie often; zeros give zero-mass and
# singular atoms; -0.0 is a valid zero weight
_tie_weight = st.sampled_from([0.0, -0.0, 0.125, 0.25, 0.5, 1.0, 3.0])
_any_weight = st.one_of(_tie_weight, st.floats(1e-3, 1.0))


@given(weights=st.lists(st.tuples(_any_weight, _any_weight), min_size=1, max_size=40))
def test_from_pair_matches_unique_and_bincount(weights):
    mu = np.array([w[0] for w in weights])
    nu = np.array([w[1] for w in weights])
    if mu.sum() <= 0 or nu.sum() <= 0:
        return
    _assert_same_profile_arrays(make_finite_pair(mu / mu.sum(), nu / nu.sum(), 1.0))


@pytest.mark.parametrize("support,seed", [(1, 0), (4096, 1), (4096, 2)])
def test_from_pair_matches_unique_and_bincount_on_random_pairs(support, seed):
    _assert_same_profile_arrays(make_random_pair(support, seed))


def _tied_pair(support, seed):
    """Small integer weights, none 0, so thousands of atoms share a few
    dozen ratio levels, and every atom has both masses."""
    gen = np.random.default_rng(seed)
    mu = gen.integers(1, 5, support).astype(float)
    nu = gen.integers(1, 5, support).astype(float)
    return make_finite_pair(mu / mu.sum(), nu / nu.sum(), 1.0)


def _with_zero_mass_atoms(support, seed, singular):
    """Interior atoms without proposal mass; with ``singular`` some of
    them carry target mass."""
    gen = np.random.default_rng(seed)
    mu = gen.random(support) + 0.05
    nu = gen.random(support) + 0.05
    null = gen.random(support) < 0.25
    null[[0, -1]] = False
    mu[null] = 0.0
    if not singular:
        nu[null] = 0.0
    return make_finite_pair(mu / mu.sum(), nu / nu.sum(), 1.0)


def _negative_zero_targets(support, seed):
    """Target weights of -0.0 on a third of the atoms, so their ratios
    are -0.0 next to the 0.0 of others, and the 0.0 level mixes both."""
    gen = np.random.default_rng(seed)
    mu = gen.random(support) + 0.05
    nu = gen.random(support) + 0.05
    zeros = gen.random(support) < 0.5
    nu[zeros] = np.where(gen.random(zeros.sum()) < 0.67, -0.0, 0.0)
    return make_finite_pair(mu / mu.sum(), nu / nu.sum(), 1.0)


def _near_tied_pair(support):
    """Ratios a few ulps apart and decreasing along the atoms, so most of
    them agree everywhere but in their low bit_length(support - 1) bits,
    the bits an atom index would take in a packed sort key."""
    mu = np.full(support, 1.0 / support)
    nu = (1.0 + np.arange(support)[::-1] * 2.0**-52) / support
    pair = make_finite_pair(mu, nu, 1.0)
    ratios = pair.ratio_cache
    high = ratios.view(np.uint64) >> np.uint64((support - 1).bit_length())
    assert high[0] == high[1] and ratios[0] > ratios[1]
    return pair


@pytest.mark.parametrize(
    "pair",
    [
        _tied_pair(4096, 3),
        _tied_pair(5000, 4),
        _with_zero_mass_atoms(3000, 5, singular=False),
        _with_zero_mass_atoms(3000, 6, singular=True),
        _negative_zero_targets(600, 7),
        _negative_zero_targets(2, 8),
        _near_tied_pair(16),
        _near_tied_pair(1000),
        make_pointmass_pair(0.3),
        make_finite_pair([0.5, 0.5, 0.0], [-0.0, 0.0, 1.0], 1.0),
        make_finite_pair([0.5, 0.5, 0.0], [0.0, -0.0, 1.0], 1.0),
    ],
    ids=["tied-4096", "tied-5000", "zero-mass", "singular", "negative-zero",
         "negative-zero-2", "near-tied-16", "near-tied-1000", "pointmass",
         "all-zero-ratios", "all-zero-ratios-swapped"],
)
def test_from_pair_is_exact_on_tied_and_degenerate_pairs(pair):
    _assert_same_profile_arrays(pair)


@pytest.mark.parametrize(
    "thresholds", [[1.0, 1.0], [2.0, 1.0], [1.0, math.nan], [math.inf, math.inf]]
)
def test_profile_rejects_levels_not_strictly_increasing(thresholds):
    with pytest.raises(ValueError, match="thresholds must be strictly increasing"):
        CoverageProfile(
            thresholds=thresholds, nu_masses=[0.5, 0.5], mu_masses=[0.5, 0.5],
            singular_mass=0.0,
        )


@pytest.mark.parametrize(
    "field,value",
    [
        ("singular_mass", math.nan),
        ("singular_mass", math.inf),
        ("singular_mass", -0.2),
        ("nu_masses", [-0.5, 1.5]),
        ("nu_masses", [0.5, math.nan]),
        ("nu_masses", [math.inf, 0.5]),
        ("mu_masses", [0.5, -0.5]),
        ("mu_masses", [math.nan, 0.5]),
        ("mu_masses", [0.5, math.inf]),
    ],
)
def test_profile_rejects_masses_that_are_not_finite_and_nonnegative(field, value):
    # before the check, a NaN singular mass sent solve_M_eps stepping
    # float by float toward inf, and negative masses gave M = 11.0
    fields = dict(thresholds=[0.5, 2.0], nu_masses=[0.5, 0.5], mu_masses=[0.5, 0.5],
                  singular_mass=0.0)
    fields[field] = value
    with pytest.raises(ValueError, match=f"{field} must be finite and nonnegative"):
        CoverageProfile(**fields)


def test_coverage_step_values(bern_profile):
    """Coverage counts target mass at or above the level, so it is
    left-continuous with jumps exactly at the ratio atoms."""
    p = bern_profile
    assert p.coverage(0.5) == 1.0
    assert p.coverage(0.75) == 1.0
    assert p.coverage(0.750001) == pytest.approx(0.625)
    assert p.coverage(1.25) == pytest.approx(0.625)
    assert p.coverage(1.250001) == 0.0


def test_integrated_coverage_anchors(bern_profile):
    # below every ratio min(r, m) = m; at or above the top it is E[r]
    assert bern_profile.integrated_coverage(0.5) == pytest.approx(0.5, rel=1e-14)
    assert bern_profile.integrated_coverage(1.0) == pytest.approx(0.90625, rel=1e-14)
    assert bern_profile.integrated_coverage(1.25) == pytest.approx(1.0625, rel=1e-14)
    assert bern_profile.integrated_coverage(2.0) == pytest.approx(1.0625, rel=1e-14)


def test_truncated_second_moment_anchors(bern_profile):
    assert bern_profile.truncated_second_moment(0.5) == 0.0
    assert bern_profile.truncated_second_moment(1.0) == pytest.approx(0.28125, rel=1e-14)
    assert bern_profile.truncated_second_moment(1.25) == pytest.approx(1.0625, rel=1e-14)


def test_singular_mass_inflates_icov():
    prof = CoverageProfile.from_pair(make_pointmass_pair(0.3))
    # unreachable target mass contributes m per unit of level
    assert prof.integrated_coverage(2.0) == pytest.approx(0.7 * 0.7 + 0.3 * 2.0, rel=1e-14)
    assert prof.coverage(5.0) == pytest.approx(0.3)


def test_integrated_coverage_at_infinity(bern_profile):
    # m times an empty tail counts as 0, so the limit is E_nu[ratio]
    assert bern_profile.integrated_coverage(math.inf) == 1.0625
    assert bern_profile.truncated_second_moment(math.inf) == 1.0625
    out = bern_profile.integrated_coverage(np.array([1.0, math.inf]))
    assert out.tolist() == [0.90625, 1.0625]
    singular = CoverageProfile.from_pair(make_pointmass_pair(0.3))
    assert singular.integrated_coverage(math.inf) == math.inf
    assert singular.integrated_coverage(np.array([2.0, math.inf]))[1] == math.inf
    with pytest.raises(ValueError):
        bern_profile.integrated_coverage(math.nan)
    with pytest.raises(ValueError):
        bern_profile.integrated_coverage(np.array([1.0, math.nan]))
    for query in (bern_profile.coverage, bern_profile.truncated_second_moment,
                  bern_profile.mu_tail):
        with pytest.raises(ValueError, match="m must not be nan"):
            query(math.nan)
        with pytest.raises(ValueError, match="m must not be nan"):
            query(np.array([1.0, math.nan]))


def test_integrated_coverage_scalar_matches_array():
    prof = CoverageProfile.from_pair(make_random_pair(64, 5))
    grid = np.concatenate([[0.0], prof.thresholds, prof.thresholds * 1.5, [math.inf]])
    assert [prof.integrated_coverage(m) for m in grid] == (
        prof.integrated_coverage(grid).tolist()
    )


def test_profile_methods_vectorize(bern_profile):
    grid = np.array([0.5, 1.0, 2.0])
    out = bern_profile.integrated_coverage(grid)
    assert out.shape == (3,)
    assert isinstance(bern_profile.integrated_coverage(1.0), float)
    assert isinstance(bern_profile.coverage(1.0), float)


def test_mu_tail(bern_profile):
    assert bern_profile.mu_tail(0.75) == 1.0
    assert bern_profile.mu_tail(1.0) == pytest.approx(0.5)
    assert bern_profile.mu_tail(1.3) == 0.0


@pytest.mark.parametrize("seed", range(25))
def test_pointwise_inequalities_random(seed):
    """trunc2nd <= IC and m*Cov <= IC at every level, any pair."""
    pair = make_random_pair(2 + seed % 40, 31000 + seed)
    prof = CoverageProfile.from_pair(pair)
    r = pair.ratio_cache
    grid = np.geomspace(max(float(r.min()) / 2, 1e-6), 2 * float(r.max()), 60)
    cov = prof.coverage(grid)
    icov = prof.integrated_coverage(grid)
    t2 = prof.truncated_second_moment(grid)
    assert np.all(t2 <= icov + SLACK)
    assert np.all(grid * cov <= icov + SLACK)
    # monotone shapes
    assert np.all(np.diff(cov) <= SLACK)
    assert np.all(np.diff(icov) >= -SLACK)
    ratio = icov / grid
    assert np.all(np.diff(ratio) <= SLACK * ratio[:-1] + SLACK)


def test_icov_matches_quadrature(bern_profile):
    # IC_m equals the area under the coverage step up to m
    for m in (0.8, 1.25, 2.0):
        ts = np.linspace(0.0, m, 10_001)
        quad = float(np.trapezoid(bern_profile.coverage(ts), ts))
        assert bern_profile.integrated_coverage(m) == pytest.approx(quad, rel=2e-4)


def test_solve_identity_closed_form(identity_profile):
    # IC_m = 1 for m >= 1, so the solution of IC_m <= eps*m is 1/eps
    for eps, m in ((0.5, 2.0), (0.125, 8.0)):
        assert solve_M_eps(identity_profile, eps) == m
        _assert_least_level(identity_profile, eps, m)


def test_solve_bernoulli(bern_profile):
    assert solve_M_eps(bern_profile, 0.0625) == 17.0
    _assert_least_level(bern_profile, 0.0625, 17.0)


@pytest.mark.parametrize("seed", range(10))
def test_solve_is_the_infimum(seed):
    prof = CoverageProfile.from_pair(make_random_pair(12, 61000 + seed))
    for eps in (0.5, 0.2, 0.05):
        m = solve_M_eps(prof, eps)
        _assert_least_level(prof, eps, m)
        below = m * (1 - 1e-6)
        if below > float(prof.thresholds[0]) / 2:
            assert prof.integrated_coverage(below) > eps * below * (1 - 1e-9)


def _segment_root(profile, eps):
    """max(t[j-1], a / (eps - b)) in exact arithmetic over the profile's
    float tables, where t[j] is the first threshold with IC <= eps * t
    and a + b*M is the integrated coverage just below it."""
    t = [Fraction(float(v)) for v in profile.thresholds]
    a = [Fraction(float(v)) for v in profile._nu_r_prefix]
    b = [Fraction(float(v)) for v in profile._nu_suffix]
    e = Fraction(eps)
    j = bisect.bisect_left(
        range(len(t)), True, key=lambda k: a[k + 1] + t[k] * b[k + 1] <= e * t[k]
    )
    root = a[j] / (e - b[j])
    return max(root, t[j - 1]) if j > 0 else root


def _assert_least_level(profile, eps, m):
    """m meets the float predicate, the float below it fails it, and m
    sits within 4 ulps of the segment's rational root."""
    assert profile.integrated_coverage(m) <= eps * m
    below = math.nextafter(m, 0.0)
    assert not profile.integrated_coverage(below) <= eps * below
    root = _segment_root(profile, eps)
    assert abs(Fraction(m) - root) <= 4 * Fraction(math.ulp(float(root)))


@given(
    support=st.integers(2, 201),
    seed=st.integers(0, 2**32 - 1),
    log_eps=st.floats(-6.0, math.log10(0.5)),
)
def test_solve_is_exact(support, seed, log_eps):
    prof = CoverageProfile.from_pair(make_random_pair(support, seed))
    eps = 10.0**log_eps
    _assert_least_level(prof, eps, solve_M_eps(prof, eps))


def test_solve_finds_a_root_that_rounds_high():
    # a / (eps - b) rounds one float above the least level here; a
    # search that only steps up from it returned 245.14607880850573
    prof = CoverageProfile.from_pair(make_random_pair(1025, 226))
    eps = 0.5 * 0.1 / 6
    m = solve_M_eps(prof, eps)
    assert m == 245.1460788085057
    _assert_least_level(prof, eps, m)


def test_solve_past_float_range_is_inf(bern_profile):
    assert solve_M_eps(bern_profile, 1e-310) == math.inf


def test_solve_sub_probability_profile():
    # finite levels carrying eps target mass in all: the segment line
    # b*M has b = eps, so there is no root to divide for
    prof = CoverageProfile(
        thresholds=[1.0, 2.0], nu_masses=[0.25, 0.25], mu_masses=[0.5, 0.5],
        singular_mass=0.0,
    )
    m = solve_M_eps(prof, 0.5)
    assert 0 < m <= 1.0
    assert prof.integrated_coverage(m) <= 0.5 * m


def test_solve_validation(identity_profile):
    with pytest.raises(ValueError):
        solve_M_eps(identity_profile, 0.0)
    with pytest.raises(ValueError):
        solve_M_eps(identity_profile, 1.0)
    singular = CoverageProfile.from_pair(make_pointmass_pair(0.3))
    with pytest.raises(SingularPairError):
        solve_M_eps(singular, 0.5)


def test_min_coverage_threshold(bern_profile):
    assert min_coverage_threshold(bern_profile, 0.7) == pytest.approx(0.75)
    assert min_coverage_threshold(bern_profile, 0.125) == pytest.approx(1.25)
    assert min_coverage_threshold(bern_profile, 0.0) == pytest.approx(1.25)
    with pytest.raises(ValueError):
        min_coverage_threshold(bern_profile, 1.0)


def test_min_coverage_threshold_singular():
    prof = CoverageProfile.from_pair(make_pointmass_pair(0.3))
    # above the singular floor the threshold exists, below it never does
    assert min_coverage_threshold(prof, 0.5) == pytest.approx(0.7)
    with pytest.raises(SingularPairError):
        min_coverage_threshold(prof, 0.2)


def _argmax_threshold(profile, target):
    """min_coverage_threshold as it was written before its binary search."""
    above = profile._nu_suffix[1:] + profile.singular_mass
    return float(profile.thresholds[int(np.argmax(above <= target))])


@pytest.mark.parametrize(
    "pair",
    [
        make_random_pair(4096, 9),
        make_random_pair(1, 2),
        _tied_pair(4096, 3),
        _with_zero_mass_atoms(3000, 6, singular=True),
        make_pointmass_pair(0.3),
    ],
    ids=["random", "one-atom", "tied", "singular", "pointmass"],
)
def test_min_coverage_threshold_matches_the_argmax_scan(pair):
    profile = CoverageProfile.from_pair(pair)
    # each level's mass strictly above, one ulp either side of it, and a grid
    above = profile._nu_suffix + profile.singular_mass
    targets = np.concatenate(
        [above, np.nextafter(above, 0.0), np.nextafter(above, 1.0), np.linspace(0, 1, 101)]
    )
    targets = targets[(targets >= profile.singular_mass) & (targets < 1.0)]
    assert targets.size > 50
    for target in targets:
        assert min_coverage_threshold(profile, target) == _argmax_threshold(profile, target)


def test_mu_tail_bound(bern_profile):
    bound, exact = mu_tail_bound(bern_profile, 1.2)
    assert bound == pytest.approx(0.625 / 1.2, rel=1e-14)
    assert exact == pytest.approx(0.5)
    assert bound >= exact
    with pytest.raises(ValueError):
        mu_tail_bound(bern_profile, 0.99)
    with pytest.raises(ValueError, match="m must be >= 1, got nan"):
        mu_tail_bound(bern_profile, math.nan)


@pytest.mark.parametrize("seed", range(10))
def test_mu_tail_bound_dominates(seed):
    prof = CoverageProfile.from_pair(make_random_pair(15, 71000 + seed))
    for m in np.geomspace(1.0, 4 * float(prof.thresholds[-1]), 30):
        bound, exact = mu_tail_bound(prof, m)
        assert bound + SLACK >= exact


def test_coverage_bound_fdiv(bern, bern_profile):
    d = f_divergence(bern, chi_squared())
    bound = coverage_bound_fdiv(chi_squared(), d, 2.0)
    assert bound == pytest.approx(0.125, rel=1e-12)
    assert bern_profile.coverage(2.0) <= bound
    assert coverage_bound_fdiv(chi_squared(), math.inf, 2.0) == 1.0
    assert coverage_bound_fdiv(kl(), 50.0, 1.5) == 1.0  # clamped
    with pytest.raises(ValueError):
        coverage_bound_fdiv(chi_squared(), d, 1.0)
    with pytest.raises(ValueError):
        coverage_bound_fdiv(chi_squared(), -0.1, 2.0)
    with pytest.raises(ValueError, match="divergence must be nonnegative, got nan"):
        coverage_bound_fdiv(chi_squared(), math.nan, 2.0)
    with pytest.raises(ValueError, match="m must be > 1, got nan"):
        coverage_bound_fdiv(chi_squared(), d, math.nan)


def test_icov_bound_fdiv(bern, bern_profile):
    d = f_divergence(bern, chi_squared())
    bound = icov_bound_fdiv(chi_squared(), d, 2.0, c=1.0)
    assert bound == pytest.approx(0.5 + 2 * 0.0625, rel=1e-12)
    assert bern_profile.integrated_coverage(2.0) / 2.0 <= bound
    # f(m) = 0 at m = 1: the divergence term collapses or explodes
    assert icov_bound_fdiv(chi_squared(), 0.0, 1.0, c=1.0) == 1.0
    assert icov_bound_fdiv(chi_squared(), 0.5, 1.0, c=1.0) == 1.0
    with pytest.raises(ValueError):
        icov_bound_fdiv(chi_squared(), d, 2.0, c=0.5)
    with pytest.raises(ValueError):
        icov_bound_fdiv(chi_squared(), d, 1.5, c=2.0)
    with pytest.raises(ValueError, match="divergence must be nonnegative, got nan"):
        icov_bound_fdiv(chi_squared(), math.nan, 2.0, c=1.0)
    with pytest.raises(ValueError, match="m = nan must be >= c"):
        icov_bound_fdiv(chi_squared(), d, math.nan, c=1.0)
    with pytest.raises(ValueError, match="c must be >= 1, got nan"):
        icov_bound_fdiv(chi_squared(), d, 2.0, c=math.nan)


def test_paley_zygmund_profile_route(bern_profile):
    bound, m_used = paley_zygmund_lower_bound(bern_profile, 0.25, 0.5)
    assert m_used == pytest.approx(1.25)
    assert bound == pytest.approx(0.1, rel=1e-12)
    # the guaranteed event has proposal mass 1 here
    assert bern_profile.mu_tail(1 - 0.25) == 1.0
    with pytest.raises(ValueError):
        paley_zygmund_lower_bound(bern_profile, 0.0, 0.5)
    with pytest.raises(ValueError):
        paley_zygmund_lower_bound(bern_profile, 0.25, 1.0)
    singular = CoverageProfile.from_pair(make_pointmass_pair(0.3))
    with pytest.raises(SingularPairError):
        paley_zygmund_lower_bound(singular, 0.25, 0.5)


def test_paley_zygmund_fdiv_route(bern):
    d = f_divergence(bern, chi_squared())
    bound, m_used = paley_zygmund_bound_fdiv(chi_squared(), d, 0.25, 0.5)
    assert m_used == pytest.approx(2.0, rel=1e-8)
    assert bound == pytest.approx(0.0625, rel=1e-8)
    # tv saturates, the bound degrades to the trivial zero
    zero = paley_zygmund_bound_fdiv(tv(), 0.3, 0.25, 0.5)
    assert zero.bound == 0.0 and math.isinf(zero.m_used)


def test_paley_zygmund_fdiv_infinite_divergence_is_the_trivial_bound():
    # singular target mass makes KL infinite, as coverage_bound_fdiv
    # reads it (its bound is 1)
    d = f_divergence(make_pointmass_pair(0.3), kl())
    assert math.isinf(d)
    assert paley_zygmund_bound_fdiv(kl(), d, 0.2, 0.5) == (0.0, math.inf)
    # a finite D whose D/(u*eps) passes the float range
    assert paley_zygmund_bound_fdiv(kl(), 1e308, 0.2, 0.5) == (0.0, math.inf)
    for bad in (-1.0, math.nan, -math.inf):
        with pytest.raises(ValueError, match="divergence must be nonnegative"):
            paley_zygmund_bound_fdiv(kl(), bad, 0.2, 0.5)


@pytest.mark.parametrize("seed", range(20))
def test_paley_zygmund_never_exceeds_truth(seed):
    pair = make_random_pair(2 + seed % 30, 41000 + seed)
    prof = CoverageProfile.from_pair(pair)
    for eps in (0.1, 0.25, 0.5):
        exact = prof.mu_tail(1 - eps)
        for u in (0.25, 0.5, 0.75):
            assert paley_zygmund_lower_bound(prof, eps, u).bound <= exact + SLACK


# ------------------------------------------------------------ tail route


def _wide_span_pair(support, seed):
    """Ratios log-uniform over ten decades, so the top atoms hold most
    of E_nu[ratio] and the rest a sliver of it."""
    gen = np.random.default_rng(seed)
    mu = gen.random(support) + 0.05
    nu = mu * 10.0 ** gen.uniform(-5.0, 5.0, support)
    pair = make_finite_pair(mu / mu.sum(), nu / nu.sum(), 1.0)
    assert pair.ratio_cache.max() >= 1e9 * pair.ratio_cache.min()
    return pair


_TAIL_PAIRS = {
    "random": make_random_pair,
    "tied": _tied_pair,
    "zero-mass": lambda support, seed: _with_zero_mass_atoms(support, seed, singular=False),
    "singular": lambda support, seed: _with_zero_mass_atoms(support, seed, singular=True),
    "wide-span": _wide_span_pair,
}


def _outcome(plan, *pairs):
    """(n, M) of the plan on ``pairs``' complete profiles, on the tail
    route and on their 1 024-atom blocks, each or the type of the error
    it raised; the last is None where the answer lies below a block."""
    results = []
    for route in (
        lambda: plan(*map(CoverageProfile.from_pair, pairs)),
        lambda: TailPlanner(*pairs).plan(plan),
        lambda: plan(*(CoverageProfile.from_pair(p, top=1024) for p in pairs)),
    ):
        try:
            result = route()
            results.append((result.n, result.m))
        except (SingularPairError, InfeasiblePlanError) as exc:
            results.append(type(exc))
        except ValueError as exc:
            assert "lowest" in str(exc) and len(results) == 2
            results.append(None)
    return results


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(sorted(_TAIL_PAIRS)),
    support=st.integers(1025, 1 << 14),
    seed=st.integers(0, 2**32 - 1),
    eps=st.sampled_from([0.5, 0.3, 0.1, 0.02]),
)
def test_tail_route_matches_the_full_profile(kind, support, seed, eps):
    """Quantile and sampling sum suffixes from the top on either route,
    so their plans are equal bit for bit. The other plans read
    nu_r_below, summed in atom order: n is equal and M within 1e-12
    relative (the largest gap seen over 19 200 such plans on 2 000 pairs
    was 1.5e-14)."""
    pair = _TAIL_PAIRS[kind](support, seed)
    weighted = make_weighted_pair(pair, 1.0 + np.arange(support) % 3)
    delta = 0.1
    for plan in (lambda p: plan_n_quantile(eps, delta, profile=p),
                 lambda p: sampling_plan(p, eps)):
        full, *tails = _outcome(plan, pair)
        assert all(tail in (full, None) for tail in tails)
    for plan, pairs in (
        (lambda p: plan_n_coverage(p, eps, delta), (pair,)),
        (lambda w: plan_n_is(w, eps, delta), (weighted,)),
        (lambda p, w: plan_n_snis(p, w, eps, delta), (pair, weighted)),
    ):
        full, *tails = _outcome(plan, *pairs)
        for tail in tails:
            if tail is None or isinstance(full, type) or isinstance(tail, type):
                assert tail in (full, None)
            else:
                assert full[0] == tail[0]
                assert abs(tail[1] - full[1]) <= 1e-12 * full[1]
    # solve_M_eps' contract (test_solve_is_exact) on the sums of the
    # profile that answered, the 1 024-atom block where it does
    for target in (eps / 4, eps * delta / 6):
        for p in (pair, weighted):
            if p.singular_mass > 0:
                continue
            answers = [TailPlanner(p).plan(lambda q: (q, solve_M_eps(q, target)))]
            block = CoverageProfile.from_pair(p, top=1024)
            with contextlib.suppress(ValueError):
                answers.append((block, solve_M_eps(block, target)))
            for prof, m in answers:
                _assert_least_level(prof, target, m)


@pytest.mark.parametrize(
    "pair",
    [make_random_pair(2000, 4), _tied_pair(3000, 5),
     _with_zero_mass_atoms(3000, 6, singular=True), _negative_zero_targets(1500, 7)],
    ids=["random", "tied", "singular", "negative-zero"],
)
def test_a_top_past_the_live_atoms_gives_the_full_profile(pair):
    full = CoverageProfile.from_pair(pair)
    live = int(np.count_nonzero(pair.mu_weights > 0))
    for top in (live, pair.support_size, 10 * pair.support_size):
        prof = CoverageProfile.from_pair(pair, top=top)
        assert prof.nu_r_below == 0.0
        assert prof.singular_mass == full.singular_mass
        for name in ("thresholds", "nu_masses", "mu_masses",
                     "_nu_suffix", "_mu_suffix", "_nu_r_prefix"):
            assert getattr(prof, name).tobytes() == getattr(full, name).tobytes(), name


@pytest.mark.parametrize(
    "pair", [make_random_pair(4096, 11), _tied_pair(5000, 12)], ids=["random", "tied"]
)
def test_partial_profile_is_exact_at_its_levels_and_raises_below(pair):
    full = CoverageProfile.from_pair(pair)
    prof = CoverageProfile.from_pair(pair, top=1024)
    low = float(prof.thresholds[0])
    # every atom tied with the 1024th is in the block, and no other
    in_block = pair.ratio_cache >= low
    assert np.count_nonzero(in_block) >= 1024
    assert np.count_nonzero(pair.ratio_cache > low) < 1024
    np.testing.assert_array_equal(prof.thresholds, full.thresholds[-prof.thresholds.size:])
    assert prof.nu_r_below == pytest.approx(
        np.dot(pair.nu_weights[~in_block], pair.ratio_cache[~in_block]), rel=1e-12
    )
    grid = np.concatenate([prof.thresholds, np.linspace(low, 2 * prof.thresholds[-1], 50)])
    np.testing.assert_array_equal(prof.coverage(grid), full.coverage(grid))
    np.testing.assert_array_equal(prof.mu_tail(grid), full.mu_tail(grid))
    for query in ("integrated_coverage", "truncated_second_moment"):
        np.testing.assert_allclose(
            getattr(prof, query)(grid), getattr(full, query)(grid), rtol=1e-12
        )
    under = math.nextafter(low, 0.0)
    for query in (prof.coverage, prof.integrated_coverage,
                  prof.truncated_second_moment, prof.mu_tail):
        query(low)
        with pytest.raises(ValueError, match="lowest level"):
            query(under)
        with pytest.raises(ValueError, match="lowest level"):
            query(np.array([low, under]))
    # the block and the singular mass meet any target above the block's mass
    with pytest.raises(ValueError, match="below the lowest one"):
        min_coverage_threshold(prof, float(prof._nu_suffix[0]))


def _count_blocks(monkeypatch):
    """The ``top`` of each from_pair call from now on."""
    tops = []
    original = CoverageProfile.from_pair
    monkeypatch.setattr(
        CoverageProfile, "from_pair",
        lambda pair, **kw: tops.append(kw.get("top")) or original(pair, **kw),
    )
    return tops


def test_coverage_plan_is_answered_by_the_first_block(monkeypatch):
    # M lies above every ratio of the pair at eps 0.3
    pair = make_random_pair(1 << 17, 20260817)
    full = plan_n_coverage(CoverageProfile.from_pair(pair), 0.3, 0.1)
    tops = _count_blocks(monkeypatch)
    plan = PLANS["coverage"].run(pair, 0.3, 0.1, None)
    assert tops == [1024]
    assert plan.n == full.n and abs(plan.m - full.m) <= 1e-12 * full.m
    assert plan.m > pair.ratio_cache.max()


def test_quantile_plan_widens_until_it_answers(monkeypatch):
    # the pair's top 1024 atoms carry target mass 0.0896: at eps 0.5 the
    # level, with coverage at most 0.125, lies below them, and the
    # strided sample puts that mass within the top 3072 atoms, the first
    # block the plan builds
    pair = make_random_pair(1 << 14, 20260814)
    full = plan_n_quantile(0.5, 0.1, profile=CoverageProfile.from_pair(pair))
    tops = _count_blocks(monkeypatch)
    plan = PLANS["quantile"].run(pair, 0.5, 0.1, None)
    assert tops == [3072]
    assert (plan.n, plan.m) == (full.n, full.m)
    # a block of 1024 atoms would be over a quarter of the pair
    tops.clear()
    PLANS["quantile"].run(make_random_pair(4095, 1), 0.5, 0.1, None)
    assert tops == [None]


def test_a_tail_planner_builds_each_block_once(monkeypatch):
    pair = make_random_pair(1 << 14, 20260814)
    tops = _count_blocks(monkeypatch)
    tail = TailPlanner(pair)
    for eps in (0.5, 0.3, 0.5):
        tail.plan(lambda profile: plan_n_quantile(eps, 0.1, profile=profile),
                  coverage=_quantile_coverage(eps))
    assert tops == [3072]


@pytest.mark.parametrize("plan, coverage, second", [
    (lambda p: plan_n_quantile(0.5, 0.1, profile=p), _quantile_coverage(0.5), 26624),
    (lambda p: sampling_plan(p, 0.3), _race_coverage(0.3), 21504),
], ids=["quantile-0.5", "sampling-0.3"])
def test_a_plan_deep_in_the_tail_widens_once(monkeypatch, plan, coverage, second):
    """A 1 024-atom block holds too little target mass; the block sized
    from the strided sample holds the answer. Named with its coverage
    target, the plan builds that block first; unnamed, it grows 4 times
    at a time from 1 024 atoms, to the same answer."""
    pair = make_random_pair(1 << 18, 20260818)
    full = plan(CoverageProfile.from_pair(pair))
    tops = _count_blocks(monkeypatch)
    result = TailPlanner(pair).plan(plan, coverage=coverage)
    assert tops == [second]
    assert (result.n, result.m) == (full.n, full.m)
    tops.clear()
    result = TailPlanner(pair).plan(plan)
    assert tops == [1024, 4096, 16384, 65536]
    assert (result.n, result.m) == (full.n, full.m)


def test_a_short_estimate_widens_again(monkeypatch):
    """Every TAIL_STEP-th atom carries 100 times the weight of the rest,
    so the strided sample sees about 24 times the target mass there is:
    the sized block falls short, and each block after it is TAIL_GROWTH
    times the one before, until one holds the answer."""
    support = 1 << 16
    weight = np.where(np.arange(support) % TAIL_STEP == 0, 100.0, 1.0)
    ratio = np.random.default_rng(1).random(support) + 0.5
    pair = make_finite_pair(weight / weight.sum(), weight * ratio / (weight * ratio).sum(), 1.0)
    for plan, coverage in ((lambda p: plan_n_quantile(0.5, 0.1, profile=p), _quantile_coverage(0.5)),
                           (lambda p: sampling_plan(p, 0.3), _race_coverage(0.3))):
        full = plan(CoverageProfile.from_pair(pair))
        tops = _count_blocks(monkeypatch)
        result = TailPlanner(pair).plan(plan, coverage=coverage)
        assert tops == [1024, 4096, 16384]
        assert (result.n, result.m) == (full.n, full.m)
        monkeypatch.undo()


def _partitioned_block(pair, top):
    """``from_pair(pair, top=top)`` on a pair where every atom has both
    masses, as (thresholds, nu_masses, mu_masses, nu_r_below), written
    with one np.partition over the whole support, np.unique and two
    bincounts."""
    ratios, nu, mu = pair.ratio_cache, pair.nu_weights, pair.mu_weights
    keep = np.ones(ratios.size, dtype=bool)
    if top < ratios.size:
        keep = ratios >= np.partition(ratios, ratios.size - top)[ratios.size - top]
    uniq, inverse = np.unique(ratios[keep], return_inverse=True)
    return (
        uniq,
        np.bincount(inverse, weights=nu[keep], minlength=uniq.size),
        np.bincount(inverse, weights=mu[keep], minlength=uniq.size),
        ordered_dot(np.where(keep, 0.0, nu), ratios),
    )


def _count_remainder_sum(monkeypatch):
    """One entry per ``_remainder_sum`` call from now on."""
    calls = []
    original = coverage._remainder_sum
    monkeypatch.setattr(
        coverage, "_remainder_sum",
        lambda *args: calls.append(args) or original(*args),
    )
    return calls


@pytest.mark.parametrize("first", ["nu_r_below", "_nu_r_prefix"])
@pytest.mark.parametrize("kind", ["random", "zero-mass", "singular"])
def test_a_partial_profile_sums_its_remainder_when_first_read(monkeypatch, kind, first):
    """``from_pair`` leaves the remainder sum of a partial profile
    until it (or the prefix table built on it) is read; coverage
    queries never read it. Once read, it is ``_partitioned_block``'s,
    bit for bit, and summed once. A pair with a zero mass gets its
    complete profile, whose sum is 0.0 and never summed."""
    pair = {
        "random": lambda: make_random_pair(1 << 15, 31),
        "zero-mass": lambda: _with_zero_mass_atoms(1 << 15, 32, singular=False),
        "singular": lambda: _with_a_zero_mass(1 << 18, "singular", _SMALL_SINGULAR),
    }[kind]()
    partial_profile = kind == "random"
    assert pair.positive == partial_profile
    calls = _count_remainder_sum(monkeypatch)
    prof = CoverageProfile.from_pair(pair, top=1024)
    assert prof._partial == partial_profile
    levels = np.concatenate([prof.thresholds, [math.inf]])
    prof.coverage(levels)
    prof.mu_tail(levels)
    min_coverage_threshold(prof, float(prof._nu_suffix[1]) + prof.singular_mass)
    if partial_profile:
        with pytest.raises(ValueError, match="lowest"):
            min_coverage_threshold(prof, float(prof._nu_suffix[0]) + prof.singular_mass)
    assert calls == []
    getattr(prof, first)
    assert len(calls) == partial_profile and "_remainder" not in vars(prof)
    want = _partitioned_block(pair, 1024)[3] if partial_profile else 0.0
    assert np.float64(prof.nu_r_below).tobytes() == np.float64(want).tobytes()
    assert prof._nu_r_prefix[0] == prof.nu_r_below and len(calls) == partial_profile


def test_a_profile_has_four_fields_and_a_read_only_remainder(monkeypatch):
    """The remainder is no field: the checked constructor takes the four
    fields, ``repr`` and ``fields`` leave it out and do not sum it, and
    ``nu_r_below`` cannot be set."""
    names = [f.name for f in dataclasses.fields(CoverageProfile)]
    assert names == ["thresholds", "nu_masses", "mu_masses", "singular_mass"]
    calls = _count_remainder_sum(monkeypatch)
    prof = CoverageProfile.from_pair(make_random_pair(1 << 13, 33), top=1024)
    assert prof._partial and "nu_r_below" not in repr(prof) and calls == []
    with pytest.raises(AttributeError):
        prof.nu_r_below = 0.0
    with pytest.raises(TypeError, match="nu_r_below"):
        CoverageProfile(thresholds=[1.0], nu_masses=[1.0], mu_masses=[1.0],
                        singular_mass=0.0, nu_r_below=0.0)
    assert not CoverageProfile([1.0], [1.0], [1.0], 0.0)._partial


def test_the_wide_quantile_plans_build_one_block_and_sum_no_remainder(monkeypatch):
    """At eps 0.3 the quantile plan sizes its one block from its
    coverage target, and reads no remainder sum."""
    for support, seed, top in ((1 << 17, 20260817, 9216), (1 << 18, 20260818, 16384)):
        pair = make_random_pair(support, seed)
        full = plan_n_quantile(0.3, 0.1, profile=CoverageProfile.from_pair(pair))
        calls = _count_remainder_sum(monkeypatch)
        tops = _count_blocks(monkeypatch)
        assert PLANS["quantile"].run(pair, 0.3, 0.1, None) == full
        assert (tops, calls) == ([top], [])
        monkeypatch.undo()


def _with_a_zero_mass(support, kind, at=slice(1, None, 97)):
    """make_random_pair(support, 20260818) with a zero mass on the atoms
    ``at``: of the proposal ("zero-proposal", the target's too, or
    "singular", the target's kept), or of the target ("zero-target", or
    "negative-zero", a weight of -0.0)."""
    pair = make_random_pair(support, 20260818)
    mu, nu = pair.mu_weights.copy(), pair.nu_weights.copy()
    if kind in ("zero-proposal", "singular"):
        mu[at] = 0.0
    if kind != "singular":
        nu[at] = -0.0 if kind == "negative-zero" else 0.0
    return make_finite_pair(mu / mu.sum(), nu / nu.sum(), 1.0)


# 80 atoms of proposal mass 0, whose target mass (about 3e-4) is small
# enough for the coverage-level plans to read levels below it
_SMALL_SINGULAR = slice(10_000, 10_080)

_GRID_SPECIAL_PAIRS = {
    "zero-mass": lambda: _with_zero_mass_atoms(1 << 14, 41, singular=False),
    "wide-zero-mass": lambda: _with_a_zero_mass(1 << 18, "zero-proposal", slice(0, None, 4)),
    "singular": lambda: _with_zero_mass_atoms(1 << 14, 42, singular=True),
    "wide-small-singular": lambda: _with_a_zero_mass(1 << 18, "singular", _SMALL_SINGULAR),
}


def _plan_or_error(plan):
    try:
        return plan()
    except (SingularPairError, InfeasiblePlanError) as exc:
        return type(exc)


@pytest.mark.parametrize("pairs", [
    *(pytest.param([partial(make_random_pair, 1 << log2, seed) for seed in (1, 2, 3)],
                   id=f"random-2^{log2}")
      for log2 in range(12, 19)),
    *(pytest.param([make], id=name) for name, make in _GRID_SPECIAL_PAIRS.items()),
])
def test_coverage_level_plans_are_the_complete_profiles(pairs):
    """The quantile and sampling plans through ``PLANS``, each block
    sized from its coverage target, are the complete profile's plans,
    every field bit for bit. On a pair with a zero mass, whose profiles
    are all complete, so are the coverage, is and snis plans."""
    for make in pairs:
        pair = make()
        full = CoverageProfile.from_pair(pair)
        g = 1.0 + np.arange(pair.support_size) % 3
        methods = ["quantile", "sampling"]
        if not pair.positive:
            weighted = CoverageProfile.from_pair(make_weighted_pair(pair, g))
            methods += ["coverage", "is", "snis"]
        for eps in (0.5, 0.3, 0.1):
            plans = {
                "quantile": lambda: plan_n_quantile(eps, 0.1, profile=full),
                "sampling": lambda: sampling_plan(full, eps),
                "coverage": lambda: plan_n_coverage(full, eps, 0.1),
                "is": lambda: plan_n_is(weighted, eps, 0.1),
                "snis": lambda: plan_n_snis(full, weighted, eps, 0.1),
            }
            for method in methods:
                want = _plan_or_error(plans[method])
                got = _plan_or_error(lambda: PLANS[method].run(pair, eps, 0.1, g))
                assert got == want, (method, eps)
                if not isinstance(want, type):
                    assert np.float64(got.m).tobytes() == np.float64(want.m).tobytes()


def _periodic_maxima(support, offset):
    """The highest ratios at the atoms of index ``offset`` mod TAIL_STEP:
    at offset 0 the strided sample holds all of them."""
    gen = np.random.default_rng(support + offset)
    mu = gen.random(support) + 0.05
    ratio = gen.random(support)
    ratio[offset::TAIL_STEP] += 2.0
    nu = mu * ratio
    return make_finite_pair(mu / mu.sum(), nu / nu.sum(), 1.0)


def _equal_ratios(support):
    mu = np.full(support, 1.0 / support)
    return make_finite_pair(mu, mu.copy(), 1.0)


# the least support whose strided sample takes the sampled bound for a
# 1 024-atom block
_SAMPLED_EDGE = TAIL_STEP * TAIL_SAMPLED_SHARE * _with_margin(1024 // TAIL_STEP)

# (pair, tops, whether the candidates come from the sampled bound: True,
# False for every atom, None where it depends on the top)
_CUT_CASES = {
    "random": (make_random_pair(1 << 15, 3), (1000, 1024, 1025, 4096), True),
    "random-4x": (make_random_pair(TAIL_SPARSE * 1024, 4), (1024,), False),
    "random-edge": (make_random_pair(_SAMPLED_EDGE, 5), (1024,), True),
    "random-below-edge": (make_random_pair(_SAMPLED_EDGE - TAIL_STEP, 5), (1024,), False),
    "periodic-0": (_periodic_maxima(1 << 15, 0), (1024, 1000), False),
    "periodic-1": (_periodic_maxima(1 << 15, 1), (1024, 1000), True),
    "equal": (_equal_ratios(8192), (1024, 1000), True),
    "tied": (_tied_pair(1 << 14, 5), (1000, 1024, 3000), None),
}


@pytest.mark.parametrize("kind", sorted(_CUT_CASES))
def test_the_sampled_cut_is_the_partition_cut(kind):
    """The block cut from the strided sample's candidates is the block a
    partition of the whole support cuts, bit for bit, ties and the sums
    of the rest included."""
    pair, tops, sampled = _CUT_CASES[kind]
    for top in tops:
        prof = CoverageProfile.from_pair(pair, top=top)
        got = (prof.thresholds, prof.nu_masses, prof.mu_masses, prof.nu_r_below)
        want = _partitioned_block(pair, top)
        for a, b in zip(got[:3], want[:3]):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert np.float64(got[3]).tobytes() == np.float64(want[3]).tobytes()
        if sampled is not None:
            candidates = _tail_candidates(pair.ratio_cache, top)
            assert (candidates is not None) == sampled


def test_the_tied_cut_case_cuts_into_a_tied_level():
    """The tied case above cuts into tied levels and leaves target mass
    out of the block."""
    pair, tops, _ = _CUT_CASES["tied"]
    prof = CoverageProfile.from_pair(pair, top=1000)
    assert np.count_nonzero(pair.ratio_cache >= prof.thresholds[0]) > 1000 and prof.nu_r_below > 0


def _never_called(*args):
    raise AssertionError("called")


@pytest.mark.parametrize("kind", ["zero-proposal", "zero-target", "negative-zero", "singular"])
@pytest.mark.parametrize("support", [4096, 1 << 18])
def test_a_pair_with_a_zero_mass_gets_its_complete_profile(monkeypatch, support, kind):
    """``from_pair`` cuts a block only where every atom has both masses:
    on any other pair ``top`` is ignored, no block is cut and no
    remainder summed, and the profile is the one without ``top``, byte
    for byte."""
    pair = _with_a_zero_mass(support, kind)
    assert not pair.positive
    assert (kind == "negative-zero") == bool(np.signbit(pair.ratio_cache).any())
    assert (kind == "singular") == (pair.singular_mass > 0)
    full = CoverageProfile.from_pair(pair)
    monkeypatch.setattr(coverage, "_top_block", _never_called)
    monkeypatch.setattr(coverage, "_remainder_sum", _never_called)
    prof = CoverageProfile.from_pair(pair, top=1024)
    assert not prof._partial
    for name in ("thresholds", "nu_masses", "mu_masses",
                 "_nu_suffix", "_mu_suffix", "_nu_r_prefix"):
        assert getattr(prof, name).tobytes() == getattr(full, name).tobytes(), name
    for name in ("singular_mass", "nu_r_below"):
        assert np.float64(getattr(prof, name)).tobytes() == np.float64(getattr(full, name)).tobytes()


@pytest.mark.parametrize("top", [0, -1, 2.5])
def test_from_pair_rejects_a_top_that_is_not_an_integer_of_at_least_1(top):
    pair = make_random_pair(5000, 1)
    with pytest.raises(ValueError, match="top must be an integer >= 1"):
        CoverageProfile.from_pair(pair, top=top)
    # a numpy integer is an integer
    block = CoverageProfile.from_pair(pair, top=np.int64(1024))
    assert block.thresholds.tobytes() == CoverageProfile.from_pair(pair, top=1024).thresholds.tobytes()


@pytest.mark.parametrize(
    "pair",
    [make_random_pair(4096, 21), _tied_pair(5000, 22),
     _with_zero_mass_atoms(5000, 23, singular=True), _negative_zero_targets(3000, 24)],
    ids=["random", "tied", "singular", "negative-zero"],
)
def test_from_pair_skips_the_checks_its_pair_already_passed(pair, monkeypatch):
    """A profile from a pair is the profile the checked constructor makes
    of the same values, byte for byte and read-only, without running
    the checks; a profile built by hand is still checked."""
    for top in (None, 1024):
        built = CoverageProfile.from_pair(pair, top=top)
        checked = CoverageProfile(**{
            f.name: getattr(built, f.name) for f in dataclasses.fields(CoverageProfile)
        })
        for f in dataclasses.fields(CoverageProfile):
            a, b = getattr(built, f.name), getattr(checked, f.name)
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
                assert not a.flags.writeable
            else:
                assert type(a) is type(b) and a == b
    monkeypatch.setattr(CoverageProfile, "__post_init__", _no_checks)
    CoverageProfile.from_pair(pair, top=1024)
    with pytest.raises(AssertionError, match="checked"):
        CoverageProfile(thresholds=[1.0], nu_masses=[1.0], mu_masses=[1.0], singular_mass=0.0)


def _no_checks(self):
    raise AssertionError("checked")
