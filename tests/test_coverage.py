import bisect
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pfest import (
    CoverageProfile,
    SingularPairError,
    chi_squared,
    coverage,
    coverage_bound_fdiv,
    f_divergence,
    icov_bound_fdiv,
    integrated_coverage,
    kl,
    make_finite_pair,
    make_pointmass_pair,
    make_random_pair,
    min_coverage_threshold,
    mu_tail_bound,
    paley_zygmund_bound_fdiv,
    paley_zygmund_lower_bound,
    solve_M_eps,
    truncated_second_moment,
    tv,
)

SLACK = 1e-10


def test_profile_layout(bern, bern_profile):
    np.testing.assert_allclose(bern_profile.thresholds, [0.75, 1.25], rtol=1e-15)
    np.testing.assert_allclose(bern_profile.nu_masses, [0.375, 0.625], atol=1e-15)
    np.testing.assert_array_equal(bern_profile.mu_masses, [0.5, 0.5])
    assert bern_profile.singular_mass == 0.0
    assert bern_profile.nu_ratio_mean == pytest.approx(1.0625, rel=1e-14)


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


def _assert_same_profile_arrays(pair):
    prof = CoverageProfile.from_pair(pair)
    got = (prof.thresholds, prof.nu_masses, prof.mu_masses)
    for a, b in zip(got, _unique_bincount_profile(pair)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()  # bit for bit, signed zeros too


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
    assert bern_profile.nu_ratio_mean == 1.0625
    out = bern_profile.integrated_coverage(np.array([1.0, math.inf]))
    assert out.tolist() == [0.90625, 1.0625]
    singular = CoverageProfile.from_pair(make_pointmass_pair(0.3))
    assert singular.integrated_coverage(math.inf) == math.inf
    assert singular.integrated_coverage(np.array([2.0, math.inf]))[1] == math.inf
    with pytest.raises(ValueError):
        bern_profile.integrated_coverage(math.nan)
    with pytest.raises(ValueError):
        bern_profile.integrated_coverage(np.array([1.0, math.nan]))


def test_integrated_coverage_scalar_matches_array():
    prof = CoverageProfile.from_pair(make_random_pair(64, 5))
    grid = np.concatenate([[0.0], prof.thresholds, prof.thresholds * 1.5, [math.inf]])
    assert [prof.integrated_coverage(m) for m in grid] == (
        prof.integrated_coverage(grid).tolist()
    )


def test_wrappers_accept_pair_or_profile(bern, bern_profile):
    assert coverage(bern, 1.0) == coverage(bern_profile, 1.0)
    assert integrated_coverage(bern, 1.0) == integrated_coverage(bern_profile, 1.0)
    assert truncated_second_moment(bern, 1.0) == truncated_second_moment(
        bern_profile, 1.0
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
    assert solve_M_eps(identity_profile, 0.5) == 2.0
    assert solve_M_eps(identity_profile, 0.125) == 8.0


def test_solve_bernoulli(bern_profile):
    assert solve_M_eps(bern_profile, 0.0625) == 17.0


@pytest.mark.parametrize("seed", range(10))
def test_solve_is_the_infimum(seed):
    prof = CoverageProfile.from_pair(make_random_pair(12, 61000 + seed))
    for eps in (0.5, 0.2, 0.05):
        m = solve_M_eps(prof, eps)
        assert prof.integrated_coverage(m) <= eps * m * (1 + 1e-9)
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


@given(
    support=st.integers(2, 201),
    seed=st.integers(0, 2**32 - 1),
    log_eps=st.floats(-6.0, math.log10(0.5)),
)
def test_solve_is_exact(support, seed, log_eps):
    """The level meets the float predicate and sits within 4 ulps of the
    segment's rational root; it need not be the smallest such float."""
    prof = CoverageProfile.from_pair(make_random_pair(support, seed))
    eps = 10.0**log_eps
    m = solve_M_eps(prof, eps)
    assert prof.integrated_coverage(m) <= eps * m
    root = _segment_root(prof, eps)
    assert abs(Fraction(m) - root) <= 4 * Fraction(math.ulp(float(root)))


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


def test_mu_tail_bound(bern_profile):
    bound, exact = mu_tail_bound(bern_profile, 1.2)
    assert bound == pytest.approx(0.625 / 1.2, rel=1e-14)
    assert exact == pytest.approx(0.5)
    assert bound >= exact
    with pytest.raises(ValueError):
        mu_tail_bound(bern_profile, 0.99)


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


@pytest.mark.parametrize("seed", range(20))
def test_paley_zygmund_never_exceeds_truth(seed):
    pair = make_random_pair(2 + seed % 30, 41000 + seed)
    prof = CoverageProfile.from_pair(pair)
    for eps in (0.1, 0.25, 0.5):
        exact = prof.mu_tail(1 - eps)
        for u in (0.25, 0.5, 0.75):
            assert paley_zygmund_lower_bound(prof, eps, u).bound <= exact + SLACK
