import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pfest import (
    CoverageProfile,
    InfeasiblePlanError,
    SampleBatch,
    chi_squared,
    hellinger,
    importance_sampling,
    kl,
    make_bernoulli_pair,
    make_random_pair,
    make_weighted_pair,
    median_of_means,
    plan_n_coverage,
    plan_n_fdiv,
    plan_n_is,
    plan_n_quantile,
    plan_n_snis,
    quantile_estimator,
    renyi,
    sample,
    snis,
    tv,
    within_multiplicative,
)
from pfest.coverage import FLOAT_EXACT_INT_MAX, LOG_N_MAX
from pfest.divergences import parse_f_spec
from pfest.distributions import ordered_dot
from pfest.estimators import _snis_ratios, group_count, ordered_mean
from pfest.estimators import plan_method, run_trials
from pfest.rng import derive_seed

from exact_laws import two_level_fail

LN10 = math.log(10.0)


def _batch(values, atoms=None):
    values = np.asarray(values, dtype=np.float64)
    if atoms is None:
        atoms = np.zeros(values.size, dtype=np.int64)
    else:
        atoms = np.asarray(atoms, dtype=np.int64)
    return SampleBatch(atoms=atoms, lambdas=values, seed=0, n=values.size)


def test_group_count_anchors():
    assert group_count(0.1) == 19
    assert group_count(1 / 3) == 9
    assert group_count(0.5) == 6
    # 1 / delta passes the float range; ln(1 / delta) does not
    assert group_count(1e-320) == 5895


def test_mom_constant_batch():
    report = median_of_means(_batch([7.0] * 40), delta=0.1)
    assert report.estimate == 7.0
    assert report.k_groups == 19
    assert report.n_used == 19 * 2


def test_mom_lower_median():
    # delta = 0.7 gives k = 3; group means are 1, 2, 3
    assert group_count(0.7) == 3
    report = median_of_means(_batch([1.0, 1.0, 2.0, 2.0, 3.0, 3.0]), delta=0.7)
    assert report.estimate == 2.0
    # even k takes the lower of the two central means
    assert group_count(0.79) == 2
    even = median_of_means(_batch([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]), delta=0.79)
    assert even.estimate == np.mean([1.0, 2.0, 3.0])


def test_mom_discards_remainder():
    full = median_of_means(_batch([1.0, 1.0, 2.0, 2.0, 3.0, 3.0]), delta=0.7)
    extra = median_of_means(_batch([1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 500.0]), delta=0.7)
    assert extra.estimate == full.estimate
    assert extra.n_used == 6


def test_mom_requires_k_samples():
    with pytest.raises(ValueError, match="at least k"):
        median_of_means(_batch([1.0] * 10), delta=0.1)
    with pytest.raises(ValueError):
        median_of_means(_batch([1.0] * 10), delta=0.0)


def test_mom_scale_equivariance():
    vals = np.linspace(0.5, 2.0, 60)
    a = median_of_means(_batch(vals), delta=0.2).estimate
    b = median_of_means(_batch(4.0 * vals), delta=0.2).estimate
    assert b == 4.0 * a


def test_report_rel_error():
    report = median_of_means(_batch([7.0] * 40), delta=0.1)
    assert report.rel_error is None
    scored = median_of_means(_batch([7.0] * 40), delta=0.1, true_value=8.0)
    assert scored.rel_error == pytest.approx(1 / 8)


# signed values of very different sizes, whose sum depends on the order
# of the additions, and any float besides
MIXED_FLOATS = st.builds(
    float.__mul__,
    st.sampled_from([1.0, -1.0]),
    st.sampled_from([1e16, 1.0, 0.5, 3e-17, 1e300, 0.0]),
) | st.floats(allow_nan=False)


@given(st.lists(MIXED_FLOATS, min_size=1, max_size=40))
@example([1e16] + [1.0] * 20 + [-1e16])
@example([-0.0, -0.0])
@example([1e308, 1e308, -1e308])
def test_ordered_mean_adds_left_to_right(values):
    total = 0.0
    for value in values:
        total += value
    mean = ordered_mean(np.array(values))
    if math.isfinite(total) or not all(map(math.isfinite, values)):
        assert mean.hex() == (total / len(values)).hex()
    else:  # the sum passed the float range; the mean of finite values does not
        exact = sum(map(Fraction, values)) / len(values)
        assert abs(Fraction(mean) - exact) <= len(values) * 2.0**-50 * max(map(abs, values))


def test_ordered_mean_is_neither_pairwise_nor_compensated():
    values = [1e16] + [1.0] * 20 + [-1e16]
    assert ordered_mean(np.array(values)) == 0.0
    assert np.mean(values) != 0.0 and math.fsum(values) != 0.0


def test_ordered_mean_of_a_finite_sum_keeps_its_bits():
    gen = np.random.default_rng(5)
    values = gen.standard_normal(1000) * 10.0 ** gen.uniform(-300, 300, 1000)
    total = 0.0
    for value in values.tolist():
        total += value
    assert math.isfinite(total)
    assert ordered_mean(values).hex() == (total / values.size).hex()


def test_ordered_mean_of_finite_values_whose_sum_overflows_is_finite():
    assert ordered_mean(np.array([1e308] * 3)) == 1e308
    mean = ordered_mean(np.array([1e308, 1e308, -1e308]))
    assert mean == pytest.approx(1e308 / 3, rel=1e-15)


@pytest.mark.parametrize("values, expected", [
    ([math.inf, 1.0], math.inf),
    ([-math.inf, 1e308, 1e308], -math.inf),
    ([math.nan, 1e308, 1e308], math.nan),
    ([math.inf, -math.inf], math.nan),
])
def test_ordered_mean_passes_inf_and_nan_through(values, expected):
    np.testing.assert_equal(ordered_mean(np.array(values)), expected)


def test_within_multiplicative_boundary():
    assert within_multiplicative(1.2, 1.0, 0.25)
    assert within_multiplicative(0.8, 1.0, 0.25)
    # boundary atoms count as failures by the guard
    assert not within_multiplicative(1.25, 1.0, 0.25)
    assert not within_multiplicative(0.75, 1.0, 0.25)
    assert not within_multiplicative(0.9, 1.0, 0.1)


@pytest.mark.parametrize("eps", [1e-9, 5e-10, 0.0, math.nan])
def test_within_multiplicative_rejects_an_eps_at_or_below_the_guard(eps):
    # the guard is taken off eps, so no estimate, not even the truth,
    # could pass at such an eps
    with pytest.raises(ValueError, match="eps must be above SUCCESS_GUARD = 1e-09"):
        within_multiplicative(1.0, 1.0, eps)
    assert within_multiplicative(1.0, 1.0, 2e-9)


def test_quantile_rank_anchor():
    # alpha = eps/(4m) = 0.2 -> rank ceil(0.8 * 8) = 7
    batch = _batch([3.0, 1.0, 7.0, 5.0, 2.0, 8.0, 6.0, 4.0])
    report = quantile_estimator(batch, eps=0.8, m=1.0)
    assert report.estimate == 7.0
    assert report.n_used == 8


def test_quantile_monotone_in_eps():
    batch = _batch(np.arange(1.0, 101.0))
    estimates = [
        quantile_estimator(batch, eps, m=2.0).estimate for eps in (0.1, 0.3, 0.6, 0.9)
    ]
    assert all(a >= b for a, b in zip(estimates, estimates[1:]))


def test_quantile_validation():
    batch = _batch([1.0, 2.0])
    with pytest.raises(ValueError):
        quantile_estimator(batch, eps=0.0, m=2.0)
    with pytest.raises(ValueError):
        quantile_estimator(batch, eps=0.5, m=0.5)
    with pytest.raises(ValueError, match="m must be >= 1, got nan"):
        quantile_estimator(batch, eps=0.5, m=math.nan)


def test_mom_guarantee_monte_carlo(bern, bern_profile):
    """Planned budget at eps=0.25, delta=0.1 keeps the empirical success
    frequency near one over 100 seeded trials."""
    plan = plan_n_coverage(bern_profile, 0.25, 0.1)
    hits = 0
    for trial in range(100):
        batch = sample(bern, plan.n, int(derive_seed(424242, trial)))
        report = median_of_means(batch, 0.1, true_value=bern.z_true)
        hits += within_multiplicative(report.estimate, bern.z_true, 0.25)
    assert hits >= 87


def test_quantile_guarantee_monte_carlo(twopoint):
    plan = plan_n_quantile(0.5, 0.1, profile=CoverageProfile.from_pair(twopoint))
    z = twopoint.z_true
    hits = 0
    for trial in range(100):
        batch = sample(twopoint, plan.n, int(derive_seed(515151, trial)))
        est = quantile_estimator(batch, 0.5, plan.m).estimate
        hits += (1 - 0.5) * z <= est <= plan.m * z
    assert hits >= 87


def test_plan_coverage_anchors(identity_profile, bern_profile):
    plan = plan_n_coverage(identity_profile, 0.5, 0.1)
    assert (plan.n, plan.m) == (295, pytest.approx(8.0, rel=1e-8))
    assert plan.constants["plan_constant"] == 8.0
    assert plan.constants["icov_slack"] == 4.0
    plan = plan_n_coverage(bern_profile, 0.25, 0.1)
    assert (plan.n, plan.m) == (1253, pytest.approx(17.0, rel=1e-8))


def test_plan_fdiv_anchors():
    # chi^2 at D=0.0625: gamma solves (t-1)^2/t = 1.5
    root = (3.5 + math.sqrt(3.5**2 - 4)) / 2
    plan = plan_n_fdiv(chi_squared(), 0.0625, 0.25, 0.1)
    assert plan.m == pytest.approx(root, rel=1e-8)
    assert plan.n == 295
    assert plan.constants["c_threshold"] == 1.0


def test_plan_fdiv_infeasible():
    with pytest.raises(InfeasiblePlanError):
        plan_n_fdiv(tv(), 0.25, 0.1, 0.1)
    with pytest.raises(InfeasiblePlanError):
        plan_n_fdiv(chi_squared(), math.inf, 0.25, 0.1)
    with pytest.raises(ValueError):
        plan_n_fdiv(chi_squared(), -1.0, 0.25, 0.1)


def test_plan_fdiv_tv_feasible_region():
    # small D keeps the growth-inverse argument under the tv asymptote;
    # the c^2/eps^2 term then dominates the budget
    plan = plan_n_fdiv(tv(), 0.01, 0.5, 0.1)
    assert plan.n == math.ceil(8 * 4 * LN10 / 0.25)
    assert plan.m == pytest.approx(1 / 0.76, rel=1e-8)


def test_plan_fdiv_kl_past_float_range():
    # growth argument 6 * 0.5 / 0.001 = 3000; u = ln gamma solves
    # u - 1 + e^-u = 3000, so u = 3001 to double precision and
    # ln n = ln 8 + u + ln ln(1/delta) - ln eps
    plan = plan_n_fdiv(kl(), 0.5, 0.001, 0.1)
    log_ref = math.log(8.0) + 3001.0 + math.log(LN10) - math.log(0.001)
    assert isinstance(plan.n, int)
    assert math.log(plan.n) == pytest.approx(log_ref, rel=1e-14)
    assert math.isinf(plan.m)


def test_plan_fdiv_budget_past_float_range_is_an_int():
    # gamma = e^689 is a float, but 8 gamma ln(1/delta) / eps is not
    plan = plan_n_fdiv(kl(), 0.5 * 689 * 4.36e-7 / 3.0, 4.36e-7, 1e-300)
    assert math.isfinite(plan.m)
    assert plan.n > sys.float_info.max
    log_ref = math.log(8.0 * plan.m * math.log(1e300)) - math.log(4.36e-7)
    assert math.log(plan.n) == pytest.approx(log_ref, rel=1e-14)


def test_plan_fdiv_beyond_any_drawable_budget_is_infeasible():
    # ln n would be about 12000, past LOG_N_MAX
    with pytest.raises(InfeasiblePlanError, match="no sample of that size"):
        plan_n_fdiv(kl(), 2.0, 0.001, 0.1)
    assert LOG_N_MAX < 12000.0


def _fdiv_n(f, d, eps, delta):
    try:
        return plan_n_fdiv(f, d, eps, delta).n
    except InfeasiblePlanError:
        return math.inf


def _quantile_n(f, d, eps, delta):
    try:
        return plan_n_quantile(eps, delta, f=f, divergence=d).n
    except InfeasiblePlanError:
        return math.inf


_generators = st.sampled_from([tv(), kl(), chi_squared(), hellinger(), renyi(1.5), renyi(3.0)])
_eps_pairs = st.tuples(st.floats(1e-4, 0.99), st.floats(1e-4, 0.99)).map(sorted)
_delta_pairs = st.tuples(st.floats(1e-300, 0.99), st.floats(1e-300, 0.99)).map(sorted)


@pytest.mark.parametrize("plan_n", [_fdiv_n, _quantile_n], ids=["fdiv", "quantile"])
@given(f=_generators, d=st.floats(0.0, 5.0), eps=_eps_pairs, delta=st.floats(1e-300, 0.99))
def test_plan_n_non_increasing_in_eps(plan_n, f, d, eps, delta):
    assert plan_n(f, d, eps[1], delta) <= plan_n(f, d, eps[0], delta)


@pytest.mark.parametrize("plan_n", [_fdiv_n, _quantile_n], ids=["fdiv", "quantile"])
@given(f=_generators, d=st.floats(0.0, 5.0), eps=st.floats(1e-4, 0.99), delta=_delta_pairs)
def test_plan_n_non_increasing_in_delta(plan_n, f, d, eps, delta):
    assert plan_n(f, d, eps, delta[1]) <= plan_n(f, d, eps, delta[0])


def test_plan_n_monotone_across_float_exact_switch():
    # chi2 plans straddling 2^53, where the c^2 ln(1/delta) / eps^2 term
    # leads: just below, n is ceil of the float budget; just above, n is
    # built from ln n and never drops below 2^53
    eps_switch = math.sqrt(8.0 * LN10 / FLOAT_EXACT_INT_MAX)
    eps = eps_switch * (1.0 + np.linspace(1e-13, -1e-13, 2001))
    ns = [plan_n_fdiv(chi_squared(), 1e-9, e, 0.1).n for e in eps]
    assert ns[0] < FLOAT_EXACT_INT_MAX <= ns[-1]
    assert all(a <= b for a, b in zip(ns, ns[1:]))


def _coverage_n(profile, weighted, eps, delta):
    return plan_n_coverage(profile, eps, delta).n


def _quantile_profile_n(profile, weighted, eps, delta):
    return plan_n_quantile(eps, delta, profile=profile).n


def _is_n(profile, weighted, eps, delta):
    return plan_n_is(weighted, eps, delta).n


def _snis_n(profile, weighted, eps, delta):
    return plan_n_snis(profile, weighted, eps, delta).n


_COVERAGE_PLANNERS = [_coverage_n, _quantile_profile_n, _is_n, _snis_n]
_COVERAGE_IDS = ["coverage", "quantile", "is", "snis"]


@st.composite
def _random_pairs(draw):
    """A random_finite pair and a nonnegative g table with E_nu[g] > 0."""
    pair = make_random_pair(draw(st.integers(1, 64)), draw(st.integers(0, 2**32 - 1)))
    # a positive g can still give E_nu[g] = 0 in floats: 5e-324 times a
    # weight below 1/2 rounds to 0
    g = draw(st.lists(st.floats(0.0, 10.0), min_size=pair.support_size,
                      max_size=pair.support_size).filter(lambda v: pair.nu_mean(v) > 0))
    return pair, g


def _random_profiles():
    """Profiles of a random pair and of its reweighting by g."""
    return _random_pairs().map(
        lambda pg: (
            CoverageProfile.from_pair(pg[0]),
            CoverageProfile.from_pair(make_weighted_pair(*pg)),
        )
    )


@pytest.mark.parametrize("plan_n", _COVERAGE_PLANNERS, ids=_COVERAGE_IDS)
@given(profiles=_random_profiles(), eps=_eps_pairs, delta=st.floats(1e-300, 0.99))
def test_coverage_plan_n_non_increasing_in_eps(plan_n, profiles, eps, delta):
    assert plan_n(*profiles, eps[1], delta) <= plan_n(*profiles, eps[0], delta)


@pytest.mark.parametrize("plan_n", _COVERAGE_PLANNERS, ids=_COVERAGE_IDS)
@given(profiles=_random_profiles(), eps=st.floats(1e-4, 0.99), delta=_delta_pairs)
def test_coverage_plan_n_non_increasing_in_delta(plan_n, profiles, eps, delta):
    assert plan_n(*profiles, eps, delta[1]) <= plan_n(*profiles, eps, delta[0])


# Each planner's float budget x as documented, from the plan's level m
# and the generator's c_threshold (fdiv only).
_FLOAT_BUDGETS = {
    "coverage": lambda m, c, eps, delta: 8.0 * m * math.log(1.0 / delta) / eps,
    "quantile": lambda m, c, eps, delta: 18.0 * m * math.log(2.0 / delta) / eps,
    "is": lambda m, c, eps, delta: 6.0 * m / eps,
    "snis": lambda m, c, eps, delta: 6.0 * m / eps,
    "fdiv": lambda m, c, eps, delta: 8.0 * max(
        m * math.log(1.0 / delta) / eps, c * c * math.log(1.0 / delta) / eps**2
    ),
    "sampling": lambda m, c, eps, delta: 2.0 * m * math.log(3.0 / eps),
}
_F_SPECS = ["tv", "kl", "chi2", "hellinger", "renyi:alpha=1.5", "renyi:alpha=3"]


@pytest.mark.parametrize("method", list(_FLOAT_BUDGETS))
@given(
    pair_g=_random_pairs(),
    spec=st.sampled_from(_F_SPECS),
    eps=st.floats(1e-4, 0.99),
    delta=st.floats(1e-300, 0.99),
)
def test_plans_round_up_their_float_budget_below_2_53(method, pair_g, spec, eps, delta):
    pair, g = pair_g
    name = f"fdiv:{spec}" if method == "fdiv" else method
    try:
        plan = plan_method(name).run(pair, eps, delta, np.asarray(g))
    except InfeasiblePlanError:
        return
    x = _FLOAT_BUDGETS[method](plan.m, parse_f_spec(spec).c_threshold, eps, delta)
    if x < FLOAT_EXACT_INT_MAX:
        assert plan.n == max(math.ceil(x), 1)
    else:
        assert plan.n >= FLOAT_EXACT_INT_MAX


def test_is_plan_non_increasing_at_nearby_eps():
    # the former 1e-9 bisection of solve_M_eps gave the larger eps one
    # more draw here (3315547713425)
    profile = CoverageProfile.from_pair(make_random_pair(9, 794))
    assert plan_n_is(profile, 0.464, 1e-10).n == 3315547713424
    assert plan_n_is(profile, 0.464 * (1 + 1e-15), 1e-10).n == 3315547713424


def _close_pairs(lo, hi):
    """(x, x * (1 + gap)) with gaps 1e-15 to 1e-12."""
    return st.tuples(st.floats(lo, hi), st.floats(1e-15, 1e-12)).map(
        lambda p: (p[0], p[0] * (1.0 + p[1]))
    )


@pytest.mark.parametrize(
    "plan_n", [_coverage_n, _is_n, _snis_n], ids=["coverage", "is", "snis"]
)
@given(
    profiles=_random_profiles(),
    eps=_close_pairs(1e-4, 0.99),
    delta=_close_pairs(1e-300, 0.99),
)
def test_coverage_plan_n_non_increasing_at_close_arguments(
    plan_n, profiles, eps, delta
):
    n = plan_n(*profiles, eps[0], delta[0])
    assert plan_n(*profiles, eps[1], delta[0]) <= n
    assert plan_n(*profiles, eps[0], delta[1]) <= n


def test_is_plan_past_float_range_is_infeasible():
    # eps * delta / 6 is subnormal, so the level M overflows to inf
    profile = CoverageProfile.from_pair(make_random_pair(9, 794))
    with pytest.raises(InfeasiblePlanError):
        plan_n_is(profile, 1e-10, 1e-300)


def test_plan_quantile_profile_route(identity_profile, twopoint):
    plan = plan_n_quantile(0.5, 0.1, profile=identity_profile)
    assert (plan.n, plan.m) == (108, 1.0)
    tp_plan = plan_n_quantile(0.5, 0.1, profile=CoverageProfile.from_pair(twopoint))
    assert (tp_plan.n, tp_plan.m) == (432, 4.0)
    assert tp_plan.n == math.ceil(18 * 4.0 * math.log(2 / 0.1) / 0.5)


def test_plan_quantile_fdiv_route():
    plan = plan_n_quantile(0.5, 0.1, f=chi_squared(), divergence=0.0625)
    assert plan.m == pytest.approx(2.0, rel=1e-8)
    assert plan.n == 216
    with pytest.raises(InfeasiblePlanError):
        plan_n_quantile(0.1, 0.1, f=tv(), divergence=0.25)
    # like plan_n_fdiv's (a ValueError from the growth inverse before)
    with pytest.raises(InfeasiblePlanError, match="infinite divergence"):
        plan_n_quantile(0.5, 0.1, f=chi_squared(), divergence=math.inf)


def test_plan_quantile_exactly_one_route(identity_profile):
    with pytest.raises(ValueError):
        plan_n_quantile(0.5, 0.1)
    with pytest.raises(ValueError):
        plan_n_quantile(0.5, 0.1, profile=identity_profile, f=chi_squared())
    with pytest.raises(ValueError):
        plan_n_quantile(0.5, 0.1, f=chi_squared())


def test_plan_is_identity(identity_profile):
    plan = plan_n_is(identity_profile, 0.5, 0.5)
    assert plan.m == pytest.approx(24.0, rel=1e-8)
    assert plan.n == 288


def test_plan_snis_takes_worse_profile(bern, bern_profile):
    wprof = CoverageProfile.from_pair(make_weighted_pair(bern, [0.0, 1.0]))
    plan = plan_n_snis(bern_profile, wprof, 0.25, 0.1)
    # indicator weighting doubles the reachable ratio mass, so the
    # reweighted profile drives the level
    assert plan.m == pytest.approx(480.0, rel=1e-8)
    assert plan.n == 11520
    base_only = plan_n_is(bern_profile, 0.25, 0.1)
    assert base_only.m < plan.m


@pytest.mark.parametrize("eps,delta", [(0.0, 0.1), (1.0, 0.1), (0.5, 0.0), (0.5, 1.0)])
def test_plan_validation(identity_profile, eps, delta):
    with pytest.raises(ValueError):
        plan_n_coverage(identity_profile, eps, delta)


def test_importance_sampling_crafted():
    batch = _batch([0.0, 0.0, 0.0, 0.0], atoms=[0, 1, 1, 0])
    g = np.array([2.0, 10.0])
    ratios = np.array([0.5, 3.0])
    report = importance_sampling(batch, g, ratios)
    assert report.estimate == pytest.approx((1.0 + 30.0 + 30.0 + 1.0) / 4)
    with pytest.raises(ValueError):
        importance_sampling(batch, g, np.array([0.5, 3.0, 1.0]))
    with pytest.raises(ValueError):
        importance_sampling(_batch([0.0], atoms=[5]), g, ratios)


def test_importance_sampling_unbiased(bern):
    # known ratios, g = 1: the estimator averages to E_mu[ratio] = 1
    batch = sample(bern, 40_000, 1234)
    report = importance_sampling(batch, np.ones(2), bern.ratio_cache)
    sigma = 0.25 / math.sqrt(batch.n)
    assert abs(report.estimate - 1.0) <= 3 * sigma


# (p, g, eps) at delta 0.1 on make_bernoulli_pair(p, 0.25): the grid's
# plans up to 3e5 draws (the other three plan 3.6e5 to 1.8e6)
IS_PLAN_CASES = [
    (0.5, [1.0, 3.0], 0.25), (0.5, [1.0, 3.0], 0.1),
    (0.5, [0.0, 1.0], 0.25), (0.5, [0.0, 1.0], 0.1),
    (0.1, [1.0, 3.0], 0.25), (0.1, [1.0, 3.0], 0.1),
    (0.1, [0.0, 1.0], 0.25),
    (0.02, [1.0, 3.0], 0.25),
    (0.02, [0.0, 1.0], 0.25),
]


@pytest.mark.parametrize("p,g,eps", IS_PLAN_CASES)
def test_is_plan_meets_delta_exactly(p, g, eps):
    """The failure probability of plain IS is at most delta at plan_n_is's
    n, and above delta at n / 1000: a planner asking 10x more draws than
    this one fails the second check."""
    delta, g = 0.1, np.array(g)
    pair = make_bernoulli_pair(p, 0.25)
    n = plan_n_is(CoverageProfile.from_pair(make_weighted_pair(pair, g)), eps, delta).n
    assert n <= 300_000
    assert two_level_fail(pair, "is", n, eps, delta, g) <= delta
    small = math.ceil(n / 1000)
    assert two_level_fail(pair, "is", small, eps, delta, g) > delta


@pytest.mark.parametrize(
    "pair", [make_bernoulli_pair(0.5, 0.25), make_random_pair(1024, 3)],
    ids=["count-engine", "draw-engine"],
)
@pytest.mark.parametrize("method,missing", [("quantile", "level m"), ("snis", "table g")])
def test_run_trials_names_the_missing_argument(pair, method, missing):
    with pytest.raises(ValueError, match=missing):
        run_trials(pair, method, 300, 3, 1, 0.25, 0.1)
    batch = sample(pair, 300, 1)
    with pytest.raises(ValueError, match=missing):
        if method == "quantile":
            quantile_estimator(batch, 0.25, None)
        else:
            snis(batch, None)


@pytest.mark.parametrize("method", ["mom", "quantile", "snis"])
def test_run_trials_names_an_n_or_trials_out_of_range(method):
    pair = make_bernoulli_pair(0.5, 0.25)
    for n, trials, message in (
        (0, 3, "n must be >= 1, got 0"),
        (-5, 3, "n must be >= 1, got -5"),
        (300, 0, "trials must be >= 1, got 0"),
        (300, -1, "trials must be >= 1, got -1"),
        (300, 10**20, "trials=100000000000000000000 passes"),
    ):
        with pytest.raises(ValueError, match=message):
            run_trials(pair, method, n, trials, 1, 0.25, 0.1, m=1.25, g=np.ones(2))


@pytest.mark.parametrize("method", ["mom", "quantile", "snis"])
def test_run_trials_names_an_n_or_trials_that_is_not_an_integer(method):
    pair, kwargs = make_bernoulli_pair(0.5, 0.25), {"m": 1.25, "g": np.ones(2)}
    for n, trials, message in (
        (1000.5, 3, "n must be an integer, got 1000.5"),
        (1000, 3.5, "trials must be an integer, got 3.5"),
        (1000, math.nan, "trials must be an integer, got nan"),
        (math.inf, 3, "n must be an integer, got inf"),
        ("1000", 3, "n must be an integer, got '1000'"),
    ):
        with pytest.raises(ValueError, match=message):
            run_trials(pair, method, n, trials, 1, 0.25, 0.1, **kwargs)
    # an integer-valued float is read as its int
    whole = run_trials(pair, method, 1000.0, 3.0, 1, 0.25, 0.1, **kwargs)
    exact = run_trials(pair, method, 1000, 3, 1, 0.25, 0.1, **kwargs)
    assert type(whole.n_used) is int and whole.n_used == exact.n_used
    assert whole.estimates.tobytes() == exact.estimates.tobytes()


def test_snis_constant_weights():
    batch = _batch([5.0, 5.0, 5.0], atoms=[0, 1, 0])
    g = np.array([2.0, 8.0])
    report = snis(batch, g)
    assert report.estimate == pytest.approx((2.0 + 8.0 + 2.0) / 3)


def test_snis_weighted_mean():
    batch = _batch([1.0, 3.0], atoms=[0, 1])
    report = snis(batch, np.array([0.0, 1.0]))
    assert report.estimate == pytest.approx(3.0 / 4.0)


def test_snis_rescales_only_the_rows_whose_sums_overflow():
    """Row 0's weighted sum, 4e308, passes the float range and is summed
    again on g scaled by a power of two; row 1 keeps its bits."""
    weights = np.array([[1.0, 3.0], [2.0, 3.0]])
    g = np.array([[1e308, 1e308], [0.1, 0.7]])
    got = _snis_ratios(weights, g)
    assert got[0] == pytest.approx(1e308, rel=1e-15)
    assert got[1] == ordered_dot(weights[1], g[1]) / 5.0
    # a 1-d g, as the count engine passes it
    assert _snis_ratios(weights, g[0])[0] == got[0]


def test_snis_all_zero_raises():
    with pytest.raises(ZeroDivisionError):
        snis(_batch([0.0, 0.0], atoms=[0, 1]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        snis(_batch([1.0], atoms=[3]), np.array([1.0, 1.0]))


def test_snis_scale_invariance():
    """Rescaling every density value moves the estimate by at most
    1e-12 relative; with power-of-two factors it is exact."""
    rng = np.random.default_rng(8)
    for i in range(20):
        pair = make_random_pair(2 + i % 10, 87000 + i)
        batch = sample(pair, 500, 300 + i)
        g = rng.random(pair.support_size)
        base = snis(batch, g).estimate
        for scale in (1e8, math.pi * 1e-6, 2.0**40):
            scaled = SampleBatch(
                atoms=batch.atoms.copy(),
                lambdas=batch.lambdas * scale,
                seed=batch.seed,
                n=batch.n,
            )
            est = snis(scaled, g).estimate
            assert abs(est - base) <= 1e-12 * abs(base)
        exact = SampleBatch(
            atoms=batch.atoms.copy(),
            lambdas=batch.lambdas * 2.0**40,
            seed=batch.seed,
            n=batch.n,
        )
        assert snis(exact, g).estimate == base
