"""Normalizing-constant estimators and their sample-size planners.

Estimators consume a batch of unnormalized density values and return a
report; planners convert an accuracy/confidence request into a sample
size using either the pair's exact coverage profile or a divergence
budget. Every planner constant is a named, documented module default
and is echoed into the plan it produces.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .coverage import CoverageProfile, min_coverage_threshold, solve_M_eps
from .distributions import (
    DistributionPair,
    SampleBatch,
    make_weighted_pair,
    ordered_dot,
    sample,
    sample_counts,
)
from .divergences import FGenerator, exp_or_inf, f_divergence, log_gamma_f, parse_f_spec
from .errors import InfeasiblePlanError
from .rng import substreams
from .sampler import SAMPLING_PLAN_CONSTANT, sampling_plan

# Median-of-means group count: k = ceil(GROUP_RATE * ln(1/delta)).
GROUP_RATE = 8.0
# Leading constant of the coverage planner: n = C * M * ln(1/delta) / eps.
COVERAGE_PLAN_CONSTANT = 8.0
# Integrated coverage must drop below eps / ICOV_SLACK at the chosen M.
ICOV_SLACK = 4.0
# Divergence planner: growth inverse evaluated at FDIV_GAMMA_MULT * D / eps.
FDIV_PLAN_CONSTANT = 8.0
FDIV_GAMMA_MULT = 6.0
# Quantile planner: n = QUANTILE_PLAN_CONSTANT * M * ln(2/delta) / eps,
# with coverage below eps / QUANTILE_COV_SLACK at M (profile route) or
# M = gamma_f(QUANTILE_GAMMA_MULT * D / eps) (divergence route).
QUANTILE_PLAN_CONSTANT = 18.0
QUANTILE_COV_SLACK = 4.0
QUANTILE_GAMMA_MULT = 4.0
# Importance-sampling planners: n = IS_PLAN_CONSTANT * M / eps with the
# integrated coverage below eps * delta / IS_TARGET_DIVISOR at M.
IS_PLAN_CONSTANT = 6.0
IS_TARGET_DIVISOR = 6.0
# Every planner but the race sampler's sizes n this way. Below 2^53 the
# float budget is exact enough to round up directly; above it n is an
# integer built from ln n. Past ln n = LOG_N_MAX (n beyond 10^4000,
# which also passes the 4300 digits Python writes out by default) no
# sample of that size can be drawn, and the plan is reported infeasible.
FLOAT_EXACT_INT_MAX = 2**53
LOG_N_MAX = 4000 * math.log(10.0)

# Success checks against (1 +/- eps) intervals treat the exact boundary
# as failure: hard two-atom instances place estimates exactly on it,
# and this guard resolves the tie deterministically under rounding.
SUCCESS_GUARD = 1e-9


class PlanSource(enum.Enum):
    COVERAGE = "coverage"
    FDIV = "fdiv"
    QUANTILE = "quantile"
    IMPORTANCE = "importance"
    SELF_NORMALIZED = "self_normalized"
    SAMPLING = "sampling"


@dataclass(frozen=True)
class PlanResult:
    """Sample size with the truncation level and constants behind it."""

    n: int
    m: float
    source: PlanSource
    constants: dict = field(default_factory=dict)
    # Divergence plans: the generator name ("f") and divergence ("D")
    # the plan was computed from, in the order the CLI prints them.
    inputs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class EstimateReport:
    estimate: float
    n_used: int
    k_groups: int = 0
    true_value: Optional[float] = None

    @property
    def rel_error(self) -> Optional[float]:
        if self.true_value is None:
            return None
        return abs(self.estimate - self.true_value) / abs(self.true_value)


def within_multiplicative(estimate: float, truth: float, eps: float) -> bool:
    """Success predicate: estimate strictly inside (1 +/- eps) * truth,
    with a 1e-9 relative guard so boundary atoms count as failures."""
    return abs(estimate - truth) <= (eps - SUCCESS_GUARD) * abs(truth)


def _check_eps_delta(eps: float, delta: float) -> None:
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")


def group_count(delta: float) -> int:
    return math.ceil(GROUP_RATE * math.log(1.0 / delta))


def median_of_means(
    batch: SampleBatch,
    delta: float,
    true_value: Optional[float] = None,
) -> EstimateReport:
    """Median of contiguous group means of the unnormalized density.

    Uses k = ceil(8 ln(1/delta)) groups of floor(n/k) samples each,
    discarding the remainder; for even k the lower median is taken.
    """
    k, m = _mom_groups(batch.n, delta)
    means = batch.lambdas[: k * m].reshape(k, m).mean(axis=1)
    return _lower_median_report(means, m, true_value)


def _mom_groups(n: int, delta: float) -> tuple[int, int]:
    """(k, m): the k = ceil(8 ln(1/delta)) groups of m = n // k draws
    median-of-means splits n draws into."""
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    k = group_count(delta)
    if n < k:
        raise ValueError(f"batch has {n} samples; need at least k = {k}")
    return k, n // k


def _lower_median_report(means, m, true_value) -> EstimateReport:
    """Report the lower median of k group means of m draws each; sorts
    ``means`` in place."""
    k = means.size
    means.sort()
    return EstimateReport(
        estimate=float(means[(k - 1) // 2]),
        n_used=k * m,
        k_groups=k,
        true_value=true_value,
    )


def _quantile_rank(eps: float, m: float, n: int) -> int:
    """1-based rank ceil((1 - eps/(4M)) * n) of the quantile estimate,
    kept within 1..n."""
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if n < 1:
        raise ValueError("batch is empty")
    alpha = eps / (4.0 * m)
    rank = math.ceil((1.0 - alpha) * n)
    return min(max(rank, 1), n)


def quantile_estimator(
    batch: SampleBatch,
    eps: float,
    m: float,
    true_value: Optional[float] = None,
) -> EstimateReport:
    """Upper order statistic of the density values at rank
    ceil((1 - eps/(4M)) * n); one-sided by design, never more than a
    factor M above the truth and rarely below (1 - eps) of it when the
    coverage at M is small."""
    rank = _quantile_rank(eps, m, batch.n)
    est = np.partition(batch.lambdas, rank - 1)[rank - 1]
    return EstimateReport(float(est), batch.n, true_value=true_value)


def importance_sampling(
    batch: SampleBatch,
    g_values: np.ndarray,
    ratios: np.ndarray,
    true_value: Optional[float] = None,
) -> EstimateReport:
    """Plain importance sampling of E_nu[g] with known normalized
    ratios: the mean of ratio * g over the proposal draws."""
    g_values = np.asarray(g_values, dtype=np.float64)
    ratios = np.asarray(ratios, dtype=np.float64)
    if g_values.shape != ratios.shape:
        raise ValueError(
            f"g table has {g_values.size} entries, ratio table has {ratios.size}"
        )
    if batch.atoms.max(initial=-1) >= g_values.size:
        raise ValueError("batch indexes atoms outside the supplied tables")
    vals = ratios[batch.atoms] * g_values[batch.atoms]
    return EstimateReport(float(vals.mean()), batch.n, true_value=true_value)


def snis(
    batch: SampleBatch,
    g_values: np.ndarray,
    true_value: Optional[float] = None,
) -> EstimateReport:
    """Self-normalized importance sampling of E_nu[g]: density-weighted
    mean of g. Invariant under rescaling the density values, so it
    needs no normalizing constant; undefined when every weight is 0."""
    g_values = np.asarray(g_values, dtype=np.float64)
    if batch.atoms.max(initial=-1) >= g_values.size:
        raise ValueError("batch indexes atoms outside the supplied g table")
    weighted = ordered_dot(batch.lambdas, g_values[batch.atoms])
    return _snis_report(weighted, float(batch.lambdas.sum()), batch.n, true_value)


def _snis_report(weighted, total, n, true_value) -> EstimateReport:
    if total <= 0:
        raise ZeroDivisionError(
            "all density values in the batch are zero; the self-normalized "
            "estimate is undefined"
        )
    return EstimateReport(weighted / total, n, true_value=true_value)


# ------------------------------------------------------- counts forms
# The estimators again, on per-atom hit counts (``sample_counts``
# histograms, one row per group) instead of a batch: only the step from
# the draws to the statistic differs. A batch holding the same multiset
# of atoms per group gives the same report, up to the rounding of the
# sums. Each takes the ``EstimatorMethod.from_counts`` call
# (pair, counts, eps, delta, m, g, truth) and reads what it needs; the g
# table has been checked against the support by ``pair.nu_mean(g)``.


def _mom_from_counts(pair, counts, eps, delta, m, g, truth) -> EstimateReport:
    size = int(counts[0].sum())
    means = ordered_dot(counts, pair.lambda_drawn) / size
    return _lower_median_report(means, size, truth)


def _quantile_from_counts(pair, counts, eps, delta, m, g, truth) -> EstimateReport:
    hits = counts[0]
    n = int(hits.sum())
    rank = _quantile_rank(eps, m, n)
    order = pair.lambda_order
    atom = order[np.searchsorted(np.cumsum(hits[order]), rank)]
    return EstimateReport(float(pair.lambda_drawn[atom]), n, true_value=truth)


def _snis_from_counts(pair, counts, eps, delta, m, g, truth) -> EstimateReport:
    hits = counts[0]
    lam = pair.lambda_drawn
    return _snis_report(
        ordered_dot(hits, lam * g), ordered_dot(hits, lam), int(hits.sum()), truth
    )


def plan_n_coverage(profile: CoverageProfile, eps: float, delta: float) -> PlanResult:
    """Median-of-means budget from the exact profile: pick the smallest
    M with IC_M <= (eps/4) * M, then n = ceil(8 M ln(1/delta) / eps)."""
    _check_eps_delta(eps, delta)
    m = solve_M_eps(profile, eps / ICOV_SLACK)
    log_term = math.log(1.0 / delta)
    n = _plan_size(
        COVERAGE_PLAN_CONSTANT * m * log_term / eps,
        lambda: math.log(COVERAGE_PLAN_CONSTANT * log_term)
        + math.log(m)
        - math.log(eps),
    )
    return PlanResult(
        n=n,
        m=m,
        source=PlanSource.COVERAGE,
        constants={
            "plan_constant": COVERAGE_PLAN_CONSTANT,
            "icov_slack": ICOV_SLACK,
        },
    )


def _ceil_exp(log_x: float) -> int:
    """ceil(e^log_x) as a Python int, for budgets past float exactness:
    a 53-bit mantissa rounded up, shifted left by the binary exponent."""
    if log_x == math.inf:
        raise InfeasiblePlanError(
            "the truncation level passes the float range; no finite sample "
            "size meets this plan"
        )
    if log_x > LOG_N_MAX:
        raise InfeasiblePlanError(
            f"the plan needs about 10^{log_x / math.log(10.0):.6g} draws, "
            "more than 10^4000; no sample of that size can be drawn"
        )
    shift = math.floor(log_x / math.log(2.0)) - 52
    return math.ceil(math.exp(log_x - shift * math.log(2.0))) << shift


def _plan_size(x: float, log_x: Callable[[], float]) -> int:
    """n = ceil(x) from the float budget x while it is below 2^53, else
    from ln x; x may be inf once the budget passes the float range.

    ``log_x`` is only called on the log route, where every logarithm it
    takes is of a positive number. That route never returns less than
    2^53, so n stays monotone in the budget across the switch."""
    if x < FLOAT_EXACT_INT_MAX:
        return max(math.ceil(x), 1)
    return max(_ceil_exp(log_x()), FLOAT_EXACT_INT_MAX)


def plan_n_fdiv(
    f: FGenerator,
    divergence: float,
    eps: float,
    delta: float,
    c: Optional[float] = None,
) -> PlanResult:
    """Median-of-means budget from a divergence value alone.

    n = ceil(8 * max(gamma_f(6 D / eps) ln(1/delta) / eps,
                     c^2 ln(1/delta) / eps^2)),
    computed in log space: ``n`` is an exact Python int even past the
    float range, where ``m`` (the growth inverse as a float) reads inf.
    Infeasible when the growth inverse is infinite at the required
    argument, which is the hallmark of linear-regime generators, or when
    n would exceed 10^4000.
    """
    _check_eps_delta(eps, delta)
    if divergence < 0 or math.isnan(divergence):
        raise ValueError("divergence must be nonnegative")
    if math.isinf(divergence):
        raise InfeasiblePlanError(
            f"{f.name}: infinite divergence (singular target mass?)"
        )
    c = f.c_threshold if c is None else float(c)
    argument = FDIV_GAMMA_MULT * divergence / eps
    log_m = log_gamma_f(f, argument)
    if math.isinf(log_m):
        raise InfeasiblePlanError(
            f"{f.name}: growth inverse is infinite at {argument:g}; the "
            "generator grows too slowly for this accuracy (linear regime)"
        )
    m = exp_or_inf(log_m)
    log_term = math.log(1.0 / delta)

    def log_x() -> float:
        log_c_term = 2.0 * (math.log(abs(c)) - math.log(eps)) if c else -math.inf
        return (
            math.log(FDIV_PLAN_CONSTANT)
            + math.log(log_term)
            + max(log_m - math.log(eps), log_c_term)
        )

    n = _plan_size(
        FDIV_PLAN_CONSTANT * max(m * log_term / eps, c * c * log_term / eps**2),
        log_x,
    )
    return PlanResult(
        n=n,
        m=m,
        source=PlanSource.FDIV,
        constants={
            "plan_constant": FDIV_PLAN_CONSTANT,
            "gamma_mult": FDIV_GAMMA_MULT,
            "c_threshold": c,
        },
        inputs={"f": f.name, "D": divergence},
    )


def plan_n_quantile(
    eps: float,
    delta: float,
    profile: Optional[CoverageProfile] = None,
    f: Optional[FGenerator] = None,
    divergence: Optional[float] = None,
    gamma_mult: float = QUANTILE_GAMMA_MULT,
) -> PlanResult:
    """Quantile-estimator budget: n = ceil(18 M ln(2/delta) / eps).

    M comes either from the profile (infimum level with coverage at
    most eps/4) or from the divergence route gamma_f(gamma_mult*D/eps);
    the multiplier is exposed because published variants differ (4 in
    the tight analysis, 6 in a looser one). The divergence route works
    in log space like ``plan_n_fdiv``.
    """
    _check_eps_delta(eps, delta)
    if (profile is None) == (f is None):
        raise ValueError("supply exactly one of profile or (f, divergence)")
    if profile is not None:
        m = max(min_coverage_threshold(profile, eps / QUANTILE_COV_SLACK), 1.0)
        log_m = math.log(m)
        route = {"cov_slack": QUANTILE_COV_SLACK}
    else:
        if divergence is None:
            raise ValueError("divergence value required with a generator")
        argument = gamma_mult * divergence / eps
        log_m = log_gamma_f(f, argument)
        if math.isinf(log_m):
            raise InfeasiblePlanError(
                f"{f.name}: growth inverse infinite at {argument:g}"
            )
        m = max(exp_or_inf(log_m), 1.0)
        route = {"gamma_mult": gamma_mult}
    log_term = math.log(2.0 / delta)
    n = _plan_size(
        QUANTILE_PLAN_CONSTANT * m * log_term / eps,
        lambda: math.log(QUANTILE_PLAN_CONSTANT)
        + max(log_m, 0.0)
        + math.log(log_term)
        - math.log(eps),
    )
    return PlanResult(
        n=n,
        m=m,
        source=PlanSource.QUANTILE,
        constants={"plan_constant": QUANTILE_PLAN_CONSTANT, **route},
    )


def plan_n_is(
    weighted_profile: CoverageProfile, eps: float, delta: float
) -> PlanResult:
    """Plain importance sampling budget: the confidence enters through
    the integrated-coverage target eps*delta/6 on the reweighted
    target's profile; n = ceil(6 M / eps)."""
    return _plan_n_importance((weighted_profile,), eps, delta, PlanSource.IMPORTANCE)


def plan_n_snis(
    profile: CoverageProfile,
    weighted_profile: CoverageProfile,
    eps: float,
    delta: float,
) -> PlanResult:
    """Self-normalized budget: both the base and the reweighted profile
    must clear the eps*delta/6 integrated-coverage target; the larger
    of the two levels drives n = ceil(6 M / eps)."""
    profiles = (profile, weighted_profile)
    return _plan_n_importance(profiles, eps, delta, PlanSource.SELF_NORMALIZED)


def _plan_n_importance(profiles, eps, delta, source) -> PlanResult:
    """n = ceil(6 M / eps) at the largest of the levels where each
    profile's integrated coverage clears the eps*delta/6 target."""
    _check_eps_delta(eps, delta)
    target = eps * delta / IS_TARGET_DIVISOR
    m = max(solve_M_eps(profile, target) for profile in profiles)
    n = _plan_size(
        IS_PLAN_CONSTANT * m / eps,
        lambda: math.log(IS_PLAN_CONSTANT) + math.log(m) - math.log(eps),
    )
    return PlanResult(
        n=n,
        m=m,
        source=source,
        constants={
            "plan_constant": IS_PLAN_CONSTANT,
            "icov_target_divisor": IS_TARGET_DIVISOR,
        },
    )


# ---------------------------------------------------------------- methods
# The method tables: plan name -> planner, and estimator name -> estimate
# call, true value and success event. ``pfest plan`` and ``pfest
# estimate`` accept exactly these names. Entries call pfest functions by
# their module-global names, so a function swapped in a module namespace
# (as tracing does) is the one that runs.

FDIV_PREFIX = "fdiv:"


@dataclass(frozen=True)
class PlanMethod:
    """``run(pair, eps, delta, g) -> PlanResult``; ``g`` is the
    importance-sampling function table when ``needs_g``, else None."""

    run: Callable[..., PlanResult]
    needs_g: bool = False


def _profile(pair: DistributionPair) -> CoverageProfile:
    return CoverageProfile.from_pair(pair)


def _weighted_profile(pair: DistributionPair, g: np.ndarray) -> CoverageProfile:
    return CoverageProfile.from_pair(make_weighted_pair(pair, g))


def _plan_sampling(pair, eps, delta, g) -> PlanResult:
    n, m = sampling_plan(_profile(pair), eps)  # a TV guarantee: no delta
    constants = {"plan_constant": SAMPLING_PLAN_CONSTANT}
    return PlanResult(n, m, PlanSource.SAMPLING, constants)


def _plan_fdiv(spec: str, pair, eps, delta, g) -> PlanResult:
    f = parse_f_spec(spec)
    return plan_n_fdiv(f, f_divergence(pair, f), eps, delta)


PLANS = {
    "coverage": PlanMethod(
        lambda pair, eps, delta, g: plan_n_coverage(_profile(pair), eps, delta)
    ),
    "quantile": PlanMethod(
        lambda pair, eps, delta, g: plan_n_quantile(eps, delta, profile=_profile(pair))
    ),
    "is": PlanMethod(
        lambda pair, eps, delta, g: plan_n_is(_weighted_profile(pair, g), eps, delta),
        needs_g=True,
    ),
    "snis": PlanMethod(
        lambda pair, eps, delta, g: plan_n_snis(
            _profile(pair), _weighted_profile(pair, g), eps, delta
        ),
        needs_g=True,
    ),
    "sampling": PlanMethod(_plan_sampling),
}


def plan_method(name: str) -> PlanMethod:
    """A key of ``PLANS``, or ``fdiv:<spec>`` for the divergence plan of
    the generator ``parse_f_spec(spec)``."""
    if name.startswith(FDIV_PREFIX):
        return PlanMethod(functools.partial(_plan_fdiv, name[len(FDIV_PREFIX):]))
    if name not in PLANS:
        raise ValueError(f"unknown plan method {name!r}")
    return PLANS[name]


@dataclass(frozen=True)
class EstimatorMethod:
    """``plan`` names the plan the estimator always runs on; ``None``
    (mom) takes coverage or fdiv:<spec>. ``estimate(batch, eps, delta, m,
    g, truth)`` returns the report, and the counts form ``from_counts(pair,
    counts, eps, delta, m, g, truth)`` the same report from ``groups(n,
    delta)`` = (k, draws per group) hit-count histograms; each reads only
    the arguments its estimator needs, and the report carries the
    estimate, the draws used, k and the truth. ``truth(pair, g)`` is the
    value it targets, ``success(estimate, truth, eps, m)`` whether a
    trial met the estimator's guarantee."""

    plan: Optional[str]
    estimate: Callable[..., EstimateReport]
    from_counts: Callable[..., EstimateReport]
    groups: Callable[[int, float], tuple[int, int]] = lambda n, delta: (1, n)
    truth: Callable[..., float] = lambda pair, g: pair.z_true
    success: Callable[..., bool] = lambda est, truth, eps, m: within_multiplicative(
        est, truth, eps
    )


ESTIMATORS = {
    "mom": EstimatorMethod(
        None,
        lambda batch, eps, delta, m, g, truth: median_of_means(
            batch, delta, true_value=truth
        ),
        _mom_from_counts,
        groups=_mom_groups,
    ),
    "quantile": EstimatorMethod(
        "quantile",
        lambda batch, eps, delta, m, g, truth: quantile_estimator(
            batch, eps, m, true_value=truth
        ),
        _quantile_from_counts,
        # one-sided: never above M times the truth, rarely below 1 - eps
        success=lambda est, truth, eps, m: (1.0 - eps) * truth <= est <= m * truth,
    ),
    "snis": EstimatorMethod(
        "snis",
        lambda batch, eps, delta, m, g, truth: snis(batch, g, true_value=truth),
        _snis_from_counts,
        truth=lambda pair, g: pair.nu_mean(g),
    ),
}


def estimator_plan(method: str, plan: Optional[str] = None) -> PlanMethod:
    """The planner the estimator ``method`` runs on. Only mom takes a
    ``plan`` (coverage, the default, or fdiv:<spec>); the others run on
    their own plan and reject one."""
    fixed = ESTIMATORS[method].plan
    if fixed is not None:
        if plan is not None:
            raise ValueError(
                f"estimator {method!r} runs on its own {fixed!r} plan; "
                "only mom takes a plan"
            )
        return PLANS[fixed]
    if plan is None:
        plan = "coverage"
    if plan != "coverage" and not plan.startswith(FDIV_PREFIX):
        raise ValueError(f"unknown plan {plan!r}")
    return plan_method(plan)


# run_trials draws per-atom hit counts instead of atom sequences when
# COUNT_ENGINE_RATIO * k * S <= n, for k histograms over the S atoms up
# to the last one with proposal mass. A histogram costs about one
# binomial draw per atom and a batch one uniform and one table search
# per draw; the ratio is set from the measured crossover of the two
# (see CHANGES.md).
COUNT_ENGINE_RATIO = 1


def run_trials(
    pair: DistributionPair, method: str, n: int, trials: int, seed: int,
    eps: float, delta: float, m: Optional[float] = None, g: Optional[np.ndarray] = None,
) -> list[tuple[EstimateReport, bool]]:
    """Run the estimator ``ESTIMATORS[method]`` on ``trials`` samples of
    n draws, trial t on the Philox stream keyed by ``seed + (t << 64)``
    (item t of ``substreams(seed, trials)``), and return each report
    with its success flag. ``m`` is the plan's level (read by quantile),
    ``g`` the function table (read by snis).

    Each trial draws either a batch (``sample``) or, when the support is
    small against n, the estimator's hit-count histograms
    (``sample_counts``); both give the estimator the same law."""
    entry = ESTIMATORS[method]
    truth = entry.truth(pair, g)
    k, size = entry.groups(n, delta)
    if COUNT_ENGINE_RATIO * k * (pair.last_drawable_atom + 1) <= n:
        def report(key: int, gen: np.random.Generator) -> EstimateReport:
            counts = sample_counts(pair, size, k, key, gen)
            return entry.from_counts(pair, counts, eps, delta, m, g, truth)
    else:
        def report(key: int, gen: np.random.Generator) -> EstimateReport:
            return entry.estimate(sample(pair, n, key, gen), eps, delta, m, g, truth)
    results = []
    for key, gen in substreams(seed, trials):
        rep = report(key, gen)
        results.append((rep, entry.success(rep.estimate, truth, eps, m)))
    return results
