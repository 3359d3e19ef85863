"""Normalizing-constant estimators and their sample-size planners.

Estimators consume a batch of unnormalized density values and return a
report; planners convert an accuracy/confidence request into a sample
size using either the pair's exact coverage profile or a divergence
budget. Every planner constant is a named, documented module default
and is echoed into the plan it produces.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .coverage import FLOAT_EXACT_INT_MAX, LOG_N_MAX  # bounds on n, read here too
from .coverage import CoverageProfile, PlanResult, _plan_size, solve_M_eps
from .coverage import min_coverage_threshold
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
from .sampler import RACE_CHUNK_ELEMENTS, sampling_plan

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

# Success checks against (1 +/- eps) intervals treat the exact boundary
# as failure: hard two-atom instances place estimates exactly on it,
# and this guard resolves the tie deterministically under rounding.
SUCCESS_GUARD = 1e-9


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
    _check_delta(delta)


def _check_delta(delta: float) -> None:
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")


def group_count(delta: float) -> int:
    return math.ceil(GROUP_RATE * math.log(1.0 / delta))


def _mom_groups(n: int, delta: float) -> tuple[int, int]:
    """(k, m): the k = ceil(8 ln(1/delta)) groups of m = n // k draws
    median-of-means splits n draws into."""
    _check_delta(delta)
    k = group_count(delta)
    if n < k:
        raise ValueError(f"batch has {n} samples; need at least k = {k}")
    return k, n // k


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


# -------------------------------------------------------- block forms
# Each estimator is written once, as a form over a block of T trials
# that returns their T estimates. On draws the form is called as
# ``(lambdas, atoms, eps, delta, m, g)``, with trial t's density values
# and atoms in row t of two (T, n) arrays; on per-atom hit counts as
# ``(pair, counts, eps, delta, m, g)``, with trial t's k histograms
# (``sample_counts``, one row per group) in counts[t], of shape (k, S).
# Each reads only the arguments its estimator needs. A trial gets the
# same estimate, bit for bit, in a block of any size, and a counts row
# holding the same multiset of atoms per group as a draw row gets it up
# to the rounding of the sums. A counts form's g table has been checked
# against the support by ``pair.nu_mean(g)``.


def _lower_medians(means: np.ndarray) -> np.ndarray:
    """The lower median of each row of k group means; sorts ``means``
    in place."""
    means.sort(axis=1)
    return means[:, (means.shape[1] - 1) // 2]


def _mom_draws(lambdas, atoms, eps, delta, m, g) -> np.ndarray:
    k, size = _mom_groups(lambdas.shape[1], delta)
    groups = lambdas[:, : k * size].reshape(len(lambdas), k, size)
    return _lower_medians(groups.mean(axis=2))


def _mom_counts(pair, counts, eps, delta, m, g) -> np.ndarray:
    size = int(counts[0, 0].sum())
    return _lower_medians(ordered_dot(counts, pair.lambda_drawn) / size)


def _quantile_draws(lambdas, atoms, eps, delta, m, g) -> np.ndarray:
    rank = _quantile_rank(eps, m, lambdas.shape[1])
    # a copy, so that the partitioned block is freed on return
    return np.partition(lambdas, rank - 1, axis=1)[:, rank - 1].copy()


def _quantile_counts(pair, counts, eps, delta, m, g) -> np.ndarray:
    hits = counts[:, 0]
    rank = _quantile_rank(eps, m, int(hits[0].sum()))
    order = pair.lambda_order
    # the first level, in increasing order, whose cumulative count
    # reaches the rank
    first = (np.cumsum(hits[:, order], axis=1) < rank).sum(axis=1)
    return pair.lambda_drawn[order[first]]


def _snis_draws(lambdas, atoms, eps, delta, m, g) -> np.ndarray:
    g = np.asarray(g, dtype=np.float64)
    if atoms.max(initial=-1) >= g.size:
        raise ValueError("batch indexes atoms outside the supplied g table")
    return _snis_ratios(
        [ordered_dot(lam, g[at]) for lam, at in zip(lambdas, atoms)],
        [lam.sum() for lam in lambdas],
    )


def _snis_counts(pair, counts, eps, delta, m, g) -> np.ndarray:
    lam = pair.lambda_drawn
    lam_g = lam * g
    hits = counts[:, 0]
    return _snis_ratios(
        [ordered_dot(h, lam_g) for h in hits], [ordered_dot(h, lam) for h in hits]
    )


def _snis_ratios(weighted, totals) -> np.ndarray:
    """Each trial's weighted sum over its total weight. The sums are
    taken row by row: a dot over the whole block would not keep
    ``ordered_dot``'s chunked rounding."""
    totals = np.array(totals, dtype=np.float64)
    if np.any(totals <= 0):
        raise ZeroDivisionError(
            "all density values in the batch are zero; the self-normalized "
            "estimate is undefined"
        )
    return np.array(weighted, dtype=np.float64) / totals


def _row_estimate(form, batch: SampleBatch, eps, delta, m, g) -> float:
    """A draws form's estimate on the one-row block of ``batch``."""
    return float(form(batch.lambdas[None], batch.atoms[None], eps, delta, m, g)[0])


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
    estimate = _row_estimate(_mom_draws, batch, None, delta, None, None)
    return EstimateReport(estimate, k * m, k, true_value)


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
    estimate = _row_estimate(_quantile_draws, batch, eps, None, m, None)
    return EstimateReport(estimate, batch.n, true_value=true_value)


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
    estimate = _row_estimate(_snis_draws, batch, None, None, None, g_values)
    return EstimateReport(estimate, batch.n, true_value=true_value)


def plan_n_coverage(profile: CoverageProfile, eps: float, delta: float) -> PlanResult:
    """Median-of-means budget from the exact profile: pick the smallest
    M with IC_M <= (eps/4) * M, then n = ceil(8 M ln(1/delta) / eps)."""
    _check_eps_delta(eps, delta)
    m = solve_M_eps(profile, eps / ICOV_SLACK)
    return PlanResult(
        n=_plan_size(COVERAGE_PLAN_CONSTANT, m, math.log(1.0 / delta), eps, 1),
        m=m,
        constants={
            "plan_constant": COVERAGE_PLAN_CONSTANT,
            "icov_slack": ICOV_SLACK,
        },
    )


def _growth_level(
    f: FGenerator, divergence: float, mult: float, eps: float
) -> tuple[float, float]:
    """The divergence routes' level gamma_f(mult * D / eps), as a float
    (inf once it passes the float range) and as its logarithm.
    Infeasible when D is infinite, or when the growth inverse is
    infinite at that argument, the hallmark of linear-regime
    generators."""
    if divergence < 0 or math.isnan(divergence):
        raise ValueError("divergence must be nonnegative")
    if math.isinf(divergence):
        raise InfeasiblePlanError(
            f"{f.name}: infinite divergence (singular target mass?)"
        )
    argument = mult * divergence / eps
    log_m = log_gamma_f(f, argument)
    if math.isinf(log_m):
        raise InfeasiblePlanError(
            f"{f.name}: growth inverse is infinite at {argument:g}; the "
            "generator grows too slowly for this accuracy (linear regime)"
        )
    return exp_or_inf(log_m), log_m


def plan_n_fdiv(
    f: FGenerator, divergence: float, eps: float, delta: float
) -> PlanResult:
    """Median-of-means budget from a divergence value alone.

    n = ceil(8 * max(gamma_f(6 D / eps) ln(1/delta) / eps,
                     c^2 ln(1/delta) / eps^2)),
    with c the generator's ``c_threshold``. ``n`` is an exact Python int
    even past the float range, where ``m`` (the growth inverse as a
    float) reads inf. Infeasible when the growth inverse is infinite at
    the required argument, or when n would exceed 10^4000.
    """
    _check_eps_delta(eps, delta)
    m, log_m = _growth_level(f, divergence, FDIV_GAMMA_MULT, eps)
    c = f.c_threshold
    log_term = math.log(1.0 / delta)
    n = max(
        _plan_size(FDIV_PLAN_CONSTANT, m, log_term, eps, 1, log_m),
        # c^2 passes the float range before c does
        _plan_size(FDIV_PLAN_CONSTANT, c * c, log_term, eps, 2,
                   2.0 * math.log(abs(c)) if c else None),
    )
    return PlanResult(
        n=n,
        m=m,
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
) -> PlanResult:
    """Quantile-estimator budget: n = ceil(18 M ln(2/delta) / eps).

    M comes either from the profile (infimum level with coverage at
    most eps/4) or from the divergence route gamma_f(4 D / eps), which
    is infeasible where ``plan_n_fdiv``'s is.
    """
    _check_eps_delta(eps, delta)
    if (profile is None) == (f is None):
        raise ValueError("supply exactly one of profile or (f, divergence)")
    if profile is not None:
        m = max(min_coverage_threshold(profile, eps / QUANTILE_COV_SLACK), 1.0)
        log_m = None
        route = {"cov_slack": QUANTILE_COV_SLACK}
    else:
        if divergence is None:
            raise ValueError("divergence value required with a generator")
        m, log_m = _growth_level(f, divergence, QUANTILE_GAMMA_MULT, eps)
        m = max(m, 1.0)
        route = {"gamma_mult": QUANTILE_GAMMA_MULT}
    return PlanResult(
        n=_plan_size(QUANTILE_PLAN_CONSTANT, m, math.log(2.0 / delta), eps, 1, log_m),
        m=m,
        constants={"plan_constant": QUANTILE_PLAN_CONSTANT, **route},
    )


def plan_n_is(
    weighted_profile: CoverageProfile, eps: float, delta: float
) -> PlanResult:
    """Plain importance sampling budget: the confidence enters through
    the integrated-coverage target eps*delta/6 on the reweighted
    target's profile; n = ceil(6 M / eps)."""
    return _plan_n_importance((weighted_profile,), eps, delta)


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
    return _plan_n_importance(profiles, eps, delta)


def _plan_n_importance(profiles, eps, delta) -> PlanResult:
    """n = ceil(6 M / eps) at the largest of the levels where each
    profile's integrated coverage clears the eps*delta/6 target."""
    _check_eps_delta(eps, delta)
    target = eps * delta / IS_TARGET_DIVISOR
    m = max(solve_M_eps(profile, target) for profile in profiles)
    return PlanResult(
        n=_plan_size(IS_PLAN_CONSTANT, m, 1.0, eps, 1),
        m=m,
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


def _plan_fdiv(spec: str, pair, eps, delta, g) -> PlanResult:
    f = parse_f_spec(spec)
    return plan_n_fdiv(f, f_divergence(pair, f), eps, delta)


def _plan_sampling(pair, eps, delta, g) -> PlanResult:
    """The race's plan. A TV guarantee takes no delta, but one outside
    (0, 1) is rejected as by every other plan."""
    _check_delta(delta)
    return sampling_plan(_profile(pair), eps)


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
    (mom) takes coverage or fdiv:<spec>. ``estimate(lambdas, atoms, eps,
    delta, m, g)`` and ``from_counts(pair, counts, eps, delta, m, g)``
    are its block forms (see above): each returns the estimates of a
    block of T trials, from their (T, n) draws or their (T, k, S)
    hit counts, where ``groups(n, delta)`` = (k, draws per group); a
    report counts the k times that many draws as used, and carries k
    when ``grouped`` (mom), 0 otherwise.
    ``truth(pair, g)`` is the value it targets, ``success(estimate,
    truth, eps, m)`` whether a trial met the estimator's guarantee."""

    plan: Optional[str]
    estimate: Callable[..., np.ndarray]
    from_counts: Callable[..., np.ndarray]
    groups: Callable[[int, float], tuple[int, int]] = lambda n, delta: (1, n)
    grouped: bool = False
    truth: Callable[..., float] = lambda pair, g: pair.z_true
    success: Callable[..., bool] = lambda est, truth, eps, m: within_multiplicative(
        est, truth, eps
    )


ESTIMATORS = {
    "mom": EstimatorMethod(
        None, _mom_draws, _mom_counts, groups=_mom_groups, grouped=True
    ),
    "quantile": EstimatorMethod(
        "quantile",
        _quantile_draws,
        _quantile_counts,
        # one-sided: never above M times the truth, rarely below 1 - eps
        success=lambda est, truth, eps, m: (1.0 - eps) * truth <= est <= m * truth,
    ),
    "snis": EstimatorMethod(
        "snis", _snis_draws, _snis_counts, truth=lambda pair, g: pair.nu_mean(g)
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
    (``sample_counts``); both give the estimator the same law. The
    trials are drawn one by one into a block of at most
    RACE_CHUNK_ELEMENTS values (T n draws, or T k S counts), and the
    estimator's block form runs once per block; a trial's report is the
    same whatever block it falls in."""
    entry = ESTIMATORS[method]
    truth = entry.truth(pair, g)
    k, size = entry.groups(n, delta)
    counting = COUNT_ENGINE_RATIO * k * (pair.last_drawable_atom + 1) <= n
    row = (k, pair.support_size) if counting else (n,)
    per_block = max(1, RACE_CHUNK_ELEMENTS // math.prod(row))
    shape = (min(trials, per_block), *row)
    if counting:
        hits = np.empty(shape, dtype=np.int64)
    else:
        lambdas, atoms = np.empty(shape), np.empty(shape, dtype=np.int64)
    k_groups = k if entry.grouped else 0
    results = []
    for t, (key, gen) in enumerate(substreams(seed, trials)):
        i = t % per_block
        if counting:
            hits[i] = sample_counts(pair, size, k, key, gen)
        else:
            batch = sample(pair, n, key, gen)
            lambdas[i], atoms[i] = batch.lambdas, batch.atoms
        if i + 1 < per_block and t + 1 < trials:
            continue
        if counting:
            estimates = entry.from_counts(pair, hits[: i + 1], eps, delta, m, g)
        else:
            estimates = entry.estimate(
                lambdas[: i + 1], atoms[: i + 1], eps, delta, m, g
            )
        for est in estimates.tolist():
            report = EstimateReport(est, k * size, k_groups, truth)
            results.append((report, entry.success(est, truth, eps, m)))
    return results
