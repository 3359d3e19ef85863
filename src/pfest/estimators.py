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
from typing import Callable, Iterator, Optional

import numpy as np

from .coverage import CoverageProfile, PlanResult, _log_quotient, _plan_size
from .coverage import solve_M_eps
from .coverage import _check_divergence, _check_unit, min_coverage_threshold
from .coverage import TailPlanner
from .distributions import (
    DistributionPair,
    SampleBatch,
    count_block,
    draw_block,
    make_weighted_pair,
    ordered_dot,
)
from .divergences import FGenerator, exp_or_inf, f_divergence, log_gamma_f, parse_f_spec
from .errors import InfeasiblePlanError
from .rng import substreams
from .sampler import race_plan

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
        return relative_error(self.estimate, self.true_value)


def relative_error(estimate, truth: float):
    return abs(estimate - truth) / abs(truth)


def ordered_mean(values: np.ndarray) -> float:
    """Mean of a nonempty array summed left to right, as a Python loop from
    0.0 sums it (so 0.0 + all -0.0 is 0.0); np.sum and np.mean are pairwise.

    Only where that sum passes the float range while every value is
    finite are the values summed again scaled by 2^-e, e the binary
    exponent of the largest magnitude (as in ``_snis_ratios``), and the
    mean scaled back; every finite sum keeps its bits."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = 0.0 + float(np.cumsum(values)[-1])
        if math.isfinite(total) or not np.isfinite(values).all():
            return total / values.size
        shift = int(np.frexp(np.abs(values).max())[1])
        scaled = float(np.cumsum(np.ldexp(values, -shift))[-1])
        return float(np.ldexp(scaled / values.size, shift))


def within_multiplicative(estimate, truth: float, eps: float):
    """Success predicate (elementwise on arrays): estimate within
    (eps - SUCCESS_GUARD) * |truth| of truth. The guard is an absolute
    1e-9 taken off eps, which fails boundary atoms; an eps at or below
    it would leave no estimate a success, the truth included, and is
    rejected."""
    if not eps > SUCCESS_GUARD:
        raise ValueError(f"eps must be above SUCCESS_GUARD = {SUCCESS_GUARD}, got {eps}")
    return abs(estimate - truth) <= (eps - SUCCESS_GUARD) * abs(truth)


def _check_eps_delta(eps: float, delta: float) -> None:
    _check_unit("eps", eps)
    _check_unit("delta", delta)


def group_count(delta: float) -> int:
    return math.ceil(GROUP_RATE * _log_quotient(1.0, delta))


def _mom_groups(n: int, delta: float) -> tuple[int, int]:
    """(k, m): the k = ceil(8 ln(1/delta)) groups of m = n // k draws
    median-of-means splits n draws into."""
    _check_unit("delta", delta)
    k = group_count(delta)
    if n < k:
        raise ValueError(f"batch has {n} samples; need at least k = {k}")
    return k, n // k


def _quantile_rank(eps: float, m: float, n: int) -> int:
    """1-based rank ceil((1 - eps/(4M)) * n) of the quantile estimate,
    kept within 1..n."""
    _check_unit("eps", eps)
    if m is None:
        raise ValueError("the quantile estimate needs the plan's level m")
    if not m >= 1:
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
# and atoms in row t of two (T, n) arrays (atoms is None unless the
# entry ``reads_atoms``); on per-atom hit counts as
# ``(pair, counts, eps, delta, m, g)``, with trial t's k histograms
# (``count_block``, one row per group) in counts[t], of shape (k, D).
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


def _g_table(g) -> np.ndarray:
    """The function table ``g`` that SNIS reads, as floats."""
    if g is None:
        raise ValueError("the SNIS estimate needs the function table g")
    return np.asarray(g, dtype=np.float64)


def _snis_draws(lambdas, atoms, eps, delta, m, g) -> np.ndarray:
    g = _g_table(g)
    if atoms.max(initial=-1) >= g.size:
        raise ValueError("batch indexes atoms outside the supplied g table")
    return _snis_ratios(lambdas, g[atoms])


def _snis_counts(pair, counts, eps, delta, m, g) -> np.ndarray:
    weights = counts[:, 0] * pair.lambda_drawn  # hits times density value
    return _snis_ratios(weights, _g_table(g)[: weights.shape[1]])


def _snis_ratios(weights, g) -> np.ndarray:
    """Each row's g-weighted sum over its total weight.

    A finite g near the float maximum can take a row's weighted sum past
    the float range. Only such rows are summed again, on g scaled by the
    power of two that brings its largest entry below 1 (exact for every
    entry that stays in the normal range), and their ratios scaled back;
    every other row keeps its bits."""
    totals = weights.sum(axis=1)
    if np.any(totals <= 0):
        raise ZeroDivisionError(
            "all density values in the batch are zero; the self-normalized "
            "estimate is undefined"
        )
    ratios = ordered_dot(weights, g) / totals
    over = ~np.isfinite(ratios)
    if over.any():
        g_over = g[over] if g.ndim == 2 else g
        shift = np.frexp(np.abs(g_over).max())[1]
        scaled = ordered_dot(weights[over], np.ldexp(g_over, -shift))
        ratios[over] = np.ldexp(scaled / totals[over], shift)
    return ratios


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
    ceil((1 - eps/(4M)) * n). ``ESTIMATORS["quantile"].success`` counts
    it a success when (1 - eps) z <= estimate <= M z; at the quantile
    plan the upper side can fail more often than delta (ROADMAP item 10)."""
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
        n=_plan_size(COVERAGE_PLAN_CONSTANT, m, _log_quotient(1.0, delta), eps, 1),
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
    _check_divergence(divergence)
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
    log_term = _log_quotient(1.0, delta)
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
        m = max(min_coverage_threshold(profile, _quantile_coverage(eps)), 1.0)
        log_m = None
        route = {"cov_slack": QUANTILE_COV_SLACK}
    else:
        if divergence is None:
            raise ValueError("divergence value required with a generator")
        m, log_m = _growth_level(f, divergence, QUANTILE_GAMMA_MULT, eps)
        m = max(m, 1.0)
        route = {"gamma_mult": QUANTILE_GAMMA_MULT}
    return PlanResult(
        n=_plan_size(QUANTILE_PLAN_CONSTANT, m, _log_quotient(2.0, delta), eps, 1, log_m),
        m=m,
        constants={"plan_constant": QUANTILE_PLAN_CONSTANT, **route},
    )


def _quantile_coverage(eps: float) -> float:
    """The coverage the quantile plan's level M must meet on the profile
    route: eps / QUANTILE_COV_SLACK."""
    return eps / QUANTILE_COV_SLACK


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
    if target == 0.0:
        raise ValueError(
            f"eps * delta / {IS_TARGET_DIVISOR:g} underflows to {target!r}; "
            "no integrated-coverage target is left to solve for"
        )
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


def _plan_fdiv(spec: str, pair, eps, delta, g) -> PlanResult:
    f = parse_f_spec(spec)
    return plan_n_fdiv(f, f_divergence(pair, f), eps, delta)


def _plan_quantile(pair, eps, delta, g) -> PlanResult:
    """The quantile plan on the profile route, its first block sized
    from the plan's coverage target."""
    _check_eps_delta(eps, delta)
    return TailPlanner(pair).plan(
        lambda profile: plan_n_quantile(eps, delta, profile=profile),
        coverage=_quantile_coverage(eps),
    )


def _plan_sampling(pair, eps, delta, g) -> PlanResult:
    """The race's plan. A TV guarantee takes no delta, but one outside
    (0, 1) is rejected as by every other plan."""
    _check_unit("delta", delta)
    return race_plan(TailPlanner(pair), eps)


# The profile plans run through TailPlanner, which resolves a wide
# pair's profile only as far down the ratio order as the plan reads.
PLANS = {
    "coverage": PlanMethod(
        lambda pair, eps, delta, g: TailPlanner(pair).plan(
            lambda profile: plan_n_coverage(profile, eps, delta)
        )
    ),
    "quantile": PlanMethod(_plan_quantile),
    "is": PlanMethod(
        lambda pair, eps, delta, g: TailPlanner(make_weighted_pair(pair, g)).plan(
            lambda weighted: plan_n_is(weighted, eps, delta)
        ),
        needs_g=True,
    ),
    "snis": PlanMethod(
        lambda pair, eps, delta, g: TailPlanner(pair, make_weighted_pair(pair, g)).plan(
            lambda profile, weighted: plan_n_snis(profile, weighted, eps, delta)
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
    block of T trials, from their (T, n) draws or their (T, k, D) hit
    counts, where ``groups(n, delta)`` = (k, draws per group) and an
    estimate uses k times that many; ``estimate`` gets atoms only when
    ``reads_atoms`` (snis). ``truth(pair, g)`` is the value it targets,
    ``success(estimates, truth, eps, m)`` which estimates of an array
    met the estimator's guarantee."""

    plan: Optional[str]
    estimate: Callable[..., np.ndarray]
    from_counts: Callable[..., np.ndarray]
    groups: Callable[[int, float], tuple[int, int]] = lambda n, delta: (1, n)
    reads_atoms: bool = False
    truth: Callable[..., float] = lambda pair, g: pair.z_true
    success: Callable[..., np.ndarray] = lambda est, truth, eps, m: (
        within_multiplicative(est, truth, eps)
    )


ESTIMATORS = {
    "mom": EstimatorMethod(None, _mom_draws, _mom_counts, groups=_mom_groups),
    "quantile": EstimatorMethod(
        "quantile",
        _quantile_draws,
        _quantile_counts,
        # est > M z can pass delta at the quantile plan (ROADMAP item 10)
        success=lambda est, z, eps, m: ((1.0 - eps) * z <= est) & (est <= m * z),
    ),
    "snis": EstimatorMethod(
        "snis", _snis_draws, _snis_counts, reads_atoms=True,
        truth=lambda pair, g: pair.nu_mean(_g_table(g)),
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
# COUNT_ENGINE_RATIO * k * D <= n, for k histograms over the D atoms up
# to the last one with proposal mass. A histogram costs about one
# binomial draw per atom and a batch one uniform and one table search
# per draw. The ratio was set where the two engines once cost the same
# (see CHANGES.md); it is no crossover now: at the cut the count engine
# runs 1.2 to 2.5 times slower than the draw engine (2 000 trials on
# random pairs of 64 to 1 024 atoms, 2 shared CPUs). It stays, because
# moving it changes which engine draws a trial's estimate and so moves
# its stream; it is re-measured with ROADMAP items 21 and 22.
COUNT_ENGINE_RATIO = 1
# run_trials' trials run in ``blocks`` of about this many elements, so
# that a trial's draws do not depend on how many trials a call asks for.
TRIAL_BLOCK_ELEMENTS = 1 << 20


def blocks(seed: int, rows: int, row_elements: int) -> Iterator[tuple]:
    """Walk ``rows`` rows of ``row_elements`` elements in blocks of
    B = max(1, TRIAL_BLOCK_ELEMENTS // row_elements) rows: yield ``(start,
    count, gen)`` for block b, rows start = b B onward, drawn from
    ``gen``, a generator of its own over item b of ``substreams``, keyed
    by ``seed + (b << 64)``. Row t is row t mod B of block t // B."""
    per_block = max(1, TRIAL_BLOCK_ELEMENTS // row_elements)
    starts = range(0, rows, per_block)
    for start, (_, gen) in zip(starts, substreams(seed, len(starts))):
        yield start, min(per_block, rows - start), gen


@dataclass(frozen=True, eq=False)
class TrialRecord:
    """One ``run_trials`` call: trial t's estimate and success flag at
    index t of two arrays, and the n_used and truth they all share."""

    estimates: np.ndarray
    success: np.ndarray
    n_used: int
    truth: float

    @property
    def success_freq(self) -> float:
        return np.count_nonzero(self.success) / self.success.size

    @property
    def rel_errors(self) -> np.ndarray:
        return relative_error(self.estimates, self.truth)


def run_trials(
    pair: DistributionPair, method: str, n: int, trials: int, seed: int,
    eps: float, delta: float, m: Optional[float] = None, g: Optional[np.ndarray] = None,
) -> TrialRecord:
    """Run the estimator ``ESTIMATORS[method]`` on ``trials`` samples of
    n draws and return their record, success judged once on the whole
    array. ``m`` is the plan's level (read by quantile), ``g`` the
    function table (read by snis); the estimator that reads one raises
    ValueError when it is None.

    A trial is n density values (``draw_block``) or, when the support is
    small against n, the estimator's k hit-count histograms over D atoms
    (``count_block``), of the same law. Trials run in ``blocks`` of
    B = max(1, TRIAL_BLOCK_ELEMENTS // e) rows of e = n or k D values,
    each drawn in one call and estimated in one: trial t is row r = t mod
    B of block b = t // B, drawn under the key ``seed + (b << 64)``, so
    its estimate does not depend on the trial count, and it replays as
    the last n draws of ``sample(pair, (r + 1) n, seed + (b << 64))`` or
    the last k of ``sample_counts(pair, size, (r + 1) k, seed + (b <<
    64))``, with (k, size) = ``ESTIMATORS[method].groups(n, delta)``.
    An n or a trial count below 1, or trials past the 64-bit array size
    range, raises ValueError."""
    for name, value in (("n", n), ("trials", trials)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if trials >= 2**63:  # numpy array dimensions are int64
        raise ValueError(f"trials={trials} passes the 64-bit array size range")
    entry = ESTIMATORS[method]
    truth = entry.truth(pair, g)
    k, size = entry.groups(n, delta)
    drawable = pair.last_drawable_atom + 1
    counting = COUNT_ENGINE_RATIO * k * drawable <= n
    estimates = np.empty(trials)
    for start, rows, gen in blocks(seed, trials, k * drawable if counting else n):
        if counting:  # the block is freed as soon as its estimates are taken
            block = entry.from_counts(
                pair, count_block(pair, gen, size, rows, k), eps, delta, m, g
            )
        else:
            if start == 0:  # the first block is the largest; its arrays serve all
                lambdas = np.empty((rows, n))
                atoms = np.empty((rows, n), dtype=np.int64) if entry.reads_atoms else None
            draws = (lambdas[:rows], None if atoms is None else atoms[:rows])
            draw_block(pair, gen, *draws)
            block = entry.estimate(*draws, eps, delta, m, g)
        estimates[start : start + rows] = block
    success = entry.success(estimates, truth, eps, m)
    return TrialRecord(estimates, success, k * size, truth)
