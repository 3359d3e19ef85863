"""Exponential-race sampler.

Each candidate drawn from the proposal gets an arrival time from a
unit-rate Poisson process; dividing arrivals by the unnormalized
density turns the race into one whose winner is approximately
target-distributed. The argmin is invariant to the unknown
normalizer, so the race only ever sees lambda values up to scale.

``astar_sample`` runs one race draw by draw and keeps its trace.
``run_races`` never draws a race: it tallies the winners of its races
in one multinomial draw over the race's exact law, ``race_law``
(Maddison, Tarlow & Minka, "A* Sampling", NeurIPS 2014). Given the n-th
arrival, the first n - 1 arrivals are i.i.d. uniform fractions of it,
so the race has n - 1 i.i.d. scores U/lambda(X), X ~ mu, and one score
1/lambda(X_n); the least score wins. Write the level M = 1/(z s) for a
score s. One score falls below s with probability q(M) = mu_tail(M) +
nu(ratio < M)/M, which is linear in 1/M between the ratio levels. The
least of the n - 1 scores sits at a level M* with P[M* <= M] = (1 -
q(M))^(n - 1); the draw holding it is an atom of ratio below M*, in
proportion to nu; and X_n wins iff its ratio exceeds M*. Summed over
the segments between the ratio levels, that gives every atom's chance
to win in O(S) work whatever n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coverage import CoverageProfile, PlanResult, TailPlanner, _log_quotient, _plan_size
from .coverage import _suffix_sums, min_coverage_threshold
from .distributions import DistributionPair, draw_atoms
from .errors import AllNullDrawsError
from .rng import substreams

# Planner: n = ceil(SAMPLING_PLAN_CONSTANT * M * ln(3/eps)).
SAMPLING_PLAN_CONSTANT = 2.0


@dataclass(frozen=True, eq=False)
class RaceState:
    """Full trace of one race, kept for inspection and tests."""

    atoms: np.ndarray
    scores: np.ndarray
    best_index: int
    best_score: float


@dataclass(frozen=True, eq=False)
class RaceSummary:
    """Winner counts over repeated races; null races are ones where
    every drawn atom had zero density."""

    counts: np.ndarray
    null_races: int
    trials: int
    n_per_race: int


def astar_sample(pair: DistributionPair, n: int, seed: int) -> tuple[int, RaceState]:
    """Run one race of length n and return the winning atom index.

    Atoms are drawn from the proposal, arrival times are cumulative
    sums of Exp(1) increments, and the winner minimizes arrival over
    density. The trace's scores are arrival over lambda = z ratio; the
    winner is picked on arrival over ratio, as ``race_law`` reads it,
    so a z that takes the scores past the float range (best_score then
    reads inf) does not change it. Zero-density atoms score +inf; ties
    go to the earliest draw. Raises AllNullDrawsError when no draw has
    positive density.
    """
    _check_race_length(n)
    # item 0 of a 64-bit seed: the stream keyed by the seed itself
    _, gen = next(substreams(seed, 1))
    if n >= 2**63:  # numpy array dimensions are int64
        raise ValueError(f"a race of n={n} draws passes the 64-bit array size range")
    atoms = draw_atoms(pair, gen.random(n))
    arrivals = gen.random(n)  # Exp(1) as -log1p(-U), summed in place
    np.negative(arrivals, out=arrivals)
    np.log1p(arrivals, out=arrivals)
    np.negative(arrivals, out=arrivals)
    np.cumsum(arrivals, out=arrivals)
    ratio = pair.ratio_cache[atoms]
    scores = ratio * pair.z_true  # lambda_at(atoms), divided in place
    live, null = scores > 0, ratio == 0
    with np.errstate(over="ignore"):
        np.divide(arrivals, scores, out=scores, where=live)
        keys = np.divide(arrivals, ratio, out=arrivals, where=~null)
    scores[~live] = np.inf
    keys[null] = np.inf
    best = int(np.argmin(keys))
    if math.isinf(keys[best]):
        raise AllNullDrawsError(
            f"all {n} draws landed on zero-density atoms; the race has no winner"
        )
    state = RaceState(
        atoms=atoms, scores=scores, best_index=best, best_score=float(scores[best])
    )
    return int(atoms[best]), state


def _check_race_length(n: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")


def race_law(pair: DistributionPair, n: int) -> tuple[np.ndarray, float]:
    """The exact law of the winner of the race of length n on ``pair``:
    the probability that each atom wins, shape (S,), and the probability
    that the race is null.

    Over the P atoms with positive density, in decreasing order of ratio
    r_0 >= ... >= r_{P-1}, take M in segment j, (r_j, r_{j-1}] (r_{-1} =
    inf): then q(M) = A_j + N_j / M, with A_j the proposal mass of atoms
    0 .. j - 1 and N_j the target mass of atoms j .. P - 1. The level M*
    of the least of the first n - 1 scores has F(M) = P[M* <= M] =
    (1 - q(M))^(n - 1). X_n wins at atom a with probability mu_a F(r_a).
    The draw holding M* is an atom below M*, in proportion to nu, and it
    wins when X_n lies at or below M*, which has proposal mass 1 - A_j;
    so it wins at atom a with probability nu_a times the sum over the
    segments j <= a of (F(r_{j-1}) - F(r_j)) (1 - A_j) / N_j, one
    cumulative sum for every atom. The race is null with probability
    mu0^n, mu0 the proposal mass of the drawable atoms of zero density.
    The order is the pair's ``ratio_order``, sorted once per pair; then
    O(S), whatever n.

    (1 - q)^(n - 1) is exp(-exp(ln(-ln(1 - q)) + ln(n - 1))), with
    ln(n - 1) taken of the integer, so n may pass the int64 and the float
    range. -ln(1 - q) is -log1p(-q) where q < 1/2, and -ln of 1 - q
    summed from the masses below the level where q >= 1/2, so that
    neither side loses its digits to 1 - q. The law reads the ratio, not
    lambda = z ratio; it is the same at any scale."""
    _check_race_length(n)
    mu, nu = pair.mu_weights, pair.nu_weights
    down = pair.ratio_order[((mu > 0) & (nu > 0))[pair.ratio_order]]
    r, mu_d, nu_d = pair.ratio_cache[down], mu[down], nu[down]
    mu0 = float(mu[nu == 0].sum())
    nu_below = _suffix_sums(nu_d)[:-1]
    # 1 - A_j: the proposal mass at or below r_j, null atoms included
    mu_below = _suffix_sums(mu_d)[:-1] + mu0
    # q(r_j) and 1 - q(r_j) for j = 0 .. P - 1, then at M = 0+, where
    # every draw of positive density scores below the level
    q = np.concatenate(([0.0], np.cumsum(mu_d))) + np.append(nu_below / r, 0.0)
    s = np.append(mu_below - nu_below / r, mu0)
    # q = 0 gives F = 1 and 1 - q = 0 gives F = 0 (n > 1), through the
    # infinities of the logs; the clips keep rounding off the logs' domain
    with np.errstate(divide="ignore", over="ignore"):
        neg_log = np.where(
            q < 0.5, -np.log1p(-np.minimum(q, 0.5)), -np.log(np.maximum(s, 0.0))
        )
        # F falls from each level to the next; rounding, as at tied
        # levels, must not make a segment's mass negative
        np.maximum.accumulate(neg_log, out=neg_log)
        if n == 1:
            f = np.ones_like(neg_log)
        else:
            f = np.exp(-np.exp(np.log(neg_log) + math.log(n - 1)))
    held = -np.diff(f[:-1], prepend=1.0) * mu_below / nu_below
    law = np.zeros(pair.support_size)
    law[down] = mu_d * f[:-1] + nu_d * np.cumsum(held)
    return law, mu0 * float(f[-1])


def exact_tv(pair: DistributionPair, n: int) -> float:
    """Total variation between the race's winner law at length n and the
    target, summed from the per-atom deviations as ``empirical_tv`` sums
    the frequencies'."""
    return _tv_to_target(*race_law(pair, n), pair)


def run_races(
    pair: DistributionPair, n: int, trials: int, master_seed: int
) -> RaceSummary:
    """Repeat the race of length n `trials` times and tally winners;
    null races (every draw at zero density) are counted, not raised.
    The races are i.i.d., so their winner counts are one
    Multinomial(trials, ``race_law(pair, n)``) draw, from the generator
    of item 0 of ``substreams(master_seed, 1)`` (the stream keyed by the
    seed itself, as in ``astar_sample``): O(S) whatever n and trials.
    The categories are the atoms of positive law, then null when it has
    positive law, with the most likely one moved last, since numpy's
    multinomial hands the last category whatever count the others leave:
    no atom of zero law wins, and a pair without drawable zero-density
    mass never reports a null race."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if trials >= 2**63:  # numpy's multinomial counts are int64
        raise ValueError(f"trials={trials} races pass the 64-bit count range")
    law, null = race_law(pair, n)
    p = np.append(law, null)
    cats = np.flatnonzero(p)
    last = cats[np.argmax(p[cats])]
    cats = np.append(cats[cats != last], last)
    _, gen = next(substreams(master_seed, 1))
    counts = np.zeros(pair.support_size + 1, dtype=np.int64)
    counts[cats] = gen.multinomial(trials, p[cats])
    return RaceSummary(
        counts=counts[:-1], null_races=int(counts[-1]), trials=trials, n_per_race=n
    )


def empirical_tv(summary: RaceSummary, pair: DistributionPair) -> float:
    """Total variation between the winner frequencies and the target.

    Null races are phantom mass the target does not have, so they
    contribute their full rate to the L1 sum.
    """
    return _tv_to_target(
        summary.counts / summary.trials, summary.null_races / summary.trials, pair
    )


def _tv_to_target(winners: np.ndarray, null: float, pair: DistributionPair) -> float:
    """Total variation between a winner law with null mass ``null`` and
    the target."""
    return 0.5 * (float(np.abs(winners - pair.nu_weights).sum()) + null)


def _check_race_eps(eps: float) -> None:
    if not 0 < eps < 3:
        raise ValueError(f"eps must be in (0, 3), got {eps}")


def plan_n_sampling(m: float, eps: float) -> int:
    """Race length for TV error at most eps given a level M whose
    coverage is at most eps/3: n = ceil(2 M ln(3/eps)), at least 1, an
    exact int even where 2 M ln(3/eps) passes the float range."""
    if not m >= 1:
        raise ValueError(f"m must be >= 1, got {m}")
    _check_race_eps(eps)
    return _plan_size(SAMPLING_PLAN_CONSTANT, m, _log_quotient(3.0, eps), eps, 0)


def _race_coverage(eps: float) -> float:
    """The coverage the race's level M must meet: eps/3."""
    return eps / 3.0


def sampling_plan(profile: CoverageProfile, eps: float) -> PlanResult:
    """Race length n and level M for TV error at most eps: M is the
    smallest level, at least 1, with coverage at most eps/3. A TV
    guarantee, so no delta enters."""
    _check_race_eps(eps)
    m = max(1.0, min_coverage_threshold(profile, _race_coverage(eps)))
    return PlanResult(
        plan_n_sampling(m, eps), m, {"plan_constant": SAMPLING_PLAN_CONSTANT}
    )


def race_plan(tail: TailPlanner, eps: float) -> PlanResult:
    """``sampling_plan`` on the profiles of ``tail``'s pair, its first
    block sized from the coverage target eps/3. ``pfest sample``, the
    "sampling" plan and the harness's sampling-vs-counting rows all
    plan the race here."""
    _check_race_eps(eps)
    return tail.plan(lambda profile: sampling_plan(profile, eps), coverage=_race_coverage(eps))
