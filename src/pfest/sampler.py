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
to win in O(S) work whatever n. All of it but the n-th powers is the
same for every n, so a pair's ``race_table`` holds that part from the
pair's first race on, and each n costs two exp passes over it.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .coverage import CoverageProfile, PlanResult, TailPlanner, _log_quotient, _plan_size
from .coverage import min_coverage_threshold
from .distributions import DistributionPair, _freeze, draw_atoms
from .errors import AllNullDrawsError
from .rng import _check_count, substreams

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
    n = _check_count("n", n)
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


class RaceTable(NamedTuple):
    """The part of a pair's race law that does not depend on n, over the
    P atoms with both masses in decreasing order of ratio, r_0 >= ... >=
    r_{P-1}: their masses ``mu`` and ``nu``, ``mu_below`` (1 - A_j, the
    proposal mass at or below r_j, null atoms included), ``nu_below``
    (N_j), and ``log_neg_log``, ln(-ln(1 - q)) at r_0 .. r_{P-1} and then
    at M = 0+, after its running maximum. ``slot`` gives each atom's
    place j in that order, and P for an atom without both masses;
    ``mu0`` is the proposal mass of the drawable atoms of zero density.
    Its arrays are read-only."""

    slot: np.ndarray
    mu: np.ndarray
    nu: np.ndarray
    mu_below: np.ndarray
    nu_below: np.ndarray
    log_neg_log: np.ndarray
    mu0: float


# F = exp(-exp(x)) at x = ln(-ln(1 - q)) + ln(n - 1) >= 7 is at most
# exp(-1096), which is 0 in float64 (the least subnormal is about
# exp(-744.4)). log_neg_log is the log of a running maximum, so such
# levels are a suffix, found by bisection; where rounding of the log
# breaks ties, the levels it puts on the wrong side have x within a few
# ulps of 7, where F is 0 as well. A subnormal or vanishing result is the
# slow case of numpy's exp.
_ZERO_F_EXPONENT = 7.0

# A pair's race table, built on its first race_law call and freed with
# it; pairs hash by identity
_RACE_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def race_table(pair: DistributionPair) -> RaceTable:
    """``pair``'s race table, built on the first call for the pair and
    kept with it: about six arrays over the support."""
    table = _RACE_TABLES.get(pair)
    if table is None:
        table = _RACE_TABLES[pair] = _build_race_table(pair)
    return table


def _build_race_table(pair: DistributionPair) -> RaceTable:
    mu, nu = pair.mu_weights, pair.nu_weights
    down = pair.ratio_order
    if pair.positive:  # every atom is in the race and none is null
        mu0 = 0.0
        slot = np.empty(pair.support_size, dtype=np.intp)
    else:
        down = down[((mu > 0) & (nu > 0))[down]]
        mu0 = float(mu[nu == 0].sum())
        slot = np.full(pair.support_size, down.size, dtype=np.intp)
    p = down.size
    slot[down] = np.arange(p)
    # mu and nu in ratio order, then 1 - A_j and N_j, their suffix sums;
    # add.accumulate is cumsum without its wrapper, whose microseconds
    # count on small pairs
    masses = np.empty((4, p))
    mu.take(down, out=masses[0])
    nu.take(down, out=masses[1])
    np.add.accumulate(masses[1::-1, ::-1], axis=1, out=masses[:1:-1, ::-1])
    if mu0:
        masses[2] += mu0
    mu_d, nu_d, mu_below, nu_below = _freeze(masses)
    # q(r_j) and 1 - q(r_j) for j = 0 .. P - 1, then at M = 0+, where
    # every draw of positive density scores below the level
    q, s = np.empty(p + 1), np.empty(p + 1)
    q[0] = 0.0
    np.add.accumulate(mu_d, out=q[1:])
    level = pair.ratio_cache.take(down, out=s[:p])
    nu_r = np.divide(nu_below, level, out=level)
    q[:p] += nu_r
    np.subtract(mu_below, nu_r, out=nu_r)
    s[p] = mu0
    # -ln(1 - q) is -log1p(-q) below q = 1/2 and -ln(s) from there on;
    # q = 0 gives F = 1 and 1 - q = 0 gives F = 0 (n > 1), through the
    # infinities of the logs; the clips keep rounding off the logs' domain
    low = q < 0.5
    np.minimum(q, 0.5, out=q)
    np.negative(q, out=q)
    np.log1p(q, out=q)
    np.maximum(s, 0.0, out=s)
    with np.errstate(divide="ignore"):
        np.log(s, out=s)
        np.copyto(s, q, where=low)
        np.negative(s, out=s)
        # F falls from each level to the next; rounding, as at tied
        # levels, must not make a segment's mass negative
        np.maximum.accumulate(s, out=s)
        np.log(s, out=s)
    return RaceTable(_freeze(slot), mu_d, nu_d, mu_below, nu_below, _freeze(s), mu0)


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

    Everything but F is the same for every n: the pair's ``race_table``,
    built on the pair's first ``race_law``, ``exact_tv`` or ``run_races``
    call from its ``ratio_order`` and kept with the pair, about six
    arrays over the support, some 12 MB at 2^18 atoms. Each n then costs
    two exp passes, the segment differences and one cumulative sum, all
    only up to the first level where F is 0, and one pass for the atoms
    past it and one gather into atom order: O(S), whatever n.

    (1 - q)^(n - 1) is exp(-exp(ln(-ln(1 - q)) + ln(n - 1))), with
    ln(n - 1) taken of the integer, so n may pass the int64 and the float
    range. -ln(1 - q) is -log1p(-q) where q < 1/2, and -ln of 1 - q
    summed from the masses below the level where q >= 1/2, so that
    neither side loses its digits to 1 - q. The law reads the ratio, not
    lambda = z ratio; it is the same at any scale. A non-integer n
    raises a ValueError."""
    n = _check_count("n", n)
    table = race_table(pair)
    size, p = pair.support_size, table.mu.size
    # one allocation: the law, then F above the top level (1), at r_0 ..
    # r_{P-1} and at M = 0+
    buf = np.empty(size + p + 2)
    law, f = buf[:size], buf[size:]
    f[0] = 1.0
    levels = f[1:]
    if n == 1:
        levels.fill(1.0)
        live = p + 1
    else:
        log_n = math.log(n - 1)
        # past the levels where ln(-ln(1 - q)) + ln(n - 1) reaches
        # _ZERO_F_EXPONENT, F is 0 without its exp passes
        live = int(table.log_neg_log.searchsorted(_ZERO_F_EXPONENT - log_n))
        f_live = levels[:live]
        np.add(table.log_neg_log[:live], log_n, out=f_live)
        np.exp(f_live, out=f_live)
        np.negative(f_live, out=f_live)
        np.exp(f_live, out=f_live)
        levels[live:] = 0.0
    null = table.mu0 * float(f[-1])
    # the law's buffer holds the segments' terms until the law is taken.
    # F is 0 at both ends of every segment past ``live``: from there each
    # term is 0, the running sum keeps its last value and F mu is 0, so
    # an atom's chance to win is that value times its nu
    at_atoms = f[1:-1]
    k = min(live + 1, p)
    held = np.subtract(f[:k], at_atoms[:k], out=law[:k])
    held *= table.mu_below[:k]
    held /= table.nu_below[:k]
    np.add.accumulate(held, out=held)
    if k < p:
        np.multiply(table.nu[k:], held[-1], out=at_atoms[k:])
    held *= table.nu[:k]
    # each atom's chance to win, then 0 for the atoms without both masses
    at_atoms = at_atoms[:k]
    at_atoms *= table.mu[:k]
    at_atoms += held
    levels[-1] = 0.0
    return levels.take(table.slot, out=law), null


def exact_tv(pair: DistributionPair, n: int) -> float:
    """Total variation between the race's winner law at length n and the
    target, summed from the per-atom deviations as ``empirical_tv`` sums
    the frequencies'. The first call on a pair builds its race table
    (see ``race_law``); each later n costs two exp passes over it."""
    return _tv_to_target(*race_law(pair, n), pair)


def run_races(
    pair: DistributionPair, n: int, trials: int, master_seed: int
) -> RaceSummary:
    """Repeat the race of length n `trials` times and tally winners;
    null races (every draw at zero density) are counted, not raised.
    The races are i.i.d., so their winner counts are one
    Multinomial(trials, ``race_law(pair, n)``) draw, from the generator
    of item 0 of ``substreams(master_seed, 1)`` (the stream keyed by the
    seed itself, as in ``astar_sample``): O(S) whatever n and trials,
    the n-free part of the law read from the pair's race table, built on
    its first call (see ``race_law``). A non-integer n or trials raises
    a ValueError.
    The categories are the atoms of positive law, then null when it has
    positive law, with the most likely one moved last, since numpy's
    multinomial hands the last category whatever count the others leave:
    no atom of zero law wins, and a pair without drawable zero-density
    mass never reports a null race."""
    n, trials = _check_count("n", n), _check_count("trials", trials)
    if trials >= 2**63:  # numpy's multinomial counts are int64
        raise ValueError(f"trials={trials} races pass the 64-bit count range")
    law, null = race_law(pair, n)
    chances = np.concatenate((law, (null,)))
    cats = chances.nonzero()[0]
    top = int(chances[cats].argmax())
    last = cats[top]
    cats[top:-1] = cats[top + 1:]
    cats[-1] = last
    _, gen = next(substreams(master_seed, 1))
    counts = np.zeros(pair.support_size + 1, dtype=np.int64)
    counts[cats] = gen.multinomial(trials, chances[cats])
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
    the target; ``winners`` is overwritten."""
    deviation = np.subtract(winners, pair.nu_weights, out=winners)
    return 0.5 * (float(np.abs(deviation, out=deviation).sum()) + null)


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
