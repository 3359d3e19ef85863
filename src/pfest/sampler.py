"""Exponential-race sampler.

Each candidate drawn from the proposal gets an arrival time from a
unit-rate Poisson process; dividing arrivals by the unnormalized
density turns the race into one whose winner is approximately
target-distributed. The argmin is invariant to the unknown
normalizer, so the race only ever sees lambda values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .coverage import CoverageProfile, PlanResult, _plan_size, min_coverage_threshold
from .distributions import DistributionPair, draw_atoms
from .errors import AllNullDrawsError
from .rng import standard_exponential, substreams

# Races and run_trials' trials run in ``blocks`` of about this many elements,
# so that a row's draws do not depend on how many rows a call asks for.
RACE_CHUNK_ELEMENTS = 1 << 20
# Planner: n = ceil(SAMPLING_PLAN_CONSTANT * M * ln(3/eps)).
SAMPLING_PLAN_CONSTANT = 2.0


@dataclass(frozen=True)
class RaceState:
    """Full trace of one race, kept for inspection and tests."""

    atoms: np.ndarray
    scores: np.ndarray
    best_index: int
    best_score: float


@dataclass(frozen=True)
class RaceSummary:
    """Winner counts over repeated races; null races are ones where
    every drawn atom had zero density."""

    counts: np.ndarray
    null_races: int
    trials: int
    n_per_race: int


def _scores(arrivals: np.ndarray, lam: np.ndarray) -> np.ndarray:
    out = np.full(arrivals.shape, np.inf)
    np.divide(arrivals, lam, out=out, where=lam > 0)
    return out


def astar_sample(pair: DistributionPair, n: int, seed: int) -> tuple[int, RaceState]:
    """Run one race of length n and return the winning atom index.

    Atoms are drawn from the proposal, arrival times are cumulative
    sums of Exp(1) increments, and the winner minimizes arrival over
    density. Zero-density atoms score +inf; ties go to the earliest
    draw. Raises AllNullDrawsError when no draw has positive density.
    """
    _check_race_length(n)
    # item 0 of a 64-bit seed: the stream keyed by the seed itself
    _, gen = next(substreams(seed, 1))
    atoms, scores = _race_block(pair, gen, 1, n)
    atoms, scores = atoms[0], scores[0]
    best = int(np.argmin(scores))
    if math.isinf(scores[best]):
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
    if n >= 2**63:  # numpy array dimensions are int64
        raise ValueError(f"a race of n={n} draws passes the 64-bit array size range")


def _race_block(
    pair: DistributionPair, gen: np.random.Generator, rows: int, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Atoms and scores, shape (rows, n), of the ``rows`` races of
    length n drawn from ``gen``. The arrivals are summed and divided in
    place, so the scores take their buffer."""
    atoms = draw_atoms(pair, gen.random((rows, n)))
    scores = standard_exponential(gen, (rows, n))
    np.cumsum(scores, axis=1, out=scores)
    # a block mostly holds more draws than there are atoms, so a lookup
    # in the cached per-pair table is the cheaper gather
    lam = pair.lambda_drawn[atoms]
    if lam.min() > 0:
        np.divide(scores, lam, out=scores)
    else:
        scores = _scores(scores, lam)
    return atoms, scores


def blocks(seed: int, rows: int, row_elements: int) -> Iterator[tuple]:
    """Walk ``rows`` rows of ``row_elements`` elements in blocks of
    B = max(1, RACE_CHUNK_ELEMENTS // row_elements) rows: yield ``(start,
    count, gen)`` for block b, rows start = b B onward, drawn from
    ``gen``, a generator of its own over item b of ``substreams``, keyed
    by ``seed + (b << 64)``. Row t is row t mod B of block t // B."""
    per_block = max(1, RACE_CHUNK_ELEMENTS // row_elements)
    starts = range(0, rows, per_block)
    for start, (_, gen) in zip(starts, substreams(seed, len(starts))):
        yield start, min(per_block, rows - start), gen


def _winners(atoms: np.ndarray, scores: np.ndarray) -> tuple[np.ndarray, int]:
    """Winning atoms of a block's races, with their null races left
    out, and the number of null races."""
    race = np.arange(len(scores))
    best = np.argmin(scores, axis=1)
    alive = np.isfinite(scores[race, best])
    return atoms[race, best][alive], len(scores) - int(alive.sum())


def run_races(
    pair: DistributionPair, n: int, trials: int, master_seed: int
) -> RaceSummary:
    """Repeat the race `trials` times and tally winners; null races are
    counted, not raised. Races run in blocks of about
    RACE_CHUNK_ELEMENTS draws, one block at a time, block b on the
    Philox stream keyed by ``master_seed + (b << 64)`` (``blocks``)."""
    _check_race_length(n)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    counts = np.zeros(pair.support_size, dtype=np.int64)
    null_races = 0
    for _, rows, gen in blocks(master_seed, trials, n):
        # the block's arrays are freed here, before the next block draws
        winners, nulls = _winners(*_race_block(pair, gen, rows, n))
        null_races += nulls
        counts += np.bincount(winners, minlength=pair.support_size)
    return RaceSummary(
        counts=counts, null_races=null_races, trials=trials, n_per_race=n
    )


def empirical_tv(summary: RaceSummary, pair: DistributionPair) -> float:
    """Total variation between the winner frequencies and the target.

    Null races are phantom mass the target does not have, so they
    contribute their full rate to the L1 sum.
    """
    freq = summary.counts / summary.trials
    err = summary.null_races / summary.trials
    return 0.5 * (float(np.abs(freq - pair.nu_weights).sum()) + err)


def _check_race_eps(eps: float) -> None:
    if not 0 < eps < 3:
        raise ValueError(f"eps must be in (0, 3), got {eps}")


def plan_n_sampling(m: float, eps: float) -> int:
    """Race length for TV error at most eps given a level M whose
    coverage is at most eps/3: n = ceil(2 M ln(3/eps)), at least 1, an
    exact int even where 2 M ln(3/eps) passes the float range."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    _check_race_eps(eps)
    return _plan_size(SAMPLING_PLAN_CONSTANT, m, math.log(3.0 / eps), eps, 0)


def sampling_plan(profile: CoverageProfile, eps: float) -> PlanResult:
    """Race length n and level M for TV error at most eps: M is the
    smallest level, at least 1, with coverage at most eps/3. A TV
    guarantee, so no delta enters."""
    _check_race_eps(eps)
    m = max(1.0, min_coverage_threshold(profile, eps / 3.0))
    return PlanResult(
        plan_n_sampling(m, eps), m, {"plan_constant": SAMPLING_PLAN_CONSTANT}
    )
