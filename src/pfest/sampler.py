"""Exponential-race sampler.

Each candidate drawn from the proposal gets an arrival time from a
unit-rate Poisson process; dividing arrivals by the unnormalized
density turns the race into one whose winner is approximately
target-distributed. The argmin is invariant to the unknown
normalizer, so the race only ever sees lambda values up to scale.

``astar_sample`` runs one race draw by draw and keeps its trace.
``run_races`` draws each race's winner from the race's exact law
instead (Maddison, Tarlow & Minka, "A* Sampling", NeurIPS 2014).
Given the n-th arrival, the first n - 1 arrivals are i.i.d. uniform
fractions of it, so the race has n - 1 i.i.d. scores U/lambda(X),
X ~ mu, and one score 1/lambda(X_n); the least score wins. Write the
level M = 1/(z s) for a score s. One score falls below s with
probability q(M) = mu_tail(M) + nu(ratio < M)/M, which is linear in
1/M between the ratio levels. So the least of the n - 1 scores sits
at the level M* solving q(M*) = 1 - V^(1/(n - 1)), V uniform; the
draw holding it is an atom of ratio below M*, drawn in proportion to
nu; and X_n wins iff its ratio exceeds M*. A race costs three uniforms
and O(log S) work whatever its length n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .coverage import CoverageProfile, PlanResult, _plan_size, min_coverage_threshold
from .distributions import DistributionPair, draw_atoms
from .errors import AllNullDrawsError
from .rng import standard_exponential, substreams

# Races and run_trials' trials run in ``blocks`` of about this many elements,
# so that a row's draws do not depend on how many rows a call asks for.
RACE_CHUNK_ELEMENTS = 1 << 20
# run_races maps a block's races this many rows of uniforms at a time, so
# that a chunk's temporaries stay in cache (measured, see CHANGES.md).
RACE_ROW_CHUNK = 1 << 13
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
    atoms, scores = _race_block(pair, gen, n)
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


def _race_block(
    pair: DistributionPair, gen: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Atoms and scores, shape (n,), of the race of length n drawn from
    ``gen``. The arrivals are summed and divided in place, so the scores
    take their buffer."""
    if n >= 2**63:  # numpy array dimensions are int64
        raise ValueError(f"a race of n={n} draws passes the 64-bit array size range")
    atoms = draw_atoms(pair, gen.random(n))
    scores = standard_exponential(gen, n)
    np.cumsum(scores, out=scores)
    # a race mostly holds more draws than there are atoms, so a lookup
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


class _RaceLaw(NamedTuple):
    """The tables of the race's law over the P atoms with positive
    density, in decreasing order of ratio r_0 >= ... >= r_{P-1} > 0.

    With the first j atoms at or above the level M (so M lies in
    (r_j, r_{j-1}]), q(M) = ``mu_above[j]`` + ``nu_below[j]`` / M.
    ``breaks[j]`` is q(r_j), increasing in j; ``lo[j]`` = r_j and
    ``hi[j]`` = r_{j-1} bound the segment, with r_P = 0 and r_{-1} =
    inf. ``nu_cum`` is the cumulative target mass over ``atoms_up``, the
    atoms in increasing order of ratio (ties in index order) followed by
    the null index S; the P - j atoms below M are its first P - j."""

    breaks: np.ndarray
    mu_above: np.ndarray
    nu_below: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    nu_cum: np.ndarray
    atoms_up: np.ndarray

    @classmethod
    def build(cls, pair: DistributionPair) -> "_RaceLaw":
        # the law is the same for lambda at any scale, so the tables read
        # the ratio lambda/z: finite on every atom with mass, where
        # lambda itself can overflow
        mu, nu = pair.mu_weights, pair.nu_weights
        live = np.flatnonzero((mu > 0) & (nu > 0))
        atoms_up = live[np.argsort(pair.ratio_cache[live], kind="stable")]
        down = atoms_up[::-1]
        r = pair.ratio_cache[down]
        nu_cum = np.cumsum(nu[atoms_up])
        nu_below = np.concatenate(([0.0], nu_cum))[::-1]
        mu_above = np.concatenate(([0.0], np.cumsum(mu[down])))
        # tied ratios make zero-length segments: rounding must not leave
        # the breakpoints out of order there
        breaks = np.maximum.accumulate(mu_above[:-1] + nu_below[:-1] / r)
        return cls(
            breaks=breaks,
            mu_above=mu_above,
            nu_below=nu_below,
            lo=np.append(r, 0.0),
            hi=np.concatenate(([np.inf], r)),
            nu_cum=nu_cum,
            atoms_up=np.append(atoms_up, pair.support_size),
        )

    def winners(self, pair: DistributionPair, u: np.ndarray, n: int) -> np.ndarray:
        """Winning atoms of the races of length n whose three uniforms
        (V, W, Y) are the rows of ``u``, S for a null race: the level M*
        from V, the draw holding it from W, X_n from Y."""
        v, w, y = u.T
        if n == 1:
            # no first n - 1 draws: their least score is inf, M* = 0
            seg = np.full(len(u), len(self.breaks))
            level = np.zeros(len(u))
        else:
            # q(M*) = p = 1 - V^(1/(n - 1)); 1 - V is uniform on (0, 1],
            # so its log is finite; where 1/(n - 1) underflows to 0, so
            # does p, and M* is inf
            p = np.log1p(-v)
            p *= 1 / (n - 1)
            np.expm1(p, out=p)
            np.negative(p, out=p)
            seg = np.searchsorted(self.breaks, p, side="right")
            p -= self.mu_above[seg]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                level = np.divide(self.nu_below[seg], p, out=p)
            # fmax drops the nan of 0/0: M* clamps into its segment
            np.fmax(level, self.lo[seg], out=level)
            np.fmin(level, self.hi[seg], out=level)
        # the draw holding S* has ratio below M*, in proportion to nu;
        # with no atom below M*, index -1 is the null index
        at = np.searchsorted(self.nu_cum, w * self.nu_below[seg], side="right")
        np.minimum(at, len(self.breaks) - seg - 1, out=at)
        last = draw_atoms(pair, y)
        return np.where(pair.ratio_cache[last] > level, last, self.atoms_up[at])


def run_races(
    pair: DistributionPair, n: int, trials: int, master_seed: int
) -> RaceSummary:
    """Repeat the race of length n `trials` times and tally winners;
    null races (every draw at zero density) are counted, not raised.
    Each race's winner is drawn from the race's exact law (module
    docstring) from three uniforms, so every n >= 1 runs at one cost.
    Races run in blocks of about RACE_CHUNK_ELEMENTS uniforms, block b on
    the Philox stream keyed by ``master_seed + (b << 64)`` (``blocks``),
    which draws its races' rows of three uniforms RACE_ROW_CHUNK rows at
    a time: race t is row t mod B of block t // B, B = 2^20 // 3."""
    _check_race_length(n)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    law = _RaceLaw.build(pair)
    counts = np.zeros(pair.support_size + 1, dtype=np.int64)
    for _, rows, gen in blocks(master_seed, trials, 3):
        for start in range(0, rows, RACE_ROW_CHUNK):
            u = gen.random((min(RACE_ROW_CHUNK, rows - start), 3))
            counts += np.bincount(law.winners(pair, u, n), minlength=len(counts))
    return RaceSummary(
        counts=counts[:-1], null_races=int(counts[-1]), trials=trials, n_per_race=n
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
