"""Exact coverage profiles and the tail bounds planners are built on.

The coverage of a pair at level M is the target mass sitting at density
ratio M or above; integrating it from 0 to M gives the integrated
coverage, which on a finite pair collapses to the exact expectation
E_nu[min(ratio, M)] plus M times any singular mass. Planners consume
two inverse queries: the smallest M whose normalized integrated
coverage drops below a target, and the smallest M whose coverage drops
below a target. Both are exact on the step profile, with no tolerance.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from .distributions import DistributionPair, _freeze, descending_order, ordered_dot
from .divergences import FGenerator, _least_float, gamma_f
from .errors import InfeasiblePlanError, SingularPairError

# Every planner, the race sampler's included, sizes n with _plan_size.
# Below 2^53 the float budget is exact enough to round up directly;
# above it n is an integer built from ln n. Past ln n = LOG_N_MAX (n
# beyond 10^4000, which also passes the 4300 digits Python writes out by
# default) no sample of that size can be drawn, and the plan is reported
# infeasible.
FLOAT_EXACT_INT_MAX = 2**53
LOG_N_MAX = 4000 * math.log(10.0)

# TailPlanner first resolves the TAIL_FIRST_TOP atoms of highest ratio,
# or, for a plan that names its coverage target, the block the strided
# sample (below) puts that target's mass in. It builds a block
# only from a pair at least TAIL_SPARSE times as wide as the block, and
# the complete profile otherwise: on a narrower pair the selection and
# the sums over the support cost more than the full sort they replace.
# Measured on random pairs, 2 shared CPUs, coverage plan at eps 0.3
# (medians of 15, interleaved): a 1 024-atom block takes 189 us at
# 2 048 atoms, where the complete profile takes 174 us, and 196 against
# 222 us at 4 096 atoms.
#
# A plan that reads below a block widens it TAIL_GROWTH times, whether
# or not it names its target: only the first block is sized. A block's
# cut and that size read the strided sample of every TAIL_STEP-th atom.
# On the 2^18-atom random pair (best of 7) a 1 024-atom block took
# 743 us at TAIL_STEP 32 and 751 to 782 us at 16, 64 and 128 (the
# comparison pass and the sums over the support dominate), 966 us at 8,
# and 1 100 us with a partition of the whole support. A count k of
# sampled atoms is widened to _with_margin(k): k plus TAIL_SIGMAS
# binomial standard deviations plus TAIL_SLACK. Over about 850 cuts of
# 1 024 to 5 120 atoms on random pairs of 8 192 to 2^17 atoms, fewer
# than top atoms reached the bound 453 times with no margin, 26 times at
# 2 deviations, twice at 3 and never with the slack of 8 added
# (candidates 1.48 times the block, in the median); over 800 quantile
# and sampling plans on pairs of 2^14 to 2^18 atoms, no sized block fell
# short with the margin, and 43 did without it.
#
# The sampled bound pays where the candidates are a small share of the
# support, so it is taken only where the sample holds at least
# TAIL_SAMPLED_SHARE times k atoms, and every atom is a candidate
# otherwise. Medians of 9, random pairs, a partition of every atom
# against the sampled bound: a 1 024-atom block took 26.7 against
# 34.9 us at 4 096 atoms (sample 2.25 times k), 37.8 against 39.6 us at
# 8 192 (4.5 times k) and 59.2 against 50.9 us at 16 384; a 4 096-atom
# block 70.7 against 75.8 us at 16 384 (3.0 times k), 104.4 against
# 102.0 us at 24 576 (4.5 times k) and 333 against 278 us at 65 536.
TAIL_FIRST_TOP = 1024
TAIL_GROWTH = 4
TAIL_SPARSE = 4
TAIL_STEP = 32
TAIL_SIGMAS = 3.0
TAIL_SLACK = 8
TAIL_SAMPLED_SHARE = 4
# A block is sized from the strided sample only on a pair wide enough
# for a block wider than TAIL_FIRST_TOP: on a narrower pair the choice
# is that block or the complete profile whatever the sample says, and
# taking the sample costs as much as the remainder sums the first block
# skips (about 10 us each at 4 096 atoms, 2 shared CPUs).
TAIL_SIZED_MIN = 2 * TAIL_SPARSE * TAIL_FIRST_TOP


class _BelowBlock(ValueError):
    """A partial profile was asked about levels below its lowest one."""


@dataclass(frozen=True, eq=False)
class CoverageProfile:
    """Sorted distinct finite density-ratio levels with the target and
    proposal mass sitting exactly at each level.

    Target mass on proposal-null atoms is carried separately in
    ``singular_mass``: its ratio is infinite, so it counts toward the
    coverage at every finite level.

    A partial profile (``from_pair`` with ``top``, on a pair where every
    atom has both masses) resolves only the highest levels; ``_partial``
    is set on it, and on no other profile. A query at or above its
    lowest level is exact and one below it raises ValueError. The atoms
    it leaves out enter only through ``nu_r_below``, their target mass
    times their ratios summed, which is 0.0 on a complete profile. The
    checked constructor builds complete profiles only.

    ``from_pair`` gathers both masses in one order of the ratios. The
    suffix and prefix tables the queries read (``_nu_suffix``,
    ``_mu_suffix``, ``_nu_r_prefix``) are built on first use, so a plan
    pays only for the tables it reads. They are read-only and not
    fields, so ``repr`` ignores them. Profiles compare by identity:
    ``==`` is ``is``. A partial profile sums
    ``nu_r_below`` when ``_nu_r_prefix`` is first built, the one table
    that reads it; until then it keeps the pair's target-mass and ratio
    rows alive, with the block's indices.
    """

    thresholds: np.ndarray
    nu_masses: np.ndarray
    mu_masses: np.ndarray
    singular_mass: float
    _partial = False  # not a field; set by from_pair alone

    def __post_init__(self):
        arrays = {
            name: np.asarray(getattr(self, name), dtype=np.float64)
            for name in ("thresholds", "nu_masses", "mu_masses")
        }
        t = arrays["thresholds"]
        if not (t.ndim == 1 and t.size > 0
                and all(arr.shape == t.shape for arr in arrays.values())):
            raise ValueError("profile arrays must be 1-d and equally sized")
        if not (t[1:] > t[:-1]).all():
            raise ValueError("thresholds must be strictly increasing")
        if not (math.isfinite(self.singular_mass) and self.singular_mass >= 0):
            raise ValueError(
                f"singular_mass must be finite and nonnegative, got {self.singular_mass!r}"
            )
        for name, arr in arrays.items():
            # a NaN fails the min, an inf makes the sum inf
            if name != "thresholds" and not (arr.min() >= 0 and math.isfinite(arr.sum())):
                raise ValueError(f"{name} must be finite and nonnegative")
        for name, arr in arrays.items():
            object.__setattr__(self, name, _freeze(arr))

    @property
    def nu_r_below(self) -> float:
        """The target mass times the ratio, summed over the atoms a
        partial profile leaves out; 0.0 on a complete profile."""
        return float(self._nu_r_prefix[0])

    @cached_property
    def _nu_suffix(self) -> np.ndarray:
        """Target mass on levels k and above, for k in 0..n: entry n is
        0, the mass strictly above the last threshold."""
        return _suffix_sums(self.nu_masses)

    @cached_property
    def _mu_suffix(self) -> np.ndarray:
        """Proposal mass on levels k and above, for k in 0..n."""
        return _suffix_sums(self.mu_masses)

    @cached_property
    def _nu_r_prefix(self) -> np.ndarray:
        """nu_r_below plus the sum of nu_mass * ratio over the first k
        levels, for k in 0..n, so integrated coverage takes one gather.
        A partial profile sums nu_r_below here, once, and drops what it
        kept for it; a complete profile starts from 0.0."""
        out = np.empty(self.thresholds.size + 1)
        out[0] = vars(self).pop("_remainder")() if self._partial else 0.0
        np.multiply(self.nu_masses, self.thresholds, out=out[1:])
        np.cumsum(out, out=out)
        return _freeze(out)

    @classmethod
    def from_pair(
        cls, pair: DistributionPair, top: Optional[int] = None
    ) -> "CoverageProfile":
        """The pair's profile over its atoms with proposal mass.

        ``top``, an integer of at least 1, is read only where every atom
        of the pair has both masses (``pair.positive``): there, with
        ``top`` below the support size, only the levels of the ``top``
        atoms of highest ratio, and of every atom tied with the last of
        them, are resolved, and the rest enter only through
        ``nu_r_below``, summed when first read (see the class). Every
        other profile is complete, bit for bit the one without
        ``top``.

        A complete profile reads the pair's ``ratio_order`` backwards,
        without the atoms lacking proposal mass; a block sorts its own
        atoms. No ratio of a pair is -0.0, so a threshold of 0 is 0.0."""
        if top is not None and not (isinstance(top, (int, np.integer)) and top >= 1):
            raise ValueError(f"top must be an integer >= 1, got {top!r}")
        ratios, nu, mu = pair.ratio_cache, pair.nu_weights, pair.mu_weights
        deferred, up = {}, None
        if pair.positive and top is not None and top < mu.size:
            block = _top_block(ratios, top)
            if block.size < mu.size:
                deferred = {"_partial": True,
                            "_remainder": partial(_remainder_sum, ratios, nu, block)}
                ratios, nu, mu = ratios[block], nu[block], mu[block]
                up = descending_order(ratios)[::-1]
        if up is None:
            up = pair.ratio_order[::-1]
            up = up if pair.positive else up[(mu > 0)[up]]
        thresholds, nu, mu = _ratio_levels(up, ratios, nu, mu)
        # built without __post_init__'s checks, which these values pass
        # by construction: equally long float64 arrays of strictly
        # increasing levels and of finite nonnegative masses
        profile = object.__new__(cls)
        vars(profile).update(
            thresholds=_freeze(thresholds), nu_masses=_freeze(nu), mu_masses=_freeze(mu),
            singular_mass=pair.singular_mass, **deferred,
        )
        return profile

    def _check_resolved(self, m) -> None:
        """Reject an m (a float or an array) below the lowest level of a
        partial profile."""
        if self._partial and (m < self.thresholds[0]).any():
            raise _BelowBlock(
                f"m below {float(self.thresholds[0])!r}, the lowest level "
                "this partial profile resolves"
            )

    def _at_level(self, table: np.ndarray, m, side: str):
        """``table`` read at the level index of m: the first threshold
        at or above m for side "left", above m for "right". Vectorized
        over m; a float for a 0-d m."""
        m_arr = np.asarray(m, dtype=np.float64)
        if np.isnan(m_arr).any():
            raise ValueError("m must not be nan")
        self._check_resolved(m_arr)
        out = table[self.thresholds.searchsorted(m_arr, side)]
        return float(out) if m_arr.ndim == 0 else out

    def coverage(self, m):
        """Target mass at ratio >= m (inclusive); singular mass always
        counts. Vectorized over m."""
        return self._at_level(self._nu_suffix, m, "left") + self.singular_mass

    def integrated_coverage(self, m):
        """Integral of the coverage from 0 to m, evaluated exactly as
        E_nu[min(ratio, m)] + singular_mass * m. Vectorized over m; a
        float for a 0-d m.

        On [t[j-1], t[j]) it is the line ``_nu_r_prefix[j] + m *
        (_nu_suffix[j] + singular_mass)``. Past the last level only the
        singular mass is left, so at m = inf the integral is
        truncated_second_moment(inf) (that is, E_nu[ratio]) when that
        mass is 0 and inf otherwise: m times an empty tail counts as 0,
        never nan."""
        m_arr = np.asarray(m, dtype=np.float64)
        if not (m_arr >= 0).all():
            raise ValueError("integrated coverage requires m >= 0")
        self._check_resolved(m_arr)
        idx = np.searchsorted(self.thresholds, m_arr, side="right")
        tail = self._nu_suffix[idx] + self.singular_mass
        grown = np.multiply(m_arr, tail, out=np.zeros_like(m_arr), where=tail > 0)
        out = self._nu_r_prefix[idx] + grown
        return float(out) if m_arr.ndim == 0 else out

    def truncated_second_moment(self, m):
        """E_mu[ratio^2 ; ratio <= m], equal level by level to
        nu_mass * ratio. Vectorized over m."""
        return self._at_level(self._nu_r_prefix, m, "right")

    def mu_tail(self, m):
        """Proposal mass at ratio >= m (singular atoms carry none)."""
        return self._at_level(self._mu_suffix, m, "left")


def _suffix_sums(w: np.ndarray) -> np.ndarray:
    """``concatenate([cumsum(w[::-1])[::-1], [0.0]])``, bit for bit,
    summed straight into its buffer through a reversed view."""
    out = np.empty(w.size + 1)
    out[-1] = 0.0
    np.cumsum(w[::-1], out=out[-2::-1])
    return _freeze(out)


def _with_margin(k: int) -> int:
    """A count k of strided-sample atoms, widened by TAIL_SIGMAS
    binomial standard deviations and TAIL_SLACK."""
    return k + math.ceil(TAIL_SIGMAS * math.sqrt(k)) + TAIL_SLACK


def _tail_candidates(ratios: np.ndarray, top: int) -> Optional[np.ndarray]:
    """The indices, in atom order, of a superset of the ``top`` atoms of
    highest ratio, or None for every atom. Blocks are cut only from
    pairs where every atom has both masses, so every ratio is a finite
    level of the profile.

    The bound is the k-th largest ratio of the strided sample
    ``ratios[::TAIL_STEP]``, k being top / TAIL_STEP rounded up, with
    its margin, and the candidates are the atoms at or above it (Floyd &
    Rivest, "Expected time bounds for selection", 1975). Where fewer
    than ``top`` atoms reach it, the sample held more of the top than
    the margin allows, and every atom is a candidate; so is every atom
    where the sample is less than TAIL_SAMPLED_SHARE times k."""
    sample = ratios[::TAIL_STEP]
    k = _with_margin(-(-top // TAIL_STEP))
    if TAIL_SAMPLED_SHARE * k > sample.size:
        return None
    low = np.partition(sample, sample.size - k)[sample.size - k]
    candidates = np.flatnonzero(ratios >= low)
    return candidates if candidates.size >= top else None


def _top_block(ratios: np.ndarray, top: int) -> np.ndarray:
    """The indices, in atom order, of the ``top`` atoms of highest ratio
    and of every atom tied with the last of them.

    The cut is the ``top``-th largest ratio among ``_tail_candidates``,
    which hold every atom at or above it, so it is the ``top``-th
    largest of all: on the sampled bound one comparison pass over the
    support, and no support-sized partition."""
    candidates = _tail_candidates(ratios, top)
    values = ratios if candidates is None else ratios[candidates]
    cut = np.partition(values, values.size - top)[values.size - top]
    block = np.flatnonzero(values >= cut)
    return block if candidates is None else candidates[block]


def _remainder_sum(ratios: np.ndarray, nu: np.ndarray, block: np.ndarray) -> float:
    """Over the atoms outside ``block`` (indices in atom order), the
    target mass times the ratio, summed.

    The sum runs in atom order over every atom, on one copy of the
    target masses with the block's set to 0.0. It is not E_nu[ratio]
    minus the block's share: on a heavy ratio tail the block holds
    nearly all of it, and the difference would keep few correct
    digits."""
    rest = nu.copy()
    rest[block] = 0.0
    return ordered_dot(rest, ratios)


def _ratio_levels(up: np.ndarray, ratios: np.ndarray, nu: np.ndarray, mu: np.ndarray):
    """Distinct ratio levels of the atoms ``up`` lists in increasing
    order of ``ratios`` (all with proposal mass, so their ratios are
    finite), with the target and proposal mass at each, from the
    atoms' target and proposal weights.

    The masses equal ``np.unique(return_inverse=True)`` followed by
    ``np.bincount``, bit for bit, for any order that sorts the ratios:
    when the levels are distinct there is only one, and the masses are
    the weights gathered in it; when levels tie, the masses are summed
    per level in atom order, which no order changes. Atoms ``up`` leaves
    out are summed into one more level, past the last, that is dropped.
    """
    levels = ratios[up]
    distinct = levels[1:] != levels[:-1]
    if distinct.all():
        return levels, nu[up], mu[up]
    first = np.concatenate(([True], distinct))
    thresholds = levels[first]
    inverse = np.full(ratios.shape, thresholds.size, dtype=np.intp)
    inverse[up] = np.cumsum(first) - 1
    masses = (np.bincount(inverse, w, thresholds.size + 1)[:-1] for w in (nu, mu))
    return thresholds, *masses


def _check_unit(name: str, value: float) -> None:
    """Reject a parameter outside the open interval (0, 1), NaN included."""
    if not 0 < value < 1:
        raise ValueError(f"{name} must be in (0, 1), got {value}")


def _check_divergence(divergence: float) -> None:
    """Reject a negative or NaN divergence; inf passes."""
    if not divergence >= 0:
        raise ValueError(f"divergence must be nonnegative, got {divergence}")


def _require_absolutely_continuous(profile: CoverageProfile, what: str) -> None:
    if profile.singular_mass > 0:
        raise SingularPairError(
            f"{what} needs an absolutely continuous pair; target mass "
            f"{profile.singular_mass!r} sits on proposal-null atoms, so the "
            "coverage never drops to the requested level"
        )


def solve_M_eps(profile: CoverageProfile, eps: float) -> float:
    """Smallest truncation level M whose integrated coverage is at most
    eps * M, solved exactly: the float below M fails the predicate.

    On [t[j-1], t[j]) IC_M is the line prefix[j] + suffix[j] * M of the
    profile's tables, bit for bit what ``integrated_coverage`` returns
    there. IC_M / M is non-increasing, so a binary search finds the
    first threshold meeting the predicate (t[k] lies on segment k + 1);
    the line meets eps * M at a / (eps - b), and ``_least_float``
    settles the least float of the segment from there. A level past the
    float range reads inf. On a partial profile whose search stops at
    its lowest level, M may lie below that level, and a ValueError is
    raised.
    """
    _check_unit("eps", eps)
    _require_absolutely_continuous(profile, "solve_M_eps")
    prefix, suffix, t = profile._nu_r_prefix, profile._nu_suffix, profile.thresholds
    if not suffix[0] > 0:
        raise ValueError("profile carries no target mass on finite levels")
    j = bisect.bisect_left(
        range(t.size), True,
        key=lambda k: prefix[k + 1] + t[k] * suffix[k + 1] <= eps * t[k],
    )
    if j == 0 and profile._partial:
        raise _BelowBlock("the level lies at or below the lowest one resolved")
    # On [lower, upper) IC_M is a + b*M; the predicate holds at upper,
    # and fails at lower unless lower is 0.0. b >= eps only where the
    # finite levels carry at most eps target mass in all: the line then
    # has no root and upper is taken.
    a, b = float(prefix[j]), float(suffix[j])
    lower = float(t[j - 1]) if j > 0 else 0.0
    upper = float(t[j]) if j < t.size else math.inf
    if not b < eps:
        return upper

    def meets(m: float) -> bool:
        return m >= upper or (m >= lower and a + m * b <= eps * m)

    return _least_float(meets, min(max(lower, a / (eps - b)), upper))


def min_coverage_threshold(profile: CoverageProfile, target: float) -> float:
    """Infimum of levels M with coverage at most ``target``.

    The coverage is a left-continuous step function, so the infimum is
    the smallest threshold whose strictly-above target mass is at or
    below ``target``; coverage exceeds the target at the returned point
    itself but meets it immediately to the right. On a partial profile
    whose levels all meet the target, the infimum may lie below them,
    and a ValueError is raised.
    """
    if not 0 <= target < 1:
        raise ValueError(f"target must be in [0, 1), got {target}")
    if profile.singular_mass > target:
        raise SingularPairError(
            f"coverage never falls below singular mass {profile.singular_mass!r}"
        )
    # _nu_suffix sums nonnegative masses, so it is non-increasing in
    # floats. Reversed, a binary search counts the levels from the top
    # whose mass strictly above, plus the singular mass, meets the
    # target; the last level's always does.
    met = bisect.bisect_right(
        profile._nu_suffix[::-1], target,
        key=partial(operator.add, profile.singular_mass),
    )
    if met > profile.thresholds.size and profile._partial:
        raise _BelowBlock("the level lies below the lowest one resolved")
    return float(profile.thresholds[max(profile.thresholds.size - met, 0)])


class TailPlanner:
    """Plans on profiles of ``pairs`` resolved from the top of the
    ratio order down (see ``plan``). Each block is built once, so the
    plans of a sweep over one pair share them."""

    def __init__(self, *pairs: DistributionPair):
        self.pairs = pairs
        self._blocks: dict = {}

    @cached_property
    def _sampled_mass(self) -> list:
        """Per pair, in the pairs' order: every TAIL_STEP-th atom, from
        the highest ratio down, and their target mass summed along them,
        times TAIL_STEP; None for a pair of fewer than TAIL_SIZED_MIN
        atoms, or with an atom of zero mass, whose blocks are not
        sized."""
        sampled = []
        for pair in self.pairs:
            if pair.support_size < TAIL_SIZED_MIN or not pair.positive:
                sampled.append(None)
                continue
            down = descending_order(pair.ratio_cache[::TAIL_STEP])
            sampled.append(np.cumsum(pair.nu_weights[::TAIL_STEP][down]) * TAIL_STEP)
        return sampled

    def plan(self, planner: Callable, coverage: Optional[float] = None):
        """``planner(*profiles)`` on the pairs' profiles from
        ``from_pair(pair, top=top)``, then on a block TAIL_GROWTH times
        as wide each time the planner reads below a block, until the
        profiles are complete; a pair less than TAIL_SPARSE times as wide
        as a block gets its complete profile.

        The first ``top`` is TAIL_FIRST_TOP. A planner that reads the
        profile only through ``min_coverage_threshold`` (the quantile
        and sampling plans) may name the ``coverage`` target it passes
        there: the first block is then sized from it (see ``_sized``),
        or is the narrowest block already built that is at least as
        wide. Only the first block is sized; every later one grows the
        same way.

        A plan reads a partial profile only where it is exact, so each
        answer is the complete profile's, up to the rounding of
        ``nu_r_below``; a plan whose answer lies in the top of the ratio
        order leaves the rest of a wide support unsorted, and one that
        reads only coverage never sums ``nu_r_below``."""
        top = TAIL_FIRST_TOP
        if coverage is not None:
            # such a plan reads the same answer from any wider block
            top = self._sized(coverage)
            top = min((built for built in self._blocks if built >= top), default=top)
        while True:
            if top not in self._blocks:
                self._blocks[top] = [
                    CoverageProfile.from_pair(
                        pair, top=top if TAIL_SPARSE * top <= pair.support_size else None
                    )
                    for pair in self.pairs
                ]
            try:
                return planner(*self._blocks[top])
            except _BelowBlock:
                top *= TAIL_GROWTH

    def _sized(self, coverage: float) -> int:
        """The block for a coverage target: the count of highest-ratio
        atoms whose sampled target mass exceeds ``coverage``, with its
        margin, on the pair that needs most, rounded up to a multiple of
        TAIL_FIRST_TOP; TAIL_FIRST_TOP when no pair is sampled. Sampled
        pairs have both masses on every atom, so no singular mass. A
        block sized too short is widened by ``plan``."""
        # sampled atoms it takes to exceed the mass, or one past them all
        count = max(
            (int(c.searchsorted(coverage, side="right")) + 1
             for c in self._sampled_mass if c is not None),
            default=0,
        )
        return math.ceil(TAIL_STEP * _with_margin(count) / TAIL_FIRST_TOP) * TAIL_FIRST_TOP


@dataclass(frozen=True)
class PlanResult:
    """Sample size with the truncation level and constants behind it;
    every planner returns one, the race sampler's included."""

    n: int
    m: float
    constants: dict = field(default_factory=dict)
    # Divergence plans: the generator name ("f") and divergence ("D")
    # the plan was computed from, in the order the CLI prints them.
    inputs: dict = field(default_factory=dict)


def _plan_size(
    constant: float, m: float, log_term: float, eps: float, power: int,
    log_m: Optional[float] = None,
) -> int:
    """Sample size for the budget x = constant * m * log_term / eps^power,
    evaluated left to right: max(ceil(x), 1) while x is below 2^53, else
    an exact int built from ln x = ln constant + ln m + ln log_term -
    power * ln eps. ``log_m`` stands in for ln m where m has passed the
    float range (m, and with it x, then reads inf).

    The log route never returns less than 2^53, so n stays monotone in
    the budget across the switch. Infeasible when ln m is inf or n would
    pass 10^4000."""
    x = constant * m * log_term / eps**power
    if x < FLOAT_EXACT_INT_MAX:
        return max(math.ceil(x), 1)
    if log_m is None:
        log_m = math.log(m)
    log_x = math.log(constant) + log_m + math.log(log_term) - power * math.log(eps)
    return max(_ceil_exp(log_x), FLOAT_EXACT_INT_MAX)


def _log_quotient(numer: float, x: float) -> float:
    """ln(numer / x), as ln numer - ln x where the quotient passes the
    float range, so a tiny delta or eps gives a finite log term."""
    quotient = numer / x
    return math.log(quotient) if quotient < math.inf else math.log(numer) - math.log(x)


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


class MuTailBound(NamedTuple):
    bound: float
    exact: float


def mu_tail_bound(profile: CoverageProfile, m: float) -> MuTailBound:
    """Coverage-based bound Cov_M / M on the proposal's ratio tail,
    alongside the exact tail for comparison. Valid for m >= 1."""
    m = float(m)
    if not m >= 1:
        raise ValueError(f"m must be >= 1, got {m}")
    bound = min(1.0, profile.coverage(m) / m)
    return MuTailBound(bound=bound, exact=profile.mu_tail(m))


def coverage_bound_fdiv(f: FGenerator, divergence: float, m: float) -> float:
    """Divergence-based coverage bound m * D / f(m), clamped to [0, 1].

    Requires m > 1 so that f(m) > 0 for strictly convex generators.
    """
    m = float(m)
    if not m > 1:
        raise ValueError(f"m must be > 1, got {m}")
    _check_divergence(divergence)
    fm = float(f(m))
    if fm <= 0:
        raise ValueError(f"f({m}) = {fm!r}; bound needs f(m) > 0")
    if math.isinf(divergence):
        return 1.0
    return min(1.0, m * divergence / fm)


def icov_bound_fdiv(f: FGenerator, divergence: float, m: float, c: float) -> float:
    """Divergence-based bound c^2/m + m*D/f(m) on IC_m / m for m >= c,
    clamped to [0, 1] since the exact quantity never exceeds 1.

    Only meaningful for generators whose f(t)/t^2 stops increasing by
    c; superquadratic generators admit no such c.
    """
    m, c = float(m), float(c)
    if not c >= 1:
        raise ValueError(f"c must be >= 1, got {c}")
    if not m >= c:
        raise ValueError(f"m = {m} must be >= c = {c}")
    _check_divergence(divergence)
    fm = float(f(m))
    if fm == 0.0:
        second = 0.0 if divergence == 0 else math.inf
    else:
        second = m * divergence / fm
    return min(1.0, c * c / m + second)


class PZBound(NamedTuple):
    bound: float
    m_used: float


def paley_zygmund_lower_bound(
    profile: CoverageProfile, eps: float, u: float
) -> PZBound:
    """Anti-concentration floor on the proposal mass at ratio >= 1-eps.

    Finds the infimum level M at which the coverage drops to u*eps and
    returns (1-u)*eps/M; every level above M certifies the bound and it
    extends to M itself by continuity.
    """
    _check_unit("eps", eps)
    _check_unit("u", u)
    _require_absolutely_continuous(profile, "paley_zygmund_lower_bound")
    # Levels at or below 1-eps can never have coverage below u*eps
    # (E_mu[ratio] = 1 forces mass above), so m lands above 1-eps.
    m = min_coverage_threshold(profile, u * eps)
    bound = min(1.0, (1.0 - u) * eps / m)
    return PZBound(bound=bound, m_used=m)


def paley_zygmund_bound_fdiv(
    f: FGenerator, divergence: float, eps: float, u: float
) -> PZBound:
    """Divergence flavor of the anti-concentration floor, with the level
    chosen as the growth inverse at D/(u*eps). An infinite level, from
    an infinite D/(u*eps) or an infinite inverse, yields the trivial
    bound 0."""
    _check_unit("eps", eps)
    _check_unit("u", u)
    _check_divergence(divergence)
    argument = divergence / (u * eps)
    m = math.inf if math.isinf(argument) else gamma_f(f, argument)
    if math.isinf(m):
        return PZBound(bound=0.0, m_used=math.inf)
    bound = min(1.0, (1.0 - u) * eps / m)
    return PZBound(bound=bound, m_used=m)
