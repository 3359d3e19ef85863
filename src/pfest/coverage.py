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
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .distributions import DistributionPair
from .divergences import FGenerator, gamma_f
from .errors import SingularPairError


@dataclass(frozen=True)
class CoverageProfile:
    """Sorted distinct finite density-ratio levels with the target and
    proposal mass sitting exactly at each level.

    Target mass on proposal-null atoms is carried separately in
    ``singular_mass``: its ratio is infinite, so it counts toward the
    coverage at every finite level.
    """

    thresholds: np.ndarray
    nu_masses: np.ndarray
    mu_masses: np.ndarray
    singular_mass: float
    source: str = ""
    _nu_suffix: np.ndarray = field(init=False, repr=False, compare=False)
    _mu_suffix: np.ndarray = field(init=False, repr=False, compare=False)
    _nu_r_prefix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        t = np.asarray(self.thresholds, dtype=np.float64)
        nu = np.asarray(self.nu_masses, dtype=np.float64)
        mu = np.asarray(self.mu_masses, dtype=np.float64)
        if not (t.ndim == 1 and t.shape == nu.shape == mu.shape and t.size > 0):
            raise ValueError("profile arrays must be 1-d and equally sized")
        if np.any(np.diff(t) <= 0):
            raise ValueError("thresholds must be strictly increasing")
        for arr in (t, nu, mu):
            arr.setflags(write=False)
        object.__setattr__(self, "thresholds", t)
        object.__setattr__(self, "nu_masses", nu)
        object.__setattr__(self, "mu_masses", mu)
        # Suffix sums with a trailing 0 so index k means "strictly above
        # the last threshold"; prefix of nu*r supports integrated
        # coverage in one gather.
        nu_suffix = np.concatenate([np.cumsum(nu[::-1])[::-1], [0.0]])
        mu_suffix = np.concatenate([np.cumsum(mu[::-1])[::-1], [0.0]])
        nu_r_prefix = np.concatenate([[0.0], np.cumsum(nu * t)])
        for arr in (nu_suffix, mu_suffix, nu_r_prefix):
            arr.setflags(write=False)
        object.__setattr__(self, "_nu_suffix", nu_suffix)
        object.__setattr__(self, "_mu_suffix", mu_suffix)
        object.__setattr__(self, "_nu_r_prefix", nu_r_prefix)

    @classmethod
    def from_pair(cls, pair: DistributionPair) -> "CoverageProfile":
        thresholds, nu, mu = _ratio_levels(pair)
        return cls(
            thresholds=thresholds,
            nu_masses=nu,
            mu_masses=mu,
            singular_mass=pair.singular_mass,
            source=pair.name,
        )

    @property
    def nu_ratio_mean(self) -> float:
        """E_nu[ratio] over the finite levels (the target second moment
        of the ratio under the proposal)."""
        return float(self._nu_r_prefix[-1])

    def coverage(self, m):
        """Target mass at ratio >= m (inclusive); singular mass always
        counts. Vectorized over m."""
        m_arr = np.asarray(m, dtype=np.float64)
        idx = np.searchsorted(self.thresholds, m_arr, side="left")
        out = self._nu_suffix[idx] + self.singular_mass
        return float(out) if np.isscalar(m) or m_arr.ndim == 0 else out

    def integrated_coverage(self, m):
        """Integral of the coverage from 0 to m, evaluated exactly as
        E_nu[min(ratio, m)] + singular_mass * m. Vectorized over m.

        Past the last level only the singular mass is left, so at
        m = inf the integral is nu_ratio_mean when that mass is 0 and
        inf otherwise: m times an empty tail counts as 0, never nan."""
        m_arr = np.asarray(m, dtype=np.float64)
        if m_arr.ndim == 0:
            m = float(m_arr)
            if not m >= 0:
                raise ValueError("integrated coverage requires m >= 0")
            i = self.thresholds.searchsorted(m, side="right")
            tail = self._nu_suffix[i] + self.singular_mass
            return float(self._nu_r_prefix[i] + (m * tail if tail else 0.0))
        if not (m_arr >= 0).all():
            raise ValueError("integrated coverage requires m >= 0")
        idx = np.searchsorted(self.thresholds, m_arr, side="right")
        tail = self._nu_suffix[idx] + self.singular_mass
        grown = np.multiply(m_arr, tail, out=np.zeros_like(m_arr), where=tail > 0)
        return self._nu_r_prefix[idx] + grown

    def truncated_second_moment(self, m):
        """E_mu[ratio^2 ; ratio <= m], equal level by level to
        nu_mass * ratio. Vectorized over m."""
        m_arr = np.asarray(m, dtype=np.float64)
        idx = np.searchsorted(self.thresholds, m_arr, side="right")
        out = self._nu_r_prefix[idx]
        return float(out) if np.isscalar(m) or m_arr.ndim == 0 else out

    def mu_tail(self, m):
        """Proposal mass at ratio >= m (singular atoms carry none)."""
        m_arr = np.asarray(m, dtype=np.float64)
        idx = np.searchsorted(self.thresholds, m_arr, side="left")
        out = self._mu_suffix[idx]
        return float(out) if np.isscalar(m) or m_arr.ndim == 0 else out


def _ratio_levels(pair: DistributionPair):
    """Distinct finite ratio levels of the atoms with proposal mass, in
    increasing order, with the target and proposal mass at each.

    One argsort of the ratios: when the levels are distinct the masses
    are the weights in sorted order, else they are summed per level in
    atom order. Either way they equal ``np.unique(return_inverse=True)``
    followed by ``np.bincount``, bit for bit. The sort's temporaries die
    on return, before the profile builds its own tables.
    """
    ratios, nu, mu = pair.ratio_cache, pair.nu_weights, pair.mu_weights
    pos = mu > 0
    if not pos.all():
        ratios, nu, mu = ratios[pos], nu[pos], mu[pos]
    perm = ratios.argsort()
    levels = ratios[perm]
    distinct = levels[1:] != levels[:-1]
    if distinct.all():
        nu = nu[perm]
        nu += 0.0  # bincount adds each weight to 0.0, turning -0.0 into 0.0
        return levels, nu, mu[perm]
    first = np.concatenate(([True], distinct))
    inverse = np.empty(perm.shape, dtype=np.intp)
    inverse[perm] = np.cumsum(first) - 1
    thresholds = levels[first]
    return (
        thresholds,
        np.bincount(inverse, weights=nu, minlength=thresholds.size),
        np.bincount(inverse, weights=mu, minlength=thresholds.size),
    )


def _as_profile(pair_or_profile) -> CoverageProfile:
    if isinstance(pair_or_profile, CoverageProfile):
        return pair_or_profile
    return CoverageProfile.from_pair(pair_or_profile)


def coverage(pair_or_profile, m):
    """Target mass at ratio >= m, for a pair or a prebuilt profile."""
    return _as_profile(pair_or_profile).coverage(m)


def integrated_coverage(pair_or_profile, m):
    """Integral of the coverage over [0, m]."""
    return _as_profile(pair_or_profile).integrated_coverage(m)


def truncated_second_moment(pair_or_profile, m):
    """E_mu[ratio^2 ; ratio <= m]."""
    return _as_profile(pair_or_profile).truncated_second_moment(m)


def _require_absolutely_continuous(profile: CoverageProfile, what: str) -> None:
    if profile.singular_mass > 0:
        raise SingularPairError(
            f"{what} needs an absolutely continuous pair; target mass "
            f"{profile.singular_mass!r} sits on proposal-null atoms, so the "
            "coverage never drops to the requested level"
        )


def solve_M_eps(profile: CoverageProfile, eps: float) -> float:
    """Smallest truncation level M whose integrated coverage is at most
    eps * M, solved exactly.

    IC_M / M is non-increasing, so a binary search over the thresholds
    finds the first t[j] meeting the predicate. On [t[j-1], t[j]) IC_M
    is the line a + b*M, which meets eps*M at a / (eps - b); M then
    steps up one float at a time until the predicate holds in floats.
    A level past the float range reads inf.
    """
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    _require_absolutely_continuous(profile, "solve_M_eps")
    if not profile._nu_suffix[0] > 0:
        raise ValueError("profile carries no target mass on finite levels")

    def ok(m: float) -> bool:
        return profile.integrated_coverage(m) <= eps * m

    t = profile.thresholds
    j = bisect.bisect_left(range(t.size), True, key=lambda k: ok(t[k]))
    # On [lower, upper) IC_M is a + b*M; the predicate holds at upper.
    # b >= eps only where the finite levels carry at most eps target
    # mass in all: the line then has no root and upper is taken.
    a, b = float(profile._nu_r_prefix[j]), float(profile._nu_suffix[j])
    lower = float(t[j - 1]) if j > 0 else 0.0
    upper = float(t[j]) if j < t.size else math.inf
    m = min(max(lower, a / (eps - b) if b < eps else math.inf), upper)
    while m < math.inf and not ok(m):
        m = math.nextafter(m, math.inf)
    return m


def min_coverage_threshold(profile: CoverageProfile, target: float) -> float:
    """Infimum of levels M with coverage at most ``target``.

    The coverage is a left-continuous step function, so the infimum is
    the smallest threshold whose strictly-above target mass is at or
    below ``target``; coverage exceeds the target at the returned point
    itself but meets it immediately to the right.
    """
    if not 0 <= target < 1:
        raise ValueError(f"target must be in [0, 1), got {target}")
    if profile.singular_mass > target:
        raise SingularPairError(
            f"coverage never falls below singular mass {profile.singular_mass!r}"
        )
    above = profile._nu_suffix[1:] + profile.singular_mass
    idx = int(np.argmax(above <= target))
    return float(profile.thresholds[idx])


class MuTailBound(NamedTuple):
    bound: float
    exact: float


def mu_tail_bound(profile: CoverageProfile, m: float) -> MuTailBound:
    """Coverage-based bound Cov_M / M on the proposal's ratio tail,
    alongside the exact tail for comparison. Valid for m >= 1."""
    m = float(m)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    bound = min(1.0, profile.coverage(m) / m)
    return MuTailBound(bound=bound, exact=profile.mu_tail(m))


def coverage_bound_fdiv(f: FGenerator, divergence: float, m: float) -> float:
    """Divergence-based coverage bound m * D / f(m), clamped to [0, 1].

    Requires m > 1 so that f(m) > 0 for strictly convex generators.
    """
    m = float(m)
    if m <= 1:
        raise ValueError(f"m must be > 1, got {m}")
    if divergence < 0:
        raise ValueError("divergence must be nonnegative")
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
    if c < 1:
        raise ValueError(f"c must be >= 1, got {c}")
    if m < c:
        raise ValueError(f"m = {m} must be >= c = {c}")
    if divergence < 0:
        raise ValueError("divergence must be nonnegative")
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
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if not 0 < u < 1:
        raise ValueError(f"u must be in (0, 1), got {u}")
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
    chosen as the growth inverse at D/(u*eps). An infinite level yields
    the trivial bound 0."""
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if not 0 < u < 1:
        raise ValueError(f"u must be in (0, 1), got {u}")
    m = gamma_f(f, divergence / (u * eps))
    if math.isinf(m):
        return PZBound(bound=0.0, m_used=math.inf)
    bound = min(1.0, (1.0 - u) * eps / m)
    return PZBound(bound=bound, m_used=m)
