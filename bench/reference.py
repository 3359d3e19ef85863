"""Reference computations the benchmark checks pfest's outputs against.

Everything here works from raw weight vectors, closed forms and the
binomial law, using the standard library and numpy only. Nothing here
imports pfest, so a fault in the program cannot leak into its own
reference. ``test_reference.py`` compares each function with brute-force
enumeration on tiny cases.
"""

from __future__ import annotations

import math
import numpy as np

# Success predicate of the (1 +/- eps) event: pfest counts a relative error
# within 1e-9 of eps as a failure, so the reference must apply the same guard.
SUCCESS_GUARD = 1e-9


# ---------------------------------------------------------------- binomial law


def binom_pmf(n: int, p: float) -> np.ndarray:
    """P[X = k] for k = 0..n, X ~ Binomial(n, p).

    Built in log space by the ratio recurrence
    pmf[k] / pmf[k-1] = (n-k+1)/k * p/(1-p) from pmf[0] = (1-p)^n, so the
    terms near k = 0 carry no cancellation from large log-factorials.
    """
    if p <= 0.0 or p >= 1.0:
        out = np.zeros(n + 1)
        out[0 if p <= 0.0 else n] = 1.0
        return out
    k = np.arange(1, n + 1, dtype=np.float64)
    steps = np.log((n - k + 1.0) / k) + (math.log(p) - math.log1p(-p))
    log_pmf = n * math.log1p(-p) + np.concatenate(([0.0], np.cumsum(steps)))
    return np.exp(log_pmf)


def binom_tails(x: int, n: int, p: float) -> tuple[float, float]:
    """(P[X <= x], P[X >= x]) for X ~ Binomial(n, p)."""
    pmf = binom_pmf(n, p)
    return float(pmf[: x + 1].sum()), float(pmf[x:].sum())


def binom_at_least(j: int, n: int, p: float) -> float:
    """P[X >= j] for X ~ Binomial(n, p)."""
    if j <= 0:
        return 1.0
    if j > n:
        return 0.0
    return float(binom_pmf(n, p)[j:].sum())


def band_ok(successes: int, trials: int, p: float, alpha: float) -> bool:
    """Two-sided exact binomial test: the observed count is not in either
    tail of mass below alpha/2 under success probability p."""
    lower, upper = binom_tails(successes, trials, p)
    return min(lower, upper) >= alpha / 2.0


def at_least_ok(successes: int, trials: int, p_min: float, alpha: float) -> bool:
    """One-sided exact test of a guarantee P[success] >= p_min: fails only
    when so few successes would have probability below alpha at p_min."""
    lower, _ = binom_tails(successes, trials, p_min)
    return lower >= alpha


def band(trials: int, p: float, alpha: float) -> tuple[int, int]:
    """Smallest and largest success counts that ``band_ok`` accepts."""
    pmf = binom_pmf(trials, p)
    lower = np.cumsum(pmf)
    upper = np.cumsum(pmf[::-1])[::-1]
    ok = np.flatnonzero(np.minimum(lower, upper) >= alpha / 2.0)
    return int(ok[0]), int(ok[-1])


# ------------------------------------------------- median of means, exactly


def mom_groups(n: int, delta: float) -> tuple[int, int]:
    """(k, m): k = ceil(8 ln(1/delta)) groups of m = n // k draws."""
    k = math.ceil(8.0 * math.log(1.0 / delta))
    return k, n // k


def within(estimate, truth: float, eps: float):
    """pfest's success predicate (arrays ok): relative error below eps
    by more than the guard."""
    return np.abs(estimate - truth) <= (eps - SUCCESS_GUARD) * abs(truth)


def _group_means(lam: tuple[float, float], m: int) -> np.ndarray:
    """Mean of a group of m draws holding c = 0..m copies of atom 1."""
    c = np.arange(m + 1)
    return (lam[0] * (m - c) + lam[1] * c) / m


def mom_success_two_atom(
    lam: tuple[float, float], q: float, n: int, delta: float, eps: float, z: float
) -> float:
    """Exact P[median-of-means lands within (1 +/- eps) z] on a two-atom pair.

    ``lam`` are the density values of atoms 0 and 1 and ``q`` is the
    proposal probability of atom 1. A group of m draws holds C ~ Bin(m, q)
    copies of atom 1, so its mean takes m + 1 values. The estimate is the
    lower median, the (r+1)-th smallest of k i.i.d. group means with
    r = (k-1)//2; it succeeds unless at least r+1 groups fall below the
    interval or at least k-r groups fall above it.
    """
    k, m = mom_groups(n, delta)
    if m < 1:
        raise ValueError(f"n = {n} leaves no draws for {k} groups")
    pmf = binom_pmf(m, q)
    means = _group_means(lam, m)
    ok = within(means, z, eps)
    p_below = float(pmf[~ok & (means < z)].sum())
    p_not_above = p_below + float(pmf[ok].sum())
    r = (k - 1) // 2
    p = binom_at_least(r + 1, k, p_not_above) - binom_at_least(r + 1, k, p_below)
    return min(1.0, max(0.0, p))


def mom_success_set(
    lam: tuple[float, float], n: int, delta: float, eps: float, z: float
) -> list[int]:
    """Counts of atom-1 draws per group whose group mean succeeds."""
    _, m = mom_groups(n, delta)
    return [int(c) for c in np.flatnonzero(within(_group_means(lam, m), z, eps))]


# ------------------------------------------------ coverage from raw weights


class RawProfile:
    """Coverage quantities recomputed atom by atom from the weight vectors.

    ratio = nu/mu on atoms with proposal mass; target mass on atoms the
    proposal never visits has infinite ratio and is carried as
    ``singular``.
    """

    def __init__(self, mu, nu, g=None):
        mu = np.asarray(mu, dtype=np.float64)
        nu = np.asarray(nu, dtype=np.float64)
        if g is not None:
            g = np.asarray(g, dtype=np.float64)
            nu = nu * g / float(np.dot(nu, g))
        pos = mu > 0
        self.mu = mu[pos]
        self.nu = nu[pos]
        self.ratio = self.nu / self.mu
        self.singular = float(nu[~pos].sum())

    def cov(self, m: float) -> float:
        """Target mass at ratio >= m."""
        return float(self.nu[self.ratio >= m].sum()) + self.singular

    def cov_above(self, m: float) -> float:
        """Target mass at ratio > m."""
        return float(self.nu[self.ratio > m].sum()) + self.singular

    def icov(self, m: float) -> float:
        """E_nu[min(ratio, m)] + m * singular mass."""
        return float(np.dot(self.nu, np.minimum(self.ratio, m))) + m * self.singular

    def trunc_second_moment(self, m: float) -> float:
        """E_mu[ratio^2 ; ratio <= m]."""
        keep = self.ratio <= m
        return float(np.dot(self.mu[keep], self.ratio[keep] ** 2))

    def is_smallest_icov_level(self, m: float, target: float) -> bool:
        """IC_M <= target * M holds at M and fails just below it."""
        below = m * (1.0 - 1e-7)
        return self.icov(m) <= target * m * (1.0 + 1e-12) and self.icov(
            below
        ) > target * below

    def is_coverage_infimum(self, m: float, target: float, floor: float = 0.0) -> bool:
        """M is the infimum level whose coverage is at most target, raised
        to ``floor``: the mass strictly above M meets the target and, unless
        M sits at the floor, the mass at M and above does not."""
        if self.cov_above(m) > target + 1e-12:
            return False
        return m == floor or self.cov(m) > target - 1e-12


# -------------------------------------------------- f-generators in closed form

# Slope at infinity and the second-moment constant c of each built-in.
_F_PRIME_INF = {"tv": 0.5, "hellinger": 1.0}
_C_THRESHOLD = {"tv": 2.0, "hellinger": 4.0}


def renyi_alpha(spec: str) -> float | None:
    if spec.startswith("renyi:alpha="):
        return float(spec.split("=", 1)[1])
    return None


def f_value(spec: str, t):
    """Generator value for the CLI spelling ``spec`` (t >= 0, arrays ok)."""
    t = np.asarray(t, dtype=np.float64)
    if spec == "tv":
        return 0.5 * np.abs(t - 1.0)
    if spec == "kl":
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(t > 0, t * np.log(np.where(t > 0, t, 1.0)), 0.0) - t + 1.0
    if spec == "chi2":
        return (t - 1.0) ** 2
    if spec == "hellinger":
        return (np.sqrt(t) - 1.0) ** 2
    alpha = renyi_alpha(spec)
    if alpha is None:
        raise ValueError(f"unknown generator spec {spec!r}")
    return t**alpha - alpha * (t - 1.0) - 1.0


def f_prime_at_inf(spec: str) -> float:
    return _F_PRIME_INF.get(spec, math.inf)


def c_threshold(spec: str) -> float:
    return _C_THRESHOLD.get(spec, 1.0)


def f_divergence(spec: str, mu, nu) -> float:
    """D_f(nu || mu) = sum over mu > 0 of mu f(nu/mu), plus singular mass
    times f'(inf)."""
    prof = RawProfile(mu, nu)
    total = float(np.dot(prof.mu, f_value(spec, prof.ratio)))
    if prof.singular > 0:
        slope = f_prime_at_inf(spec)
        return math.inf if math.isinf(slope) else total + prof.singular * slope
    return total


def growth(spec: str, t: float) -> float:
    """f(t)/t, the quantity whose inverse the divergence planner needs."""
    return float(f_value(spec, t)) / t


def kl_log_growth_inverse(a: float) -> float:
    """u = ln t with ln t - 1 + 1/t = a, by Newton's method on u.

    g(u) = u - 1 + exp(-u) - a is convex and increasing for u > 0, so
    Newton from u0 = a + 1 (where g > 0) decreases monotonically to the
    root. Working in u keeps exp(KL)-scale roots representable.
    """
    if a <= 0.0:
        return 0.0
    u = a + 1.0
    for _ in range(200):
        step = (u - 1.0 + math.exp(-u) - a) / (1.0 - math.exp(-u))
        u -= step
        if abs(step) <= 1e-15 * (1.0 + u):
            break
    return u


def _bisect_log_growth(spec: str, a: float) -> float:
    def g(u: float) -> float:
        t = math.exp(u)
        return growth(spec, t)

    lo, hi = 0.0, 1.0
    while g(hi) < a:
        lo, hi = hi, 2.0 * hi
        if hi > 700.0:
            return math.inf
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) >= a:
            hi = mid
        else:
            lo = mid
    return hi


def log_growth_inverse(spec: str, a: float) -> float:
    """ln of the smallest t >= 1 with f(t)/t >= a; inf when f(t)/t never
    reaches a (linear generators at or past their slope at infinity)."""
    if a <= 0.0:
        return 0.0
    if spec == "tv":
        return math.log(0.5 / (0.5 - a)) if a < 0.5 else math.inf
    if spec == "hellinger":
        return -2.0 * math.log1p(-math.sqrt(a)) if a < 1.0 else math.inf
    if spec == "chi2":
        return math.log((2.0 + a + math.sqrt(a * a + 4.0 * a)) / 2.0)
    if spec == "kl":
        return kl_log_growth_inverse(a)
    return _bisect_log_growth(spec, a)


def is_growth_inverse(spec: str, m: float, a: float) -> bool:
    """M satisfies f(M)/M >= a and f(M')/M' < a just below M (or M = 1)."""
    if growth(spec, m) < a * (1.0 - 1e-13):
        return False
    below = m * (1.0 - 1e-8)
    return m == 1.0 or below < 1.0 or growth(spec, below) < a


# ------------------------------------------------------ planner formulas


def ceil_matches(n: int, x: float) -> bool:
    """n == ceil(x), allowing one either way when x is within rounding of
    an integer (the program and the reference may round x differently)."""
    if n == math.ceil(x):
        return True
    return abs(x - round(x)) <= 1e-9 * max(1.0, x) and abs(n - x) <= 1.0 + 1e-9 * x


def log_fdiv_n(spec: str, divergence: float, eps: float, delta: float) -> float:
    """ln of the unrounded divergence-planner budget
    8 max(gamma L / eps, c^2 L / eps^2), L = ln(1/delta),
    gamma = growth inverse at 6 D / eps, all in log space."""
    log_gamma = log_growth_inverse(spec, 6.0 * divergence / eps)
    log_l = math.log(math.log(1.0 / delta))
    c = c_threshold(spec)
    return math.log(8.0) + max(
        log_gamma + log_l - math.log(eps),
        2.0 * math.log(c) + log_l - 2.0 * math.log(eps),
    )


def log_n_matches(n: int, log_x: float) -> bool:
    """ln n agrees with the log-space reference up to the ceiling and the
    program's bisection tolerance."""
    slack = math.exp(-log_x) if log_x < 700.0 else 0.0
    return abs(math.log(n) - log_x) <= 1e-8 + slack


def empirical_tv(counts, trials: int, nu, null_races: int = 0) -> float:
    freq = np.asarray(counts, dtype=np.float64) / trials
    return 0.5 * (float(np.abs(freq - np.asarray(nu)).sum()) + null_races / trials)


def tv_slack(support: int, trials: int, alpha: float) -> float:
    """Sampling allowance for the empirical TV of `trials` i.i.d. draws from
    any law on `support` atoms: E|freq_i - p_i| <= sqrt(p_i / T) and
    Cauchy-Schwarz bound the mean by sqrt(support / T) / 2, and McDiarmid
    (one draw moves the TV by at most 1/T) bounds the excess over the
    mean with probability 1 - alpha."""
    return 0.5 * math.sqrt(support / trials) + math.sqrt(
        math.log(1.0 / alpha) / (2.0 * trials)
    )
