"""Each reference computation against brute-force enumeration on tiny cases.

    python3 -m pytest bench/test_reference.py
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import reference as ref


def brute_binom(n, p):
    return [math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]


@pytest.mark.parametrize("n,p", [(1, 0.3), (7, 0.5), (12, 0.05), (30, 0.9), (5, 0.0), (5, 1.0)])
def test_binom_pmf_matches_comb(n, p):
    assert np.allclose(ref.binom_pmf(n, p), brute_binom(n, p), rtol=1e-12, atol=1e-300)


def test_band_is_the_set_band_ok_accepts():
    trials, p, alpha = 40, 0.3, 1e-3
    lo, hi = ref.band(trials, p, alpha)
    accepted = [x for x in range(trials + 1) if ref.band_ok(x, trials, p, alpha)]
    assert accepted == list(range(lo, hi + 1))
    pmf = brute_binom(trials, p)
    assert sum(pmf[:lo]) < alpha / 2 <= sum(pmf[: lo + 1])


def brute_mom_success(lam, q, n, delta, eps, z):
    """Enumerate every draw sequence; group, take the lower median of the
    group means exactly as median_of_means does, and add up the mass of
    the sequences that succeed."""
    k = math.ceil(8 * math.log(1 / delta))
    m = n // k
    total = 0.0
    for seq in itertools.product((0, 1), repeat=n):
        means = sorted(
            sum(lam[a] for a in seq[g * m:(g + 1) * m]) / m for g in range(k)
        )
        est = means[(k - 1) // 2]
        if ref.within(est, z, eps):
            hits = sum(seq)
            total += q**hits * (1 - q) ** (n - hits)
    return total


@pytest.mark.parametrize(
    "lam,q,n,delta,eps",
    [
        ((0.75, 1.25), 0.5, 12, 0.5, 0.3),  # k = 6 groups of 2
        ((0.75, 1.25), 0.5, 13, 0.5, 0.2),  # one trailing draw discarded
        ((0.0, 4.0), 0.25, 14, 0.5, 0.5),  # two-point pair, groups of 2
        ((0.0, 4.0), 0.25, 12, 0.9, 0.4),  # k = 1: the plain mean
        ((0.9, 5.0), 0.1, 10, 0.9, 0.11),  # floor-pair shape: success = miss
        ((1.25, 0.75), 0.5, 12, 0.5, 0.3),  # high atom first
    ],
)
def test_mom_success_two_atom_matches_enumeration(lam, q, n, delta, eps):
    exact = ref.mom_success_two_atom(lam, q, n, delta, eps, 1.0)
    assert exact == pytest.approx(brute_mom_success(lam, q, n, delta, eps, 1.0), abs=1e-12)


def test_floor_shape_success_is_missing_the_high_atom():
    assert ref.mom_success_set((0.9, 5.0), 10, 0.9, 0.11, 1.0) == [0]
    assert ref.mom_success_two_atom((0.9, 5.0), 0.1, 10, 0.9, 0.11, 1.0) == pytest.approx(
        0.9**10, rel=1e-13
    )


def exact_profile(mu, nu):
    """Coverage quantities in exact rational arithmetic, atom by atom."""
    mu = [Fraction(x) for x in mu]
    nu = [Fraction(x) for x in nu]
    ratio = [b / a for a, b in zip(mu, nu)]

    def cov(m):
        return sum(b for b, r in zip(nu, ratio) if r >= m)

    def icov(m):
        # Integral of the coverage step function from 0 to m.
        cuts = sorted({Fraction(0), m, *[r for r in ratio if r < m]})
        return sum((hi - lo) * cov(hi) for lo, hi in zip(cuts, cuts[1:]))

    return cov, icov


def test_raw_profile_matches_exact_integral_of_coverage():
    rng = np.random.default_rng(3)
    mu = rng.random(6) + 0.05
    nu = rng.random(6) + 0.05
    mu, nu = mu / mu.sum(), nu / nu.sum()
    prof = ref.RawProfile(mu, nu)
    cov, icov = exact_profile(mu, nu)
    for m in (0.1, 0.5, 1.0, 1.7, 3.0, float(prof.ratio.max()) * 2):
        frac = Fraction(m)
        assert prof.cov(m) == pytest.approx(float(cov(frac)), abs=1e-15)
        assert prof.icov(m) == pytest.approx(float(icov(frac)), rel=1e-13)
        keep = prof.ratio <= m
        assert prof.trunc_second_moment(m) == pytest.approx(
            float(sum(Fraction(a) * Fraction(r) ** 2 for a, r in zip(prof.mu[keep], prof.ratio[keep]))),
            rel=1e-13,
        )


def test_smallest_icov_level_and_coverage_infimum_by_grid_scan():
    mu = np.array([0.5, 0.3, 0.2])
    nu = np.array([0.2, 0.3, 0.5])
    prof = ref.RawProfile(mu, nu)
    target = 0.3
    grid = np.linspace(0.01, 10, 200001)
    feasible = grid[[prof.icov(m) <= target * m for m in grid]]
    m_star = float(feasible[0])
    # IC_M / M is continuous and non-increasing: the smallest feasible level
    # on the grid is within one grid step of the true one.
    exact = next(m for m in np.linspace(m_star - 1e-4, m_star, 100001) if prof.icov(m) <= target * m)
    assert prof.is_smallest_icov_level(exact, target)
    assert not prof.is_smallest_icov_level(exact * 1.01, target)
    assert not prof.is_smallest_icov_level(exact * 0.99, target)
    # Ratios 0.4, 1, 2.5 with target mass 0.2, 0.3, 0.5: mass strictly
    # above 1 is 0.5, above 2.5 is 0, so the infimum level for 0.25 is 2.5.
    assert prof.is_coverage_infimum(2.5, 0.25)
    assert not prof.is_coverage_infimum(1.0, 0.25)
    assert not prof.is_coverage_infimum(3.0, 0.25)
    assert prof.is_coverage_infimum(1.0, 0.6, floor=1.0)


@pytest.mark.parametrize("spec", ["tv", "kl", "chi2", "hellinger", "renyi:alpha=1.5", "renyi:alpha=3"])
@pytest.mark.parametrize("a", [0.05, 0.3, 0.8, 3.0, 20.0])
def test_growth_inverse_matches_grid_scan(spec, a):
    log_t = ref.log_growth_inverse(spec, a)
    grid = np.geomspace(1.0, 1e12, 400001)
    growth = ref.f_value(spec, grid) / grid
    hit = np.flatnonzero(growth >= a)
    if hit.size == 0:
        assert math.isinf(log_t) and a >= ref.f_prime_at_inf(spec)
        return
    # The first grid point past the root and the one before it bracket it.
    assert grid[hit[0] - 1] <= math.exp(log_t) <= grid[hit[0]]
    assert ref.is_growth_inverse(spec, math.exp(log_t) * (1 + 1e-12), a)


@pytest.mark.parametrize("a", [1e-3, 0.5, 11.0, 150.0, 689.0, 1000.0, 1e5])
def test_kl_log_growth_inverse_solves_its_equation(a):
    u = ref.kl_log_growth_inverse(a)
    assert u - 1.0 + math.exp(-u) == pytest.approx(a, rel=1e-13, abs=1e-15)
    if a < 600:
        t = math.exp(u)
        assert math.log(t) - 1 + 1 / t == pytest.approx(a, rel=1e-12)


def test_f_divergence_matches_loop():
    mu = [0.5, 0.25, 0.25, 0.0]
    nu = [0.25, 0.25, 0.25, 0.25]
    assert ref.f_divergence("kl", mu, nu) == math.inf
    assert ref.f_divergence("tv", mu, nu) == pytest.approx(
        sum(a * 0.5 * abs(b / a - 1) for a, b in zip(mu[:3], nu[:3])) + 0.25 * 0.5
    )
    mu, nu = mu[:3], [0.5, 0.3, 0.2]
    for spec in ("kl", "chi2", "hellinger", "renyi:alpha=3"):
        loop = sum(a * float(ref.f_value(spec, b / a)) for a, b in zip(mu, nu))
        assert ref.f_divergence(spec, mu, nu) == pytest.approx(loop, rel=1e-14)


def test_log_fdiv_n_matches_direct_formula_where_it_fits():
    spec, d, eps, delta = "chi2", 0.5, 0.1, 0.1
    gamma = math.exp(ref.log_growth_inverse(spec, 6 * d / eps))
    log_term = math.log(1 / delta)
    direct = 8 * max(gamma * log_term / eps, log_term / eps**2)
    assert ref.log_fdiv_n(spec, d, eps, delta) == pytest.approx(math.log(direct), rel=1e-13)
    assert ref.log_n_matches(math.ceil(direct), math.log(direct))
    assert not ref.log_n_matches(math.ceil(direct) + 2, math.log(direct))
