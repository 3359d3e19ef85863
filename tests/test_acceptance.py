"""End-to-end guarantee suite.

One test per shipped guarantee, each printing a single
``[criterion N] PASS/FAIL: ...`` line (run with ``-s`` to see them all).
Monte Carlo checks run on seeds derived from MASTER_SEED, so the
empirical frequencies below are deterministic reruns of values that were
computed once and frozen, not statistical hopes.  Each test also
enforces the wall-clock budget it was designed under.
"""

import math
import os
import time

import numpy as np
import pytest

from pfest import (
    CoverageProfile,
    ExperimentConfig,
    SampleBatch,
    chi_squared,
    coverage_bound_fdiv,
    csv_fingerprint,
    derive_seed,
    emit_csv,
    empirical_tv,
    f_divergence,
    gamma_f,
    icov_bound_fdiv,
    kl,
    make_bernoulli_pair,
    make_random_pair,
    make_twopoint_mu_pair,
    make_weighted_pair,
    median_of_means,
    min_coverage_threshold,
    paley_zygmund_lower_bound,
    plan_n_coverage,
    plan_n_quantile,
    plan_n_sampling,
    plan_n_snis,
    quantile_estimator,
    renyi,
    run_phase_transition,
    run_races,
    run_sampling_vs_counting,
    run_success_curve,
    sample,
    snis,
    table_fingerprint,
    tv,
    within_multiplicative,
)
from pfest.estimators import group_count, run_trials

from exact_laws import quantile_fail, race_law, two_level_fail

MASTER_SEED = 20260814
SLACK = 1e-10


def _report(num: int, ok: bool, detail: str) -> None:
    line = "[criterion {}] {}: {}".format(num, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


def _least_n(fail, delta: float, n: int = 1) -> int:
    """n*, the least n from ``n`` up whose exact failure probability
    ``fail(n)`` is at most delta."""
    while fail(n) > delta:
        n += 1
    return n


def test_criterion_1_exact_inequality_suite():
    """Tail and truncation inequalities hold pointwise, no slack games.

    1000 seeded random pairs x a 50-point threshold grid each:
      (a) truncated second moment <= integrated coverage;
      (b) coverage <= min(1, m*D/f(m)) for the quadratic-and-up generators;
      (c) icov/m <= c^2/m + m*D/f(m) for generators growing at most
          quadratically (superquadratic ones genuinely violate this form);
      (d) the anti-concentration floor never exceeds the exact mu-tail.
    """
    t0 = time.perf_counter()
    gens_cov = [chi_squared(), kl(), renyi(1.5), renyi(3.0)]
    gens_icov = [tv(), chi_squared(), kl(), renyi(1.5)]
    violations = 0
    grids = 0
    for s in range(1000):
        pair = make_random_pair(2 + s % 63, 81000 + s)
        prof = CoverageProfile.from_pair(pair)
        if prof.thresholds.size == 0:
            continue
        lo = max(float(prof.thresholds.min()) / 2.0, 1e-6)
        hi = 2.0 * float(prof.thresholds.max())
        grid = np.geomspace(lo, hi, 50)
        grids += 1

        cov = prof.coverage(grid)
        icov = prof.integrated_coverage(grid)
        t2 = prof.truncated_second_moment(grid)
        violations += int(np.sum(t2 > icov + SLACK))

        for f in gens_cov:
            d = f_divergence(pair, f)
            if not math.isfinite(d):
                continue
            fm = f(grid)
            mask = (grid > 1.0) & (fm > 0.0)
            bound = np.minimum(1.0, grid[mask] * d / fm[mask])
            violations += int(np.sum(cov[mask] > bound + SLACK))

        for f in gens_icov:
            d = f_divergence(pair, f)
            if not math.isfinite(d):
                continue
            c = f.c_threshold
            fm = f(grid)
            mask = (grid >= c) & (fm > 0.0)
            bound = c * c / grid[mask] + grid[mask] * d / fm[mask]
            violations += int(np.sum(icov[mask] / grid[mask] > bound + SLACK))

        for eps in (0.1, 0.25, 0.5):
            truth = prof.mu_tail(1.0 - eps)
            for u in (0.25, 0.5, 0.75):
                pz = paley_zygmund_lower_bound(prof, eps, u)
                violations += int(pz.bound > truth + SLACK)

    # The closed-form bound helpers must agree with the formulas checked above.
    spot = make_bernoulli_pair(0.5, 0.25)
    f = chi_squared()
    d = f_divergence(spot, f)
    for m in (1.5, 2.0, 5.0):
        assert math.isclose(
            coverage_bound_fdiv(f, d, m), min(1.0, m * d / f(m)), rel_tol=1e-12
        )
        assert math.isclose(
            icov_bound_fdiv(f, d, m, f.c_threshold),
            min(1.0, f.c_threshold**2 / m + m * d / f(m)),
            rel_tol=1e-12,
        )

    elapsed = time.perf_counter() - t0
    ok = violations == 0 and grids == 1000 and elapsed < 10.0
    _report(1, ok, f"{grids} pairs, {violations} violations, {elapsed:.1f}s")


def test_criterion_2_profile_identities():
    """Min-identity IC matches quadrature of the coverage curve."""
    t0 = time.perf_counter()
    worst = 0.0
    monotone_ok = True
    for s in range(100):
        pair = make_random_pair(3 + s % 30, 9000 + s)
        prof = CoverageProfile.from_pair(pair)
        for m in (0.8, 1.25, 2.0):
            nodes = np.linspace(0.0, m, 10_001)
            quad = float(np.trapezoid(prof.coverage(nodes), nodes))
            ic = prof.integrated_coverage(m)
            worst = max(worst, abs(quad - ic) / ic)
        lo = max(float(prof.thresholds.min()) / 2.0, 1e-6)
        grid = np.geomspace(lo, 2.0 * float(prof.thresholds.max()), 50)
        cov = prof.coverage(grid)
        ratio = prof.integrated_coverage(grid) / grid
        monotone_ok &= bool(np.all(np.diff(cov) <= SLACK))
        monotone_ok &= bool(np.all(np.diff(ratio) <= SLACK))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and monotone_ok and elapsed < 5.0
    _report(2, ok, f"worst quadrature gap {worst:.2e}, monotone={monotone_ok}, {elapsed:.1f}s")


def test_criterion_3_mom_estimator_guarantee():
    """Planned n delivers (1 +- eps) accuracy at the promised rate."""
    t0 = time.perf_counter()
    pair = make_bernoulli_pair(0.5, 0.25)
    prof = CoverageProfile.from_pair(pair)
    plan = plan_n_coverage(prof, 0.25, 0.1)
    assert (plan.n, plan.m) == (1253, 17.0)
    hits = 0
    for trial in range(500):
        batch = sample(pair, plan.n, int(derive_seed(MASTER_SEED, trial)))
        report = median_of_means(batch, 0.1, true_value=pair.z_true)
        hits += within_multiplicative(report.estimate, pair.z_true, 0.25)
    freq = hits / 500.0
    # the same estimator through run_trials, which runs it on hit counts
    count_freq = run_trials(
        pair, "mom", plan.n, 500, MASTER_SEED, 0.25, 0.1
    ).success_freq
    elapsed = time.perf_counter() - t0
    ok = freq >= 0.87 and count_freq >= 0.87 and elapsed < 60.0
    _report(
        3, ok,
        f"success {freq:.3f} (counts {count_freq:.3f}) at n={plan.n}, {elapsed:.1f}s",
    )


# (p, n*) on make_bernoulli_pair(p, 0.25) at eps 0.25 and delta 0.1,
# where the plan is 33.0, 9.7 and 4.3 times n*
@pytest.mark.parametrize("p, n_star", [(0.5, 38), (0.1, 190), (0.01, 1957)])
def test_criterion_3_plan_meets_delta_exactly(p, n_star):
    """Beside criterion 3's frequencies: MoM's exact failure probability
    is at most delta at the coverage plan, and the plan asks at most 40
    times n* draws."""
    eps, delta = 0.25, 0.1
    pair = make_bernoulli_pair(p, 0.25)
    plan = plan_n_coverage(CoverageProfile.from_pair(pair), eps, delta)
    fail = lambda n: two_level_fail(pair, "mom", n, eps, delta)
    assert fail(plan.n) <= delta
    assert _least_n(fail, delta, group_count(delta)) == n_star
    assert plan.n <= 40 * n_star
    if p == 0.5:  # 3.95e-191 at criterion 3's plan, where 1 - P[success] is 0.0
        assert 0.0 < fail(plan.n) < 1e-100


def test_criterion_4_quantile_estimator_guarantee():
    """Order-statistic estimate lands in [(1-eps)Z, M*Z] often enough."""
    t0 = time.perf_counter()
    pair = make_twopoint_mu_pair(0.25)
    prof = CoverageProfile.from_pair(pair)
    plan = plan_n_quantile(0.5, 0.1, profile=prof)
    assert (plan.n, plan.m) == (432, 4.0)
    assert plan.n == math.ceil(18.0 * plan.m * math.log(2.0 / 0.1) / 0.5)
    hits = 0
    for trial in range(500):
        batch = sample(pair, plan.n, int(derive_seed(MASTER_SEED, 1000 + trial)))
        est = quantile_estimator(batch, 0.5, plan.m, true_value=pair.z_true).estimate
        hits += (1.0 - 0.5) * pair.z_true <= est <= plan.m * pair.z_true
    freq = hits / 500.0
    count_freq = run_trials(
        pair, "quantile", plan.n, 500, MASTER_SEED + 1000, 0.5, 0.1, m=plan.m
    ).success_freq
    elapsed = time.perf_counter() - t0
    ok = freq >= 0.87 and count_freq >= 0.87 and elapsed < 60.0
    _report(
        4, ok,
        f"success {freq:.3f} (counts {count_freq:.3f}) at n={plan.n}, {elapsed:.1f}s",
    )


def test_criterion_4_plan_meets_delta_exactly():
    """Beside criterion 4's frequencies: the quantile estimate's exact
    failure probability is at most delta at the quantile plan (1.8e-36,
    all of it below (1 - eps) z), and the plan asks 48.0 times n* = 9
    draws, at most 60."""
    pair = make_twopoint_mu_pair(0.25)
    plan = plan_n_quantile(0.5, 0.1, profile=CoverageProfile.from_pair(pair))
    fail = lambda n: sum(quantile_fail(pair, n, 0.5, plan.m))
    assert fail(plan.n) <= 0.1
    n_star = _least_n(fail, 0.1)
    assert n_star == 9
    assert plan.n <= 60 * n_star


def test_criterion_5_race_sampler_tv_guarantee():
    """Race winners approximate the target within eps total variation:
    the frozen Monte Carlo TV over 10^6 races, and the exact TV of the
    race's winner law at the planned n."""
    t0 = time.perf_counter()
    pair = make_bernoulli_pair(0.5, 0.25)
    prof = CoverageProfile.from_pair(pair)
    trials = 10**6
    slack = 3.0 * math.sqrt(2.0 / trials)
    results = []
    for i, eps in enumerate((0.3, 0.1, 0.03)):
        m = max(1.0, min_coverage_threshold(prof, eps / 3.0))
        assert prof.coverage(np.nextafter(m, np.inf)) <= eps / 3.0
        n = plan_n_sampling(m, eps)
        assert n == math.ceil(2.0 * m * math.log(3.0 / eps))
        summary = run_races(pair, n, trials, 4200 + i)
        dist = empirical_tv(summary, pair)
        law, null = race_law(pair, n)
        exact = 0.5 * (float(np.abs(law - pair.nu_weights).sum()) + null)
        results.append((eps, n, dist, exact))
    elapsed = time.perf_counter() - t0
    ok = all(d <= e + slack and x <= e for e, _, d, x in results) and elapsed < 120.0
    detail = ", ".join(
        f"eps={e}: tv={d:.1e}, exact {x:.1e} (n={n})" for e, n, d, x in results
    )
    _report(5, ok, f"{detail}, {elapsed:.1f}s")


def test_criterion_6_lower_bound_demonstration():
    """Below the sample-size floor the estimator fails more than delta often.

    The adversarial pair hides its partition mass in an atom so rare
    that n draws miss it with probability about 2/3, and missing it
    forces a 10% underestimate.
    """
    t0 = time.perf_counter()
    gamma = gamma_f(kl(), 11.0)
    assert gamma >= 2.0
    p = 0.2 / gamma
    pair = make_bernoulli_pair(p, 0.1)
    n_lb = math.floor(math.log(1.5) / (2.0 * p))
    assert n_lb == 164977
    analytic_zero = (1.0 - p) ** n_lb
    assert analytic_zero >= math.exp(-2.0 * n_lb * p)

    zero_high = 0
    mom_hits = 0
    for trial in range(500):
        batch = sample(pair, n_lb, int(derive_seed(MASTER_SEED, trial)))
        if not np.any(batch.atoms == 1):
            zero_high += 1
        est = median_of_means(batch, 1.0 / 3.0).estimate
        mom_hits += within_multiplicative(est, pair.z_true, 0.1)
    emp_zero = zero_high / 500.0
    mom_freq = mom_hits / 500.0
    count_freq = run_trials(
        pair, "mom", n_lb, 500, MASTER_SEED, 0.1, 1.0 / 3.0
    ).success_freq
    elapsed = time.perf_counter() - t0
    ok = (
        abs(emp_zero - analytic_zero) <= 0.05
        and mom_freq < 2.0 / 3.0
        and count_freq < 2.0 / 3.0
        and elapsed < 60.0
    )
    _report(
        6,
        ok,
        f"zero-high {emp_zero:.3f} vs {analytic_zero:.3f}, "
        f"mom success {mom_freq:.3f} (counts {count_freq:.3f}), {elapsed:.1f}s",
    )


def test_criterion_7_phase_transition_plans():
    """Plan sizes split into infeasible / exponential / polynomial regimes."""
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        kind="phase_transition",
        eps_grid=(0.5, 0.25, 0.1, 0.05, 0.02),
        delta=0.1,
        trials=1,
        master_seed=MASTER_SEED,
        output_path="phase.csv",
        f_names=("tv", "kl", "renyi:alpha=3"),
        d_value=0.5,
    )
    table = run_phase_transition(cfg)
    rows = [dict(zip(table.columns, r)) for r in table.rows]
    by_f = lambda name: [r for r in rows if r["f_name"] == name]

    tv_ok = all(not r["feasible"] for r in by_f("tv"))

    kl_rows = by_f("kl")
    assert all(r["feasible"] for r in kl_rows)
    inv_eps = np.array([1.0 / r["eps"] for r in kl_rows])
    # n_planned overflows float64 at the small-eps end, so log via math.
    log_n = np.array([math.log(r["n_planned"]) for r in kl_rows])
    kl_slope = float(np.polyfit(inv_eps, log_n, 1)[0])
    kl_ok = abs(kl_slope - 3.0) <= 0.2 * 3.0

    r3 = sorted(by_f("renyi:alpha=3"), key=lambda r: r["eps"])
    n_small, n_next = r3[0]["n_planned"], r3[1]["n_planned"]
    r3_slope = (math.log(n_next) - math.log(n_small)) / (
        math.log(1.0 / r3[1]["eps"]) - math.log(1.0 / r3[0]["eps"])
    )
    r3_ok = 1.8 <= r3_slope <= 2.2

    elapsed = time.perf_counter() - t0
    ok = tv_ok and kl_ok and r3_ok and elapsed < 5.0
    _report(
        7,
        ok,
        f"tv infeasible={tv_ok}, kl slope {kl_slope:.3f} vs 3.0, "
        f"power slope {r3_slope:.3f}, {elapsed:.1f}s",
    )


def test_criterion_8_sampling_vs_counting_separation():
    """Empirical minimal n for estimation outgrows the sampler's."""
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        kind="sampling_vs_counting",
        eps_grid=(0.2, 0.1, 0.05),
        delta=1.0 / 3.0,
        trials=200,
        master_seed=MASTER_SEED,
        output_path="svc.csv",
        family="two_point_mu",
        family_params=(("p", 0.25),),
    )
    table = run_sampling_vs_counting(cfg)
    rows = [dict(zip(table.columns, r)) for r in table.rows]
    ratios = [r["n_ratio"] for r in rows]
    elapsed = time.perf_counter() - t0
    ok = (
        all(r["reason"] == "" for r in rows)
        and all(b > a for a, b in zip(ratios, ratios[1:]))
        and ratios[-1] >= 5.0
        and elapsed < 120.0
    )
    detail = ", ".join(f"eps={r['eps']}: ratio={r['n_ratio']:.1f}" for r in rows)
    _report(8, ok, f"{detail}, {elapsed:.1f}s")


def test_criterion_9_snis_guarantee_and_invariance():
    """SNIS hits its planned accuracy and ignores the scale of lambda."""
    t0 = time.perf_counter()
    pair = make_bernoulli_pair(0.5, 0.25)
    prof = CoverageProfile.from_pair(pair)
    g = np.array([0.0, 1.0])
    weighted = make_weighted_pair(pair, g)
    wprof = CoverageProfile.from_pair(weighted)
    plan = plan_n_snis(prof, wprof, 0.25, 0.1)
    assert (plan.n, plan.m) == (11520, 480.0)
    truth = 0.625

    hits = 0
    for trial in range(500):
        batch = sample(pair, plan.n, int(derive_seed(MASTER_SEED, 2000 + trial)))
        est = snis(batch, g, true_value=truth).estimate
        hits += within_multiplicative(est, truth, 0.25)
    freq = hits / 500.0
    count_freq = run_trials(
        pair, "snis", plan.n, 500, MASTER_SEED + 2000, 0.25, 0.1, m=plan.m, g=g
    ).success_freq

    worst_rel = 0.0
    for i in range(100):
        rp = make_random_pair(2 + i % 20, 7000 + i)
        batch = sample(rp, 200, 3000 + i)
        g_table = np.sin(np.arange(rp.mu_weights.size, dtype=np.float64)) + 1.5
        base = snis(batch, g_table).estimate
        for scale in (1e8, math.pi * 1e-6):
            scaled = SampleBatch(
                atoms=batch.atoms,
                lambdas=batch.lambdas * scale,
                seed=batch.seed,
                n=batch.n,
            )
            rel = abs(snis(scaled, g_table).estimate - base) / abs(base)
            worst_rel = max(worst_rel, rel)

    elapsed = time.perf_counter() - t0
    ok = freq >= 0.87 and count_freq >= 0.87 and worst_rel <= 1e-12 and elapsed < 60.0
    _report(
        9, ok,
        f"success {freq:.3f} (counts {count_freq:.3f}), "
        f"worst scale drift {worst_rel:.1e}, {elapsed:.1f}s",
    )


def test_criterion_9_plan_meets_delta_exactly():
    """Beside criterion 9's frequencies: SNIS's exact failure probability
    is at most delta at the SNIS plan (2.0e-243), and the plan asks 500.9
    times n* = 23 draws, at most 600."""
    pair, g = make_bernoulli_pair(0.5, 0.25), np.array([0.0, 1.0])
    plan = plan_n_snis(
        CoverageProfile.from_pair(pair),
        CoverageProfile.from_pair(make_weighted_pair(pair, g)),
        0.25, 0.1,
    )
    fail = lambda n: two_level_fail(pair, "snis", n, 0.25, 0.1, g)
    assert fail(plan.n) <= 0.1
    n_star = _least_n(fail, 0.1)
    assert n_star == 23
    assert plan.n <= 600 * n_star


def test_criterion_10_determinism(tmp_path):
    """Same config and master seed give a byte-identical table body,
    also when the run follows a run of a different config."""
    configs = {
        "success_curve": ExperimentConfig(
            kind="success_curve",
            eps_grid=(0.5, 0.25),
            delta=0.1,
            trials=40,
            master_seed=MASTER_SEED,
            output_path="curve.csv",
            family="bernoulli",
            family_params=(("p", 0.5), ("eps", 0.25)),
        ),
        "phase_transition": ExperimentConfig(
            kind="phase_transition",
            eps_grid=(0.5, 0.1),
            delta=0.1,
            trials=1,
            master_seed=MASTER_SEED,
            output_path="phase.csv",
            f_names=("tv", "kl"),
            d_value=0.5,
        ),
        "sampling_vs_counting": ExperimentConfig(
            kind="sampling_vs_counting",
            eps_grid=(0.5,),
            delta=1.0 / 3.0,
            trials=80,
            master_seed=11,
            output_path="svc.csv",
            family="two_point_mu",
            family_params=(("p", 0.25),),
        ),
    }
    runners = {
        "success_curve": run_success_curve,
        "phase_transition": run_phase_transition,
        "sampling_vs_counting": run_sampling_vs_counting,
    }
    stable, firsts = {}, {}
    for name, cfg in configs.items():
        run = runners[name]
        first, second = run(cfg), run(cfg)
        same = table_fingerprint(first) == table_fingerprint(second)
        path_a = tmp_path / f"{name}_a.csv"
        path_b = tmp_path / f"{name}_b.csv"
        emit_csv(first, path_a)
        emit_csv(second, path_b)
        same &= csv_fingerprint(path_a) == csv_fingerprint(path_b)
        stable[name], firsts[name] = same, table_fingerprint(first)
    # third runs in rotated order: each follows a run of another config
    names = list(configs)
    for name in names[1:] + names[:1]:
        third = runners[name](configs[name])
        stable[name] &= table_fingerprint(third) == firsts[name]
    ok = all(stable.values())
    detail = ", ".join(
        f"{name}={'stable' if s else 'DRIFTED'}" for name, s in stable.items()
    )
    _report(10, ok, detail)
