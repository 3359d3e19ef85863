"""The four workloads: their inputs, their operations and their checks.

Each workload builds its inputs from the run's seed (set-up), then hands
out rounds. A round is a fixed list of calls into pfest's user entry
points, ``harness.run_experiment`` and ``cli.main``; every round holds the
same calls with fresh trial seeds, so a run always attempts whole rounds
and its share of failed operations never depends on the seed or the run
length. Outputs are recorded outside the timed region and checked at the
end against ``reference`` (raw weights, exact laws), never against a
stored copy of an earlier output.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import math
from collections import defaultdict
from typing import Callable, NamedTuple

import numpy as np

import reference as ref

# Significance of every statistical check. A run makes a few dozen of them,
# so a correct program fails one by chance far less than once per million runs.
ALPHA = 1e-6


class Call(NamedTuple):
    key: str
    ops: int
    run: Callable[[], object]
    record: Callable[[object], None]


def derive(*parts) -> int:
    """Stable 63-bit seed from the run seed and labels, independent of pfest."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def call_cli(pfest, argv: list[str]) -> tuple[int, str, str]:
    """``pfest <argv>`` in-process, as the console script runs it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = pfest.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def parse_fields(line: str) -> dict[str, str]:
    """'plan method=kl n=12 M=3.0' -> {'method': 'kl', 'n': '12', 'M': '3.0'}."""
    fields = {}
    for token in line.split()[1:]:
        key, _, value = token.partition("=")
        fields[key] = value
    return fields


def lambdas(pair) -> np.ndarray:
    """Unnormalized density per atom, z * nu/mu, from the pair's weights."""
    mu, nu = pair.mu_weights, pair.nu_weights
    ratio = np.zeros_like(mu)
    np.divide(nu, mu, out=ratio, where=mu > 0)
    return pair.z_true * ratio


class Tallies:
    """Success counts pooled over rounds, checked once at the end.

    mode "band": the count must sit in the two-sided exact binomial band
    around the exact success probability p. mode "at_least": the count
    must not be improbably low for a success probability of p (a planner's
    1 - delta promise)."""

    def __init__(self):
        self.rows: dict[str, dict] = {}

    def add(self, key: str, successes: int, trials: int, p: float, mode: str):
        row = self.rows.setdefault(
            key, {"successes": 0, "trials": 0, "p": p, "mode": mode}
        )
        row["successes"] += successes
        row["trials"] += trials


def successes_from_freq(freq: float, trials: int, problems: list, where: str) -> int:
    count = round(freq * trials)
    if abs(count - freq * trials) > 1e-6:
        problems.append(f"{where}: success_freq {freq!r} is not a count over {trials}")
    return count


class Workload:
    name = ""

    def __init__(self, pfest, seed: int, worker: int):
        self.pfest = pfest
        self.seed = seed
        self.worker = worker
        self.failed = 0
        self.problems: list[str] = []
        self.tallies = Tallies()
        self.tv_pools: dict[str, dict] = {}

    def round(self, index: int) -> list[Call]:
        raise NotImplementedError

    def check(self) -> None:
        """Checks that need every round's outputs; per-call checks run as
        outputs are recorded."""

    def trial_seed(self, index: int, key: str) -> int:
        return derive(self.seed, self.worker, index, key)

    def experiment(self, config) -> Callable[[], object]:
        return lambda: self.pfest.harness.run_experiment(config)

    def cli(self, argv: list[str]) -> Callable[[], object]:
        return lambda: call_cli(self.pfest, argv)


# ------------------------------------------------------------------ mc_narrow

# Criterion 6's floor pair: p = 0.2 / gamma_KL(11), where n draws miss the
# high atom with probability (1 - p)^n and missing it costs 10% of Z.
FLOOR_N = 164977
# Success curves: (key, family, params, delta, eps grid, trials, n_override).
# Planned n runs from 314 (bernoulli, eps 0.5) to 1958; n_override rows sit
# below the plan, where the exact success probability is far from 1. The
# floor row uses delta = 0.9, so k = 1 group and the estimate is the plain
# mean: it succeeds at eps 0.11 exactly when the batch misses the high atom.
NARROW_CURVES = (
    ("curve_bernoulli", "bernoulli", (("p", 0.5), ("eps", 0.25)), 0.1,
     (0.5, 0.4, 0.3, 0.25, 0.2), 20, None),
    ("curve_two_point", "two_point_mu", (("p", 0.25),), 0.1,
     (0.9, 0.7, 0.5), 20, None),
    ("curve_below_plan_two_point", "two_point_mu", (("p", 0.25),), 0.1,
     (0.5, 0.3, 0.2), 20, 228),
    ("curve_below_plan_bernoulli", "bernoulli", (("p", 0.5), ("eps", 0.25)), 0.1,
     (0.2, 0.1, 0.05), 20, 152),
    ("curve_floor", "bernoulli", None, 0.9, (0.11,), 6, FLOOR_N),
)
# pfest estimate rows: (key, family, params, method, eps, delta, trials, extra).
NARROW_ESTIMATES = (
    ("estimate_quantile_two_point", "two_point_mu", "p=0.25", "quantile",
     0.5, 0.1, 40, []),
    ("estimate_quantile_bernoulli", "bernoulli", "p=0.5,eps=0.25", "quantile",
     0.3, 0.1, 40, []),
    ("estimate_snis", "bernoulli", "p=0.5,eps=0.25", "snis",
     0.25, 0.1, 10, ["--g", "0,1"]),
)


class McNarrow(Workload):
    """Seeded estimation trials on two-atom pairs: per-draw work dominates."""

    name = "mc_narrow"

    def __init__(self, pfest, seed, worker):
        super().__init__(pfest, seed, worker)
        floor_p = 0.2 / math.exp(ref.kl_log_growth_inverse(11.0))
        if math.floor(math.log(1.5) / (2.0 * floor_p)) != FLOOR_N:
            raise RuntimeError("floor pair does not reproduce n = 164977")
        harness = pfest.harness
        self.curves = []
        for key, family, params, delta, grid, trials, n_override in NARROW_CURVES:
            if params is None:
                params = (("p", floor_p), ("eps", 0.1))
            config = harness.ExperimentConfig(
                kind="success_curve",
                family=family,
                family_params=params,
                eps_grid=grid,
                delta=delta,
                trials=trials,
                master_seed=0,
                output_path="unused.csv",
                n_override=n_override,
            )
            pair = harness.build_family(family, dict(params))
            self.curves.append((key, config, pair))
        self.n_seen: dict = {}

    def round(self, index):
        calls = []
        for key, config, _ in self.curves:
            cfg = dataclasses.replace(config, master_seed=self.trial_seed(index, key))
            calls.append(
                Call(key, cfg.trials * len(cfg.eps_grid), self.experiment(cfg),
                     lambda table, key=key, cfg=cfg: self._record_curve(key, cfg, table))
            )
        for key, family, params, method, eps, delta, trials, extra in NARROW_ESTIMATES:
            argv = ["estimate", "--family", family, "--params", params,
                    "--method", method, "--eps", repr(eps), "--delta", repr(delta),
                    "--seed", str(self.trial_seed(index, key)),
                    "--trials", str(trials), *extra]
            calls.append(
                Call(key, trials, self.cli(argv),
                     lambda out, key=key, delta=delta, trials=trials:
                     self._record_estimate(key, delta, trials, out))
            )
        return calls

    def _record_curve(self, key, cfg, table):
        for row in table.rows:
            row = dict(zip(table.columns, row))
            where = f"{key}@eps={row['eps']}"
            if row["reason"]:
                self.problems.append(f"{where}: {row['reason']}")
                continue
            n = cfg.n_override or row["n_planned"]
            k, m = ref.mom_groups(n, cfg.delta)
            if row["n_used"] != k * m:
                self.problems.append(f"{where}: n_used {row['n_used']} != {k}*{m}")
            if self.n_seen.setdefault(where, row["n_planned"]) != row["n_planned"]:
                self.problems.append(f"{where}: planned n changed between rounds")
            hits = successes_from_freq(row["success_freq"], cfg.trials, self.problems, where)
            self.tallies.add(where, hits, cfg.trials, math.nan, "band")

    def _record_estimate(self, key, delta, trials, out):
        rc, stdout, stderr = out
        if rc != 0:
            self.problems.append(f"{key}: exit {rc}: {stderr.strip()}")
            return
        fields = parse_fields(stdout.splitlines()[0])
        hits = successes_from_freq(float(fields["success_freq"]), trials, self.problems, key)
        self.tallies.add(key, hits, trials, 1.0 - delta, "at_least")

    def check(self):
        for key, cfg, pair in self.curves:
            lam = lambdas(pair)
            q = float(pair.mu_weights[1])
            for eps in cfg.eps_grid:
                where = f"{key}@eps={eps}"
                if where not in self.tallies.rows:
                    continue
                n = cfg.n_override or self.n_seen[where]
                p = ref.mom_success_two_atom(
                    (lam[0], lam[1]), q, n, cfg.delta, eps, pair.z_true
                )
                if cfg.n_override is None and p < 1.0 - cfg.delta:
                    self.problems.append(
                        f"{where}: exact success {p!r} at planned n={n} is below "
                        f"1 - delta = {1.0 - cfg.delta}"
                    )
                if key == "curve_floor":
                    miss = math.exp(n * math.log1p(-q))
                    if ref.mom_success_set((lam[0], lam[1]), n, cfg.delta, eps,
                                           pair.z_true) != [0] or abs(p - miss) > 1e-12:
                        self.problems.append(f"{where}: success is not 'batch misses the high atom'")
                    p = miss
                self.tallies.rows[where]["p"] = p


# -------------------------------------------------------------------- mc_wide

# (support, pair seed): supports at and above 2^17, with planned n below
# the support size, so the support-sized work sample() redoes per call is
# a large share. The pairs are fixed because their shape sets the planned
# n and with it the cost of an op; the run seed drives every trial.
WIDE_PAIRS = ((1 << 17, 20260817), (1 << 18, 20260818))
WIDE_CURVE_EPS = (0.5, 0.3)
WIDE_DELTA = 0.1


class McWide(Workload):
    """The narrow workload's entry points on random pairs of wide support."""

    name = "mc_wide"

    def __init__(self, pfest, seed, worker):
        super().__init__(pfest, seed, worker)
        harness = pfest.harness
        self.pairs = []
        for i, (support, pair_seed) in enumerate(WIDE_PAIRS):
            params = {"support": support, "seed": pair_seed}
            pair = harness.build_family("random_finite", params)
            lam = lambdas(pair)
            config = harness.ExperimentConfig(
                kind="success_curve",
                family="random_finite",
                family_params=tuple(params.items()),
                eps_grid=WIDE_CURVE_EPS,
                delta=WIDE_DELTA,
                trials=8,
                master_seed=0,
                output_path="unused.csv",
            )
            spec = f"support={params['support']},seed={params['seed']}"
            self.pairs.append((f"wide{i}", support, spec, config, float(lam.min()),
                               float(lam.max())))

    def round(self, index):
        calls = []
        for label, support, spec, config, lo, hi in self.pairs:
            key = f"curve_{label}"
            cfg = dataclasses.replace(config, master_seed=self.trial_seed(index, key))
            calls.append(
                Call(key, cfg.trials * len(cfg.eps_grid), self.experiment(cfg),
                     lambda table, key=key, cfg=cfg, support=support:
                     self._record_curve(key, cfg, support, table))
            )
            for method, eps, trials in (("quantile", 0.3, 8), ("mom", 0.5, 4)):
                key = f"estimate_{method}_{label}"
                argv = ["estimate", "--family", "random_finite", "--params", spec,
                        "--method", method, "--eps", repr(eps), "--delta", repr(WIDE_DELTA),
                        "--seed", str(self.trial_seed(index, key)),
                        "--trials", str(trials), "--out", "-"]
                calls.append(
                    Call(key, trials, self.cli(argv),
                         lambda out, key=key, support=support, lo=lo, hi=hi, trials=trials:
                         self._record_estimate(key, support, lo, hi, trials, out))
                )
        return calls

    def _record_curve(self, key, cfg, support, table):
        for row in table.rows:
            row = dict(zip(table.columns, row))
            where = f"{key}@eps={row['eps']}"
            if row["reason"]:
                self.problems.append(f"{where}: {row['reason']}")
                continue
            if not row["n_planned"] < support:
                self.problems.append(f"{where}: planned n {row['n_planned']} >= support")
            hits = successes_from_freq(row["success_freq"], cfg.trials, self.problems, where)
            self.tallies.add(where, hits, cfg.trials, 1.0 - cfg.delta, "at_least")

    def _record_estimate(self, key, support, lo, hi, trials, out):
        rc, stdout, stderr = out
        if rc != 0:
            self.problems.append(f"{key}: exit {rc}: {stderr.strip()}")
            return
        lines = stdout.splitlines()
        fields = parse_fields(lines[0])
        if not int(fields["n"]) < support:
            self.problems.append(f"{key}: planned n {fields['n']} >= support")
        records = list(csv.DictReader(lines[1:]))
        if len(records) != trials:
            self.problems.append(f"{key}: {len(records)} trial rows, expected {trials}")
        for rec in records:
            est = float(rec["estimate"])
            if not lo <= est <= hi:
                self.problems.append(f"{key}: estimate {est!r} outside [{lo!r}, {hi!r}]")
        hits = sum(rec["success"] == "true" for rec in records)
        if hits != successes_from_freq(float(fields["success_freq"]), trials, self.problems, key):
            self.problems.append(f"{key}: per-trial successes disagree with success_freq")
        self.tallies.add(key, hits, trials, 1.0 - WIDE_DELTA, "at_least")


# ----------------------------------------------------------------- plan_sweep

PHASE_SPECS = ("tv", "kl", "chi2", "hellinger", "renyi:alpha=1.5", "renyi:alpha=3")
PHASE_REGIMES = {
    "tv": "linear",
    "kl": "subquadratic_superlinear",
    "chi2": "subquadratic_superlinear",
    "hellinger": "linear",
    "renyi:alpha=1.5": "subquadratic_superlinear",
    "renyi:alpha=3": "superquadratic",
}
PHASE_EPS = (0.9, 0.7, 0.4, 0.25, 0.15, 0.1, 0.05, 0.02, 0.012, 0.005, 0.003, 0.002)
# (divergence value, delta) per phase-transition table. The two tables at
# D = 2 differ only in delta, for the "n does not grow with delta" check.
PHASE_TABLES = ((0.05, 0.1), (0.5, 0.1), (2.0, 0.1), (2.0, 0.01))
# KL rows with growth argument 6D/eps above this come back infeasible:
# their growth inverse e^(a+1) passes pfest's bisection cap of 1e300
# (ln 1e300 = 690.8) although the plan exists. The grid keeps every KL
# argument away from the cap, so which rows fail never depends on rounding.
KL_CAP_ARGUMENT = 690.0
PLAN_SUPPORTS = (16, 256, 4096)
PLAN_METHODS = ("coverage", "quantile", "is", "snis", "sampling") + tuple(
    f"fdiv:{spec}" for spec in PHASE_SPECS
)
# (eps, delta) per plan; ordered so that n may only grow along the list.
PLAN_POINTS = ((0.5, 0.1), (0.2, 0.1), (0.2, 0.01))
COVERAGE_GRID = "0:24:49"


class PlanSweep(Workload):
    """Planner solves and profile tables; no draws are made."""

    name = "plan_sweep"

    def __init__(self, pfest, seed, worker):
        super().__init__(pfest, seed, worker)
        harness = pfest.harness
        for d, _ in PHASE_TABLES:
            for eps in PHASE_EPS:
                a = 6.0 * d / eps
                if abs(a - 0.5) < 1e-6 or abs(a - 1.0) < 1e-6 or 680 <= a <= 700:
                    raise RuntimeError(f"growth argument {a} sits on a regime edge")
        # One sweep per generator keeps each timed call short.
        self.tables = []
        for d, delta in PHASE_TABLES:
            for spec in PHASE_SPECS:
                config = harness.ExperimentConfig(
                    kind="phase_transition",
                    f_names=(spec,),
                    eps_grid=PHASE_EPS,
                    delta=delta,
                    trials=1,
                    master_seed=0,
                    output_path="unused.csv",
                    d_value=d,
                )
                self.tables.append((f"phase_{spec}_d{d}_delta{delta}", config))
        self.pairs = []
        for support in PLAN_SUPPORTS:
            params = {"support": support, "seed": derive(seed, "plan", support) % (1 << 32)}
            pair = harness.build_family("random_finite", params)
            g = 1.0 + np.arange(support) % 3
            self.pairs.append((
                f"s{support}", f"support={support},seed={params['seed']}", pair,
                ",".join(f"{v:g}" for v in g), g,
            ))
        self.outputs: dict[str, object] = {}
        self.failed_per: dict[str, int] = {}
        self.phase_n: dict = {}

    def round(self, index):
        calls = []
        for key, config in self.tables:
            rows = len(config.f_names) * len(config.eps_grid)
            calls.append(Call(key, rows, self.experiment(config),
                              lambda table, key=key, config=config: self._record_table(key, config, table)))
        for label, spec, pair, g_text, g in self.pairs:
            for method in PLAN_METHODS:
                for eps, delta in PLAN_POINTS:
                    key = f"plan_{label}_{method}_eps{eps}_delta{delta}"
                    argv = ["plan", "--family", "random_finite", "--params", spec,
                            "--eps", repr(eps), "--delta", repr(delta), "--method", method]
                    if method in ("is", "snis"):
                        argv += ["--g", g_text]
                    calls.append(Call(key, 1, self.cli(argv),
                                      lambda out, key=key: self._record_once(key, out)))
            key = f"coverage_{label}"
            argv = ["coverage", "--family", "random_finite", "--params", spec,
                    "--grid", COVERAGE_GRID]
            calls.append(Call(key, 1, self.cli(argv), lambda out, key=key: self._record_once(key, out)))
        return calls

    def _record_once(self, key, out):
        # Every round repeats the same plans: check the first output in
        # check() and require the later ones to be identical.
        if self.outputs.setdefault(key, out) != out:
            self.problems.append(f"{key}: output differs between rounds")

    def _record_table(self, key, config, table):
        if key in self.outputs:
            if self.outputs[key] != table.rows:
                self.problems.append(f"{key}: table differs between rounds")
            self.failed += self.failed_per[key]
            return
        self.outputs[key] = table.rows
        failed = 0
        n_by_spec = defaultdict(list)
        for row in table.rows:
            row = dict(zip(table.columns, row))
            spec, eps, d = row["f_name"], row["eps"], row["d_value"]
            where = f"{key} {spec} eps={eps}"
            arg = row["gamma_argument"]
            if arg != 6.0 * d / eps:
                self.problems.append(f"{where}: growth argument {arg!r}")
            if row["regime"] != PHASE_REGIMES[spec]:
                self.problems.append(f"{where}: regime {row['regime']}")
            n = math.inf
            if row["feasible"]:
                n = row["n_planned"]
                log_ref = ref.log_fdiv_n(spec, d, eps, config.delta)
                if not ref.log_n_matches(n, log_ref):
                    self.problems.append(f"{where}: n={n} but ln n should be {log_ref!r}")
            elif spec in ("tv", "hellinger"):
                if arg < ref.f_prime_at_inf(spec):
                    self.problems.append(f"{where}: infeasible below f'(inf)")
            elif spec == "kl" and arg > KL_CAP_ARGUMENT:
                failed += 1
            else:
                self.problems.append(f"{where}: infeasible: {row['reason']}")
            n_by_spec[spec].append((eps, n))
            self.phase_n[(config.d_value, config.delta, spec, eps)] = n
        for spec, pts in n_by_spec.items():
            pts.sort()
            if any(a[1] < b[1] for a, b in zip(pts, pts[1:])):
                self.problems.append(f"{key} {spec}: n grows with eps")
        self.failed_per[key] = failed
        self.failed += failed

    def check(self):
        for (d, delta, spec, eps), n in self.phase_n.items():
            looser = self.phase_n.get((d, 0.1, spec, eps))
            if delta < 0.1 and looser is not None and looser > n:
                self.problems.append(f"phase D={d} {spec} eps={eps}: n grows with delta")
        for label, _, pair, _, g in self.pairs:
            base = ref.RawProfile(pair.mu_weights, pair.nu_weights)
            weighted = ref.RawProfile(pair.mu_weights, pair.nu_weights, g)
            for method in PLAN_METHODS:
                last = 0.0
                for eps, delta in PLAN_POINTS:
                    key = f"plan_{label}_{method}_eps{eps}_delta{delta}"
                    if key not in self.outputs:
                        continue
                    n = self._check_plan(key, method, eps, delta, pair, base, weighted)
                    if n < last:
                        self.problems.append(f"{key}: n={n} fell below {last} as eps or delta shrank")
                    last = n
            key = f"coverage_{label}"
            if key in self.outputs:
                self._check_coverage(key, base)

    def _check_plan(self, key, method, eps, delta, pair, base, weighted) -> float:
        rc, stdout, stderr = self.outputs[key]
        if rc == 2 and method.startswith("fdiv:"):
            spec = method[len("fdiv:"):]
            d = ref.f_divergence(spec, pair.mu_weights, pair.nu_weights)
            if math.isfinite(ref.log_growth_inverse(spec, 6.0 * d / eps)):
                self.problems.append(f"{key}: infeasible although gamma is finite")
            return math.inf
        if rc != 0:
            self.problems.append(f"{key}: exit {rc}: {stderr.strip()}")
            return math.inf
        fields = parse_fields(stdout.splitlines()[0])
        n, m = int(fields["n"]), float(fields["M"])
        log_term = math.log(1.0 / delta)
        if method == "coverage":
            ok = base.is_smallest_icov_level(m, eps / 4.0)
            ok &= ref.ceil_matches(n, 8.0 * m * log_term / eps)
        elif method == "quantile":
            ok = base.is_coverage_infimum(m, eps / 4.0, floor=1.0)
            ok &= ref.ceil_matches(n, 18.0 * m * math.log(2.0 / delta) / eps)
        elif method == "is":
            ok = weighted.is_smallest_icov_level(m, eps * delta / 6.0)
            ok &= ref.ceil_matches(n, 6.0 * m / eps)
        elif method == "snis":
            target = eps * delta / 6.0
            below = m * (1.0 - 1e-7)
            ok = all(p.icov(m) <= target * m * (1.0 + 1e-12) for p in (base, weighted))
            ok &= any(p.icov(below) > target * below for p in (base, weighted))
            ok &= ref.ceil_matches(n, 6.0 * m / eps)
        elif method == "sampling":
            ok = base.is_coverage_infimum(m, eps / 3.0, floor=1.0)
            ok &= n == max(1, math.ceil(2.0 * m * math.log(3.0 / eps)))
        else:
            spec = method[len("fdiv:"):]
            d = float(fields["D"])
            d_ref = ref.f_divergence(spec, pair.mu_weights, pair.nu_weights)
            c = ref.c_threshold(spec)
            ok = abs(d - d_ref) <= 1e-9 * d_ref + 1e-15
            ok &= ref.is_growth_inverse(spec, m, 6.0 * d / eps)
            ok &= f"c_threshold={c!r}" in fields["constants"]
            ok &= ref.ceil_matches(
                n, 8.0 * max(m * log_term / eps, c * c * log_term / eps**2)
            )
        if not ok:
            self.problems.append(f"{key}: plan n={n} M={m!r} fails its defining property")
        return n

    def _check_coverage(self, key, prof):
        rc, stdout, stderr = self.outputs[key]
        if rc != 0:
            self.problems.append(f"{key}: exit {rc}: {stderr.strip()}")
            return
        rows = list(csv.DictReader(stdout.splitlines()))
        if len(rows) != 49:
            self.problems.append(f"{key}: {len(rows)} rows")
        for row in rows:
            m = float(row["M"])
            icov = prof.icov(m)
            want = {
                "cov": prof.cov(m),
                "icov": icov,
                "icov_over_M": icov / m if m > 0 else math.inf,
                "trunc_second_moment": prof.trunc_second_moment(m),
            }
            for col, value in want.items():
                got = float(row[col])
                if not (got == value or abs(got - value) <= 1e-10 * abs(value) + 1e-12):
                    self.problems.append(f"{key} M={m!r}: {col} {got!r} != {value!r}")


# -------------------------------------------------------------- race_sampling

RACE_EPS = (0.3, 0.1, 0.03)
# (label, family, params, trials per call). Bernoulli at eps 0.03 draws
# 12 x 100000 > 2^20 elements, so its races fill whole sampler blocks.
# The random pair is fixed: its ratio spread sets the race length n and
# with it the cost of a race; the run seed drives every race.
RACE_PAIRS = (
    ("bernoulli", "bernoulli", "p=0.5,eps=0.25", 100000),
    ("random64", "random_finite", "support=64,seed=20260864", 32768),
)


class RaceSampling(Workload):
    """pfest sample --trials: the race sampler's blocks."""

    name = "race_sampling"

    def __init__(self, pfest, seed, worker):
        super().__init__(pfest, seed, worker)
        harness = pfest.harness
        self.pairs = []
        for label, family, spec, trials in RACE_PAIRS:
            params = {}
            for chunk in spec.split(","):
                key, _, value = chunk.partition("=")
                params[key] = float(value) if "." in value else int(value)
            pair = harness.build_family(family, params)
            self.pairs.append((label, family, spec, trials, pair))
        self.plans: dict = {}

    def round(self, index):
        calls = []
        for label, family, spec, trials, pair in self.pairs:
            for eps in RACE_EPS:
                key = f"race_{label}_eps{eps}"
                argv = ["sample", "--family", family, "--params", spec, "--eps", repr(eps),
                        "--seed", str(self.trial_seed(index, key)), "--trials", str(trials)]
                calls.append(Call(key, trials, self.cli(argv),
                                  lambda out, key=key, eps=eps, trials=trials, pair=pair:
                                  self._record(key, eps, trials, pair, out)))
        return calls

    def _record(self, key, eps, trials, pair, out):
        rc, stdout, stderr = out
        if rc != 0:
            self.problems.append(f"{key}: exit {rc}: {stderr.strip()}")
            return
        fields = parse_fields(stdout.splitlines()[0])
        freqs = [float(v) for v in fields["freqs"].split(",")]
        counts = np.array([round(f * trials) for f in freqs], dtype=np.int64)
        nulls = int(fields["null_races"])
        if nulls:
            self.problems.append(f"{key}: {nulls} null races")
        tv = ref.empirical_tv(counts, trials, pair.nu_weights, nulls)
        if abs(tv - float(fields["empirical_tv"])) > 1e-9:
            self.problems.append(f"{key}: printed empirical_tv {fields['empirical_tv']} != {tv!r}")
        if counts.sum() + nulls != trials:
            self.problems.append(f"{key}: winner counts do not add up to {trials}")
        self.plans.setdefault(key, (int(fields["n"]), float(fields["M"]), eps, pair))
        pool = self.tv_pools.setdefault(
            key, {"counts": np.zeros(pair.support_size, dtype=np.int64), "trials": 0,
                  "nu": pair.nu_weights, "eps": eps}
        )
        pool["counts"] += counts
        pool["trials"] += trials

    def check(self):
        for key, (n, m, eps, pair) in self.plans.items():
            prof = ref.RawProfile(pair.mu_weights, pair.nu_weights)
            ok = prof.is_coverage_infimum(m, eps / 3.0, floor=1.0)
            ok &= n == max(1, math.ceil(2.0 * m * math.log(3.0 / eps)))
            if not ok:
                self.problems.append(f"{key}: race length n={n} M={m!r} off its plan")


WORKLOADS = {
    cls.name: cls for cls in (McNarrow, McWide, PlanSweep, RaceSampling)
}
