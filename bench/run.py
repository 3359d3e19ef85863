"""pfest benchmark: one command, four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload mc_narrow --seed 1 --seconds 20 --trace 0

Run from the root of a pfest checkout; pfest is imported from ./src. A
run starts WORKERS worker processes one after another (never two at
once), each with PFEST_THREADS unset and BLAS/OpenMP pinned to one
thread. Each worker sets up, runs whole rounds for seconds/WORKERS and
checks its outputs. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see README.md). The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("mc_narrow", "mc_wide", "plan_sweep", "race_sampling")
# Set-up is measured once per worker, so a run yields WORKERS set-up times.
WORKERS = 5
# A run must end within this many seconds, set-up and checks included.
RUN_BUDGET_S = 170.0
# The probe's time (worker.probe) on an idle machine; calibrated times are
# expressed at that speed.
PROBE_REF_S = 1.45e-3
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

LAYER_CALLS = (
    "rng.derive_seed",
    "rng.make_generator",
    "distributions.sample",
    "coverage.from_pair",
    "estimators.plan",
    "coverage.solve_M_eps",
    "coverage.min_coverage_threshold",
    "divergences.gamma_f",
    "divergences.parse_f_spec",
    "sampler.run_races",
)
LAYER_SELF = LAYER_CALLS + (
    "distributions.make_random_pair",
    "estimators.median_of_means",
    "estimators.quantile_estimator",
    "estimators.snis",
    "divergences.f_divergence",
    "harness.run_experiment",
    "cli.main",
)
LAYER_WORK = (
    ("distributions.sample.draws", "draws/op"),
    ("sampler.run_races.race_draws", "draws/op"),
)


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("PFEST_THREADS", None)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_workers(args) -> list[dict]:
    from worker import SETUP_PROBES, probe

    started = time.monotonic()
    results = []
    for worker in range(WORKERS):
        cmd = [
            sys.executable,
            os.path.join(HERE, "worker.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", repr(args.seconds / WORKERS),
            "--trace", str(args.trace),
            "--worker", str(worker),
        ]
        if args.trace:
            cmd += ["--spans", os.path.join(
                OUT_DIR, f"spans-{args.workload}-w{worker}.jsonl")]
        remaining = RUN_BUDGET_S - (time.monotonic() - started)
        before = statistics.median(probe() for _ in range(SETUP_PROBES))
        spawned_at = time.monotonic()
        proc = subprocess.run(
            cmd, env=worker_env(), capture_output=True, text=True, timeout=remaining
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"worker {worker} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["wall_setup_s"] = result["ready_at"] - spawned_at
        # Probes just before the spawn and just after set-up bracket it.
        speed = PROBE_REF_S / (0.5 * (before + result["ready_probe"]))
        result["setup_s"] = result["wall_setup_s"] * speed
        results.append(result)
    return results


def calibrated_time(results: list[dict], field: str) -> float:
    """Time of one round at the reference machine speed.

    Each call time is divided by the probe timed next to it, the median
    of those ratios is taken per call, and the sum over the round's calls
    is scaled by the probe's time on an idle machine."""
    ratios: dict[str, list] = {}
    for result in results:
        for key, times in result[field].items():
            ratios.setdefault(key, []).extend(t / unit for t, unit in times)
    return sum(statistics.median(v) for v in ratios.values()) * PROBE_REF_S


def wall_time(results: list[dict], field: str) -> float:
    """Time of one round from the median wall time of each call."""
    times: dict[str, list] = {}
    for result in results:
        for key, pairs in result[field].items():
            times.setdefault(key, []).extend(t for t, _ in pairs)
    return sum(statistics.median(v) for v in times.values())


def check_pools(results: list[dict], problems: list[str]) -> dict:
    import reference as ref
    from workloads import ALPHA

    tallies: dict[str, dict] = {}
    for result in results:
        for key, row in result["tallies"].items():
            pooled = tallies.setdefault(key, {**row, "successes": 0, "trials": 0})
            pooled["successes"] += row["successes"]
            pooled["trials"] += row["trials"]
    for key, row in tallies.items():
        hits, trials, p = row["successes"], row["trials"], row["p"]
        if row["mode"] == "band":
            ok = ref.band_ok(hits, trials, p, ALPHA)
            row["band"] = ref.band(trials, p, ALPHA)
        else:
            ok = ref.at_least_ok(hits, trials, p, ALPHA)
        if not ok:
            problems.append(f"{key}: {hits}/{trials} successes against p={p!r} ({row['mode']})")

    pools: dict[str, dict] = {}
    for result in results:
        for key, pool in result["tv_pools"].items():
            merged = pools.setdefault(key, {**pool, "counts": [0] * len(pool["counts"]), "trials": 0})
            merged["counts"] = [a + b for a, b in zip(merged["counts"], pool["counts"])]
            merged["trials"] += pool["trials"]
    tv = {}
    for key, pool in pools.items():
        dist = ref.empirical_tv(pool["counts"], pool["trials"], pool["nu"])
        limit = pool["eps"] + ref.tv_slack(len(pool["nu"]), pool["trials"], ALPHA)
        tv[key] = {"tv": dist, "limit": limit, "trials": pool["trials"]}
        if not dist <= limit:
            problems.append(f"{key}: pooled empirical TV {dist!r} > {limit!r}")
    return {"tallies": tallies, "tv": tv}


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(results: list[dict]) -> dict:
    per_round = {r["ops_per_round"] for r in results}
    if len(per_round) != 1:
        raise RuntimeError(f"workers disagree on ops per round: {per_round}")
    ops = per_round.pop()
    return {
        "setup_s": metric(statistics.median(r["setup_s"] for r in results), "s"),
        "ops_per_s": metric(ops / calibrated_time(results, "timings"), "1/s"),
        "peak_rss_mb": metric(statistics.median(r["rss_mb"] for r in results), "MB"),
    }


def per_layer(results: list[dict]) -> dict:
    """Totals over the traced rounds of every worker, per op."""
    ops = sum(r["traced_ops"] for r in results)
    total = {}
    for result in results:
        for key, value in result["layers"].items():
            total[key] = total.get(key, 0) + value
    out = {}
    for name in LAYER_CALLS:
        out[f"{name}.calls"] = metric(total[f"{name}.calls"] / ops, "calls/op")
    for name in LAYER_SELF:
        out[f"{name}.self_s"] = metric(total[f"{name}.self_s"] / ops, "s/op")
    for name, unit in LAYER_WORK:
        out[name] = metric(total.get(name, 0) / ops, unit)
    drawn = total.get("estimators.mom.draws", 0)
    used = total.get("estimators.mom.draws_used", 0)
    out["estimators.mom.draws_used_frac"] = metric(used / drawn if drawn else 0.0, "ratio")
    out["trace.overhead_frac"] = metric(
        calibrated_time(results, "traced_timings") / calibrated_time(results, "timings") - 1.0,
        "ratio",
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "pfest", "__init__.py")):
        print("bench/run.py: run from the root of a pfest checkout (no src/pfest here)",
              file=sys.stderr)
        return 2
    # The probes and checks below import numpy; keep its pools at one thread.
    os.environ.update({name: "1" for name in THREAD_VARS})
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        results = run_workers(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"bench/run.py: {exc}", file=sys.stderr)
        return 1

    problems = [p for r in results for p in r["problems"]]
    pooled = check_pools(results, problems)
    metrics = per_layer(results) if args.trace else end_to_end(results)
    summary = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    detail = {
        "args": vars(args),
        "summary": summary,
        "problems": problems,
        "setup_s": [r["setup_s"] for r in results],
        "wall_setup_s": [r["wall_setup_s"] for r in results],
        "wall_ops_per_s": (sum(r["attempted"] for r in results) / sum(r["rounds"] for r in results))
        / wall_time(results, "timings"),
        "rounds": [r["rounds"] for r in results],
        "rss_mb": [r["rss_mb"] for r in results],
        **pooled,
    }
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, default=str)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
