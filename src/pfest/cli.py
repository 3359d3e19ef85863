"""Command-line front end.

Five subcommands: coverage (profile tables), plan (sample-size
planning), estimate (run estimators over seeded trials), sample (the
race sampler), and experiment (config-driven sweeps). Exit codes:
0 success, 2 infeasible plan, 1 anything else.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import sys

import numpy as np

from .coverage import CoverageProfile
from .distributions import DistributionPair, load_pair
from .errors import InfeasiblePlanError, PfestError
from .estimators import (
    ESTIMATORS,
    PlanSource,
    estimator_plan,
    plan_method,
    run_trials,
)
from .harness import (
    build_family,
    emit_csv,
    load_config,
    run_experiment,
    _parse_scalar,
)
from .sampler import astar_sample, empirical_tv, run_races, sampling_plan

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for infeasible
    # plans here, so usage problems become a plain error exit instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(f"{self.prog}: error: {message}")


def _add_pair_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pair", help="JSON pair file (see save_pair)")
    parser.add_argument(
        "--family",
        help="inline family instead of --pair: "
        "bernoulli|two_point_mu|point_mass|random_finite",
    )
    parser.add_argument(
        "--params",
        default="",
        help="comma-separated family parameters, e.g. p=0.5,eps=0.25",
    )


def _load_pair_argument(args) -> DistributionPair:
    if bool(args.pair) == bool(args.family):
        raise ValueError("exactly one of --pair or --family is required")
    if args.pair:
        return load_pair(args.pair)
    params = {}
    for chunk in filter(None, (s.strip() for s in args.params.split(","))):
        key, sep, value = chunk.partition("=")
        if not sep:
            raise ValueError(f"malformed --params entry {chunk!r}")
        params[key] = _parse_scalar(value)
    return build_family(args.family, params)


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo_s, hi_s, steps_s = spec.split(":")
        lo, hi, steps = float(lo_s), float(hi_s), int(steps_s)
    except ValueError:
        raise ValueError(f"--grid must be M0:M1:steps, got {spec!r}") from None
    if steps < 1 or not 0 <= lo <= hi < math.inf:
        raise ValueError(
            f"bad grid {spec!r}: need finite 0 <= M0 <= M1 and steps >= 1"
        )
    return np.linspace(lo, hi, steps)


def _open_out(path):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline=""), True


def _cmd_coverage(args) -> int:
    pair = _load_pair_argument(args)
    profile = CoverageProfile.from_pair(pair)
    grid = _parse_grid(args.grid)
    out, owned = _open_out(args.out)
    try:
        writer = csv.writer(out)
        writer.writerow(
            ["M", "cov", "icov", "icov_over_M", "trunc_second_moment"]
        )
        cov = profile.coverage(grid)
        icov = profile.integrated_coverage(grid)
        trunc = profile.truncated_second_moment(grid)
        with np.errstate(divide="ignore"):
            ratio = np.where(grid > 0, icov / np.maximum(grid, 1e-300), np.inf)
        for i, m in enumerate(grid):
            writer.writerow(
                [repr(float(m)), repr(float(cov[i])), repr(float(icov[i])),
                 repr(float(ratio[i])), repr(float(trunc[i]))]
            )
    finally:
        if owned:
            out.close()
    return EXIT_OK


def _cmd_plan(args) -> int:
    pair = _load_pair_argument(args)
    planner = plan_method(args.method)
    plan = planner.run(pair, args.eps, args.delta, _g_table(args, pair, planner))
    if plan.source is PlanSource.SAMPLING:
        print(f"plan method=sampling n={plan.n} M={plan.m!r} eps={args.eps!r}")
        return EXIT_OK
    consts = ";".join(f"{k}={v!r}" for k, v in sorted(plan.constants.items()))
    extra = "".join(f" {k}={v}" for k, v in plan.inputs.items())
    print(
        f"plan method={args.method} n={plan.n} M={plan.m!r} "
        f"eps={args.eps!r} delta={args.delta!r} constants={consts}{extra}"
    )
    return EXIT_OK


def _g_table(args, pair: DistributionPair, planner):
    """The --g table, parsed only for the plans that read one and
    rejected everywhere else."""
    if not planner.needs_g:
        if args.g is not None:
            raise ValueError(f"method {args.method!r} reads no --g table")
        return None
    if not args.g:
        raise ValueError("--g values are required for this method")
    g = np.asarray([float(v) for v in args.g.split(",")], dtype=np.float64)
    if g.size != pair.support_size:
        raise ValueError(
            f"--g has {g.size} entries, support has {pair.support_size}"
        )
    return g


def _cmd_estimate(args) -> int:
    pair = _load_pair_argument(args)
    planner = estimator_plan(args.method, args.plan)
    g = _g_table(args, pair, planner)
    plan = planner.run(pair, args.eps, args.delta, g)
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    results = run_trials(
        pair, args.method, plan.n, args.trials, args.seed,
        args.eps, args.delta, m=plan.m, g=g,
    )
    success_freq = sum(ok for _, ok in results) / len(results)
    total = 0.0  # left to right: sum() compensates floats on 3.12+
    for report, _ in results:
        total += report.estimate
    mean_estimate = total / len(results)
    print(
        f"estimate method={args.method} n={plan.n} M={plan.m!r} "
        f"trials={args.trials} eps={args.eps!r} delta={args.delta!r} "
        f"mean_estimate={mean_estimate!r} success_freq={success_freq!r}"
    )
    if args.out:
        out, owned = _open_out(args.out)
        try:
            writer = csv.writer(out)
            writer.writerow(["trial", "n", "estimate", "rel_error", "success"])
            for trial, (report, ok) in enumerate(results):
                writer.writerow(
                    [trial, report.n_used, repr(float(report.estimate)),
                     repr(float(report.rel_error)), "true" if ok else "false"]
                )
        finally:
            if owned:
                out.close()
    return EXIT_OK


def _cmd_sample(args) -> int:
    pair = _load_pair_argument(args)
    n, m = sampling_plan(CoverageProfile.from_pair(pair), args.eps)
    if args.trials is None:
        atom, state = astar_sample(pair, n, args.seed)
        print(
            f"sample atom={atom} n={n} M={m!r} eps={args.eps!r} "
            f"best_score={state.best_score!r}"
        )
        return EXIT_OK
    summary = run_races(pair, n, args.trials, args.seed)
    tv = empirical_tv(summary, pair)
    freqs = ",".join(repr(float(c) / summary.trials) for c in summary.counts)
    print(
        f"sample trials={args.trials} n={n} M={m!r} eps={args.eps!r} "
        f"empirical_tv={tv!r} null_races={summary.null_races} freqs={freqs}"
    )
    return EXIT_OK


def _cmd_experiment(args) -> int:
    config = load_config(args.config)
    table = run_experiment(config)
    path = args.out or config.output_path
    emit_csv(table, path)
    print(f"wrote {path} ({len(table.rows)} rows, kind={config.kind})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pfest", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_cov = sub.add_parser("coverage", help="tabulate the coverage profile")
    _add_pair_arguments(p_cov)
    p_cov.add_argument("--grid", required=True, help="M0:M1:steps")
    p_cov.add_argument("--out", help="CSV path (default stdout)")
    p_cov.set_defaults(fn=_cmd_coverage)

    p_plan = sub.add_parser("plan", help="compute a sample-size plan")
    _add_pair_arguments(p_plan)
    p_plan.add_argument("--eps", type=float, required=True)
    p_plan.add_argument("--delta", type=float, default=0.1)
    p_plan.add_argument(
        "--method",
        default="coverage",
        help="coverage|fdiv:<f-spec>|quantile|is|snis|sampling",
    )
    p_plan.add_argument("--g", help="comma-separated g values (is/snis)")
    p_plan.set_defaults(fn=_cmd_plan)

    p_est = sub.add_parser("estimate", help="run an estimator")
    _add_pair_arguments(p_est)
    p_est.add_argument("--method", choices=tuple(ESTIMATORS), required=True)
    p_est.add_argument("--eps", type=float, required=True)
    p_est.add_argument("--delta", type=float, default=0.1)
    p_est.add_argument("--plan",
                       help="coverage|fdiv:<f-spec> (mom only; default coverage)")
    p_est.add_argument("--seed", type=int, required=True)
    p_est.add_argument("--trials", type=int, default=1)
    p_est.add_argument("--g", help="comma-separated g values (snis)")
    p_est.add_argument("--out", help="per-trial CSV path")
    p_est.set_defaults(fn=_cmd_estimate)

    p_samp = sub.add_parser("sample", help="run the race sampler")
    _add_pair_arguments(p_samp)
    p_samp.add_argument("--eps", type=float, required=True)
    p_samp.add_argument("--seed", type=int, required=True)
    p_samp.add_argument("--trials", type=int)
    p_samp.set_defaults(fn=_cmd_sample)

    p_exp = sub.add_parser("experiment", help="run a config-driven sweep")
    p_exp.add_argument("--config", required=True)
    p_exp.add_argument("--out", help="override the config output_path")
    p_exp.set_defaults(fn=_cmd_experiment)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # Built on first use, not at import; parse_args leaves it unchanged,
    # so one instance serves every in-process call.
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InfeasiblePlanError as exc:
        print(f"pfest: infeasible plan: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (PfestError, ValueError, OSError) as exc:
        print(f"pfest: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
