"""Command-line front end.

Five subcommands: coverage (profile tables), plan (sample-size
planning), estimate (run estimators over seeded trials), sample (the
race sampler), and experiment (config-driven sweeps). Exit codes:
0 success, 2 infeasible plan, 1 anything else.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .coverage import CoverageProfile, TailPlanner
from .distributions import DistributionPair, load_pair
from .errors import InfeasiblePlanError, PfestError
from .estimators import ESTIMATORS, estimator_plan, ordered_mean, plan_method
from .estimators import run_trials
from .harness import (
    SweepTable,
    build_family,
    emit_csv,
    load_config,
    run_experiment,
    _parse_scalar,
    _serialize,
)
from .sampler import astar_sample, empirical_tv, race_plan, run_races

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
        params[key] = _parse_scalar(key, value)
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


def _print_record(kind: str, **fields) -> None:
    """Print one ``kind key=value ...`` line. Values print with str,
    which for Python floats is repr."""
    print(" ".join([kind, *(f"{key}={value}" for key, value in fields.items())]))


def _write_table(columns: tuple, rows, path) -> None:
    """A headed CSV table, to stdout for ``-`` or no path, else to the
    file at ``path``."""
    table = SweepTable(columns, tuple(rows))
    if path in (None, "-"):
        sys.stdout.write(_serialize(table))
    else:
        emit_csv(table, path)


def _cmd_coverage(args) -> int:
    grid = _parse_grid(args.grid)
    profile = CoverageProfile.from_pair(_load_pair_argument(args))
    cov = profile.coverage(grid)
    icov = profile.integrated_coverage(grid)
    trunc = profile.truncated_second_moment(grid)
    ratio = np.divide(icov, grid, out=np.full_like(grid, np.inf), where=grid > 0)
    columns = ("M", "cov", "icov", "icov_over_M", "trunc_second_moment")
    values = (grid, cov, icov, ratio, trunc)
    _write_table(columns, zip(*(v.tolist() for v in values)), args.out)
    return EXIT_OK


def _cmd_plan(args) -> int:
    pair = _load_pair_argument(args)
    planner = plan_method(args.method)
    plan = planner.run(pair, args.eps, args.delta, _g_table(args, pair, planner))
    fields = {"method": args.method, "n": plan.n, "M": plan.m, "eps": args.eps}
    if args.method != "sampling":  # a TV guarantee: no delta
        consts = ";".join(f"{k}={v}" for k, v in sorted(plan.constants.items()))
        fields.update(delta=args.delta, constants=consts, **plan.inputs)
    _print_record("plan", **fields)
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
    entries = args.g.split(",")
    try:
        g = np.array(entries, dtype=np.float64)
    except ValueError:
        for atom, entry in enumerate(entries):
            try:
                np.float64(entry)
            except ValueError:
                raise ValueError(
                    f"--g value for atom {atom} must be a number, got {entry!r}"
                ) from None
        raise
    if g.size != pair.support_size:
        raise ValueError(
            f"--g has {g.size} entries, support has {pair.support_size}"
        )
    return g


def _cmd_estimate(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    pair = _load_pair_argument(args)
    planner = estimator_plan(args.method, args.plan)
    g = _g_table(args, pair, planner)
    plan = planner.run(pair, args.eps, args.delta, g)
    record = run_trials(
        pair, args.method, plan.n, args.trials, args.seed,
        args.eps, args.delta, m=plan.m, g=g,
    )
    _print_record(
        "estimate", method=args.method, n=plan.n, M=plan.m, trials=args.trials,
        eps=args.eps, delta=args.delta, mean_estimate=ordered_mean(record.estimates),
        success_freq=record.success_freq,
    )
    if args.out:
        values = (record.estimates, record.rel_errors, record.success)
        rows = enumerate(zip(*(v.tolist() for v in values)))
        _write_table(("trial", "n", "estimate", "rel_error", "success"),
                     ((t, record.n_used, *row) for t, row in rows), args.out)
    return EXIT_OK


def _cmd_sample(args) -> int:
    if args.trials is not None and args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    pair = _load_pair_argument(args)
    plan = race_plan(TailPlanner(pair), args.eps)
    head = {"n": plan.n, "M": plan.m, "eps": args.eps}
    if args.trials is None:
        try:
            atom, state = astar_sample(pair, plan.n, args.seed)
        except MemoryError:
            raise ValueError(f"races of n={plan.n} draws do not fit in memory") from None
        _print_record("sample", atom=atom, **head, best_score=state.best_score)
        return EXIT_OK
    try:
        summary = run_races(pair, plan.n, args.trials, args.seed)
    except MemoryError:
        raise ValueError(
            f"the race law over S={pair.support_size} atoms does not fit in memory"
        ) from None
    freqs = ",".join(str(float(c) / summary.trials) for c in summary.counts)
    _print_record(
        "sample", trials=args.trials, **head,
        empirical_tv=empirical_tv(summary, pair), null_races=summary.null_races,
        freqs=freqs,
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
    return _build_parsers()[0]


def _build_parsers() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and each subcommand's own parser by name."""
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

    commands = {
        "coverage": p_cov, "plan": p_plan, "estimate": p_est,
        "sample": p_samp, "experiment": p_exp,
    }
    return parser, commands


@functools.cache
def _shared_parsers() -> tuple[argparse.ArgumentParser, dict]:
    # Built on first use, not at import; parse_args leaves them unchanged,
    # so one instance serves every in-process call.
    return _build_parsers()


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, commands = _shared_parsers()
    # A command word goes straight to its own parser, which the top-level
    # parser would otherwise call after parsing the same tokens itself;
    # anything else (help, no command, an unknown one) goes through the top.
    command = commands.get(argv[0]) if argv else None
    args = command.parse_args(argv[1:]) if command else parser.parse_args(argv)
    try:
        return args.fn(args)
    except InfeasiblePlanError as exc:
        print(f"pfest: infeasible plan: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (PfestError, ValueError, OSError) as exc:
        print(f"pfest: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:
        print(f"pfest: error: out of memory: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
