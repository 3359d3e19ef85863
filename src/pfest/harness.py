"""Experiment orchestration: configs, sweeps, and CSV artifacts.

A config names a distribution family, an accuracy grid, and run
parameters; the runners turn it into a table of per-epsilon results.
Tables serialize to CSV with a metadata header that records every
planner constant in play, and re-running a config with the same master
seed reproduces the file byte for byte apart from wallclock timings.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import io
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import estimators
from .coverage import CoverageProfile
from .distributions import (
    DistributionPair,
    make_bernoulli_pair,
    make_pointmass_pair,
    make_random_pair,
    make_twopoint_mu_pair,
)
from .divergences import classify_regime, parse_f_spec
from .errors import ConfigError, InfeasiblePlanError, SingularPairError
from .estimators import group_count, plan_n_coverage, plan_n_fdiv, run_trials
from .rng import derive_seed
from .sampler import (
    SAMPLING_PLAN_CONSTANT,
    empirical_tv,
    run_races,
    sampling_plan,
)

THREADS_ENV_VAR = "PFEST_THREADS"

# Empirical minimal-n searches declare a probe successful when the
# success frequency clears 1 - delta minus this slack; the result is an
# empirical quantity, not a certified bound.
EMPIRICAL_THRESHOLD_SLACK = 0.05
# Doubling search gives up past this many samples per trial.
SEARCH_N_CAP = 1 << 22

_EXPERIMENT_KINDS = ("success_curve", "phase_transition", "sampling_vs_counting")
_FAMILY_BUILDERS: dict[str, Callable[[dict], DistributionPair]] = {}

# Keys accepted in the [experiment] section; everything else is a typo
# and rejected outright.
_EXPERIMENT_KEYS = {
    "kind",
    "family",
    "f_names",
    "eps_grid",
    "delta",
    "trials",
    "master_seed",
    "output_path",
    "n_override",
    "d_value",
}


def _family(name: str):
    def register(fn):
        _FAMILY_BUILDERS[name] = fn
        return fn

    return register


@_family("bernoulli")
def _build_bernoulli(params: dict) -> DistributionPair:
    return make_bernoulli_pair(
        params["p"], params["eps"], params.get("z", 1.0)
    )


@_family("two_point_mu")
def _build_two_point_mu(params: dict) -> DistributionPair:
    return make_twopoint_mu_pair(params["p"], params.get("z", 1.0))


@_family("point_mass")
def _build_point_mass(params: dict) -> DistributionPair:
    return make_pointmass_pair(params["q"], params.get("z", 1.0))


@_family("random_finite")
def _build_random_finite(params: dict) -> DistributionPair:
    return make_random_pair(
        params.get("support", 16), params.get("seed", 0), params.get("z", 1.0)
    )


def build_family(family: str, params: dict) -> DistributionPair:
    try:
        builder = _FAMILY_BUILDERS[family]
    except KeyError:
        raise ConfigError(
            f"unknown family {family!r}; choose from "
            f"{sorted(_FAMILY_BUILDERS)}"
        ) from None
    try:
        return builder(dict(params))
    except KeyError as exc:
        raise ConfigError(f"family {family!r} requires parameter {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    eps_grid: tuple[float, ...]
    delta: float
    trials: int
    master_seed: int
    output_path: str
    family: str = ""
    family_params: tuple[tuple[str, float], ...] = ()
    f_names: tuple[str, ...] = ()
    n_override: Optional[int] = None
    d_value: Optional[float] = None

    def __post_init__(self):
        if self.kind not in _EXPERIMENT_KINDS:
            raise ConfigError(
                f"kind must be one of {_EXPERIMENT_KINDS}, got {self.kind!r}"
            )
        if not self.eps_grid:
            raise ConfigError("eps_grid must be non-empty")
        for eps in self.eps_grid:
            if not 0 < eps < 1:
                raise ConfigError(f"eps_grid values must be in (0, 1), got {eps}")
        if not 0 < self.delta < 1:
            raise ConfigError(f"delta must be in (0, 1), got {self.delta}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError("master_seed must fit in 64 bits")
        if not self.output_path:
            raise ConfigError("output_path is required")
        if self.n_override is not None and self.n_override < 1:
            raise ConfigError(f"n_override must be >= 1, got {self.n_override}")
        if self.kind == "phase_transition":
            if not self.f_names:
                raise ConfigError("phase_transition requires f_names")
            if self.d_value is None or self.d_value < 0:
                raise ConfigError("phase_transition requires d_value >= 0")
        elif not self.family:
            raise ConfigError(f"{self.kind} requires a family")

    @property
    def params_dict(self) -> dict:
        return dict(self.family_params)


def _parse_scalar(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def config_from_text(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    unknown_sections = set(parser.sections()) - {"experiment", "family_params"}
    if unknown_sections:
        raise ConfigError(f"unknown config sections: {sorted(unknown_sections)}")
    if not parser.has_section("experiment"):
        raise ConfigError("missing [experiment] section")
    exp = dict(parser.items("experiment"))
    unknown = set(exp) - _EXPERIMENT_KEYS
    if unknown:
        raise ConfigError(f"unknown keys in [experiment]: {sorted(unknown)}")
    missing = {"kind", "eps_grid", "delta", "trials", "master_seed", "output_path"} - set(exp)
    if missing:
        raise ConfigError(f"missing keys in [experiment]: {sorted(missing)}")
    params = ()
    if parser.has_section("family_params"):
        try:
            params = tuple(
                (k, _parse_scalar(v)) for k, v in parser.items("family_params")
            )
        except ValueError as exc:
            raise ConfigError(f"non-numeric family parameter: {exc}") from exc
    try:
        eps_grid = tuple(float(v) for v in exp["eps_grid"].split(","))
        delta = float(exp["delta"])
        trials = int(exp["trials"])
        master_seed = int(exp["master_seed"])
        n_override = int(exp["n_override"]) if "n_override" in exp else None
        d_value = float(exp["d_value"]) if "d_value" in exp else None
    except ValueError as exc:
        raise ConfigError(f"malformed [experiment] value: {exc}") from exc
    f_names = tuple(
        s.strip() for s in exp.get("f_names", "").split(",") if s.strip()
    )
    return ExperimentConfig(
        kind=exp["kind"],
        family=exp.get("family", ""),
        family_params=params,
        f_names=f_names,
        eps_grid=eps_grid,
        delta=delta,
        trials=trials,
        master_seed=master_seed,
        output_path=exp["output_path"],
        n_override=n_override,
        d_value=d_value,
    )


def config_to_text(config: ExperimentConfig) -> str:
    lines = ["[experiment]", f"kind = {config.kind}"]
    if config.family:
        lines.append(f"family = {config.family}")
    if config.f_names:
        lines.append(f"f_names = {','.join(config.f_names)}")
    lines.append(f"eps_grid = {','.join(repr(e) for e in config.eps_grid)}")
    lines.append(f"delta = {config.delta!r}")
    lines.append(f"trials = {config.trials}")
    lines.append(f"master_seed = {config.master_seed}")
    lines.append(f"output_path = {config.output_path}")
    if config.n_override is not None:
        lines.append(f"n_override = {config.n_override}")
    if config.d_value is not None:
        lines.append(f"d_value = {config.d_value!r}")
    if config.family_params:
        lines.append("")
        lines.append("[family_params]")
        for key, value in config.family_params:
            lines.append(f"{key} = {value!r}")
    return "\n".join(lines) + "\n"


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_text(fh.read())


def save_config(config: ExperimentConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(config_to_text(config))


@dataclass(frozen=True)
class SweepTable:
    """Columns, row tuples, and the metadata echoed into the header."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    metadata: tuple[tuple[str, str], ...] = ()

    def column(self, name: str) -> list:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]


def _constants_metadata() -> list[tuple[str, str]]:
    return [
        ("mom_group_rate", repr(estimators.GROUP_RATE)),
        ("coverage_plan_constant", repr(estimators.COVERAGE_PLAN_CONSTANT)),
        ("fdiv_plan_constant", repr(estimators.FDIV_PLAN_CONSTANT)),
        ("fdiv_gamma_mult", repr(estimators.FDIV_GAMMA_MULT)),
        ("quantile_plan_constant", repr(estimators.QUANTILE_PLAN_CONSTANT)),
        ("quantile_gamma_mult", repr(estimators.QUANTILE_GAMMA_MULT)),
        ("is_plan_constant", repr(estimators.IS_PLAN_CONSTANT)),
        ("sampling_plan_constant", repr(SAMPLING_PLAN_CONSTANT)),
    ]


def _config_metadata(config: ExperimentConfig) -> list[tuple[str, str]]:
    meta = [
        ("format", "pfest-sweep-v1"),
        ("kind", config.kind),
        ("eps_grid", ",".join(repr(e) for e in config.eps_grid)),
        ("delta", repr(config.delta)),
        ("trials", str(config.trials)),
        ("master_seed", str(config.master_seed)),
    ]
    if config.family:
        meta.append(("family", config.family))
        meta.append(
            ("family_params", ";".join(f"{k}={v!r}" for k, v in config.family_params))
        )
    if config.f_names:
        meta.append(("f_names", ",".join(config.f_names)))
    if config.n_override is not None:
        meta.append(("n_override", str(config.n_override)))
    if config.d_value is not None:
        meta.append(("d_value", repr(config.d_value)))
    meta.extend(_constants_metadata())
    return meta


def _map_rows(fn, items: list) -> list:
    raw = os.environ.get(THREADS_ENV_VAR, "1")
    try:
        cap = int(raw)
    except ValueError:
        raise ConfigError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}")
    if cap <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=min(cap, len(items))) as pool:
        # map preserves submission order, so the CSV layout does not
        # depend on completion order.
        return list(pool.map(fn, items))


def _params_label(config: ExperimentConfig) -> str:
    return ";".join(f"{k}={v!r}" for k, v in config.family_params)


def run_success_curve(config: ExperimentConfig) -> SweepTable:
    """Per epsilon: plan n, run seeded estimation trials, and record the
    empirical success frequency of the (1 +/- eps) event.

    n_override replaces the planned n in every row, which is how the
    below-the-bound failure regime is reproduced.
    """
    if config.kind != "success_curve":
        raise ConfigError(f"config kind {config.kind!r} is not success_curve")
    pair = build_family(config.family, config.params_dict)
    profile = CoverageProfile.from_pair(pair)
    columns = (
        "family",
        "params",
        "eps",
        "n_planned",
        "n_used",
        "success_freq",
        "mean_rel_error",
        "wallclock_ms",
        "reason",
    )
    label = _params_label(config)

    def one_row(item):
        index, eps = item
        start = time.perf_counter()
        row_seed = int(derive_seed(config.master_seed, index))
        try:
            n_planned = plan_n_coverage(profile, eps, config.delta).n
            n = config.n_override if config.n_override is not None else n_planned
            if n < group_count(config.delta):
                raise InfeasiblePlanError(
                    f"n = {n} is below the {group_count(config.delta)} groups "
                    "the median needs"
                )
            results = run_trials(
                pair, "mom", n, config.trials, row_seed, eps, config.delta
            )
            successes = 0
            rel_sum = 0.0
            for report, ok in results:
                successes += ok
                rel_sum += report.rel_error
            elapsed = (time.perf_counter() - start) * 1e3
            return (
                config.family,
                label,
                eps,
                n_planned,
                results[-1][0].n_used,
                successes / config.trials,
                rel_sum / config.trials,
                elapsed,
                "",
            )
        except (InfeasiblePlanError, SingularPairError) as exc:
            elapsed = (time.perf_counter() - start) * 1e3
            return (
                config.family,
                label,
                eps,
                0,
                0,
                math.nan,
                math.nan,
                elapsed,
                str(exc),
            )

    rows = _map_rows(one_row, list(enumerate(config.eps_grid)))
    return SweepTable(columns, tuple(rows), tuple(_config_metadata(config)))


def run_phase_transition(config: ExperimentConfig) -> SweepTable:
    """Tabulate planned n per generator and epsilon at fixed divergence.

    Plan-only: no sampling happens, so the table shows the regime
    structure directly (infeasible rows for slow-growing generators,
    exponential growth for intermediate ones, polynomial for fast)."""
    if config.kind != "phase_transition":
        raise ConfigError(f"config kind {config.kind!r} is not phase_transition")
    columns = (
        "f_name",
        "regime",
        "eps",
        "d_value",
        "gamma_argument",
        "n_planned",
        "feasible",
        "reason",
    )
    d = config.d_value
    grid = [
        (spec, eps) for spec in config.f_names for eps in config.eps_grid
    ]

    def one_row(item):
        spec, eps = item
        f = parse_f_spec(spec)
        regime = classify_regime(f).value
        argument = estimators.FDIV_GAMMA_MULT * d / eps
        try:
            plan = plan_n_fdiv(f, d, eps, config.delta)
            return (spec, regime, eps, d, argument, plan.n, True, "")
        except InfeasiblePlanError as exc:
            return (spec, regime, eps, d, argument, 0, False, str(exc))

    rows = _map_rows(one_row, grid)
    return SweepTable(columns, tuple(rows), tuple(_config_metadata(config)))


def _minimal_n(probe: Callable[[int], bool], cap: int = SEARCH_N_CAP) -> int:
    """Doubling then bisection for the smallest n the probe accepts.

    The probe is Monte Carlo, so the result is an empirical boundary,
    not a certified one; 0 means the cap was hit without a success.
    """
    n = 1
    while not probe(n):
        n *= 2
        if n > cap:
            return 0
    lo, hi = n // 2, n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if probe(mid):
            hi = mid
        else:
            lo = mid
    return hi


def run_sampling_vs_counting(config: ExperimentConfig) -> SweepTable:
    """Planned and empirically minimal n for the race sampler vs the
    median-of-means estimator on the same bounded-ratio pair.

    Sampler probes succeed when the empirical TV over `trials` races is
    at most eps; estimator probes when the (1 +/- eps) success
    frequency clears 1 - delta - 0.05."""
    if config.kind != "sampling_vs_counting":
        raise ConfigError(
            f"config kind {config.kind!r} is not sampling_vs_counting"
        )
    pair = build_family(config.family, config.params_dict)
    profile = CoverageProfile.from_pair(pair)
    threshold = 1.0 - config.delta - EMPIRICAL_THRESHOLD_SLACK
    columns = (
        "eps",
        "m_sampler",
        "sampler_n_planned",
        "sampler_n_empirical",
        "estimator_n_planned",
        "estimator_n_empirical",
        "n_ratio",
        "wallclock_ms",
        "reason",
    )

    def one_row(item):
        index, eps = item
        start = time.perf_counter()
        row_seed = int(derive_seed(config.master_seed, index))
        sampler_base = int(derive_seed(row_seed, 0))
        estimator_base = int(derive_seed(row_seed, 1))
        sampler_planned, m_sampler = sampling_plan(profile, eps)
        estimator_planned = plan_n_coverage(profile, eps, config.delta).n

        def sampler_ok(n: int) -> bool:
            summary = run_races(
                pair, n, config.trials, int(derive_seed(sampler_base, n))
            )
            return empirical_tv(summary, pair) <= eps

        k_min = group_count(config.delta)

        def estimator_ok(n: int) -> bool:
            if n < k_min:
                return False
            results = run_trials(
                pair, "mom", n, config.trials,
                int(derive_seed(estimator_base, n)), eps, config.delta,
            )
            return sum(ok for _, ok in results) / config.trials >= threshold

        sampler_min = _minimal_n(sampler_ok)
        estimator_min = _minimal_n(estimator_ok)
        reason = ""
        if sampler_min == 0 or estimator_min == 0:
            reason = f"search capped at {SEARCH_N_CAP}"
            ratio = math.nan
        else:
            ratio = estimator_min / sampler_min
        elapsed = (time.perf_counter() - start) * 1e3
        return (
            eps,
            m_sampler,
            sampler_planned,
            sampler_min,
            estimator_planned,
            estimator_min,
            ratio,
            elapsed,
            reason,
        )

    rows = _map_rows(one_row, list(enumerate(config.eps_grid)))
    return SweepTable(columns, tuple(rows), tuple(_config_metadata(config)))


def run_experiment(config: ExperimentConfig) -> SweepTable:
    runner = {
        "success_curve": run_success_curve,
        "phase_transition": run_phase_transition,
        "sampling_vs_counting": run_sampling_vs_counting,
    }[config.kind]
    return runner(config)


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _serialize(table: SweepTable) -> str:
    out = io.StringIO()
    for key, value in table.metadata:
        out.write(f"# {key}={value}\r\n")
    writer = csv.writer(out)
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow([_format_cell(cell) for cell in row])
    return out.getvalue()


def emit_csv(table: SweepTable, path) -> None:
    """Metadata header ('# key=value' lines), then an RFC-4180 body in
    deterministic grid order. Floats use repr so parsing them back
    recovers the exact values."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_serialize(table))


def read_csv(path) -> SweepTable:
    """Inverse of emit_csv up to cell types: every cell comes back as a
    string."""
    metadata = []
    body = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for line in fh:
            if line.startswith("# "):
                key, _, value = line[2:].rstrip("\r\n").partition("=")
                metadata.append((key, value))
            else:
                body.append(line)
    reader = csv.reader(body)
    try:
        columns = tuple(next(reader))
    except StopIteration:
        raise ValueError(f"{path}: no header row") from None
    rows = tuple(tuple(row) for row in reader)
    return SweepTable(columns=columns, rows=rows, metadata=tuple(metadata))


def table_fingerprint(table: SweepTable) -> str:
    """SHA-256 of the serialized table with wallclock timings removed;
    equal fingerprints mean the run reproduced exactly."""
    if "wallclock_ms" in table.columns:
        keep = [i for i, c in enumerate(table.columns) if c != "wallclock_ms"]
        table = SweepTable(
            columns=tuple(table.columns[i] for i in keep),
            rows=tuple(tuple(row[i] for i in keep) for row in table.rows),
            metadata=table.metadata,
        )
    return hashlib.sha256(_serialize(table).encode("utf-8")).hexdigest()


def csv_fingerprint(path) -> str:
    return table_fingerprint(read_csv(path))
