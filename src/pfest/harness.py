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
import time
from dataclasses import MISSING, dataclass, fields
from typing import Callable, Optional

import numpy as np

from . import estimators
from .coverage import TailPlanner
from .distributions import (
    DistributionPair,
    make_bernoulli_pair,
    make_pointmass_pair,
    make_random_pair,
    make_twopoint_mu_pair,
)
from .divergences import classify_regime, parse_f_spec
from .errors import ConfigError, InfeasiblePlanError, SingularPairError
from .estimators import group_count, ordered_mean, plan_n_coverage, plan_n_fdiv
from .estimators import run_trials
from .rng import derive_seed
from .sampler import (
    SAMPLING_PLAN_CONSTANT,
    empirical_tv,
    race_plan,
    run_races,
)

# Empirical minimal-n searches declare a probe successful when the
# success frequency clears 1 - delta minus this slack; the result is an
# empirical quantity, not a certified bound.
EMPIRICAL_THRESHOLD_SLACK = 0.05
# Doubling search gives up past this many samples per trial.
SEARCH_N_CAP = 1 << 22

# Family name -> (builder, the parameter keys it reads); any other key is
# a typo and is rejected rather than left to a default.
_FAMILY_BUILDERS: dict[str, tuple[Callable[[dict], DistributionPair], tuple[str, ...]]] = {
    "bernoulli": (
        lambda p: make_bernoulli_pair(p["p"], p["eps"], p.get("z", 1.0)),
        ("p", "eps", "z"),
    ),
    "two_point_mu": (
        lambda p: make_twopoint_mu_pair(p["p"], p.get("z", 1.0)), ("p", "z")
    ),
    "point_mass": (lambda p: make_pointmass_pair(p["q"], p.get("z", 1.0)), ("q", "z")),
    "random_finite": (
        lambda p: make_random_pair(
            p.get("support", 16), p.get("seed", 0), p.get("z", 1.0)
        ),
        ("support", "seed", "z"),
    ),
}


def build_family(family: str, params: dict) -> DistributionPair:
    try:
        builder, accepted = _FAMILY_BUILDERS[family]
    except KeyError:
        raise ConfigError(
            f"unknown family {family!r}; choose from "
            f"{sorted(_FAMILY_BUILDERS)}"
        ) from None
    unknown = params.keys() - accepted
    if unknown:
        raise ConfigError(
            f"family {family!r} takes parameters {list(accepted)}; "
            f"unknown: {sorted(unknown)}"
        )
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
        if self.kind not in _RUNNERS:
            raise ConfigError(
                f"kind must be one of {tuple(_RUNNERS)}, got {self.kind!r}"
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


def _split_names(text: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in text.split(",") if s.strip())


# Every [experiment] key with its (parse, format) pair, in the order the
# CSV header echoes them; anything else in the section is a typo and is
# rejected. family_params has its own [family_params] section.
_FIELDS: dict[str, tuple[Callable[[str], object], Callable[[object], str]]] = {
    "kind": (str, str),
    "eps_grid": (
        lambda text: tuple(float(v) for v in text.split(",")),
        lambda grid: ",".join(map(repr, grid)),
    ),
    "delta": (float, repr),
    "trials": (int, str),
    "master_seed": (int, str),
    "output_path": (str, str),
    "family": (str, str),
    "f_names": (_split_names, ",".join),
    "n_override": (int, str),
    "d_value": (float, repr),
}
_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}
_REQUIRED = {key for key in _FIELDS if _DEFAULTS[key] is MISSING}


def _set_fields(config: ExperimentConfig):
    """(key, text) for every required key and each optional key the
    config moves off its default, in _FIELDS order."""
    for key, (_, fmt) in _FIELDS.items():
        value = getattr(config, key)
        if value != _DEFAULTS[key]:
            yield key, fmt(value)


def _parse_scalar(key: str, text: str):
    """The value of family parameter ``key``: an int where ``text`` is
    one, else a float; anything else raises a ValueError naming both."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise ValueError(
            f"family parameter {key!r} must be a number, got {text!r}"
        ) from None


def config_from_text(text: str) -> ExperimentConfig:
    # A ';' after whitespace starts an inline comment; one inside a value
    # such as tv;kl stays part of it.
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=(";",)
    )
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
    unknown = exp.keys() - _FIELDS.keys()
    if unknown:
        raise ConfigError(f"unknown keys in [experiment]: {sorted(unknown)}")
    missing = _REQUIRED - exp.keys()
    if missing:
        raise ConfigError(f"missing keys in [experiment]: {sorted(missing)}")
    params = ()
    if parser.has_section("family_params"):
        try:
            params = tuple(
                (k, _parse_scalar(k, v)) for k, v in parser.items("family_params")
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    try:
        values = {key: _FIELDS[key][0](text) for key, text in exp.items()}
    except ValueError as exc:
        raise ConfigError(f"malformed [experiment] value: {exc}") from exc
    return ExperimentConfig(family_params=params, **values)


def config_to_text(config: ExperimentConfig) -> str:
    lines = ["[experiment]"]
    lines += [f"{key} = {text}" for key, text in _set_fields(config)]
    if config.family_params:
        lines += ["", "[family_params]"]
        lines += [f"{key} = {value!r}" for key, value in config.family_params]
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


def _config_metadata(config: ExperimentConfig) -> tuple[tuple[str, str], ...]:
    meta = [("format", "pfest-sweep-v6")]
    for key, text in _set_fields(config):
        if key != "output_path":
            meta.append((key, text))
        if key == "family":
            meta.append(("family_params", _params_label(config)))
    return tuple(meta + _constants_metadata())


def _params_label(config: ExperimentConfig) -> str:
    return ";".join(f"{k}={v!r}" for k, v in config.family_params)


def _check_kind(config: ExperimentConfig, kind: str) -> None:
    if config.kind != kind:
        raise ConfigError(f"config kind {config.kind!r} is not {kind}")


def run_success_curve(config: ExperimentConfig) -> SweepTable:
    """Per epsilon: plan n, run seeded estimation trials, and record the
    empirical success frequency of the (1 +/- eps) event.

    n_override replaces the planned n in every row, which is how the
    below-the-bound failure regime is reproduced.
    """
    _check_kind(config, "success_curve")
    pair = build_family(config.family, config.params_dict)
    tail = TailPlanner(pair)
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

    def one_row(index, eps):
        start = time.perf_counter()
        row_seed = int(derive_seed(config.master_seed, index))
        try:
            n_planned = tail.plan(
                lambda profile: plan_n_coverage(profile, eps, config.delta)
            ).n
            n = config.n_override if config.n_override is not None else n_planned
            if n < group_count(config.delta):
                raise InfeasiblePlanError(
                    f"n = {n} is below the {group_count(config.delta)} groups "
                    "the median needs"
                )
            record = run_trials(
                pair, "mom", n, config.trials, row_seed, eps, config.delta
            )
            cells = (n_planned, record.n_used, record.success_freq,
                     ordered_mean(record.rel_errors))
            reason = ""
        except (InfeasiblePlanError, SingularPairError) as exc:
            cells = (0, 0, math.nan, math.nan)
            reason = str(exc)
        elapsed = (time.perf_counter() - start) * 1e3
        return (config.family, label, eps, *cells, elapsed, reason)

    rows = [one_row(index, eps) for index, eps in enumerate(config.eps_grid)]
    return SweepTable(columns, tuple(rows), _config_metadata(config))


def run_phase_transition(config: ExperimentConfig) -> SweepTable:
    """Tabulate planned n per generator and epsilon at fixed divergence.

    Plan-only: no sampling happens, so the table shows the regime
    structure directly (infeasible rows for slow-growing generators,
    exponential growth for intermediate ones, polynomial for fast)."""
    _check_kind(config, "phase_transition")
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

    def one_row(spec, eps):
        f = parse_f_spec(spec)
        regime = classify_regime(f).value
        argument = estimators.FDIV_GAMMA_MULT * d / eps
        try:
            plan = plan_n_fdiv(f, d, eps, config.delta)
            return (spec, regime, eps, d, argument, plan.n, True, "")
        except InfeasiblePlanError as exc:
            return (spec, regime, eps, d, argument, 0, False, str(exc))

    rows = [one_row(spec, eps) for spec in config.f_names for eps in config.eps_grid]
    return SweepTable(columns, tuple(rows), _config_metadata(config))


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
    _check_kind(config, "sampling_vs_counting")
    pair = build_family(config.family, config.params_dict)
    tail = TailPlanner(pair)
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

    def one_row(index, eps):
        start = time.perf_counter()
        row_seed = int(derive_seed(config.master_seed, index))
        sampler_base = int(derive_seed(row_seed, 0))
        estimator_base = int(derive_seed(row_seed, 1))
        sampler_plan = race_plan(tail, eps)
        estimator_planned = tail.plan(
            lambda profile: plan_n_coverage(profile, eps, config.delta)
        ).n

        def sampler_ok(n: int) -> bool:
            summary = run_races(
                pair, n, config.trials, int(derive_seed(sampler_base, n))
            )
            return empirical_tv(summary, pair) <= eps

        k_min = group_count(config.delta)

        def estimator_ok(n: int) -> bool:
            if n < k_min:
                return False
            seed = int(derive_seed(estimator_base, n))
            record = run_trials(pair, "mom", n, config.trials, seed, eps, config.delta)
            return record.success_freq >= threshold

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
            sampler_plan.m,
            sampler_plan.n,
            sampler_min,
            estimator_planned,
            estimator_min,
            ratio,
            elapsed,
            reason,
        )

    rows = [one_row(index, eps) for index, eps in enumerate(config.eps_grid)]
    return SweepTable(columns, tuple(rows), _config_metadata(config))


# Experiment kind -> runner; ExperimentConfig reads the valid kinds here.
_RUNNERS: dict[str, Callable[[ExperimentConfig], SweepTable]] = {
    "success_curve": run_success_curve,
    "phase_transition": run_phase_transition,
    "sampling_vs_counting": run_sampling_vs_counting,
}


def run_experiment(config: ExperimentConfig) -> SweepTable:
    return _RUNNERS[config.kind](config)


def _format_cell(value) -> str:
    # floats first: they fill most cells
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
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
    """SHA-256 of the serialized table with wallclock timings and the
    ``format`` tag removed; equal fingerprints mean the run reproduced
    exactly. A tag bump alone, with no row moved, moves no fingerprint."""
    keep = [i for i, c in enumerate(table.columns) if c != "wallclock_ms"]
    table = SweepTable(
        columns=tuple(table.columns[i] for i in keep),
        rows=tuple(tuple(row[i] for i in keep) for row in table.rows),
        metadata=tuple((k, v) for k, v in table.metadata if k != "format"),
    )
    return hashlib.sha256(_serialize(table).encode("utf-8")).hexdigest()


def csv_fingerprint(path) -> str:
    return table_fingerprint(read_csv(path))
