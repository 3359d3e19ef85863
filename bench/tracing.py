"""Spans around pfest's layers, recorded from outside the package.

The tracer swaps each traced function for a wrapper in every pfest module
namespace that holds it (``pfest.harness.sample``, ``pfest.cli.sample``,
``pfest.distributions.make_generator``, ...), so calls between pfest's
own modules are caught too. Spans (name, start, end, parent) stay in
memory and are written out as JSON lines when the run ends. A layer's
self time is its span time minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

# Span name -> (module, function) pairs it covers. "estimators.plan"
# gathers every plan_n_* planner, including the race sampler's.
LAYERS = {
    "rng.derive_seed": [("rng", "derive_seed")],
    "rng.make_generator": [("rng", "make_generator")],
    "distributions.sample": [("distributions", "sample")],
    "distributions.make_random_pair": [("distributions", "make_random_pair")],
    "estimators.median_of_means": [("estimators", "median_of_means")],
    "estimators.quantile_estimator": [("estimators", "quantile_estimator")],
    "estimators.snis": [("estimators", "snis")],
    "estimators.plan": [
        ("estimators", "plan_n_coverage"),
        ("estimators", "plan_n_fdiv"),
        ("estimators", "plan_n_quantile"),
        ("estimators", "plan_n_is"),
        ("estimators", "plan_n_snis"),
        ("sampler", "plan_n_sampling"),
    ],
    "coverage.solve_M_eps": [("coverage", "solve_M_eps")],
    "coverage.min_coverage_threshold": [("coverage", "min_coverage_threshold")],
    "divergences.gamma_f": [("divergences", "gamma_f")],
    "divergences.parse_f_spec": [("divergences", "parse_f_spec")],
    "divergences.f_divergence": [("divergences", "f_divergence")],
    "sampler.run_races": [("sampler", "run_races")],
    "harness.run_experiment": [("harness", "run_experiment")],
    "cli.main": [("cli", "main")],
}
# CoverageProfile.from_pair is a classmethod and is wrapped on the class.
FROM_PAIR = "coverage.from_pair"

MODULES = (
    "rng",
    "distributions",
    "coverage",
    "divergences",
    "estimators",
    "sampler",
    "harness",
    "cli",
)


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` may be
    called repeatedly so traced and untraced rounds can alternate."""

    def __init__(self, pfest_package):
        # Submodules come from the import system: the package namespace
        # rebinds some of their names (pfest.coverage is a function).
        self._sub = {
            name: importlib.import_module(f"{pfest_package.__name__}.{name}")
            for name in MODULES
        }
        self._mods = [pfest_package] + list(self._sub.values())
        self.spans: list = []
        self.counters: dict = defaultdict(int)
        self._stack: list = []
        self._patches: list = []
        self._plan = self._build_patches()

    def _span(self, name, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count is not None:
                count(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_sample(self, args, kwargs, result):
        self.counters["distributions.sample.draws"] += int(result.n)

    def _count_races(self, args, kwargs, result):
        self.counters["sampler.run_races.race_draws"] += int(
            result.n_per_race
        ) * int(result.trials)

    def _count_mom(self, args, kwargs, result):
        batch = kwargs["batch"] if "batch" in kwargs else args[0]
        self.counters["estimators.mom.draws_used"] += int(result.n_used)
        self.counters["estimators.mom.draws"] += int(batch.n)

    def _build_patches(self):
        counts = {
            "distributions.sample": self._count_sample,
            "sampler.run_races": self._count_races,
            "estimators.median_of_means": self._count_mom,
        }
        plan = []
        for name, targets in LAYERS.items():
            for module_name, attr in targets:
                original = getattr(self._sub[module_name], attr)
                wrapper = self._span(name, original, counts.get(name))
                for mod in self._mods:
                    for key, value in vars(mod).items():
                        if value is original:
                            plan.append((mod, key, original, wrapper))
        cls = self._sub["coverage"].CoverageProfile
        original = cls.__dict__["from_pair"]
        bound = self._span(FROM_PAIR, original.__func__)
        plan.append((cls, "from_pair", original, classmethod(bound)))
        return plan

    def install(self) -> None:
        for owner, key, _, wrapper in self._plan:
            setattr(owner, key, wrapper)
        self._patches = self._plan

    def uninstall(self) -> None:
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)
        self._patches = []

    def layer_totals(self) -> dict:
        """Per span name: calls and self time in seconds, plus counters."""
        child = defaultdict(int)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        for index, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name] += end - start - child[index]
        names = list(LAYERS) + [FROM_PAIR]
        out = {f"{n}.calls": calls[n] for n in names}
        out.update({f"{n}.self_s": self_ns[n] * 1e-9 for n in names})
        out.update(self.counters)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end, "parent": parent}
                    )
                )
                fh.write("\n")
