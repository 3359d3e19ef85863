"""The benchmark's tracer wraps pfest functions by (module, name). A
rename in src/ would break its per-layer metrics, so the names it
lists are checked here against the package."""

import contextlib
import importlib
import importlib.util
import io
import sys
from pathlib import Path

import pfest
from pfest import CoverageProfile

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing(monkeypatch):
    # read only: no bytecode cache is written under bench/
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_to_callables(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    for layer, targets in tracing.LAYERS.items():
        for module_name, attr in targets:
            module = importlib.import_module(f"pfest.{module_name}")
            assert callable(getattr(module, attr, None)), (layer, module_name, attr)
    for module_name in tracing.MODULES:
        importlib.import_module(f"pfest.{module_name}")
    assert isinstance(CoverageProfile.__dict__["from_pair"], classmethod)


def test_tracer_sees_the_tail_loop(monkeypatch):
    """A quantile plan on 4 096 atoms is answered from a partial profile
    of its 1 024 top atoms; the spans of the block, the threshold search
    and the planner are recorded."""
    tracing = _load_tracing(monkeypatch)
    tracer = tracing.Tracer(pfest)
    argv = ["plan", "--family", "random_finite", "--params", "support=4096,seed=7",
            "--eps", "0.5", "--method", "quantile"]
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = pfest.cli.main(argv)
    finally:
        tracer.uninstall()
    assert code == 0
    names = {span[0] for span in tracer.spans}
    assert {"coverage.from_pair", "coverage.min_coverage_threshold",
            "estimators.plan"} <= names
