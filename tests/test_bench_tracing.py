"""The benchmark's tracer wraps pfest functions by (module, name). A
rename in src/ would break its per-layer metrics, so the names it
lists are checked here against the package."""

import importlib
import importlib.util
import sys
from pathlib import Path

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
