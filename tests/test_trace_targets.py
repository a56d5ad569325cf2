"""The traced benchmark wraps ``marc_pnc`` module attributes by name
(``benchmarks/workloads.py:TRACE_TARGETS``) and fails when one is missing.
This test reads that table without running the benchmark, so deleting or
renaming a wrapped attribute fails here too.  It writes nothing under
``benchmarks/``: bytecode caching is off while the module is imported.
"""

import importlib
import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_every_trace_target_exists_and_is_callable(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    for name in ("workloads", "spans"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    workloads = importlib.import_module("workloads")
    try:
        assert workloads.TRACE_TARGETS
        for module, attr, *_ in workloads.TRACE_TARGETS:
            assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
    finally:
        for name in ("workloads", "spans"):
            sys.modules.pop(name, None)
