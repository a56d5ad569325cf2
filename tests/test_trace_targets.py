"""The traced benchmark wraps ``marc_pnc`` module attributes by name
(``benchmarks/workloads.py:TRACE_TARGETS``) and fails when one is missing.
These tests read that table and run its tracer on a small sweep, without
running the benchmark, so deleting or renaming a wrapped attribute, or
calling ``simulate_batch`` in a way its span attributes cannot read, fails
here too.  They write nothing under ``benchmarks/``: bytecode caching is
off while its modules are imported.
"""

import importlib
import sys
from pathlib import Path

import pytest

from marc_pnc import montecarlo
from marc_pnc.channel import PROFILE_PRESETS

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
BENCH_MODULES = ("workloads", "spans")

#: Fields of a ``simulate_batch`` span that the benchmark's summaries read.
BATCH_FIELDS = {"decoder", "point", "batch", "n", "errors", "error_target", "trials_cap"}


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's ``workloads`` and ``spans`` modules."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    for name in BENCH_MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    try:
        yield tuple(importlib.import_module(name) for name in BENCH_MODULES)
    finally:
        for name in BENCH_MODULES:
            sys.modules.pop(name, None)


def test_every_trace_target_exists_and_is_callable(bench):
    workloads, _ = bench
    assert workloads.TRACE_TARGETS
    for module, attr, *_ in workloads.TRACE_TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


@pytest.mark.parametrize("threads", [1, 2])
def test_traced_sweep_gives_every_batch_its_attributes(bench, threads):
    workloads, spans = bench
    spec = montecarlo.SweepSpec((10.0,), montecarlo.BATCH_SIZE + 64, PROFILE_PRESETS["equal"])
    original = montecarlo.simulate_batch
    tracer = spans.Tracer()
    with tracer:
        workloads.install_trace(tracer)
        montecarlo.run_sweep(spec, threads=threads)
    assert montecarlo.simulate_batch is original
    (sweep,) = [s for s in tracer.spans if s.name == "montecarlo.run_sweep"]
    assert sweep.attrs["threads"] == threads
    batches = [s for s in tracer.spans if s.name == "montecarlo.simulate_batch"]
    for s in batches:
        assert s.attrs is not None and BATCH_FIELDS <= set(s.attrs)
        assert s.parent == sweep.id
    assert sorted((s.attrs["point"], s.attrs["batch"], s.attrs["n"]) for s in batches) == [
        (0, 0, montecarlo.BATCH_SIZE), (0, 1, 64),
    ]
