"""The traced benchmark wraps ``marc_pnc`` module attributes by name
(``benchmarks/workloads.py:TRACE_TARGETS``) and fails when one is missing.
These tests read that table through the ``bench`` fixture (conftest.py)
and run its tracer on small sweeps and a small battery, without running
the benchmark, so deleting or renaming a wrapped attribute, calling
``simulate_batch`` in a way its span attributes cannot read, or a sweep or
battery that stops calling a span its workload requires, fails here too.
"""

import dataclasses
import importlib

import pytest

from marc_pnc import montecarlo
from marc_pnc.channel import PROFILE_PRESETS

#: Fields of a ``simulate_batch`` span that the benchmark's summaries read.
BATCH_FIELDS = {"decoder", "point", "batch", "n", "errors", "error_target", "trials_cap"}


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


def test_traced_battery_records_every_span_its_workload_requires(bench):
    workloads, spans = bench
    tracer = spans.Tracer()
    with tracer:
        workloads.install_trace(tracer)
        montecarlo.equivalence_battery(snr_points_db=(10.0,), frames_per_cell=20)
    missing = set(workloads.REQUIRED_SPANS["equiv-scalar"]) - {s.name for s in tracer.spans}
    assert not missing


def test_battery_plan_counts_the_frames_of_the_default_grid(bench):
    workloads, _ = bench
    report = montecarlo.equivalence_battery(frames_per_cell=workloads.EQUIV_FRAMES_PER_CELL)
    assert workloads.build_plan("equiv-scalar", 0).battery_frames == report.frames


#: Frames per SNR point of the shrunken sweeps: enough to run every stage.
SMALL_TRIALS = 300


@pytest.mark.parametrize("workload", ["paper-m4", "highorder-m16"])
def test_traced_sweeps_record_every_span_their_workload_requires(bench, workload):
    workloads, spans = bench
    # The specs are built before tracing starts, as the benchmark builds
    # them during set-up: a span called only while a spec is built is not
    # recorded by a traced solution, so it must not count here either.
    plan = workloads.build_plan(workload, 0)
    small = [dataclasses.replace(sw, spec=dataclasses.replace(sw.spec, trials_per_point=SMALL_TRIALS))
             for sw in plan.sweeps]
    tracer = spans.Tracer()
    with tracer:
        workloads.install_trace(tracer)
        ops = [workloads.sweep_op(sw, plan.threads) for sw in small]
    # 300 frames hold too few errors at 20 dB for a diversity fit; every
    # other stage must succeed.
    assert [op.error for op in ops if op.error and not op.error.startswith("InsufficientDataError")] == []
    workloads.layer_metrics(workload, tracer.spans, 1, [1.0], [1.0])  # raises TraceGuardError on a missing span
