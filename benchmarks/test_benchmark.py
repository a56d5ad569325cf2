"""Tests for the benchmark's own code: python3 -m pytest benchmarks"""

from __future__ import annotations

import json
import sys
import threading
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import spans as sp  # noqa: E402


def span(sid, start, end, thread=1, parent=None, name="f", **attrs):
    return sp.Span(sid, name, start, end, thread, parent, attrs or None)


class TestTail:
    @pytest.mark.parametrize(
        "n, pct, value, beyond",
        [
            (19, 100.0, 19, 0),  # no ladder percentile has 10 samples beyond: the maximum
            (20, 50.0, 10, 10),
            (39, 50.0, 20, 19),
            (40, 75.0, 30, 10),
            (100, 90.0, 90, 10),
            (999, 95.0, 950, 49),
            (1000, 99.0, 990, 10),
            (10000, 99.9, 9990, 10),
            (100000, 99.99, 99990, 10),
        ],
    )
    def test_highest_percentile_with_ten_beyond(self, n, pct, value, beyond):
        t = sp.tail(list(range(n, 0, -1)))
        assert (t.pct, t.value, t.n, t.beyond) == (pct, value, n, beyond)

    def test_sample_count_is_reported(self):
        assert sp.fmt_tail(sp.tail(range(1, 101))) == "p90, n=100, 10 beyond"
        assert sp.fmt_tail(sp.tail([3.0, 1.0])) == "max of n=2"

    def test_median_is_nearest_rank(self):
        assert sp.p50([4, 1, 3, 2]) == 2
        assert sp.p50([]) == 0.0


class TestSelfTime:
    def test_nested_spans_on_two_threads(self):
        spans = [
            span(0, 0, 100, thread=1),
            span(1, 10, 30, thread=1, parent=0),
            span(2, 15, 20, thread=1, parent=1),
            span(3, 25, 40, thread=1, parent=0),  # overlaps span 1: covered once
            span(4, 20, 90, thread=2, parent=0),  # another thread: runs beside span 0
            span(5, 30, 50, thread=2, parent=4),
        ]
        assert sp.self_times(spans) == {0: 70, 1: 15, 2: 5, 3: 15, 4: 50, 5: 20}

    def test_child_outside_parent_is_clipped(self):
        spans = [span(0, 10, 20), span(1, 5, 15, parent=0)]
        assert sp.self_times(spans)[0] == 5


class TestSweepSummaries:
    def test_barrier_idle_frac(self):
        sweep = span(0, 0, 100, name="montecarlo.run_sweep", threads=2)
        batches = [
            # round 0 of point 0: three batches on two threads
            span(1, 0, 40, thread=7, parent=0, point=0, batch=0),
            span(2, 0, 50, thread=8, parent=0, point=0, batch=1),
            span(3, 40, 80, thread=7, parent=0, point=0, batch=2),
            # round 1 of point 0: one batch alone
            span(4, 80, 90, thread=7, parent=0, point=0, batch=4),
        ]
        # round 0: 2 x 80 - 130 = 30 idle; round 1: 2 x 10 - 10 = 10 idle
        assert sp.barrier_idle_frac([sweep], batches, round_width=4) == pytest.approx(40 / 200)

    def test_barrier_idle_is_zero_when_serial(self):
        sweep = span(0, 0, 30, name="montecarlo.run_sweep", threads=1)
        batches = [span(i + 1, 10 * i, 10 * (i + 1), parent=0, point=0, batch=i) for i in range(3)]
        assert sp.barrier_idle_frac([sweep], batches, round_width=4) == 0.0

    def test_useful_frac(self):
        def b(sid, point, batch, n, errors):
            return span(sid, 0, 1, parent=0, point=point, batch=batch, n=n, errors=errors,
                        error_target=10, trials_cap=30)

        batches = [
            # point 0 reaches the error target in batch 1; batches 2 and 3 finish the round
            b(1, 0, 3, 10, 6), b(2, 0, 0, 10, 6), b(3, 0, 1, 10, 6), b(4, 0, 2, 10, 6),
            # point 1 runs to its cap of 30 frames
            b(5, 1, 0, 10, 0), b(6, 1, 1, 10, 1), b(7, 1, 2, 10, 0),
        ]
        assert sp.useful_frac(batches) == pytest.approx((20 + 30) / 70)

    def test_cpu_per_wall(self):
        sweeps = [span(0, 0, 100, cpu_ns=170), span(1, 100, 200, cpu_ns=90)]
        assert sp.cpu_per_wall(sweeps) == pytest.approx(1.3)


class TestCalibration:
    def test_scales_by_the_kernel_times_on_either_side(self, monkeypatch):
        calibration = pytest.importorskip("calibration")
        kernel_times = iter([0.02, 0.04, 0.03])
        monkeypatch.setattr(calibration.Calibration, "_time", lambda self: next(kernel_times))
        calib = calibration.Calibration("scalar")
        ref = calib.reference_s
        assert calib.scale(3.0) == pytest.approx(3.0 * ref / 0.03)  # kernel took 0.02 s before, 0.04 s after
        assert calib.scale(1.0) == pytest.approx(1.0 * ref / 0.035)

    @pytest.mark.parametrize("kind", ["scalar", "array"])
    def test_kernels_run(self, kind):
        calibration = pytest.importorskip("calibration")
        calib = calibration.Calibration(kind)
        assert calib.last > 0 and calib.scale(calib.reference_s) > 0


class TestTracer:
    @pytest.fixture
    def module(self, monkeypatch):
        mod = types.ModuleType("fake_layer")
        mod.inner = lambda x: x + 1
        mod.outer = lambda xs: [mod.inner(x) for x in xs]
        mod.fan_out = lambda: _in_thread(mod.inner)
        monkeypatch.setitem(sys.modules, "fake_layer", mod)
        return mod

    def test_parents_across_threads_and_restore(self, module):
        original = module.inner
        tracer = sp.Tracer()
        with tracer:
            tracer.wrap("fake_layer", "inner", "layer.inner", attrs=lambda a, k, r: {"out": r})
            tracer.wrap("fake_layer", "outer", "layer.outer")
            tracer.wrap("fake_layer", "fan_out", "layer.fan_out")
            assert module.outer([1, 2]) == [2, 3]
            module.fan_out()
        assert module.inner is original
        by_name = {}
        for s in tracer.spans:
            by_name.setdefault(s.name, []).append(s)
        (outer,) = by_name["layer.outer"]
        (fan,) = by_name["layer.fan_out"]
        inners = sorted(by_name["layer.inner"], key=lambda s: s.id)
        assert [s.parent for s in inners] == [outer.id, outer.id, fan.id]
        assert [s.attrs["out"] for s in inners] == [2, 3, 6]
        assert inners[2].thread != fan.thread
        assert outer.parent is None

    def test_missing_target_fails_loudly(self, module):
        tracer = sp.Tracer()
        with tracer, pytest.raises(sp.WrapTargetError, match="fake_layer.gone"):
            tracer.wrap("fake_layer", "gone", "layer.gone")


def _in_thread(fn):
    out = []
    t = threading.Thread(target=lambda: out.append(fn(5)))
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()
    return out


class TestLayerMetrics:
    def test_names_and_units_match_benchmark_json(self):
        workloads = pytest.importorskip("workloads")
        spans = [span(0, 0, 100, name="montecarlo.run_sweep", threads=2, cpu_ns=150)]
        for i, d in enumerate(("fast", "min-euclid")):
            spans.append(span(1 + i, 10, 90 - 40 * i, thread=2 + i, parent=0, name="montecarlo.simulate_batch", decoder=d,
                              point=0, batch=i, n=5, errors=0, error_target=10, trials_cap=10))
        for j, name in enumerate(workloads.REQUIRED_SPANS["highorder-m16"]):
            if not name.startswith("montecarlo.simulate_batch") and name != "montecarlo.run_sweep":
                spans.append(span(10 + j, 20, 30, thread=2, parent=1, name=name))
        metrics, notes = workloads.layer_metrics("highorder-m16", spans, 1, [1.0, 1.0], [1.1])
        declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
        assert [(m["name"], m["unit"]) for m in declared] == [(k, u) for k, (_, u) in metrics.items()]
        assert metrics["montecarlo.run_sweep.barrier_idle_frac"][0] == pytest.approx(0.2)
        assert metrics["montecarlo.run_sweep.useful_frac"][0] == 1.0
        assert metrics["montecarlo.simulate_batch.fast.self_ms_p50"][0] == pytest.approx(70e-6)
        assert metrics["destination.fast_decode.calls"][0] == 0
        assert metrics["trace.overhead_frac"][0] == pytest.approx(0.1)
        assert set(notes) == {k for k in metrics if k.endswith("_tail")}

    def test_guard_names_the_missing_call(self):
        workloads = pytest.importorskip("workloads")
        with pytest.raises(workloads.TraceGuardError, match="scheme.check_hr_orthogonal"):
            workloads.layer_metrics("equiv-scalar", [span(0, 0, 1, name="montecarlo.equivalence_battery")], 1, [1], [1])


class TestFailureAccounting:
    def test_a_raising_sweep_fails_alone(self):
        workloads = pytest.importorskip("workloads")
        # Known defect: the default cfnc theta is invalid for M >= 8, and the
        # spec builds anyway; the error surfaces inside the sweep.
        bad = workloads._sweep("m8-cfnc", 0, (10.0,), 64, 8, "modulo", "cfnc")
        good = workloads._sweep("m4-fast", 0, (10.0,), 64, 4, "modulo", "fast")
        ops = workloads.run_sweeps([bad, good], threads=1)
        assert ops[0].error is not None and ops[0].frames == 0
        assert ops[1].error is None and ops[1].frames == 64
