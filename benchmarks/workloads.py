"""The marc-pnc workloads: what each one runs, one timed solution, the
output checks, the trace targets and the per-layer metrics.

Importing this module imports marc_pnc, so run.py counts the import as
part of set-up.  Every workload hands the library only the specs built here
from the benchmark's seed, and passes ``threads=`` explicitly so that
``MARC_PNC_THREADS`` in the caller's environment cannot change it.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import time
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from marc_pnc import diversity, montecarlo, sweepio
from marc_pnc.channel import PROFILE_PRESETS

import spans as sp

#: highorder-m16 runs by hand or through ``--workload all`` but is not in
#: BENCHMARK.json: it keeps ~650 MB of batch temporaries and both cores of a
#: shared 2-core host busy; its raw wall time spread 0.25-0.33 (IQR/median
#: over ten runs), and the single-threaded calibration kernels are untried on
#: its two threads.  A third workload would also cut every run to ~35 s to
#: fit the time allowed for all runs.
WORKLOADS = ("paper-m4", "highorder-m16", "equiv-scalar")
DECODERS = montecarlo.DECODERS

#: Seed whose sweep CSVs are pinned in golden.json.
DEFAULT_SEED = 0
GOLDEN_PATH = Path(__file__).with_name("golden.json")

BATCH = montecarlo.BATCH_SIZE
INV_SQRT2 = 1.0 / math.sqrt(2.0)

# paper-m4: at 0 and 10 dB every decoder passes the 10,000-error target
# inside the first round of four batches (>= 15,000 errors for any seed),
# so those points stop there; at 20 dB no decoder gets near it (< 4,000),
# so the point runs to the cap, which lies one partial batch past round 1.
PAPER_SNR_DB = (0.0, 10.0, 20.0)
PAPER_TRIALS = 4 * BATCH + 4096

# highorder-m16: each point is one round of two full batches, one per thread.
HIGHORDER_SNR_DB = (20.0, 30.0)
HIGHORDER_TRIALS = 2 * BATCH
HIGHORDER_THREADS = 2

# equiv-scalar: one battery call is ~0.3 s, short enough that a 55 s run
# holds well over a hundred of them (see run.py on why that matters).
EQUIV_FRAMES_PER_CELL = 100

# Role-swapped fast path (d = 0: B and relay weight matrices are
# Hurwitz-Radon orthogonal, A and relay are not).  Checked, never timed.
ROLE_SWAP_CONSTANTS = (INV_SQRT2 + 0j, 1.0 + 0j, INV_SQRT2 + 0j, 0j)
ROLE_SWAP_SNR_DB = (0.0, 10.0, 20.0)
ROLE_SWAP_TRIALS = 8192


@dataclass(frozen=True)
class Sweep:
    label: str
    spec: montecarlo.SweepSpec
    fit_diversity: bool = False


@dataclass(frozen=True)
class Plan:
    """Everything one workload runs, built from the seed during set-up."""

    workload: str
    seed: int
    threads: int
    #: calibration.KERNELS entry that does this workload's kind of work.
    calibration: str
    sweeps: tuple[Sweep, ...] = ()
    battery: dict | None = None  # keyword arguments of equivalence_battery
    battery_frames: int = 0
    #: Untimed sweeps, run once per run.
    checks: tuple[Sweep, ...] = ()
    #: Pairs of sweep labels whose counters must agree at every point.
    identical: tuple[tuple[str, str], ...] = ()


@dataclass
class Op:
    """One operation: a sweep (with its CSV and fit) or a battery call."""

    label: str
    frames: int = 0
    #: Wall time of the operation, checks excluded.
    seconds: float = 0.0
    digest: str | None = None
    points: tuple | None = None
    report: montecarlo.EquivalenceReport | None = None
    error: str | None = None


def _sweep(label, seed, snr, trials, m, map_kind, decoder, fit=False, **extra) -> Sweep:
    spec = montecarlo.SweepSpec(
        snr_points_db=snr,
        trials_per_point=trials,
        profile=PROFILE_PRESETS["equal"],
        m=m,
        map_kind=map_kind,
        decoder=decoder,
        seed=seed,
        **extra,
    )
    return Sweep(label, spec, fit)


def build_plan(workload: str, seed: int) -> Plan:
    if workload == "paper-m4":
        return Plan(
            workload,
            seed,
            threads=1,
            calibration="array",
            sweeps=tuple(
                _sweep(f"m4-{d}", seed, PAPER_SNR_DB, PAPER_TRIALS, 4, "modulo", d, fit=True) for d in DECODERS
            ),
            checks=tuple(
                _sweep(f"swap-m8-{d}", seed, ROLE_SWAP_SNR_DB, ROLE_SWAP_TRIALS, 8, "xor", d, constants=ROLE_SWAP_CONSTANTS)
                for d in ("fast", "novel-exhaustive")
            ),
            identical=(("m4-fast", "m4-novel-exhaustive"), ("swap-m8-fast", "swap-m8-novel-exhaustive")),
        )
    if workload == "highorder-m16":
        return Plan(
            workload,
            seed,
            threads=HIGHORDER_THREADS,
            calibration="array",
            sweeps=tuple(
                _sweep(f"m16-{d}", seed, HIGHORDER_SNR_DB, HIGHORDER_TRIALS, 16, "xor", d) for d in ("fast", "min-euclid")
            ),
        )
    if workload == "equiv-scalar":
        params = inspect.signature(montecarlo.equivalence_battery).parameters
        cells = len(params["snr_points_db"].default) * len(PROFILE_PRESETS)
        return Plan(
            workload,
            seed,
            threads=1,
            calibration="scalar",
            battery={"frames_per_cell": EQUIV_FRAMES_PER_CELL, "seed": seed},
            battery_frames=cells * EQUIV_FRAMES_PER_CELL,
        )
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def sweep_op(sw: Sweep, threads: int) -> Op:
    """The sweep, then its CSV text and (where asked) its diversity fit.
    The library is reached through module attributes so the trace can wrap it."""
    op = Op(sw.label)
    t0 = time.perf_counter()
    try:
        curve = montecarlo.run_sweep(sw.spec, threads=threads)
        text = sweepio.curve_to_csv(curve)
        if sw.fit_diversity:
            diversity.estimate_diversity(curve)
    except Exception as exc:  # counted as a failed operation; the rest still run
        op.error = _failure(exc)
    else:
        op.seconds = time.perf_counter() - t0
        op.frames = sum(p.trials for p in curve.points)
        op.digest = hashlib.sha256(text.encode("ascii")).hexdigest()
        op.points = curve.points
    return op


def run_sweeps(sweeps, threads: int) -> list[Op]:
    return [sweep_op(sw, threads) for sw in sweeps]


def battery_op(battery: dict) -> Op:
    op = Op("battery")
    t0 = time.perf_counter()
    try:
        op.report = montecarlo.equivalence_battery(**battery)
        op.seconds = time.perf_counter() - t0
        op.frames = op.report.frames
    except Exception as exc:  # counted as a failed operation
        op.error = _failure(exc)
    return op


def operations(plan: Plan) -> list:
    """One solution, as its operations in order: callables that each return an Op."""
    if plan.battery is None:
        return [partial(sweep_op, sw, plan.threads) for sw in plan.sweeps]
    return [partial(battery_op, plan.battery)]


def solve(plan: Plan) -> list[Op]:
    """One solution: the workload's fixed sweeps or battery, start to finish."""
    return [run() for run in operations(plan)]


def load_golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())["sha256"]


def check(plan: Plan, ops: list[Op], reference: dict[str, str], golden: dict[str, str]) -> None:
    """Mark each operation whose output is wrong.

    ``reference`` holds each label's digest from the run's first solution
    (filled in here), so every repeat must reproduce it; ``golden`` holds
    the pinned digests, used only for the default seed.
    """
    by_label = {op.label: op for op in ops}
    for op in ops:
        if op.error is not None:
            continue
        if op.report is not None:
            if op.report.mismatches:
                op.error = f"{op.report.mismatches} fast/exhaustive mismatches; first: {op.report.first_mismatch}"
            elif op.report.frames != plan.battery_frames:
                op.error = f"battery compared {op.report.frames} frames, expected {plan.battery_frames}"
            continue
        expected = reference.setdefault(op.label, op.digest)
        if op.digest != expected:
            op.error = f"CSV digest {op.digest} differs from this run's first solution ({expected})"
        elif plan.seed == DEFAULT_SEED and golden.get(op.label) != op.digest:
            op.error = f"CSV digest {op.digest} differs from golden {golden.get(op.label)}"
    for a, b in plan.identical:
        oa, ob = by_label.get(a), by_label.get(b)
        if oa and ob and oa.error is None and ob.error is None and oa.points != ob.points:
            ob.error = f"counters differ from {a}: {ob.points} vs {oa.points}"


# ---------------------------------------------------------------------------
# Tracing


def _batch_attrs(args, kwargs, result):
    spec, _snr, point, batch, n = args
    return {
        "decoder": spec.decoder,
        "point": point,
        "batch": batch,
        "n": n,
        "errors": result.errors,
        "error_target": spec.error_target,
        "trials_cap": spec.trials_per_point,
    }


def _sweep_attrs(args, kwargs, result):
    return {"threads": kwargs["threads"]}


#: (module the program calls through, attribute, span name, attrs, cpu).
TRACE_TARGETS = (
    ("marc_pnc.montecarlo", "run_sweep", "montecarlo.run_sweep", _sweep_attrs, True),
    ("marc_pnc.montecarlo", "simulate_batch", "montecarlo.simulate_batch", _batch_attrs, False),
    ("marc_pnc.montecarlo", "draw_batch", "montecarlo.draw_batch", None, False),
    ("marc_pnc.montecarlo", "equivalence_battery", "montecarlo.equivalence_battery", None, False),
    ("marc_pnc.montecarlo", "fast_decode", "destination.fast_decode", None, False),
    ("marc_pnc.montecarlo", "novel_decode_exhaustive", "destination.novel_decode_exhaustive", None, False),
    ("marc_pnc.montecarlo", "sample_channel", "channel.sample_channel", None, False),
    ("marc_pnc.montecarlo", "relay_ml_decode", "relay.relay_ml_decode", None, False),
    ("marc_pnc.montecarlo", "make_cfnc_config", "cfnc.make_cfnc_config", None, False),
    ("marc_pnc.montecarlo", "weight_matrices", "scheme.weight_matrices", None, False),
    ("marc_pnc.montecarlo", "check_hr_orthogonal", "scheme.check_hr_orthogonal", None, False),
    ("marc_pnc.destination", "weight_matrices", "scheme.weight_matrices", None, False),
    ("marc_pnc.destination", "check_hr_orthogonal", "scheme.check_hr_orthogonal", None, False),
    ("marc_pnc.destination", "qr_2x3", "numerics.qr_2x3", None, False),
    ("marc_pnc.diversity", "estimate_diversity", "diversity.estimate_diversity", None, False),
    ("marc_pnc.sweepio", "curve_to_csv", "sweepio.curve_to_csv", None, False),
)

#: Spans each workload must record; the traced run fails if one has no calls.
REQUIRED_SPANS = {
    "paper-m4": (
        "montecarlo.run_sweep", "montecarlo.draw_batch", "cfnc.make_cfnc_config", "scheme.weight_matrices",
        "scheme.check_hr_orthogonal", "diversity.estimate_diversity", "sweepio.curve_to_csv",
    ) + tuple(f"montecarlo.simulate_batch.{d}" for d in DECODERS),
    "highorder-m16": (
        "montecarlo.run_sweep", "montecarlo.draw_batch", "scheme.weight_matrices", "scheme.check_hr_orthogonal",
        "sweepio.curve_to_csv", "montecarlo.simulate_batch.fast", "montecarlo.simulate_batch.min-euclid",
    ),
    "equiv-scalar": (
        "montecarlo.equivalence_battery", "destination.fast_decode", "destination.novel_decode_exhaustive",
        "scheme.weight_matrices", "scheme.check_hr_orthogonal", "numerics.qr_2x3", "channel.sample_channel",
        "relay.relay_ml_decode",
    ),
}


class TraceGuardError(RuntimeError):
    """A function the workload must call recorded no calls in the traced run."""


def install_trace(tracer: sp.Tracer) -> None:
    for module, attr, name, attrs, cpu in TRACE_TARGETS:
        tracer.wrap(module, attr, name, attrs=attrs, cpu=cpu)


def _span_key(s: sp.Span) -> str:
    if s.name == "montecarlo.simulate_batch" and s.attrs is not None:
        return f"{s.name}.{s.attrs['decoder']}"
    return s.name


def layer_metrics(workload: str, spans, solutions: int, untraced_walls, traced_walls):
    """Per-layer metrics from the spans of ``solutions`` traced solutions.

    Returns ``(metrics, notes)``: metrics maps name -> (value, unit); notes
    maps a ``_tail`` metric to its percentile and sample count.  Counts are
    per solution.  A function the workload does not call reports 0.
    """
    groups: dict[str, list[sp.Span]] = defaultdict(list)
    for s in spans:
        groups[_span_key(s)].append(s)
    missing = [name for name in REQUIRED_SPANS[workload] if not groups.get(name)]
    if missing:
        raise TraceGuardError(f"{workload}: no calls recorded for {', '.join(missing)}")
    selfs = sp.self_times(spans)
    scale = {"ms": 1e6, "us": 1e3, "s": 1e9}

    def per_solution(group):
        n = len(group) / solutions
        return int(n) if n.is_integer() else n

    metrics: dict[str, tuple[float, str]] = {}
    notes: dict[str, str] = {}

    def timed(name, unit, calls=True, tail=False, self_=False, p50_key=None):
        group = groups.get(name, [])
        durs = [(s.end - s.start) / scale[unit] for s in group]
        if calls:
            metrics[f"{name}.calls"] = (per_solution(group), "count")
        metrics[p50_key or f"{name}.{unit}_p50"] = (sp.p50(durs), unit)
        if tail:
            t = sp.tail(durs)
            metrics[f"{name}.{unit}_tail"] = (t.value, unit)
            notes[f"{name}.{unit}_tail"] = sp.fmt_tail(t)
        if self_:
            metrics[f"{name}.self_{unit}_p50"] = (sp.p50([selfs[s.id] / scale[unit] for s in group]), unit)

    for d in DECODERS:
        timed(f"montecarlo.simulate_batch.{d}", "ms", tail=True, self_=True)
    timed("montecarlo.draw_batch", "ms", tail=True)
    sweeps = [s for s in groups.get("montecarlo.run_sweep", []) if "threads" in s.attrs]  # those that returned
    batches = [s for s in spans if s.name == "montecarlo.simulate_batch" and s.attrs is not None]
    metrics["montecarlo.run_sweep.cpu_per_wall"] = (sp.cpu_per_wall(sweeps), "s/s")
    metrics["montecarlo.run_sweep.barrier_idle_frac"] = (
        sp.barrier_idle_frac(sweeps, batches, montecarlo.ROUND_WIDTH), "fraction")
    metrics["montecarlo.run_sweep.useful_frac"] = (sp.useful_frac(batches), "fraction")
    battery = groups.get("montecarlo.equivalence_battery", [])
    metrics["montecarlo.equivalence_battery.self_s"] = (sp.p50([selfs[s.id] / 1e9 for s in battery]), "s")
    timed("destination.fast_decode", "us", tail=True, self_=True)
    timed("destination.novel_decode_exhaustive", "us", tail=True)
    metrics["scheme.weight_matrices.calls"] = (per_solution(groups.get("scheme.weight_matrices", [])), "count")
    timed("scheme.check_hr_orthogonal", "us")
    timed("numerics.qr_2x3", "us")
    timed("channel.sample_channel", "us")
    timed("relay.relay_ml_decode", "us")
    timed("cfnc.make_cfnc_config", "ms")
    timed("diversity.estimate_diversity", "ms", calls=False, p50_key="diversity.estimate_diversity.ms")
    timed("sweepio.curve_to_csv", "ms", calls=False, p50_key="sweepio.curve_to_csv.ms")
    metrics["trace.overhead_frac"] = (sp.overhead_frac(untraced_walls, traced_walls), "fraction")
    return metrics, notes
