"""marc-pnc benchmark: one workload per invocation, run from the repository root.

    python3 benchmarks/run.py --workload paper-m4 --seed 0 --seconds 55 --trace 0
    python3 benchmarks/run.py --workload all       # every workload, one process each

Load is a closed loop in this one process: each sweep or battery call
returns before the next starts.  A *solution* is the workload's fixed set
of sweeps (with their CSVs and fits) or its battery call; the run repeats
solutions for about ``--seconds`` seconds (at least three).

Times are read at the reference host's speed (see calibration.py): each
operation's time is scaled by a calibration kernel timed right before and
after it.  ``wall_s`` sums, over a solution's operations, the median of each
operation's scaled times; ``setup_s`` is the median scaled set-up time of
fresh processes spread over the run, plus the run's own.  The raw times are
printed beside them and written to benchmarks/out/.

``--trace 0`` prints the end-to-end metrics: setup_s, wall_s, frames_per_s
and peak_rss_mb.  ``--trace 1`` alternates untraced and traced solutions
and prints the per-layer metrics from the traced ones.  Either way every
output is checked (see workloads.check); the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``, where an
operation is one sweep or one battery call.  The run exits 1 without that
line when the program cannot be imported from ./src or a trace target is
missing, and exits 1 after it when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

SRC = Path.cwd() / "src"
OUT = Path(__file__).resolve().parent / "out"

#: Set-up is measured in this many fresh processes, spread over the run, plus the run's own.
SETUP_PROBES = 16
MIN_SOLUTIONS = 3
CHILD_TIMEOUT_S = 60
ALL_TIMEOUT_S = 900
#: Native thread pools stay at one thread; the workload's threads= is the only parallelism.
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, help="paper-m4, highorder-m16, equiv-scalar or all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def timed_setup(workload: str, seed: int):
    """Import marc_pnc and build the workload's specs; returns (plan, seconds)."""
    t0 = time.perf_counter()
    import workloads

    plan = workloads.build_plan(workload, seed)
    return plan, time.perf_counter() - t0


def probe_setup(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def env_info(threads: int) -> dict:
    import numpy

    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines() if line.startswith("model name")),
                 platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and size:
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": threads,
        "MARC_PNC_THREADS": os.environ.get("MARC_PNC_THREADS"),
    }


class Accounting:
    """Counts operations and failures across every solution and check."""

    def __init__(self, workloads, plan) -> None:
        self.w = workloads
        self.plan = plan
        self.reference: dict[str, str] = {}
        self.golden = workloads.load_golden()
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ops) -> None:
        self.w.check(self.plan, ops, self.reference, self.golden)
        self.attempted += len(ops)
        self.failures += [f"{op.label}: {op.error}" for op in ops if op.error is not None]


def timed_solution(workloads, plan, acct: Accounting, calib=None, scaled=None) -> tuple[float, int]:
    """Run one solution; returns the raw wall time of its operations and its
    frames.  With ``calib``, appends each operation's scaled time to
    ``scaled[label]``."""
    ops = []
    for run_op in workloads.operations(plan):
        ops.append(run_op())
        if calib is not None and ops[-1].frames:  # it did not raise
            scaled[ops[-1].label].append(calib.scale(ops[-1].seconds))
    acct.record(ops)
    return sum(op.seconds for op in ops), sum(op.frames for op in ops)


def run(args) -> int:
    if args.setup_probe:
        print(timed_setup(args.workload, args.seed)[1])
        return 0

    plan, own_setup = timed_setup(args.workload, args.seed)

    import calibration
    import marc_pnc
    import spans as sp
    import workloads

    if SRC not in Path(marc_pnc.__file__).resolve().parents:
        print(f"benchmark: marc_pnc was imported from {marc_pnc.__file__}, not {SRC}", file=sys.stderr)
        return 1

    acct = Accounting(workloads, plan)
    if plan.checks:
        acct.record(workloads.run_sweeps(plan.checks, 1))

    # Tracing has no calibration: its per-layer times are raw.
    calib = None if args.trace else calibration.Calibration(plan.calibration)
    probes = 0 if args.trace else SETUP_PROBES
    setup_raw = [own_setup]
    setup_scaled = [] if calib is None else [calib.scale(own_setup)]

    def probe() -> None:
        setup_raw.append(probe_setup(args))
        setup_scaled.append(calib.scale(setup_raw[-1]))

    walls: list[float] = []
    scaled: dict[str, list[float]] = defaultdict(list)
    traced_walls: list[float] = []
    frames: list[int] = []
    tracer = sp.Tracer()
    start = time.perf_counter()
    while True:
        if len(setup_raw) <= probes and time.perf_counter() - start >= (len(setup_raw) - 1) * args.seconds / probes:
            probe()
        wall, n = timed_solution(workloads, plan, acct, calib, scaled)
        walls.append(wall)
        frames.append(n)
        if args.trace:
            with tracer:
                workloads.install_trace(tracer)
                traced_walls.append(timed_solution(workloads, plan, acct)[0])
        elapsed = time.perf_counter() - start
        if len(walls) >= (2 if args.trace else MIN_SOLUTIONS) and elapsed * (1 + 1 / len(walls)) > args.seconds:
            break
    while len(setup_raw) <= probes:
        probe()

    info = env_info(plan.threads)
    wall_s = sum(statistics.median(times) for times in scaled.values())
    notes: dict[str, str] = {}
    if args.trace:
        metrics, notes = workloads.layer_metrics(args.workload, tracer.spans, len(traced_walls), walls, traced_walls)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_scaled), "s"),
            "wall_s": (wall_s, "s"),
            "frames_per_s": (statistics.median(frames) / wall_s if wall_s else 0.0, "frames/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    failed = len(acct.failures)
    result = {
        "correct": failed == 0,
        "attempted": acct.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}.trace{args.trace}"
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "env": info,
        "solution_walls_s": walls, "scaled_operation_s": scaled, "traced_walls_s": traced_walls,
        "setup_raw_s": setup_raw, "setup_scaled_s": setup_scaled,
        "failures": acct.failures, "notes": notes, **result,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if args.trace:
        (OUT / f"{stem}.spans.json").write_text(json.dumps(sp.spans_table(tracer.spans)) + "\n")

    print(f"# env {json.dumps(info)}")
    print(f"# {args.workload} seed={args.seed}: {len(walls)} solutions, {frames[0]} frames each, "
          f"failed_frac={failed / acct.attempted:g} ({failed}/{acct.attempted} operations)")
    solution_tail = sp.tail(walls)
    print(f"# raw times: solution median {statistics.median(walls):.6g} s, tail {solution_tail.value:.6g} s "
          f"({sp.fmt_tail(solution_tail)}); set-up median {statistics.median(setup_raw):.6g} s")
    for failure in acct.failures:
        print(f"# FAILED {failure}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"# {name} = {value:.6g} {unit}{note}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload, each in a fresh process; the last line sums their results."""
    import workloads

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=ALL_TIMEOUT_S)
        lines = done.stdout.splitlines()
        status = status or done.returncode
        if not lines or not lines[-1].startswith("{"):
            print("\n".join(lines))
            total["correct"] = False
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "marc_pnc" / "__init__.py").is_file():
        print(f"benchmark: no marc_pnc sources under {SRC}; run from the repository root", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    os.environ.update(PINNED_ENV)
    return run_all(args) if args.workload == "all" else run(args)


if __name__ == "__main__":
    sys.exit(main())
