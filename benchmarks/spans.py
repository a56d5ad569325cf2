"""Span tracing for the benchmark's traced run, and the summary maths over spans.

A ``Tracer`` replaces functions at the module attributes through which the
program calls them and records one span per call: name, start, end, thread
and parent.  Spans stay in memory until the run ends.  Nothing here imports
the program, so the tracer and the summaries can be tested on synthetic
spans.

Parents: a call's parent is the innermost open span on its own thread.  A
call on a thread with no open span (a sweep's pool worker) takes as parent
the innermost open span of the thread that installed the tracer, which is
the thread blocked in the call that handed out the work.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from typing import NamedTuple

#: Candidate tail percentiles in hundredths of a percent (integer maths, so
#: 99.9 % of 10000 samples is exactly rank 9990).
TAIL_LADDER = (5000, 7500, 9000, 9500, 9900, 9990, 9999)
#: A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


class Span(NamedTuple):
    id: int
    name: str
    start: int  # perf_counter_ns
    end: int
    thread: int
    parent: int | None
    attrs: dict | None


class Tail(NamedTuple):
    pct: float  # 100.0 means "the maximum": too few samples for any ladder percentile
    value: float
    n: int
    beyond: int


class WrapTargetError(RuntimeError):
    """A function the trace must wrap is gone from the module it was called through."""


class Tracer:
    """Records a span for every call of each wrapped function while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self._root_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, module_name: str, attr: str, span_name: str, attrs=None, cpu: bool = False) -> None:
        """Replace ``module_name.attr`` by a recording wrapper.

        ``attrs(args, kwargs, result)`` adds fields to the span of a call
        that returned; ``cpu`` records the process CPU time the call used.
        """
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if not callable(fn):
            raise WrapTargetError(f"{module_name}.{attr} does not exist; the traced run cannot measure {span_name}")
        setattr(module, attr, self._wrapper(span_name, fn, attrs, cpu))
        self._patched.append((module, attr, fn))

    def _wrapper(self, name: str, fn, attrs, cpu: bool):
        spans = self.spans
        ids = self._ids
        root = self._root_stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (root[-1] if root else None)
            sid = next(ids)
            stack.append(sid)
            cpu0 = time.process_time_ns() if cpu else 0
            t0 = clock()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                extra = None
                if cpu:
                    extra = {"cpu_ns": time.process_time_ns() - cpu0}
                if done and attrs is not None:
                    extra = {**(extra or {}), **attrs(args, kwargs, result)}
                spans.append(Span(sid, name, t0, t1, threading.get_ident(), parent, extra))

        return wrapper

    def __enter__(self) -> "Tracer":
        self._root_stack = self._stack()
        return self

    def __exit__(self, *exc) -> None:
        self.unwrap_all()

    def unwrap_all(self) -> None:
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)


# ---------------------------------------------------------------------------
# Summaries


def percentile(sorted_values, pct_hundredths: int):
    """Nearest-rank percentile of an ascending sequence; ``pct_hundredths``
    is the percentile in hundredths of a percent (5000 = median)."""
    n = len(sorted_values)
    rank = max(1, -(-pct_hundredths * n // 10000))
    return sorted_values[rank - 1]


def p50(values) -> float:
    return percentile(sorted(values), 5000) if values else 0.0


def tail(values) -> Tail:
    """The highest ladder percentile with at least ``MIN_BEYOND`` samples
    above its rank; the maximum (pct 100) when no ladder entry has that many."""
    vals = sorted(values)
    n = len(vals)
    if n == 0:
        return Tail(100.0, 0.0, 0, 0)
    chosen = None
    for p in TAIL_LADDER:
        beyond = n - (-(-p * n // 10000))
        if beyond >= MIN_BEYOND:
            chosen = (p, beyond)
    if chosen is None:
        return Tail(100.0, vals[-1], n, 0)
    p, beyond = chosen
    return Tail(p / 100, percentile(vals, p), n, beyond)


def _covered(intervals) -> int:
    total = 0
    end = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the time its child spans on the same
    thread cover (children on other threads run beside it, not inside it)."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        inside = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.id, ())
            if c.thread == s.thread
        ]
        out[s.id] = (s.end - s.start) - _covered(inside)
    return out


def barrier_idle_frac(sweeps, batches, round_width: int) -> float:
    """Worker time left idle at round barriers over threads x sweep wall.

    A sweep's batches are grouped into rounds by (point, batch // round_width);
    in each round every one of the sweep's ``threads`` workers is available
    from the round's first batch start to its last batch end, and the part
    of that not spent in a batch is idle.
    """
    by_parent: dict[int, list[Span]] = defaultdict(list)
    for b in batches:
        by_parent[b.parent].append(b)
    idle = 0
    capacity = 0
    for sw in sweeps:
        threads = sw.attrs["threads"]
        capacity += threads * (sw.end - sw.start)
        rounds: dict[tuple[int, int], list[Span]] = defaultdict(list)
        for b in by_parent.get(sw.id, ()):
            rounds[(b.attrs["point"], b.attrs["batch"] // round_width)].append(b)
        for members in rounds.values():
            window = max(b.end for b in members) - min(b.start for b in members)
            idle += max(0, threads * window - sum(b.end - b.start for b in members))
    return idle / capacity if capacity else 0.0


def useful_frac(batches) -> float:
    """Frames up to and including the batch at which each point reached its
    error target or trial cap, over all frames simulated."""
    points: dict[tuple[int | None, int], list[Span]] = defaultdict(list)
    for b in batches:
        points[(b.parent, b.attrs["point"])].append(b)
    useful = 0
    total = 0
    for members in points.values():
        members.sort(key=lambda b: b.attrs["batch"])
        frames = errors = 0
        reached = None
        for b in members:
            frames += b.attrs["n"]
            errors += b.attrs["errors"]
            if reached is None and (errors >= b.attrs["error_target"] or frames >= b.attrs["trials_cap"]):
                reached = frames
        total += frames
        useful += frames if reached is None else reached
    return useful / total if total else 0.0


def cpu_per_wall(spans) -> float:
    wall = sum(s.end - s.start for s in spans)
    return sum(s.attrs["cpu_ns"] for s in spans) / wall if wall else 0.0


def overhead_frac(untraced_walls, traced_walls) -> float:
    base = p50(untraced_walls)
    return (p50(traced_walls) - base) / base if base else 0.0


def spans_table(spans) -> dict:
    """Column-wise form of the spans, for writing out at the end of a run."""
    names = sorted({s.name for s in spans})
    index = {n: i for i, n in enumerate(names)}
    ordered = sorted(spans, key=lambda s: s.id)
    return {
        "names": names,
        "columns": ["id", "name", "start_ns", "end_ns", "thread", "parent"],
        "rows": [[s.id, index[s.name], s.start, s.end, s.thread, s.parent] for s in ordered],
    }


def fmt_tail(t: Tail) -> str:
    if t.pct == 100.0:
        return f"max of n={t.n}"
    return f"p{t.pct:g}, n={t.n}, {t.beyond} beyond"
