"""Shared fixtures and the acceptance summary hook.

Acceptance tests register one line per criterion through the
``acceptance_report`` fixture; the lines print in the terminal summary so
the pass/fail status of each criterion is visible even though pytest
captures stdout.

The ``bench`` fixture imports the benchmark's own modules, so tests can
read its tables and rerun its sweeps without running the benchmark.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
BENCH_MODULES = ("workloads", "spans")

_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def acceptance_report():
    def record(criterion: str, ok: bool, detail: str = "") -> None:
        status = "PASS" if ok else "FAIL"
        line = f"[{status}] {criterion}"
        if detail:
            line += f" -- {detail}"
        _ACCEPTANCE_LINES.append(line)

    return record


@pytest.fixture
def scored_metrics(monkeypatch):
    """``scored_metrics(decoder, y1, y2, h_ad, h_bd, h_rd, k, pts, code,
    constellation)`` decodes one frame, given as the scalar reference takes
    it, with a batch kernel on a batch of one, and returns how many
    candidate metrics the kernel scored: the elements of every ``sqdist``
    result it computed."""
    from marc_pnc import destination
    from marc_pnc.numerics import sqdist

    scored = 0

    def counting_sqdist(z, t):
        nonlocal scored
        out = sqdist(z, t)
        scored += out.size
        return out

    monkeypatch.setattr(destination, "sqdist", counting_sqdist)

    def count(decoder, y1, y2, h_ad, h_bd, h_rd, k, pts, code, constellation) -> int:
        nonlocal scored
        scored = 0
        one = (np.array([z], dtype=np.complex128) for z in (y1, y2, h_ad, h_bd, h_rd))
        decoder(*one, k, np.asarray(pts), np.asarray(code), np.asarray(constellation))
        return scored

    return count


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's ``workloads`` and ``spans`` modules.  Nothing is
    written under ``benchmarks/``: bytecode caching is off while they are
    imported."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    for name in BENCH_MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    try:
        yield tuple(importlib.import_module(name) for name in BENCH_MODULES)
    finally:
        for name in BENCH_MODULES:
            sys.modules.pop(name, None)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in _ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
