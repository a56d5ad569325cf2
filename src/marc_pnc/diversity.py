"""Diversity-order estimation from measured error-probability curves.

The diversity order is the asymptotic slope of -log10(p) against SNR on a
log-log axis; with SNR expressed in dB the regressor is snr_db / 10, so a
probability falling as SNR^-2 fits a slope of exactly 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .montecarlo import PROBABILITY_EVENTS, SepCurve

#: Minimum error events per point for a statistically usable estimate.
MIN_EVENTS = 50
MIN_POINTS = 3


class InsufficientDataError(ValueError):
    """Raised when a window holds too few valid points for a fit."""


@dataclass(frozen=True)
class DiversityFit:
    slope: float
    intercept: float
    fit_window_db: tuple[float, float]
    r_squared: float
    n_points: int


def _valid_points(curve: SepCurve, which: str, window_db: tuple[float, float], min_events: int):
    if which not in PROBABILITY_EVENTS:
        raise ValueError(f"unknown curve field {which!r}")
    lo, hi = window_db
    chosen = []
    for p in curve.points:
        if not (lo <= p.snr_db <= hi):
            continue
        v = getattr(p, which)
        if v is None or v <= 0.0:
            continue
        if p.event_count(which) < min_events:
            continue
        chosen.append((p.snr_db, v))
    return chosen


def estimate_diversity(
    curve: SepCurve,
    which: str = "sep_joint",
    window_db: tuple[float, float] = (0.0, 100.0),
    min_events: int = MIN_EVENTS,
) -> DiversityFit:
    """Least-squares slope of -log10(p) vs snr_db/10 over the window.

    Only points with at least ``min_events`` error events enter the fit;
    raises ``InsufficientDataError`` (stating the shortfall) if fewer than
    three qualify.
    """
    chosen = _valid_points(curve, which, window_db, min_events)
    if len(chosen) < MIN_POINTS:
        counts = {p.snr_db: p.event_count(which) for p in curve.points if window_db[0] <= p.snr_db <= window_db[1]}
        raise InsufficientDataError(
            f"need >= {MIN_POINTS} points with >= {min_events} events for {which!r} "
            f"in {window_db}; event counts: {counts}"
        )
    x = np.array([s / 10.0 for s, _ in chosen])
    y = np.array([-np.log10(v) for _, v in chosen])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return DiversityFit(
        slope=float(slope),
        intercept=float(intercept),
        fit_window_db=(float(chosen[0][0]), float(chosen[-1][0])),
        r_squared=r2,
        n_points=len(chosen),
    )


def probability_window(
    curve: SepCurve,
    which: str,
    prob_range: tuple[float, float],
    min_events: int = MIN_EVENTS,
) -> tuple[float, float]:
    """Smallest dB window containing every point whose value falls inside
    the open probability interval (with enough events)."""
    lo, hi = prob_range
    snrs = [s for s, v in _valid_points(curve, which, (-math.inf, math.inf), min_events) if lo < v < hi]
    if not snrs:
        raise InsufficientDataError(f"no points with {which!r} inside {prob_range} and >= {min_events} events")
    return (min(snrs), max(snrs))
