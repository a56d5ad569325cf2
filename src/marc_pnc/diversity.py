"""Diversity-order estimation from measured error-probability curves.

The diversity order is the asymptotic slope of -log10(p) against SNR on a
log-log axis; with SNR expressed in dB the regressor is snr_db / 10, so a
probability falling as SNR^-2 fits a slope of exactly 2.

A fit takes the points with at least MIN_EVENTS error events, finds the
dB span from the lowest to the highest SNR whose value lies strictly inside
the probability band, and fits every such point in that span: a point
whose value falls outside the band is fitted too if its SNR lies inside the
span.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .montecarlo import PROBABILITY_EVENTS, SepCurve

#: Minimum error events per point for a statistically usable estimate.
MIN_EVENTS = 50
MIN_POINTS = 3
#: The SEP band of the high-SNR claims (diversity order two for the aware
#: decoders, one for blind decoding).  Above 1e-3 the aware curves are
#: further from their asymptotic slope; below 1e-6 a point needs more than
#: 5e7 frames for MIN_EVENTS events.  The acceptance criteria and
#: ``marc-pnc reproduce`` fit this one band.
ASYMPTOTIC_BAND = (1e-6, 1e-3)


class InsufficientDataError(ValueError):
    """Raised when a band holds too few valid points for a fit."""


@dataclass(frozen=True)
class DiversityFit:
    slope: float
    intercept: float
    fit_window_db: tuple[float, float]
    r_squared: float
    n_points: int


def estimate_diversity(
    curve: SepCurve,
    which: str = "sep_joint",
    band: tuple[float, float] = (0.0, math.inf),
) -> DiversityFit:
    """Least-squares slope of -log10(p) vs snr_db/10 over the dB span of
    the open probability interval ``band`` (default: every positive value).

    Raises ``InsufficientDataError``, naming the field, the band and each
    point's event count, if fewer than three points qualify.
    """
    if which not in PROBABILITY_EVENTS:
        raise ValueError(f"unknown curve field {which!r}")
    events = PROBABILITY_EVENTS[which]
    # each value is its events over a count that includes them, so a point
    # with events has a positive value, never None
    usable = [(p.snr_db, getattr(p, which)) for p in curve.points if getattr(p, events) >= MIN_EVENTS]
    lo, hi = band
    in_band = [s for s, v in usable if lo < v < hi]
    span = (min(in_band), max(in_band)) if in_band else (math.inf, -math.inf)
    chosen = [(s, v) for s, v in usable if span[0] <= s <= span[1]]
    if len(chosen) < MIN_POINTS:
        counts = {p.snr_db: getattr(p, events) for p in curve.points}
        raise InsufficientDataError(
            f"need >= {MIN_POINTS} points with >= {MIN_EVENTS} events for {which!r} "
            f"inside {band}; event counts: {counts}"
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
        fit_window_db=(float(span[0]), float(span[1])),
        r_squared=r2,
        n_points=len(chosen),
    )
