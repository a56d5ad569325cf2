"""Relay-side processing: joint ML demodulation and network-coded forwarding.

The relay sees a single superposed sample per frame and jointly detects the
transmitted index pair over all M^2 candidates.  Exhaustive search is kept
deliberately (M <= 64 here): it is exact and easy to audit; the scalar
``relay_ml_decode`` is the reference its batch form is tested against.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import ChannelRealization
from .netmap import LatinSquare, apply_map
from .numerics import sqmag
from .scheme import SchemeConstants
from .signalset import SignalSet


def relay_ml_decode(
    y_r: complex,
    h: ChannelRealization,
    k: SchemeConstants,
    s: SignalSet,
) -> tuple[int, int]:
    """Jointly detect (index_a, index_b) by minimum squared residual.

    Ties break to the lexicographically smallest (index_a, index_b); scans
    iterate ascending and keep the first strict improvement, which makes
    the result reproducible bit-for-bit.
    """
    root_es = math.sqrt(k.es)
    ga = h.h_ar * root_es * k.a
    gb = h.h_br * root_es * k.b
    terms_a = [ga * p for p in s.points]
    terms_b = [gb * p for p in s.points]
    best = math.inf
    best_pair = (0, 0)
    for ia, ta in enumerate(terms_a):
        base = y_r - ta
        for ib, tb in enumerate(terms_b):
            z = base - tb
            d = z.real * z.real + z.imag * z.imag
            if d < best:
                best = d
                best_pair = (ia, ib)
    return best_pair


def relay_ml_decode_batch(
    y_r: np.ndarray,
    h_ar: np.ndarray,
    h_br: np.ndarray,
    k: SchemeConstants,
    pts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``relay_ml_decode`` on a batch of frames.  The argmin over the
    row-major (index_a, index_b) grid keeps the same lexicographic
    tie-break."""
    root = math.sqrt(k.es)
    ta = (h_ar * (root * k.a))[:, None] * pts[None, :]
    tb = (h_br * (root * k.b))[:, None] * pts[None, :]
    resid = sqmag(y_r[:, None, None] - ta[:, :, None] - tb[:, None, :])
    idx = np.argmin(resid.reshape(resid.shape[0], -1), axis=1)
    return idx // len(pts), idx % len(pts)


def relay_forward(dec: tuple[int, int], f: LatinSquare, s: SignalSet) -> complex:
    """Constellation point for the network-coded value of a decoded pair."""
    return apply_map(f, s, dec[0], dec[1])
