"""Relay-side processing: joint ML demodulation of the superposed pair.

The relay sees a single superposed sample per frame and jointly detects the
transmitted index pair over all M^2 candidates.  Exhaustive search is kept
deliberately (M <= 64 here): it is exact and easy to audit.  The scalar
``relay_ml_decode`` takes the arguments of its batch form for one frame, as
Python numbers and a sequence of points, and is the reference the batch
form is tested against.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import first_pair_min, sqdist, symbol_terms
from .scheme import SchemeConstants


def relay_ml_decode(y_r: complex, h_ar: complex, h_br: complex, k: SchemeConstants, pts) -> tuple[int, int]:
    """Jointly detect (index_a, index_b) by minimum squared residual.

    Ties break to the lexicographically smallest (index_a, index_b); scans
    iterate ascending and keep the first strict improvement, which makes
    the result reproducible bit-for-bit.
    """
    root_es = math.sqrt(k.es)
    ga = h_ar * root_es * k.a
    gb = h_br * root_es * k.b
    terms_a = [ga * p for p in pts]
    terms_b = [gb * p for p in pts]
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
    """``relay_ml_decode`` on a batch of frames.  Each x_A hypothesis
    scores every x_B at once, in candidate-major (M, n) rows, and the
    lexicographic scan keeps the scalar tie-break."""
    root = math.sqrt(k.es)
    ta = symbol_terms(h_ar * (root * k.a), pts)
    tb = symbol_terms(h_br * (root * k.b), pts)
    return first_pair_min(sqdist(y_r - ta[ia], tb) for ia in range(len(pts)))
