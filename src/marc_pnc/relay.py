"""Relay-side processing: joint ML demodulation of the superposed pair.

The relay sees a single superposed sample per frame and jointly detects the
transmitted index pair over all M^2 candidates.  Exhaustive search is kept
deliberately (M <= 64 here): it is exact and easy to audit.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import first_pair_min, sqdist, symbol_terms
from .scheme import SchemeConstants


def relay_ml_decode(
    y_r: np.ndarray,
    h_ar: np.ndarray,
    h_br: np.ndarray,
    k: SchemeConstants,
    pts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Jointly detect each frame's (index_a, index_b) by minimum squared
    residual.

    Each x_A hypothesis scores every x_B at once, in candidate-major (M, n)
    rows.  Ties break to the lexicographically smallest (index_a, index_b)
    (``first_pair_min``), which makes the result reproducible bit-for-bit.
    """
    root = math.sqrt(k.es)
    ta = symbol_terms(h_ar * (root * k.a), pts)
    tb = symbol_terms(h_br * (root * k.b), pts)
    return first_pair_min(sqdist(y_r - ta[ia], tb) for ia in range(len(pts)))
