"""Unit-energy PSK constellations and their difference sets.

Both sources draw symbols from the same M-point set with M a power of two.
All analysis is symbol-level: symbols are identified by their index into
the point array, and no bit labelling is defined.
"""

from __future__ import annotations

import cmath
import math

import numpy as np


def make_psk(m: int) -> np.ndarray:
    """M-PSK as the (M,) complex128 array of points exp(i*2*pi*k/M), k =
    0..M-1; M must be a power of two >= 2."""
    if m < 2 or m & (m - 1):
        raise ValueError(f"the number of points must be a power of two >= 2, got {m}")
    return np.array([cmath.exp(1j * (2.0 * math.pi * k / m)) for k in range(m)], dtype=np.complex128)


def difference_set(pts: np.ndarray) -> tuple[complex, ...]:
    """All pairwise differences x - x' of the points ``pts``, deduplicated
    within 1e-12.

    Always contains 0 and is closed under negation.
    """
    points = pts.tolist()
    values: list[complex] = []
    for x in points:
        for xp in points:
            d = x - xp
            if not any(abs(d - v) <= 1e-12 for v in values):
                values.append(d)
    # Stable order: by magnitude then angle, with 0 first.
    values.sort(key=lambda z: (abs(z), cmath.phase(z) if z != 0 else 0.0))
    return tuple(values)
