"""Unit-energy PSK constellations and their difference sets.

Both sources draw symbols from the same M-point set with M a power of two.
All analysis is symbol-level: symbols are identified by their index into
the point tuple, and no bit labelling is defined.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class SignalSet:
    """M-point constellation with M a power of two >= 2, all points |x| = 1."""

    points: tuple[complex, ...]

    def __post_init__(self) -> None:
        m = len(self.points)
        if m < 2 or m & (m - 1):
            raise ValueError(f"the number of points must be a power of two >= 2, got {m}")
        for p in self.points:
            if abs(abs(p) - 1.0) > 1e-12:
                raise ValueError(f"point {p!r} is not unit energy")
        if len({(round(p.real, 12), round(p.imag, 12)) for p in self.points}) != m:
            raise ValueError("constellation points are not distinct")

    @property
    def m(self) -> int:
        return len(self.points)


def make_psk(m: int) -> SignalSet:
    """M-PSK with points exp(i*2*pi*k/M), k = 0..M-1."""
    points = tuple(cmath.exp(1j * (2.0 * math.pi * k / m)) for k in range(m))
    return SignalSet(points=points)


def difference_set(s: SignalSet) -> tuple[complex, ...]:
    """All pairwise differences x - x', deduplicated within 1e-12.

    Always contains 0 and is closed under negation.
    """
    values: list[complex] = []
    for x in s.points:
        for xp in s.points:
            d = x - xp
            if not any(abs(d - v) <= 1e-12 for v in values):
                values.append(d)
    # Stable order: by magnitude then angle, with 0 first.
    values.sort(key=lambda z: (abs(z), cmath.phase(z) if z != 0 else 0.0))
    return tuple(values)
