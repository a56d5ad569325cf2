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
    """M-point constellation with M = 2**bits_per_symbol, all points |x| = 1."""

    points: tuple[complex, ...]
    bits_per_symbol: int

    def __post_init__(self) -> None:
        m = len(self.points)
        if m != 2**self.bits_per_symbol or self.bits_per_symbol < 1:
            raise ValueError(f"{m} points inconsistent with {self.bits_per_symbol} bits/symbol")
        for p in self.points:
            if abs(abs(p) - 1.0) > 1e-12:
                raise ValueError(f"point {p!r} is not unit energy")
        if len({(round(p.real, 12), round(p.imag, 12)) for p in self.points}) != m:
            raise ValueError("constellation points are not distinct")

    @property
    def m(self) -> int:
        return len(self.points)

    def index_of(self, x: complex, tol: float = 1e-9) -> int:
        """Index of the constellation point equal to x (within tol)."""
        for k, p in enumerate(self.points):
            if abs(p - x) <= tol:
                return k
        raise ValueError(f"{x!r} is not a constellation point")


def make_psk(m: int, phase_offset: float = 0.0) -> SignalSet:
    """M-PSK with points exp(i(2*pi*k/M + phase_offset)), k = 0..M-1."""
    if m < 2 or m & (m - 1):
        raise ValueError(f"M must be a power of two >= 2, got {m}")
    points = tuple(cmath.exp(1j * (2.0 * math.pi * k / m + phase_offset)) for k in range(m))
    return SignalSet(points=points, bits_per_symbol=m.bit_length() - 1)


def difference_set(s: SignalSet, tol: float = 1e-12) -> tuple[complex, ...]:
    """All pairwise differences x - x', deduplicated within tol.

    Always contains 0 and is closed under negation.
    """
    values: list[complex] = []
    for x in s.points:
        for xp in s.points:
            d = x - xp
            if not any(abs(d - v) <= tol for v in values):
                values.append(d)
    # Stable order: by magnitude then angle, with 0 first.
    values.sort(key=lambda z: (abs(z), cmath.phase(z) if z != 0 else 0.0))
    return tuple(values)
