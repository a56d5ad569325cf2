"""Complex-field network coding baseline, reconstructed for comparison.

In this scheme the relay forwards a complex linear combination
x_A + theta * x_B of its decoded pair instead of a many-to-one map, so its
transmit constellation has M^2 points, ``CfncConfig.relay_points``, one per
pair in row-major order.  The destination jointly decodes both phases by
minimum squared distance, assuming the relay forwarded its hypothesised
pair: it is ``destination.joint_min_distance`` on that relay.

Reconstruction choices (recorded in sweep metadata):

* theta defaults to exp(i*pi/4), validated when a sweep spec is built to
  keep all M^2 combined points distinct;
* the sources transmit in both phases with the same (a, b, c, d) split as
  the network-coded scheme, so frame structure and energies match exactly
  and the comparison isolates the relay-map difference;
* the relay scaling is a fixed constant making the mean combined-symbol
  energy 1, treated as perfectly known at the destination (a genie pilot;
  this can only favour the baseline).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .signalset import SignalSet


@dataclass(frozen=True)
class CfncConfig:
    """Relay combining coefficient and its energy normalisation."""

    theta: complex
    power_norm: float

    def __post_init__(self) -> None:
        if not abs(abs(self.theta) - 1.0) <= 1e-12:
            raise ValueError(f"|theta| must be 1, got {abs(self.theta)}")
        if not self.power_norm > 0:
            raise ValueError("power_norm must be positive")

    def relay_points(self, pts) -> np.ndarray:
        """The M^2 points the relay can send, power_norm * (x_a + theta * x_b),
        pair (index_a, index_b) at index_a * M + index_b."""
        pts = np.asarray(pts, dtype=np.complex128)
        return self.power_norm * (pts[:, None] + self.theta * pts[None, :]).ravel()


DEFAULT_THETA = cmath.exp(1j * math.pi / 4.0)


def check_cfnc_uniqueness(s: SignalSet, theta: complex) -> bool:
    """True iff all M^2 combined points x_a + theta*x_b are over 1e-9 apart."""
    p = np.asarray(s.points, dtype=np.complex128)
    sums = (p[:, None] + theta * p[None, :]).ravel()
    dist = np.abs(sums[:, None] - sums[None, :])
    np.fill_diagonal(dist, np.inf)
    return bool((dist > 1e-9).all())


def make_cfnc_config(s: SignalSet, theta: complex) -> CfncConfig:
    """Validated config with power_norm set for unit mean relay energy."""
    if not cmath.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    if not check_cfnc_uniqueness(s, theta):
        raise ValueError(f"theta={theta!r} collapses distinct pairs on this constellation")
    mean_energy = sum(abs(xa + theta * xb) ** 2 for xa in s.points for xb in s.points) / s.m**2
    return CfncConfig(theta=theta, power_norm=1.0 / math.sqrt(mean_energy))
