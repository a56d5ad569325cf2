"""Complex-field network coding baseline, reconstructed for comparison.

In this scheme the relay forwards a complex linear combination
x_A + theta * x_B of its decoded pair instead of a many-to-one map, so its
transmit constellation has M^2 points, the relay points that
``make_cfnc_config`` returns, one per pair in row-major order.  The
destination jointly decodes both phases by minimum squared distance,
assuming the relay forwarded its hypothesised pair: it is
``destination.joint_min_distance`` on that relay.

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

import numpy as np

DEFAULT_THETA = cmath.exp(1j * math.pi / 4.0)


def make_cfnc_config(pts: np.ndarray, theta: complex) -> tuple[float, np.ndarray]:
    """``(power_norm, constellation)`` of the relay combining the points
    ``pts`` with ``theta``: constellation[index_a * M + index_b] is
    power_norm * (x_a + theta * x_b), and power_norm makes the mean relay
    energy 1.  Raises ``ValueError`` unless theta is finite, of modulus 1
    and keeps all M^2 combined points over 1e-9 apart."""
    if not cmath.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    if not abs(abs(theta) - 1.0) <= 1e-12:
        raise ValueError(f"|theta| must be 1, got {abs(theta)}")
    sums = (pts[:, None] + theta * pts[None, :]).ravel()
    dist = np.abs(sums[:, None] - sums[None, :])
    np.fill_diagonal(dist, np.inf)
    if not (dist > 1e-9).all():
        raise ValueError(f"theta={theta!r} collapses distinct pairs on this constellation")
    points = pts.tolist()
    mean_energy = sum(abs(xa + theta * xb) ** 2 for xa in points for xb in points) / len(points) ** 2
    power_norm = 1.0 / math.sqrt(mean_energy)
    return power_norm, power_norm * sums
