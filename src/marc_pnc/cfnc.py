"""Complex-field network coding baseline, reconstructed for comparison.

In this scheme the relay forwards a complex linear combination
x_A + theta * x_B of its decoded pair instead of a many-to-one map, so its
transmit constellation has M^2 points.  The destination jointly decodes
both phases by minimum squared distance, assuming the relay forwarded its
hypothesised pair.

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

from .channel import ChannelRealization, phase1, phase2
from .destination import DecodeInput, DecodeOutput, decode_frame, joint_min_distance
from .relay import relay_ml_decode
from .scheme import SchemeConstants
from .signalset import SignalSet


@dataclass(frozen=True)
class CfncConfig:
    """Relay combining coefficient and its energy normalisation."""

    theta: complex
    power_norm: float

    def __post_init__(self) -> None:
        if abs(abs(self.theta) - 1.0) > 1e-12:
            raise ValueError(f"|theta| must be 1, got {abs(self.theta)}")
        if not self.power_norm > 0:
            raise ValueError("power_norm must be positive")


DEFAULT_THETA = cmath.exp(1j * math.pi / 4.0)


def check_cfnc_uniqueness(s: SignalSet, theta: complex, tol: float = 1e-9) -> bool:
    """True iff all M^2 combined points x_a + theta*x_b are distinct."""
    sums = [xa + theta * xb for xa in s.points for xb in s.points]
    for i in range(len(sums)):
        for j in range(i + 1, len(sums)):
            if abs(sums[i] - sums[j]) <= tol:
                return False
    return True


def make_cfnc_config(s: SignalSet, theta: complex = DEFAULT_THETA) -> CfncConfig:
    """Validated config with power_norm set for unit mean relay energy."""
    if not check_cfnc_uniqueness(s, theta):
        raise ValueError(f"theta={theta!r} collapses distinct pairs on this constellation")
    mean_energy = sum(abs(xa + theta * xb) ** 2 for xa in s.points for xb in s.points) / s.m**2
    return CfncConfig(theta=theta, power_norm=1.0 / math.sqrt(mean_energy))


def relay_combined_symbol(cfg: CfncConfig, s: SignalSet, ia: int, ib: int) -> complex:
    return cfg.power_norm * (s.points[ia] + cfg.theta * s.points[ib])


def cfnc_destination_decode(y1, y2, h_ad, h_bd, h_rd, k: SchemeConstants, pts, cfg: CfncConfig, counter=None):
    """Joint two-phase minimum-distance decoding of a batch of frames.

    Each hypothesis assumes the relay combined exactly that pair.  Ties
    resolve to the smallest (index_a, index_b); the branch is always the
    trust-the-relay hypothesis since the baseline has no other.
    """
    return joint_min_distance(
        y1, y2, h_ad, h_bd, h_rd, k, pts, lambda ia, ib: cfg.power_norm * (pts[ia] + cfg.theta * pts[ib]), counter
    )


def cfnc_run_frame(
    xa_idx: int,
    xb_idx: int,
    h: ChannelRealization,
    k: SchemeConstants,
    s: SignalSet,
    cfg: CfncConfig,
    z_r: complex,
    z_d1: complex,
    z_d2: complex,
) -> tuple[DecodeOutput, tuple[int, int]]:
    """One baseline frame: phase 1, relay detection and combining, phase 2,
    joint destination decoding.  Returns the decision and the relay's pair."""
    xa = s.points[xa_idx]
    xb = s.points[xb_idx]
    y_r, y_d1 = phase1(k, h, xa, xb, z_r, z_d1)
    relay_pair = relay_ml_decode(y_r, h, k, s)
    x_r = relay_combined_symbol(cfg, s, relay_pair[0], relay_pair[1])
    y_d2 = phase2(k, h, xa, xb, x_r, z_d2)
    inp = DecodeInput(y_d1=y_d1, y_d2=y_d2, h_ad=h.h_ad, h_bd=h.h_bd, h_rd=h.h_rd, constants=k, signal_set=s)
    return decode_frame(cfnc_destination_decode, inp, relay=cfg), relay_pair
