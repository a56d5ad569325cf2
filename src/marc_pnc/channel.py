"""Quasi-static Rayleigh fading for the two-source relay topology.

One channel realization (five independent complex-Gaussian fade
coefficients) holds for the whole two-phase frame.  Noise samples are
passed in explicitly rather than drawn here, so decoder tests can replay
exact frames; all randomness is owned by the Monte Carlo engine.  Additive
noise variance is fixed at 1 and SNR is varied through the transmit energy
alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numerics import RngStream
from .scheme import SchemeConstants


def db_to_linear(db: float) -> float:
    """10^(db/10); a value too large for a float raises ``ValueError``."""
    try:
        return 10.0 ** (float(db) / 10.0)
    except OverflowError:
        raise ValueError(f"{float(db)} dB overflows as a linear value") from None


@dataclass(frozen=True)
class FadingProfile:
    """Per-link fade variances, stored linear."""

    var_ar: float
    var_br: float
    var_ad: float
    var_bd: float
    var_rd: float

    def __post_init__(self) -> None:
        for name in ("var_ar", "var_br", "var_ad", "var_bd", "var_rd"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")

    @classmethod
    def from_db(cls, ar: float = 0.0, br: float = 0.0, ad: float = 0.0, bd: float = 0.0, rd: float = 0.0) -> "FadingProfile":
        return cls(
            var_ar=db_to_linear(ar),
            var_br=db_to_linear(br),
            var_ad=db_to_linear(ad),
            var_bd=db_to_linear(bd),
            var_rd=db_to_linear(rd),
        )


#: The three shipped variance profiles: all links equal, strong
#: source-to-relay links, and a strong relay-to-destination link.
PROFILE_PRESETS: dict[str, FadingProfile] = {
    "equal": FadingProfile.from_db(),
    "sr-strong": FadingProfile.from_db(ar=10.0, br=10.0),
    "rd-strong": FadingProfile.from_db(rd=10.0),
}


@dataclass(frozen=True)
class ChannelRealization:
    """One frame's fade coefficients."""

    h_ar: complex
    h_br: complex
    h_ad: complex
    h_bd: complex
    h_rd: complex


def sample_channel(rng: RngStream, p: FadingProfile) -> ChannelRealization:
    """Draw five independent CN(0, var) coefficients, in field order."""
    return ChannelRealization(
        h_ar=rng.gaussian(p.var_ar),
        h_br=rng.gaussian(p.var_br),
        h_ad=rng.gaussian(p.var_ad),
        h_bd=rng.gaussian(p.var_bd),
        h_rd=rng.gaussian(p.var_rd),
    )


def phase1(
    k: SchemeConstants,
    h: ChannelRealization,
    xa: complex,
    xb: complex,
    z_r: complex,
    z_d1: complex,
) -> tuple[complex, complex]:
    """Received samples at the relay and the destination while both sources
    transmit their first-phase scalings."""
    root_es = math.sqrt(k.es)
    y_r = h.h_ar * root_es * k.a * xa + h.h_br * root_es * k.b * xb + z_r
    y_d1 = h.h_ad * root_es * k.a * xa + h.h_bd * root_es * k.b * xb + z_d1
    return y_r, y_d1


def phase2(
    k: SchemeConstants,
    h: ChannelRealization,
    xa: complex,
    xb: complex,
    xr: complex,
    z_d2: complex,
) -> complex:
    """Received sample at the destination while the sources re-transmit with
    their second-phase scalings and the relay sends its symbol."""
    root_es = math.sqrt(k.es)
    return h.h_ad * root_es * k.c * xa + h.h_bd * root_es * k.d * xb + h.h_rd * root_es * xr + z_d2
