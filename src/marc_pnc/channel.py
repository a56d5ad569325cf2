"""Quasi-static Rayleigh fading for the two-source relay topology.

One channel realization (five independent complex-Gaussian fade
coefficients) holds for the whole two-phase frame.  ``sample_channel``
draws the realizations of a batch of frames from a generator its caller
passes (a ``numerics.philox_stream``); every stream is chosen by the Monte
Carlo engine or the test, and the engine's ``transmit`` is the one model of
the two phases.  Additive noise variance is fixed at 1 and SNR is varied
through the transmit energy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numerics import complex_gaussian


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


class ChannelRealization(NamedTuple):
    """The fade coefficients of a run of frames, one entry per frame."""

    h_ar: np.ndarray
    h_br: np.ndarray
    h_ad: np.ndarray
    h_bd: np.ndarray
    h_rd: np.ndarray


def sample_channel(gen: np.random.Generator, p: FadingProfile, n: int) -> ChannelRealization:
    """Draw ``n`` frames' five independent CN(0, var) coefficients from
    ``gen``, one ``complex_gaussian`` batch per link, in field order."""
    variances = (p.var_ar, p.var_br, p.var_ad, p.var_bd, p.var_rd)
    return ChannelRealization(*(complex_gaussian(gen, v, n) for v in variances))
