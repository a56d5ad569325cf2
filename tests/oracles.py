"""Scalar references for one frame, and one-frame draws.

``phase1``/``phase2`` model one frame's two phases and
``scalar_relay_ml_decode`` is the relay's joint ML search for one frame,
written as plain loops over Python numbers.  Tests hold the engine's batch
``transmit`` and ``relay_ml_decode`` to them.

``one_channel`` and ``one_gaussian`` draw one frame's fades or one noise
sample as Python complex numbers: a batch draw of one, which consumes the
stream as the batch draws do.
"""

import math

import numpy as np

from marc_pnc.channel import ChannelRealization, FadingProfile, sample_channel
from marc_pnc.numerics import complex_gaussian
from marc_pnc.scheme import SchemeConstants


def one_channel(gen: np.random.Generator, p: FadingProfile) -> ChannelRealization:
    """One frame's five fades, ``sample_channel`` on a batch of one."""
    return ChannelRealization(*(complex(h[0]) for h in sample_channel(gen, p, 1)))


def one_gaussian(gen: np.random.Generator, sigma2: float) -> complex:
    """One CN(0, sigma2) sample, ``complex_gaussian`` on a batch of one."""
    return complex(complex_gaussian(gen, sigma2, 1)[0])


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


def scalar_relay_ml_decode(y_r: complex, h_ar: complex, h_br: complex, k: SchemeConstants, pts) -> tuple[int, int]:
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
