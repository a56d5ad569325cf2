"""Scalar references for one frame, and one-frame draws.

``phase1``/``phase2`` model one frame's two phases and
``scalar_relay_ml_decode`` is the relay's joint ML search for one frame,
written as plain loops over Python numbers.  Tests hold the engine's batch
``transmit`` and ``relay_ml_decode`` to them.

``codeword_matrix`` is the same transmission in the paper's matrix form.
``metric_m1``-``metric_m4`` are the destination's per-pair metrics as the
paper defines them, and ``phi_metrics`` the fast algorithm's three
rotated-coordinate metrics, for one frame.  They take the decoders'
arguments for one frame as Python numbers and sequences, as
``destination.novel_decode_exhaustive`` does, and tests hold the decoders
and the oracle to them.

``one_channel`` and ``one_gaussian`` draw one frame's fades or one noise
sample as Python complex numbers: a batch draw of one, which consumes the
stream as the batch draws do.
"""

import math

import numpy as np

from marc_pnc.channel import ChannelRealization, FadingProfile, sample_channel
from marc_pnc.destination import _require_unit_snr
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


def codeword_matrix(k: SchemeConstants, xa: complex, xb: complex, xr: complex) -> np.ndarray:
    """3x2 matrix whose columns are the two phases' noiseless transmit mix."""
    return np.array([[k.a * xa, k.c * xa], [k.b * xb, k.d * xb], [0, xr]], dtype=np.complex128)


def _phase_terms(h_ad, h_bd, h_rd, k: SchemeConstants, pts, constellation):
    """Per-symbol signal terms for both phases: subtracting one entry from
    each list gives the noiseless hypothesis for a candidate triple.  The
    relay's terms are one per point of its constellation."""
    root_es = math.sqrt(k.es)
    ga1 = h_ad * root_es * k.a
    gb1 = h_bd * root_es * k.b
    ga2 = h_ad * root_es * k.c
    gb2 = h_bd * root_es * k.d
    gr = h_rd * root_es
    return (
        [ga1 * p for p in pts],
        [gb1 * p for p in pts],
        [ga2 * p for p in pts],
        [gb2 * p for p in pts],
        [gr * p for p in constellation],
    )


def _sq(z: complex) -> float:
    return z.real * z.real + z.imag * z.imag


def _pair_residuals(y1, y2, h_ad, h_bd, h_rd, k, pts, constellation, ia, ib):
    """Pair (ia, ib)'s phase-1 squared residual, its phase-2 residual before
    the relay term, and every relay symbol's term."""
    a1, b1, a2, b2, r2 = _phase_terms(h_ad, h_bd, h_rd, k, pts, constellation)
    return _sq(y1 - a1[ia] - b1[ib]), y2 - a2[ia] - b2[ib], r2


def metric_m1(y1, y2, h_ad, h_bd, h_rd, k: SchemeConstants, pts, code, constellation, ia: int, ib: int) -> float:
    """Two-phase squared residual of pair (ia, ib), assuming the relay sent
    ``constellation[code[ia][ib]]``."""
    p1, base2, r2 = _pair_residuals(y1, y2, h_ad, h_bd, h_rd, k, pts, constellation, ia, ib)
    return p1 + _sq(base2 - r2[code[ia][ib]])


def metric_m2(y1, y2, h_ad, h_bd, h_rd, k: SchemeConstants, pts, code, constellation, ia: int, ib: int) -> float:
    """Phase-1 residual plus the best phase-2 residual over relay symbols
    other than ``code[ia][ib]`` -- the relay-sent-something-else hypothesis."""
    p1, base2, r2 = _pair_residuals(y1, y2, h_ad, h_bd, h_rd, k, pts, constellation, ia, ib)
    return p1 + min(_sq(base2 - t) for r, t in enumerate(r2) if r != code[ia][ib])


def metric_m3(y1, y2, h_ad, h_bd, h_rd, k: SchemeConstants, pts, code, constellation, ia: int, ib: int) -> float:
    """As m2 but minimising over every relay symbol; equals min(m1, m2)."""
    p1, base2, r2 = _pair_residuals(y1, y2, h_ad, h_bd, h_rd, k, pts, constellation, ia, ib)
    return p1 + min(_sq(base2 - t) for t in r2)


def metric_m4(y1, y2, h_ad, h_bd, h_rd, k: SchemeConstants, xa: complex, xb: complex, xr: complex) -> float:
    """Two-phase residual with an explicit relay symbol, plus the log(es)
    relay-error penalty.  xa, xb, xr may be arbitrary complex values."""
    _require_unit_snr(k)
    root_es = math.sqrt(k.es)
    res1 = y1 - h_ad * root_es * k.a * xa - h_bd * root_es * k.b * xb
    res2 = y2 - h_ad * root_es * k.c * xa - h_bd * root_es * k.d * xb - h_rd * root_es * xr
    return _sq(res1) + _sq(res2) + math.log(k.es)


def phi_metrics(
    k: SchemeConstants,
    r: np.ndarray,
    ytilde: tuple[complex, complex],
    xa: complex,
    xb: complex,
    xf: complex,
    xr: complex,
) -> tuple[float, float, float]:
    """The three rotated-coordinate metrics used by the fast algorithm.

    ``r`` is the 2x3 upper-triangular factor from ``qr_2x3`` of this
    frame's equivalent channel and ``ytilde`` the received pair rotated by
    the matching q*.  ``xf`` is the point the relay sends for (xa, xb),
    which the second metric assumes, and ``xr`` the third metric's relay
    symbol.
    """
    root_es = math.sqrt(k.es)
    phi1 = _sq(ytilde[0] - r[0, 1] * xb * root_es - r[0, 0] * xa * root_es)
    phi2 = _sq(ytilde[1] - r[1, 1] * xb * root_es - r[1, 2] * xf * root_es)
    phi3 = _sq(ytilde[1] - r[1, 1] * xb * root_es - r[1, 2] * xr * root_es)
    return phi1, phi2, phi3
