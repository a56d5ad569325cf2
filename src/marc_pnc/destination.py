"""Destination decoders for the two-phase relay scheme.

Three decoders share the same frame inputs:

* ``joint_min_distance`` -- joint minimum squared Euclidean distance over
  both phases, trusting the relay blindly: each hypothesised pair assumes
  the relay sent its entry of the relay-point table.  It serves both the
  Latin-square min-euclid decoder, which loses a diversity order when the
  relay forwards a wrong network-coded symbol, and the cfnc baseline.
* ``novel_decode_exhaustive`` -- relay-error-aware rule: per candidate pair
  it takes the smaller of the trust-the-relay metric m1 and the
  relay-error metric m2 penalised by log(es), searching all relay symbols
  directly (O(M^3) work).
* ``fast_decode`` -- the same rule in O(M^2) via a QR decomposition of the
  2x3 equivalent channel.  Valid when the A (or B) weight matrix is
  Hurwitz-Radon orthogonal to the relay's, which forces the rotated
  channel entry r13 to vanish and decouples the x_A and x_R searches.

Each decoder has one implementation, which works on a batch of frames
(arrays with one entry per frame) and takes the relay table it reads from
``SweepSpec.relay_tables``; ``decode_frame`` runs any of them on a single
``DecodeInput``.  Every decoder reports a frame's decision as
(index_a, index_b, relay_correct): the decoded pair, and whether the
trust-the-relay hypothesis won.  The scalar ``novel_decode_exhaustive``
and the metric functions are kept as the independent reference that the
batch decoders are tested against; ``novel_decode_exhaustive_batch`` is
the exhaustive rule as sweeps run it.

log(es) is the natural logarithm: the metrics are Gaussian
log-likelihoods, so base e is the only consistent reading.  Both aware
decoders require es >= 1 (the penalty must be non-negative for the
candidate-set rewrite m2 -> m3 to be valid) and enforce it at decode time.

Tie-breaking is pinned so the fast and exhaustive decoders agree
bit-for-bit:

* every first minimum comes from one scan, ``numerics.first_min``: symbol
  indices ascending, and a later one wins only by a strict improvement;
* both aware decoders end in ``_pick_branch``, which takes the best x_A
  per x_B and then the first x_B (mirroring the fast algorithm's loop
  nesting), so pair ties resolve to the smallest (index_b, index_a);
* ``_pick_branch`` holds the one strict branch comparison: the relay-error
  branch wins exact ties.  At es = 1 the penalty is zero and the
  relay-error branch, whose metric minimises over every relay symbol, can
  then never lose -- both decoders deterministically report
  ``relay_correct = False`` for such frames.

The agreement holds for frames whose gains and samples are all non-zero,
as Rayleigh draws are with probability 1.  An exact zero makes candidates
tie symmetrically, and the two float paths may break such ties apart (664
to 677 of 4,608 such frames, depending on the QR's rounding): like NaN for
``first_min``, those frames are outside the contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .netmap import LatinSquare
from .numerics import first_min, first_pair_min, qr_2x3, sqdist, symbol_terms
from .scheme import SchemeConstants, check_hr_orthogonal, weight_matrices
from .signalset import SignalSet


@dataclass(frozen=True)
class DecodeInput:
    """Everything the destination sees for one frame.  The cfnc baseline's
    relay combines instead of mapping, so its frames carry no relay map."""

    y_d1: complex
    y_d2: complex
    h_ad: complex
    h_bd: complex
    h_rd: complex
    constants: SchemeConstants
    signal_set: SignalSet
    relay_map: LatinSquare | None = None

    def __post_init__(self) -> None:
        if self.relay_map is not None and self.relay_map.order != self.signal_set.m:
            raise ValueError("relay map order and constellation size differ")


class HrOrthogonalityError(ValueError):
    """Raised when neither weight-matrix pairing admits the fast algorithm."""


def _require_unit_snr(k: SchemeConstants) -> None:
    if k.es < 1.0:
        raise ValueError(f"relay-error-aware decoding requires es >= 1 (got {k.es})")


def _phase_terms(inp: DecodeInput):
    """Per-symbol signal terms for both phases: subtracting one entry from
    each list gives the noiseless hypothesis for a candidate triple."""
    k = inp.constants
    root_es = math.sqrt(k.es)
    ga1 = inp.h_ad * root_es * k.a
    gb1 = inp.h_bd * root_es * k.b
    ga2 = inp.h_ad * root_es * k.c
    gb2 = inp.h_bd * root_es * k.d
    gr = inp.h_rd * root_es
    pts = inp.signal_set.points
    return (
        [ga1 * p for p in pts],
        [gb1 * p for p in pts],
        [ga2 * p for p in pts],
        [gb2 * p for p in pts],
        [gr * p for p in pts],
    )


def _sq(z: complex) -> float:
    return z.real * z.real + z.imag * z.imag


def metric_m1(inp: DecodeInput, xa: complex, xb: complex) -> float:
    """Two-phase squared residual assuming the relay sent f(xa, xb)."""
    ia = inp.signal_set.index_of(xa)
    ib = inp.signal_set.index_of(xb)
    a1, b1, a2, b2, r2 = _phase_terms(inp)
    fidx = inp.relay_map.cells[ia][ib]
    return _sq(inp.y_d1 - a1[ia] - b1[ib]) + _sq(inp.y_d2 - a2[ia] - b2[ib] - r2[fidx])


def metric_m2(inp: DecodeInput, xa: complex, xb: complex) -> float:
    """Phase-1 residual plus the best phase-2 residual over relay symbols
    other than f(xa, xb) -- the relay-sent-something-else hypothesis."""
    ia = inp.signal_set.index_of(xa)
    ib = inp.signal_set.index_of(xb)
    a1, b1, a2, b2, r2 = _phase_terms(inp)
    fidx = inp.relay_map.cells[ia][ib]
    base2 = inp.y_d2 - a2[ia] - b2[ib]
    best = math.inf
    for r in range(inp.signal_set.m):
        if r == fidx:
            continue
        v = _sq(base2 - r2[r])
        if v < best:
            best = v
    return _sq(inp.y_d1 - a1[ia] - b1[ib]) + best


def metric_m3(inp: DecodeInput, xa: complex, xb: complex) -> float:
    """As m2 but minimising over every relay symbol; equals min(m1, m2)."""
    ia = inp.signal_set.index_of(xa)
    ib = inp.signal_set.index_of(xb)
    a1, b1, a2, b2, r2 = _phase_terms(inp)
    base2 = inp.y_d2 - a2[ia] - b2[ib]
    best = min(_sq(base2 - r2[r]) for r in range(inp.signal_set.m))
    return _sq(inp.y_d1 - a1[ia] - b1[ib]) + best


def metric_m4(inp: DecodeInput, xa: complex, xb: complex, xr: complex) -> float:
    """Two-phase residual with an explicit relay symbol, plus the log(es)
    relay-error penalty.  xa, xb, xr may be arbitrary complex values."""
    _require_unit_snr(inp.constants)
    k = inp.constants
    root_es = math.sqrt(k.es)
    res1 = inp.y_d1 - inp.h_ad * root_es * k.a * xa - inp.h_bd * root_es * k.b * xb
    res2 = inp.y_d2 - inp.h_ad * root_es * k.c * xa - inp.h_bd * root_es * k.d * xb - inp.h_rd * root_es * xr
    return _sq(res1) + _sq(res2) + math.log(k.es)


def _pairs(zs) -> list[tuple[float, float]]:
    return [(z.real, z.imag) for z in zs]


def novel_decode_exhaustive(inp: DecodeInput) -> tuple[int, int, bool]:
    """Relay-error-aware decoding by direct evaluation (O(M^3) work).

    Minimises min(m1, log(es) + m2) over all pairs and returns
    (index_a, index_b, relay_correct), as every batch decoder does for
    each frame.  relay_correct is the branch of the winning x_B: its best
    trust-the-relay metric against its best penalised any-relay-symbol
    metric, exactly as the fast algorithm compares them, so the two
    implementations are interchangeable.

    This is the independent reference the batch decoders are tested
    against, so it stays pure Python, one frame at a time.  Its floats are
    those of ``metric_m1``/``metric_m2``, associated the same way: each
    residual is (y - a_term) - b_term (- relay_term), with y - a_term
    taken once per x_A, and the real and imaginary parts are subtracted
    and squared separately, as complex subtraction and ``_sq`` do.
    """
    _require_unit_snr(inp.constants)
    ln_es = math.log(inp.constants.es)
    a1, b1, a2, b2, r2 = _phase_terms(inp)
    u1 = _pairs(inp.y_d1 - z for z in a1)
    u2 = _pairs(inp.y_d2 - z for z in a2)
    rel = _pairs(r2)
    # Per relay symbol f: its term, and every other symbol's in ascending order.
    relay = [(rr, ri, rel[:f] + rel[f + 1 :]) for f, (rr, ri) in enumerate(rel)]

    # x_B outermost; per x_B, the first x_A achieving the best m1 and the
    # best m3 = min(m1, m2), then the strict branch comparison.
    best_m = math.inf
    pick = (0, 0, False)
    for ib, col in enumerate(zip(*inp.relay_map.cells)):
        b1r, b1i = b1[ib].real, b1[ib].imag
        b2r, b2i = b2[ib].real, b2[ib].imag
        best1 = best3 = math.inf
        arg1 = arg3 = 0
        for ia, ((u1r, u1i), (u2r, u2i), fidx) in enumerate(zip(u1, u2, col)):
            dr = u1r - b1r
            di = u1i - b1i
            p1 = dr * dr + di * di
            vr = u2r - b2r
            vi = u2i - b2i
            rr, ri, others = relay[fidx]
            dr = vr - rr
            di = vi - ri
            m1 = p1 + (dr * dr + di * di)
            p2_other = math.inf
            for rr, ri in others:
                dr = vr - rr
                di = vi - ri
                p2 = dr * dr + di * di
                if p2 < p2_other:
                    p2_other = p2
            m2 = p1 + p2_other
            m3 = m1 if m1 <= m2 else m2
            if m1 < best1:
                best1 = m1
                arg1 = ia
            if m3 < best3:
                best3 = m3
                arg3 = ia
        pen = best3 + ln_es
        if best1 < pen:
            mj, ja, br = best1, arg1, True
        else:
            mj, ja, br = pen, arg3, False
        if mj < best_m:
            best_m = mj
            pick = (ja, ib, br)
    return pick


def phi_metrics(
    inp: DecodeInput,
    r: np.ndarray,
    ytilde: tuple[complex, complex],
    xa: complex,
    xb: complex,
    xr: complex,
) -> tuple[float, float, float]:
    """The three rotated-coordinate metrics used by the fast algorithm.

    ``r`` is the 2x3 upper-triangular factor from ``qr_2x3`` of this
    frame's equivalent channel and ``ytilde`` the received pair rotated by
    the matching q*.  The second metric needs the network-coded point for
    (xa, xb); for values outside the constellation (no defined relay
    hypothesis) that term is taken as 0.
    """
    root_es = math.sqrt(inp.constants.es)
    try:
        ia = inp.signal_set.index_of(xa)
        ib = inp.signal_set.index_of(xb)
        fpoint = inp.signal_set.points[inp.relay_map.cells[ia][ib]]
    except ValueError:
        fpoint = 0.0j
    phi1 = _sq(ytilde[0] - r[0, 1] * xb * root_es - r[0, 0] * xa * root_es)
    phi2 = _sq(ytilde[1] - r[1, 1] * xb * root_es - r[1, 2] * fpoint * root_es)
    phi3 = _sq(ytilde[1] - r[1, 1] * xb * root_es - r[1, 2] * xr * root_es)
    return phi1, phi2, phi3


# ---------------------------------------------------------------------------
# Batch decoders.  Arguments are arrays with one entry per frame, then the
# constants, the constellation points and one of ``SweepSpec.relay_tables``:
# the code table (the relay-map cells) for the two aware decoders, the
# relay-point table for ``joint_min_distance``.  Each decoder returns
# (index_a, index_b, relay_correct) arrays.  Per-candidate terms and
# metrics are candidate-major, (M, n), so every candidate's vector is
# contiguous.


def role_swap(k: SchemeConstants) -> bool:
    """Which Hurwitz-Radon pairing the fast decoder uses: False when the A
    and relay weight matrices are orthogonal, True when only the B and relay
    pair is (the algorithm then runs with the source roles swapped).

    Raises ``HrOrthogonalityError`` when neither pairing holds: the O(M^2)
    algorithm does not apply, and ``novel_decode_exhaustive`` must be used.
    """
    wm = weight_matrices(k)
    if check_hr_orthogonal(wm.wa, wm.wr):
        return False
    if check_hr_orthogonal(wm.wb, wm.wr):
        return True
    raise HrOrthogonalityError(
        "neither weight-matrix pairing is Hurwitz-Radon orthogonal; "
        "the O(M^2) algorithm does not apply -- use the novel-exhaustive decoder"
    )


def _pick_branch(best1, arg1, best3, arg3, ln_es):
    """The aware rule's last step.  Row j of each (M, n) argument is second
    symbol j: its best trust-the-relay metric and best any-relay-symbol
    metric, and the first symbols that reach them.  The strict comparison
    with the log(es)-penalised metric picks each row's branch, then
    ``first_min`` the row.  Returns (first, second, relay-correct) arrays."""
    pen = best3 + ln_es
    correct = best1 < pen
    _, second = first_min(np.where(correct, best1, pen))
    frames = np.arange(len(second))
    return np.where(correct, arg1, arg3)[second, frames], second, correct[second, frames]


def fast_decode(y1, y2, h_ad, h_bd, h_rd, k: SchemeConstants, pts, cells):
    """O(M^2) implementation of the relay-error-aware decoder.

    The 'first' user occupies the resolved (upper-triangular) coordinate of
    the QR; ``role_swap`` decides whether that is A or B.
    """
    _require_unit_snr(k)
    swap = role_swap(k)
    if swap:
        h11, h21 = k.b * h_bd, k.d * h_bd
        h12, h22 = k.a * h_ad, k.c * h_ad
        cells = cells.T
    else:
        h11, h21 = k.a * h_ad, k.c * h_ad
        h12, h22 = k.b * h_bd, k.d * h_bd
    qr = qr_2x3(h11, h21, h12, h22, h_rd, y1, y2)

    root = math.sqrt(k.es)
    ln_es = math.log(k.es)
    m = len(pts)
    n = len(y1)
    t11 = symbol_terms(qr.r11 * root, pts)
    t23 = symbol_terms(qr.r23 * root, pts)

    # Row jb is the second user's symbol: its best m1 and m3 = min(m1, m2).
    best1 = np.empty((m, n))
    arg1 = np.empty((m, n), dtype=np.intp)
    best3 = np.empty((m, n))
    arg3 = np.empty((m, n), dtype=np.intp)
    for jb in range(m):
        c1 = qr.yt1 - qr.r12 * (root * pts[jb])
        c2 = qr.yt2 - qr.r22 * (root * pts[jb])
        phi1 = sqdist(c1, t11)
        phi3 = sqdist(c2, t23)
        best1[jb], arg1[jb] = first_min(phi1 + phi3[cells[:, jb]])
        min1, arg3[jb] = first_min(phi1)
        best3[jb] = min1 + phi3.min(axis=0)
    first, second, correct = _pick_branch(best1, arg1, best3, arg3, ln_es)
    if swap:
        return second, first, correct
    return first, second, correct


def _source_terms(h_ad, h_bd, k: SchemeConstants, pts):
    """Per-symbol, per-frame source terms of both phases: (M, n) arrays."""
    root = math.sqrt(k.es)
    return (
        symbol_terms(h_ad * (root * k.a), pts),
        symbol_terms(h_bd * (root * k.b), pts),
        symbol_terms(h_ad * (root * k.c), pts),
        symbol_terms(h_bd * (root * k.d), pts),
    )


def novel_decode_exhaustive_batch(y1, y2, h_ad, h_bd, h_rd, k: SchemeConstants, pts, cells):
    """``novel_decode_exhaustive`` on a batch of frames (O(M^3) work).

    m3 = min(m1, m2) is computed as p1 + (phase-2 residual minimised over
    every relay symbol), which is exact because adding p1 is monotone.
    """
    _require_unit_snr(k)
    ln_es = math.log(k.es)
    m = len(pts)
    n = len(y1)
    a1t, b1t, a2t, b2t = _source_terms(h_ad, h_bd, k, pts)
    r2t = symbol_terms(h_rd * math.sqrt(k.es), pts)
    every_b = np.arange(m)

    # Axis 0 is x_A, axis 1 x_B.
    m1 = np.empty((m, m, n))
    m3 = np.empty((m, m, n))
    for ia in range(m):
        p1 = sqdist(y1 - a1t[ia], b1t)
        p2 = sqdist((y2 - a2t[ia] - b2t)[:, None, :], r2t)
        m1[ia] = p1 + p2[every_b, cells[ia]]
        m3[ia] = p1 + p2.min(axis=1)
    return _pick_branch(*first_min(m1), *first_min(m3), ln_es)


def joint_min_distance(y1, y2, h_ad, h_bd, h_rd, k: SchemeConstants, pts, relay_points):
    """Joint two-phase minimum-distance search over all M^2 pairs, each
    hypothesis assuming the relay sent ``relay_points[index_a, index_b]``.

    Pair ties resolve to the smallest (index_a, index_b) lexicographically;
    every frame reports the trust-the-relay branch.  An integer code table
    in place of the complex relay points raises ``TypeError``.
    """
    if not np.iscomplexobj(relay_points):
        raise TypeError(f"relay_points must be the complex relay-point table, got dtype {np.asarray(relay_points).dtype}")
    m = len(pts)
    n = len(y1)
    a1t, b1t, a2t, b2t = _source_terms(h_ad, h_bd, k, pts)
    gr = h_rd * math.sqrt(k.es)
    best_a, best_b = first_pair_min(
        sqdist(y1 - a1t[ia], b1t) + sqdist(y2 - a2t[ia] - b2t, symbol_terms(gr, relay_points[ia])) for ia in range(m)
    )
    return best_a, best_b, np.ones(n, dtype=bool)


def decode_frame(decoder, inp: DecodeInput, relay=None) -> tuple[int, int, bool]:
    """Run a batch decoder on one frame, as a batch of one.

    ``relay`` is the decoder's relay table; it defaults to the frame's
    relay-map cells, the code table ``fast_decode`` and
    ``novel_decode_exhaustive_batch`` read.  ``joint_min_distance`` takes
    the relay-point table instead.
    """
    if relay is None:
        relay = np.asarray(inp.relay_map.cells, dtype=np.int64)
    one = (np.array([z], dtype=np.complex128) for z in (inp.y_d1, inp.y_d2, inp.h_ad, inp.h_bd, inp.h_rd))
    pts = np.asarray(inp.signal_set.points, dtype=np.complex128)
    a, b, correct = decoder(*one, inp.constants, pts, relay)
    return int(a[0]), int(b[0]), bool(correct[0])
