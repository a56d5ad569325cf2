"""Destination decoders for the two-phase relay scheme.

Three decoders share the same frame inputs:

* ``min_euclidean_decode`` -- joint minimum squared Euclidean distance over
  both phases, trusting the relay blindly.  Loses a diversity order when
  the relay forwards a wrong network-coded symbol.
* ``novel_decode_exhaustive`` -- relay-error-aware rule: per candidate pair
  it takes the smaller of the trust-the-relay metric m1 and the
  relay-error metric m2 penalised by log(es), searching all relay symbols
  directly (O(M^3) work).
* ``fast_decode`` -- the same rule in O(M^2) via a QR decomposition of the
  2x3 equivalent channel.  Valid when the A (or B) weight matrix is
  Hurwitz-Radon orthogonal to the relay's, which forces the rotated
  channel entry r13 to vanish and decouples the x_A and x_R searches.

Each decoder has one implementation, which works on a batch of frames
(arrays with one entry per frame); ``decode_frame`` runs any of them on a
single ``DecodeInput``.  The scalar ``novel_decode_exhaustive`` and the
metric functions are kept as the independent reference that the batch
decoders are tested against; ``novel_decode_exhaustive_batch`` is the
exhaustive rule as sweeps run it.

log(es) is the natural logarithm: the metrics are Gaussian
log-likelihoods, so base e is the only consistent reading.  Both aware
decoders require es >= 1 (the penalty must be non-negative for the
candidate-set rewrite m2 -> m3 to be valid) and enforce it at decode time.

Tie-breaking is pinned so the fast and exhaustive decoders agree
bit-for-bit:

* every argmin scans symbol indices ascending and keeps the first strict
  improvement;
* candidate pairs are scanned with x_B outermost (mirroring the fast
  algorithm's loop nesting), so pair ties resolve to the smallest
  (index_b, index_a);
* the branch comparison is strict: the relay-error branch wins exact ties.
  At es = 1 the penalty is zero and the relay-error branch, whose metric
  minimises over every relay symbol, can then never lose -- both decoders
  deterministically label such frames ``RELAY_ERROR``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .netmap import LatinSquare
from .numerics import qr_2x3, sqmag
from .scheme import SchemeConstants, check_hr_orthogonal, weight_matrices
from .signalset import SignalSet


class Branch(enum.Enum):
    """Which hypothesis produced the decoded pair."""

    RELAY_CORRECT = "relay-correct-hypothesis"
    RELAY_ERROR = "relay-error-hypothesis"


@dataclass
class EvalCounter:
    """Counts candidate-metric evaluations, for complexity measurements."""

    n: int = 0

    def add(self, k: int) -> None:
        self.n += k


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


@dataclass(frozen=True)
class DecodeOutput:
    xa_idx: int
    xb_idx: int
    branch: Branch


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


def novel_decode_exhaustive(inp: DecodeInput, counter: EvalCounter | None = None) -> DecodeOutput:
    """Relay-error-aware decoding by direct evaluation (O(M^3) work).

    Minimises min(m1, log(es) + m2) over all pairs.  The branch reported
    for the winning x_B compares the best trust-the-relay metric against
    the best penalised any-relay-symbol metric, exactly as the fast
    algorithm does, so the two implementations are interchangeable.
    """
    _require_unit_snr(inp.constants)
    ln_es = math.log(inp.constants.es)
    a1, b1, a2, b2, r2 = _phase_terms(inp)
    cells = inp.relay_map.cells
    m = inp.signal_set.m

    # Per x_B: best m1 and best m3 = min(m1, m2) over x_A, first achiever.
    best1 = [math.inf] * m
    arg1 = [0] * m
    best3 = [math.inf] * m
    arg3 = [0] * m
    for ia in range(m):
        row = cells[ia]
        for ib in range(m):
            p1 = _sq(inp.y_d1 - a1[ia] - b1[ib])
            base2 = inp.y_d2 - a2[ia] - b2[ib]
            fidx = row[ib]
            p2_f = 0.0
            p2_other = math.inf
            for r in range(m):
                p2 = _sq(base2 - r2[r])
                if r == fidx:
                    p2_f = p2
                elif p2 < p2_other:
                    p2_other = p2
            m1 = p1 + p2_f
            m2 = p1 + p2_other
            m3 = m1 if m1 <= m2 else m2
            if m1 < best1[ib]:
                best1[ib] = m1
                arg1[ib] = ia
            if m3 < best3[ib]:
                best3[ib] = m3
                arg3[ib] = ia
    if counter is not None:
        counter.add(m * m * m)

    best_m = math.inf
    out = DecodeOutput(0, 0, Branch.RELAY_ERROR)
    for ib in range(m):
        if best1[ib] < best3[ib] + ln_es:
            mj, ia, br = best1[ib], arg1[ib], Branch.RELAY_CORRECT
        else:
            mj, ia, br = best3[ib] + ln_es, arg3[ib], Branch.RELAY_ERROR
        if mj < best_m:
            best_m = mj
            out = DecodeOutput(xa_idx=ia, xb_idx=ib, branch=br)
    return out


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
# constants, the constellation points and the relay-map cells; each decoder
# returns (index_a, index_b, relay_correct_branch) arrays.


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


def fast_decode(y1, y2, h_ad, h_bd, h_rd, k: SchemeConstants, pts, cells, counter: EvalCounter | None = None):
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
    t11 = (qr.r11 * root)[:, None] * pts[None, :]
    t23 = (qr.r23 * root)[:, None] * pts[None, :]

    best_m = np.full(n, np.inf)
    best_first = np.zeros(n, dtype=np.int64)
    best_second = np.zeros(n, dtype=np.int64)
    best_correct = np.zeros(n, dtype=bool)
    for jb in range(m):
        c1 = qr.yt1 - qr.r12 * (root * pts[jb])
        c2 = qr.yt2 - qr.r22 * (root * pts[jb])
        phi1 = sqmag(c1[:, None] - t11)
        phi3 = sqmag(c2[:, None] - t23)
        min1 = phi1.min(axis=1)
        a2 = phi1.argmin(axis=1)
        min3 = phi3.min(axis=1)
        comb = phi1 + phi3[:, cells[:, jb]]
        b1 = comb.min(axis=1)
        a1 = comb.argmin(axis=1)
        b2_pen = min1 + min3 + ln_es

        correct = b1 < b2_pen
        mj = np.where(correct, b1, b2_pen)
        aj = np.where(correct, a1, a2)
        upd = mj < best_m
        best_m = np.where(upd, mj, best_m)
        best_first = np.where(upd, aj, best_first)
        best_second = np.where(upd, jb, best_second)
        best_correct = np.where(upd, correct, best_correct)
    if counter is not None:
        counter.add(2 * m * m * n)
    if swap:
        return best_second, best_first, best_correct
    return best_first, best_second, best_correct


def _source_terms(h_ad, h_bd, k: SchemeConstants, pts):
    """Per-frame, per-symbol source terms of both phases: (n, M) arrays."""
    root = math.sqrt(k.es)
    return (
        (h_ad * (root * k.a))[:, None] * pts[None, :],
        (h_bd * (root * k.b))[:, None] * pts[None, :],
        (h_ad * (root * k.c))[:, None] * pts[None, :],
        (h_bd * (root * k.d))[:, None] * pts[None, :],
    )


def novel_decode_exhaustive_batch(
    y1, y2, h_ad, h_bd, h_rd, k: SchemeConstants, pts, cells, counter: EvalCounter | None = None
):
    """``novel_decode_exhaustive`` on a batch of frames (O(M^3) work)."""
    _require_unit_snr(k)
    ln_es = math.log(k.es)
    m = len(pts)
    n = len(y1)
    a1t, b1t, a2t, b2t = _source_terms(h_ad, h_bd, k, pts)
    r2t = (h_rd * math.sqrt(k.es))[:, None] * pts[None, :]

    best1 = np.full((n, m), np.inf)
    arg1 = np.zeros((n, m), dtype=np.int64)
    best3 = np.full((n, m), np.inf)
    arg3 = np.zeros((n, m), dtype=np.int64)
    for ia in range(m):
        for ib in range(m):
            p1 = sqmag(y1 - a1t[:, ia] - b1t[:, ib])
            base2 = y2 - a2t[:, ia] - b2t[:, ib]
            p2 = sqmag(base2[:, None] - r2t)
            fidx = cells[ia, ib]
            m1 = p1 + p2[:, fidx]
            p2_other = p2.copy()
            p2_other[:, fidx] = np.inf
            m2 = p1 + p2_other.min(axis=1)
            m3 = np.minimum(m1, m2)
            upd1 = m1 < best1[:, ib]
            best1[:, ib] = np.where(upd1, m1, best1[:, ib])
            arg1[:, ib] = np.where(upd1, ia, arg1[:, ib])
            upd3 = m3 < best3[:, ib]
            best3[:, ib] = np.where(upd3, m3, best3[:, ib])
            arg3[:, ib] = np.where(upd3, ia, arg3[:, ib])
    if counter is not None:
        counter.add(m * m * m * n)

    best_m = np.full(n, np.inf)
    best_a = np.zeros(n, dtype=np.int64)
    best_b = np.zeros(n, dtype=np.int64)
    best_correct = np.zeros(n, dtype=bool)
    for ib in range(m):
        pen = best3[:, ib] + ln_es
        correct = best1[:, ib] < pen
        mj = np.where(correct, best1[:, ib], pen)
        aj = np.where(correct, arg1[:, ib], arg3[:, ib])
        upd = mj < best_m
        best_m = np.where(upd, mj, best_m)
        best_a = np.where(upd, aj, best_a)
        best_b = np.where(upd, ib, best_b)
        best_correct = np.where(upd, correct, best_correct)
    return best_a, best_b, best_correct


def joint_min_distance(
    y1, y2, h_ad, h_bd, h_rd, k: SchemeConstants, pts, relay_point, counter: EvalCounter | None = None
):
    """Joint two-phase minimum-distance search over all M^2 pairs, each
    hypothesis assuming the relay sent ``relay_point(index_a, index_b)``.

    Pair ties resolve to the smallest (index_a, index_b) lexicographically;
    every frame reports the trust-the-relay branch.
    """
    m = len(pts)
    n = len(y1)
    a1t, b1t, a2t, b2t = _source_terms(h_ad, h_bd, k, pts)
    gr = h_rd * math.sqrt(k.es)

    best = np.full(n, np.inf)
    best_a = np.zeros(n, dtype=np.int64)
    best_b = np.zeros(n, dtype=np.int64)
    for ia in range(m):
        for ib in range(m):
            v = sqmag(y1 - a1t[:, ia] - b1t[:, ib]) + sqmag(y2 - a2t[:, ia] - b2t[:, ib] - gr * relay_point(ia, ib))
            upd = v < best
            best = np.where(upd, v, best)
            best_a = np.where(upd, ia, best_a)
            best_b = np.where(upd, ib, best_b)
    if counter is not None:
        counter.add(m * m * n)
    return best_a, best_b, np.ones(n, dtype=bool)


def min_euclidean_decode(
    y1, y2, h_ad, h_bd, h_rd, k: SchemeConstants, pts, cells, counter: EvalCounter | None = None
):
    """Joint minimum-distance decoding that assumes the relay forwarded the
    network-coded symbol of each hypothesised pair."""
    return joint_min_distance(y1, y2, h_ad, h_bd, h_rd, k, pts, lambda ia, ib: pts[cells[ia, ib]], counter)


def decode_frame(decoder, inp: DecodeInput, relay=None, counter: EvalCounter | None = None) -> DecodeOutput:
    """Run a batch decoder on one frame, as a batch of one.

    ``relay`` is the decoder's relay argument; it defaults to the frame's
    relay-map cells (the cfnc baseline passes its ``CfncConfig``).
    """
    if relay is None:
        relay = np.asarray(inp.relay_map.cells, dtype=np.int64)
    one = (np.array([z], dtype=np.complex128) for z in (inp.y_d1, inp.y_d2, inp.h_ad, inp.h_bd, inp.h_rd))
    pts = np.asarray(inp.signal_set.points, dtype=np.complex128)
    a, b, correct = decoder(*one, inp.constants, pts, relay, counter)
    return DecodeOutput(int(a[0]), int(b[0]), Branch.RELAY_CORRECT if correct[0] else Branch.RELAY_ERROR)
