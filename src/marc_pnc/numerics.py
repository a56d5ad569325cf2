"""The 2x3 QR decomposition, the batch kernels' shared helpers, and
reproducible Gaussian sampling.

The QR of the equivalent channel runs on whole batches of frames: every
argument is an array with one entry per frame, factored by one Givens
rotation.  Its structural zeros (r21 always, r13 under the orthogonality
condition checked in :mod:`marc_pnc.scheme`) carry the fast decoder.

The relay and destination kernels lay per-candidate terms out
candidate-major (``symbol_terms``) and score them with ``sqdist``.
``first_min`` is the one scan that picks a first minimum, so every kernel
breaks ties the same way; ``first_pair_min`` applies it twice to find the
lexicographically first pair over a sequence of blocks.

Randomness is counter-based: ``philox_stream(seed, stream)`` is a numpy
Generator fully determined by the pair of integers, so concurrent workers
can draw from disjoint streams and any trial can be replayed in isolation.
``complex_gaussian`` draws a batch of samples from one.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


def symbol_terms(gain: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Candidate-major products ``gain * pts``, shape (M, n): row j holds
    symbol j's term for every frame, so each candidate's vector is
    contiguous."""
    return gain[None, :] * pts[:, None]


def sqdist(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Elementwise ``|z - t|^2``, broadcasting, worked on the real and
    imaginary planes, ``(z.re - t.re)^2 + (z.im - t.im)^2``, so that no
    complex temporary is built."""
    re = np.subtract(z.real, t.real)
    re *= re
    im = np.subtract(z.imag, t.imag)
    im *= im
    re += im
    return re


def first_min(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Along the first axis of a (J, ...) array, the minimum and the first
    row that reaches it: ``(v.min(axis=0), v.argmin(axis=0))`` for NaN-free
    input.  NaN is outside the contract.

    The index counts down from J - 1 once for every row after the first one
    equal to the minimum.  That is J cheap whole-row operations; numpy's
    argmin along axis 0 moves the axis and runs its inner loop once per
    column, which costs several times more on the short, wide arrays of the
    candidate-major kernels."""
    vmin = v.min(axis=0)
    seen = v[0] == vmin
    idx = np.full(vmin.shape, len(v) - 1, dtype=np.intp)
    for row in v[1:]:
        idx -= seen
        seen |= row == vmin
    return vmin, idx


def first_pair_min(blocks) -> tuple[np.ndarray, np.ndarray]:
    """Per frame, the first pair (i, j) in lexicographic order that
    minimises a metric.  ``blocks`` yields, for i = 0, 1, ..., the (J, n)
    metric of every (i, j); J may differ between blocks.  Each block's
    ``first_min`` gives its best j, and a ``first_min`` over the block
    minima picks i, so ties keep the earlier pair."""
    mins, args = zip(*(first_min(v) for v in blocks))
    _, best_i = first_min(np.stack(mins))
    return best_i, np.stack(args)[best_i, np.arange(len(best_i))]


class QrRotation(NamedTuple):
    """Entries of ``r`` in ``h = q @ r`` and the rotated received pair
    ``q* @ (y1, y2)``, one value per frame."""

    r11: np.ndarray
    r12: np.ndarray
    r13: np.ndarray
    r21: np.ndarray
    r22: np.ndarray
    r23: np.ndarray
    yt1: np.ndarray
    yt2: np.ndarray


def qr_2x3(h11, h21, h12, h22, h23, y1, y2) -> QrRotation:
    """QR-decompose ``h = [[h11, h12, 0], [h21, h22, h23]]`` frame by frame
    (q 2x2 unitary) and rotate the received pair by q*.

    The (1, 3) entry of h is zero because the relay is silent in phase 1.
    One Givens rotation zeroes the (2, 1) entry (Golub & Van Loan, *Matrix
    Computations*, 5.1.8): with (cs, sn) = (h11, h21) / n1 and n1 the norm
    of the first column, q* = diag(1, d2) @ [[conj cs, conj sn], [-sn, cs]].
    r11 = n1 is real and non-negative by construction, and the phase d2
    makes r22 so too.  With that convention the factorisation is unique
    (when the diagonal is positive), which keeps decoder comparisons
    deterministic.  r21 is returned as an exact zero, as constructed;
    r13 = conj(sn) h23 is zero when h21 = 0, the Hurwitz-Radon case.

    A zero first column takes (cs, sn) = (1, 0), and a zero r22 takes d2 = 1;
    r11 = 0 or r22 = 0 still satisfies the convention.
    """
    n1 = np.hypot(np.abs(h11), np.abs(h21))
    nonzero = n1 > 0
    safe = np.where(nonzero, n1, 1.0)
    cs = np.where(nonzero, h11 / safe, 1.0 + 0.0j)
    sn = h21 / safe  # h21 = 0 wherever n1 = 0
    ccs, csn = np.conj(cs), np.conj(sn)
    r22_raw = cs * h22 - sn * h12
    a2 = np.abs(r22_raw)
    d2 = np.where(a2 > 0, np.conj(r22_raw) / np.where(a2 > 0, a2, 1.0), 1.0 + 0.0j)

    return QrRotation(
        r11=n1.astype(np.complex128),
        r12=ccs * h12 + csn * h22,
        r13=csn * h23,
        r21=np.zeros_like(r22_raw),
        r22=a2.astype(np.complex128),
        r23=d2 * (cs * h23),
        yt1=ccs * y1 + csn * y2,
        yt2=d2 * (cs * y2 - sn * y1),
    )


def complex_gaussian(gen: np.random.Generator, sigma2: float, size: int) -> np.ndarray:
    """``size`` circularly symmetric complex Gaussian CN(0, sigma2) samples
    via Box-Muller.

    Uses the polar form: |z|^2 is Exp(sigma2) and the phase is uniform, so
    each sample consumes exactly two uniforms u0, u1 and is

        z = sqrt(-sigma2 * log1p(-u0)) * exp(2j * pi * u1).

    Real and imaginary parts come out independent N(0, sigma2/2).  Sample i
    takes uniforms 2i and 2i + 1 of one ``gen.random(2 * size)`` call, so
    consecutive calls consume the stream as one call for all their samples
    would.
    """
    if sigma2 <= 0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    u = gen.random(2 * size).reshape(size, 2)
    radius = np.sqrt(-sigma2 * np.log1p(-u[:, 0]))
    return radius * np.exp(2j * np.pi * u[:, 1])


def philox_stream(seed: int, stream: int) -> np.random.Generator:
    """The generator of stream ``stream`` under ``seed``: Philox keyed by
    the two integers, each masked to a 64-bit word."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
