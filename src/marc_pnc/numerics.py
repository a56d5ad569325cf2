"""The 2x3 QR decomposition and reproducible Gaussian sampling.

The QR of the equivalent channel runs on whole batches of frames: every
argument is an array with one entry per frame.  Its structural zeros (r21
always, r13 under the orthogonality condition checked in
:mod:`marc_pnc.scheme`) carry the whole fast-decoder argument.

Randomness is counter-based: a ``RngStream`` is fully determined by a
``(seed, stream)`` pair of integers, so concurrent workers can draw from
disjoint streams and any trial can be replayed in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


def sqmag(z: np.ndarray) -> np.ndarray:
    """Elementwise squared magnitude |z|^2."""
    return z.real**2 + z.imag**2


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
    A single Householder reflection zeroes the (2, 1) entry, then both rows
    are phase-normalised so the diagonal entries r11 and r22 come out real
    and non-negative.  With that convention the factorisation is unique
    (when the diagonal is positive), which keeps decoder comparisons
    deterministic.  r21 is returned as an exact zero, as constructed; r13
    is zero when h21 = 0, the Hurwitz-Radon case.

    A zero first column cannot be reflected; the reflection degenerates to
    the identity and r11 = 0, which still satisfies the convention.
    """
    # Reflector u = c1 + e^{i arg(h11)} |c1| e1 (sign choice avoids
    # cancellation); p = I - 2 u u* / (u* u) is unitary and Hermitian.
    n1 = np.hypot(np.abs(h11), np.abs(h21))
    abs11 = np.abs(h11)
    phase = np.where(abs11 > 0, h11 / np.where(abs11 > 0, abs11, 1.0), 1.0 + 0.0j)
    u1 = h11 + phase * n1
    u2 = h21
    unorm2 = sqmag(u1) + sqmag(u2)
    s = np.where(unorm2 > 0, 2.0 / np.where(unorm2 > 0, unorm2, 1.0), 0.0)
    p11 = 1.0 - s * u1 * np.conj(u1)
    p12 = -s * u1 * np.conj(u2)
    p21 = -s * u2 * np.conj(u1)
    p22 = 1.0 - s * u2 * np.conj(u2)

    # Rows of p @ h, then per-row phase normalisation of the diagonal:
    # q* = diag(d1, d2) @ p.
    r11_raw = p11 * h11 + p12 * h21
    r12_raw = p11 * h12 + p12 * h22
    r22_raw = p21 * h12 + p22 * h22
    r23_raw = p22 * h23
    a1 = np.abs(r11_raw)
    d1 = np.where(a1 > 0, np.conj(r11_raw) / np.where(a1 > 0, a1, 1.0), 1.0 + 0.0j)
    a2 = np.abs(r22_raw)
    d2 = np.where(a2 > 0, np.conj(r22_raw) / np.where(a2 > 0, a2, 1.0), 1.0 + 0.0j)

    return QrRotation(
        r11=a1.astype(np.complex128),
        r12=d1 * r12_raw,
        r13=d1 * (p12 * h23),
        r21=np.zeros_like(r11_raw),
        r22=a2.astype(np.complex128),
        r23=d2 * r23_raw,
        yt1=d1 * (p11 * y1 + p12 * y2),
        yt2=d2 * (p21 * y1 + p22 * y2),
    )


def complex_gaussian(gen: np.random.Generator, sigma2: float, size: int | None = None):
    """Circularly symmetric complex Gaussian CN(0, sigma2) via Box-Muller.

    Uses the polar form: |z|^2 is Exp(sigma2) and the phase is uniform, so
    each sample consumes exactly two uniforms.  Real and imaginary parts
    come out independent N(0, sigma2/2).
    """
    if sigma2 <= 0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    if size is None:
        return complex(complex_gaussian(gen, sigma2, 1)[0])
    u = gen.random(2 * size).reshape(size, 2)
    radius = np.sqrt(-sigma2 * np.log1p(-u[:, 0]))
    return radius * np.exp(2j * np.pi * u[:, 1])


@dataclass
class RngStream:
    """Counter-based random stream keyed by (seed, stream).

    Identical keys reproduce identical draw sequences regardless of how the
    draws are batched, so trials can run on any worker in any order.
    """

    seed: int
    stream: int = 0
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._gen = np.random.Generator(philox_bits(self.seed, self.stream))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def uniform(self) -> float:
        return float(self._gen.random())

    def index(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        return int(self._gen.integers(0, n))

    def gaussian(self, sigma2: float) -> complex:
        return complex_gaussian(self._gen, sigma2)


def philox_bits(seed: int, stream: int) -> np.random.Philox:
    """Philox bit generator keyed by two 64-bit words."""
    return np.random.Philox(key=np.array([seed & 0xFFFFFFFFFFFFFFFF, stream & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64))
