"""Transmit-scheme constants, weight matrices, and the two design checks.

The scheme splits each source's unit transmission energy between the two
phases through complex constants (a, c) for source A and (b, d) for source
B.  Two algebraic properties of those constants decide everything
downstream:

* full rank of every restricted codeword difference matrix (both symbol
  differences nonzero) -- necessary for second-order diversity;
* Hurwitz-Radon orthogonality of the A and relay weight matrices -- the
  sufficient condition for the O(M^2) fast decoder.

``example1_constants`` is the shipped default: a=1, b=1/sqrt(2), c=0,
d=1/sqrt(2), which satisfies both.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .signalset import SignalSet, difference_set

_ENERGY_TOL = 1e-12

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

#: The shipped default (a, b, c, d) = (1, 1/sqrt(2), 0, 1/sqrt(2)).
EXAMPLE1_ABCD = (1.0 + 0.0j, _INV_SQRT2 + 0.0j, 0.0j, _INV_SQRT2 + 0.0j)


@dataclass(frozen=True)
class SchemeConstants:
    """Phase-split constants and the per-node transmission energy es.

    es doubles as the SNR since all additive noises have unit variance.
    """

    a: complex
    b: complex
    c: complex
    d: complex
    es: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d", "es"):
            if not cmath.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        # Squared by product: a float ** overflow raises, a product is inf.
        ea = abs(self.a) * abs(self.a) + abs(self.c) * abs(self.c)
        eb = abs(self.b) * abs(self.b) + abs(self.d) * abs(self.d)
        if not abs(ea - 1.0) <= _ENERGY_TOL:
            raise ValueError(f"|a|^2+|c|^2 = {ea} != 1")
        if not abs(eb - 1.0) <= _ENERGY_TOL:
            raise ValueError(f"|b|^2+|d|^2 = {eb} != 1")
        if not self.es > 0:
            raise ValueError(f"es must be positive, got {self.es}")


def example1_constants(es: float) -> SchemeConstants:
    """The default constant choice a=1, b=d=1/sqrt(2), c=0."""
    return SchemeConstants(*EXAMPLE1_ABCD, es=es)


@dataclass(frozen=True)
class WeightMatrices:
    """Per-node 3x2 weights: wa acts on x_A, wb on x_B, wr on the relay symbol."""

    wa: np.ndarray
    wb: np.ndarray
    wr: np.ndarray


def weight_matrices(k: SchemeConstants) -> WeightMatrices:
    wa = np.array([[k.a, k.c], [0, 0], [0, 0]], dtype=np.complex128)
    wb = np.array([[0, 0], [k.b, k.d], [0, 0]], dtype=np.complex128)
    wr = np.array([[0, 0], [0, 0], [0, 1]], dtype=np.complex128)
    return WeightMatrices(wa=wa, wb=wb, wr=wr)


def codeword_matrix(k: SchemeConstants, xa: complex, xb: complex, xr: complex) -> np.ndarray:
    """3x2 matrix whose columns are the two phases' noiseless transmit mix."""
    return np.array([[k.a * xa, k.c * xa], [k.b * xb, k.d * xb], [0, xr]], dtype=np.complex128)


def restricted_diff_matrix(k: SchemeConstants, da: complex, db: complex) -> np.ndarray:
    """Top 2x2 block of a codeword difference matrix for differences (da, db)."""
    return np.array([[k.a * da, k.c * da], [k.b * db, k.d * db]], dtype=np.complex128)


def check_full_rank_condition(k: SchemeConstants, s: SignalSet, tol: float = 1e-9) -> bool:
    """True iff |det| of every restricted difference matrix with both
    differences nonzero exceeds tol.

    Zero-difference pairs are excluded: those matrices have a zero row and
    can never be full rank, regardless of the constants.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    diffs = [d for d in difference_set(s) if d != 0]
    for da in diffs:
        for db in diffs:
            (p, q), (r, t) = restricted_diff_matrix(k, da, db)
            if abs(p * t - q * r) <= tol:
                return False
    return True


def check_hr_orthogonal(x: np.ndarray, y: np.ndarray, tol: float = 1e-12) -> bool:
    """True iff x @ y* + y @ x* vanishes (entrywise max below tol)."""
    if x.shape != y.shape:
        raise ValueError("shape mismatch")
    if tol <= 0:
        raise ValueError("tol must be positive")
    total = x @ y.conj().T + y @ x.conj().T
    return float(np.abs(total).max()) <= tol
