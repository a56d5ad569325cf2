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
d=1/sqrt(2), which satisfies both.  ``design_checks`` holds both checks, and
the relay maps' exclusive law, against the shipped design and known
violators.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .netmap import LATIN_MAPS, check_exclusive_law
from .signalset import difference_set, make_psk

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


def check_full_rank_condition(k: SchemeConstants, pts: np.ndarray) -> bool:
    """True iff |det| of every restricted difference matrix with both
    differences of the points ``pts`` nonzero exceeds 1e-9.

    Zero-difference pairs are excluded: those matrices have a zero row and
    can never be full rank, regardless of the constants.
    """
    diffs = [d for d in difference_set(pts) if d != 0]
    for da in diffs:
        for db in diffs:
            (p, q), (r, t) = restricted_diff_matrix(k, da, db)
            if abs(p * t - q * r) <= 1e-9:
                return False
    return True


def check_hr_orthogonal(x: np.ndarray, y: np.ndarray) -> bool:
    """True iff x @ y* + y @ x* vanishes (entrywise max at most 1e-12)."""
    if x.shape != y.shape:
        raise ValueError("shape mismatch")
    total = x @ y.conj().T + y @ x.conj().T
    return float(np.abs(total).max()) <= 1e-12


def design_checks() -> dict[str, list[tuple[str, bool]]]:
    """The algebraic design checks, as (label, passed) pairs under their
    headings: the exclusive law on both relay maps and three violators,
    full rank for the default constants and against flat ones, and the
    default constants' weight-matrix orthogonality.  Every one should pass."""
    violators = {
        "constant map": [[0] * 4 for _ in range(4)],
        "first-argument-only map": [[r] * 4 for r in range(4)],
        "repeated-row map": [[0, 1, 2, 3], [0, 1, 2, 3], [2, 3, 0, 1], [3, 0, 1, 2]],
    }
    k = example1_constants(1.0)
    flat = SchemeConstants(a=_INV_SQRT2, b=_INV_SQRT2, c=_INV_SQRT2, d=_INV_SQRT2, es=1.0)
    wm = weight_matrices(k)
    return {
        "exclusive law (modulo and XOR maps, plus violators)": [
            *((f"{kind}-{m} map satisfies the exclusive law", check_exclusive_law(latin(m)))
              for m in (2, 4, 8, 16) for kind, latin in LATIN_MAPS.items()),
            *((f"{name} rejected", not check_exclusive_law(cells)) for name, cells in violators.items()),
        ],
        "full-rank condition for the restricted difference matrices": [
            *((f"default constants pass on {m}-PSK", check_full_rank_condition(k, make_psk(m))) for m in (4, 8)),
            ("a=b=c=d=1/sqrt(2) rejected on 4-PSK", not check_full_rank_condition(flat, make_psk(4))),
        ],
        "weight-matrix orthogonality": [
            ("(W_A, W_R) Hurwitz-Radon orthogonal", check_hr_orthogonal(wm.wa, wm.wr)),
            ("(W_B, W_R) not orthogonal", not check_hr_orthogonal(wm.wb, wm.wr)),
        ],
    }
