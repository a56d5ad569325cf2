"""Monte Carlo engine: frame simulation, SNR sweeps, error statistics.

``run_sweep`` splits each point's trials into batches of BATCH_SIZE frames
and one last partial batch of the remainder, if any; batch b of SNR point p
draws from a counter-based stream keyed by (seed, p, b), and per-batch
results are integer counters summed in batch order.  Batches run in rounds
of ROUND_WIDTH, and a point stops early only between rounds, once enough
errors have accumulated.  Results are therefore byte-identical for a given
spec and seed no matter how many worker threads run the batches.

Within a batch, the draws are made for the whole batch at once, so the
stream is consumed the same way whatever happens next.  Phase 1, relay
detection, phase 2, decoding and counting (``transmit`` and the decoders)
then run over fixed sub-chunks of CHUNK_SIZE frames, whose integer
counters are summed; this keeps the kernels' per-candidate temporaries in
cache.  Every kernel is per-frame independent, so results do not depend on
the chunk size.

``equivalence_battery`` holds the fast decoder against the scalar
exhaustive reference on one-point ``fast`` specs, one per (SNR, profile)
cell, with half of the frames forced to a wrong relay symbol.  Each cell's
frames come from ``draw_batch`` and ``transmit``, the sweeps' own frame
source, and the three cells of an SNR point are decoded by one batch
``fast_decode`` call.

The symbol error probability reported as ``sep_joint`` is the joint pair
error P{decoded pair != transmitted pair}; per-user rates are recorded
alongside, as are the relay network-code error rate and the error rates
conditioned on it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .cfnc import DEFAULT_THETA, make_cfnc_config
from .channel import PROFILE_PRESETS, FadingProfile, db_to_linear, sample_channel
from .destination import (
    fast_decode,
    joint_min_distance,
    novel_decode_exhaustive,
    novel_decode_exhaustive_batch,
    role_swap,
)
from .netmap import LATIN_MAPS, MAP_KINDS
from .numerics import complex_gaussian, philox_stream
from .relay import relay_ml_decode
from .scheme import EXAMPLE1_ABCD, SchemeConstants

# Not called here: kept as module attributes because the benchmark's trace
# wraps them at this module.
from .scheme import check_hr_orthogonal, weight_matrices  # noqa: F401
from .signalset import make_psk

DECODERS = ("min-euclid", "novel-exhaustive", "fast", "cfnc")

#: Engine partition constants.  Fixed (not configurable) so that results
#: can never depend on machine or thread count.
BATCH_SIZE = 1 << 15
ROUND_WIDTH = 4
#: Frames per pipeline sub-chunk of a batch.  Sized by working set: a
#: kernel's (M, CHUNK_SIZE) float64 temporaries stay in a core's L2 cache
#: (512 KB at M = 16).  Not scaled down with M: smaller chunks only add
#: Python overhead.  Results do not depend on it.
CHUNK_SIZE = 1 << 12

THREADS_ENV_VAR = "MARC_PNC_THREADS"


def _integer(name: str, value) -> int:
    """``value`` as an int; ``ValueError`` naming ``name`` for a bool or a non-integer."""
    index = getattr(type(value), "__index__", None)
    if index is None or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return index(value)


@dataclass(frozen=True)
class SweepSpec:
    """Everything needed to reproduce a sweep, including the seed."""

    snr_points_db: tuple[float, ...]
    trials_per_point: int
    profile: FadingProfile
    m: int = 4
    map_kind: str = "modulo"
    decoder: str = "fast"
    constants: tuple[complex, complex, complex, complex] = EXAMPLE1_ABCD
    seed: int = 0
    theta: complex = DEFAULT_THETA
    error_target: int = 10_000

    def __post_init__(self) -> None:
        """Reject every spec that would fail inside a worker batch."""
        for name in ("m", "trials_per_point", "seed", "error_target"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.m < 2 or self.m & (self.m - 1):
            raise ValueError(f"m must be a power of two >= 2, got {self.m}")
        if self.trials_per_point < 1:
            raise ValueError("trials_per_point must be >= 1")
        if self.error_target < 1:
            raise ValueError("error_target must be >= 1")
        if not isinstance(self.profile, FadingProfile):
            raise ValueError(f"profile must be a FadingProfile, got {self.profile!r}")
        pts = tuple(float(p) for p in self.snr_points_db)
        object.__setattr__(self, "snr_points_db", pts)  # a list or generator becomes the checked tuple
        if not pts:
            raise ValueError("snr_points_db must not be empty")
        bad = [p for p in pts if not math.isfinite(p)]
        if bad:
            raise ValueError(f"snr_points_db must be finite, got {bad[0]}")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("snr_points_db must be strictly ascending")
        if self.map_kind not in MAP_KINDS:
            raise ValueError(f"map_kind must be one of {MAP_KINDS}")
        if self.decoder not in DECODERS:
            raise ValueError(f"decoder must be one of {DECODERS}")
        if self.decoder in ("novel-exhaustive", "fast") and pts[0] < 0.0:
            raise ValueError(f"relay-error-aware decoders require all SNR points >= 0 dB, got {pts[0]}")
        # Constant validity (finite values, energy split, an es that fits a
        # float) is checked by building the constants of every point.
        for p in pts:
            k = self.constants_at(p)
        # A residual is sqrt(es) times the fade-weighted differences of at
        # most three symbols (weights of modulus <= 1; differences <= 2, or
        # 2 sqrt(2) between cfnc points) plus unit noise, so a squared metric,
        # summed over both phases, stays below (4^2 + (4 + 2 sqrt(2))^2) es |h|^2
        # < 63 es |h|^2 for the largest fade h.  A Rayleigh fade's power exceeds
        # 100 times its variance with probability e^-100; so es times the
        # largest variance, times 1e4 > 6300, must fit a float.
        if k.es * max(dataclasses.astuple(self.profile)) > sys.float_info.max / 1e4:
            raise ValueError(f"snr_points_db: {pts[-1]} dB is too large, its squared metrics overflow a float")
        if self.decoder == "fast":
            role_swap(k)  # raises HrOrthogonalityError if no pairing holds
        elif self.decoder == "cfnc":
            self.cfnc_config()  # raises unless theta is finite, unit and injective

    def constants_at(self, snr_db: float) -> SchemeConstants:
        a, b, c, d = self.constants
        return SchemeConstants(a=a, b=b, c=c, d=d, es=db_to_linear(snr_db))

    def cfnc_config(self) -> tuple[float, np.ndarray]:
        """The cfnc relay's ``(power_norm, constellation)`` for this spec."""
        return make_cfnc_config(make_psk(self.m), self.theta)

    def scheme_at(self, snr_db: float) -> tuple[SchemeConstants, np.ndarray, np.ndarray, np.ndarray]:
        """The arguments every stage takes at ``snr_db``, ``(k, pts, code,
        constellation)``: the constants, the M source points, and the relay,
        which for the decoded pair (index_a, index_b) sends
        ``constellation[code[index_a, index_b]]``.  The Latin-square relay
        codes a pair as its cell and sends a source point; the cfnc relay
        combines injectively, so its code numbers the M^2 pairs row-major
        and it sends their combined points."""
        k = self.constants_at(snr_db)
        pts = make_psk(self.m)
        if self.decoder == "cfnc":
            _, constellation = make_cfnc_config(pts, self.theta)
            return k, pts, np.arange(self.m * self.m).reshape(self.m, self.m), constellation
        return k, pts, LATIN_MAPS[self.map_kind](self.m), pts


# ---------------------------------------------------------------------------
# Aggregated statistics


#: The probabilities a SepPoint reports, in CSV column order, each mapped to
#: the counter of the events it counts.
PROBABILITY_EVENTS = {
    "sep_joint": "errors",
    "sep_a": "errors_a",
    "sep_b": "errors_b",
    "p_relay_err": "relay_wrong",
    "p_err_rc": "errors_relay_correct",
    "p_err_rw": "errors_relay_wrong",
}


@dataclass(frozen=True)
class SepPoint:
    """Error counters for one SNR point; probabilities are derived views."""

    snr_db: float
    trials: int = 0
    errors: int = 0
    errors_a: int = 0
    errors_b: int = 0
    relay_wrong: int = 0
    errors_relay_correct: int = 0
    errors_relay_wrong: int = 0

    @property
    def sep_joint(self) -> float:
        return self.errors / self.trials

    @property
    def sep_a(self) -> float:
        return self.errors_a / self.trials

    @property
    def sep_b(self) -> float:
        return self.errors_b / self.trials

    @property
    def p_relay_err(self) -> float:
        return self.relay_wrong / self.trials

    @property
    def p_err_rc(self) -> float | None:
        """Error rate given the relay's network-coded symbol was right;
        None (absent, not zero) if that bin holds no trials."""
        n_rc = self.trials - self.relay_wrong
        return self.errors_relay_correct / n_rc if n_rc > 0 else None

    @property
    def p_err_rw(self) -> float | None:
        return self.errors_relay_wrong / self.relay_wrong if self.relay_wrong > 0 else None

    def __add__(self, other: "SepPoint") -> "SepPoint":
        """The counters of both, summed, at this point's SNR."""
        summed = {f: getattr(self, f) + getattr(other, f) for f in ("trials", *PROBABILITY_EVENTS.values())}
        return SepPoint(snr_db=self.snr_db, **summed)


@dataclass(frozen=True)
class SepCurve:
    spec: SweepSpec
    points: tuple[SepPoint, ...]


# ---------------------------------------------------------------------------
# Batches


@dataclass(frozen=True)
class BatchDraws:
    """All random inputs for a batch, drawn column-wise in fixed order."""

    ia: np.ndarray
    ib: np.ndarray
    h_ar: np.ndarray
    h_br: np.ndarray
    h_ad: np.ndarray
    h_bd: np.ndarray
    h_rd: np.ndarray
    z_r: np.ndarray
    z_d1: np.ndarray
    z_d2: np.ndarray

    def chunk(self, start: int, stop: int) -> "BatchDraws":
        """Frames start..stop-1, as views."""
        return BatchDraws(*(getattr(self, f.name)[start:stop] for f in dataclasses.fields(self)))


def draw_batch(gen: np.random.Generator, profile: FadingProfile, m: int, n: int) -> BatchDraws:
    """``n`` frames' random inputs, in stream order: both source indices,
    the five fades (``sample_channel``), then the three unit-variance noise
    samples."""
    ia = gen.integers(0, m, size=n)
    ib = gen.integers(0, m, size=n)
    h = sample_channel(gen, profile, n)
    return BatchDraws(ia, ib, *h, *(complex_gaussian(gen, 1.0, n) for _ in range(3)))


class Received(NamedTuple):
    """What the relay and the destination receive for a run of frames, and
    the relay's decision."""

    y_r: np.ndarray
    y_d1: np.ndarray
    y_d2: np.ndarray
    relay_a: np.ndarray
    relay_b: np.ndarray
    nc_wrong: np.ndarray


def transmit(d: BatchDraws, k: SchemeConstants, pts, code, constellation) -> Received:
    """Phase 1, relay ML detection, the relay's forwarding and phase 2.
    The arguments after ``d`` are ``SweepSpec.scheme_at``'s: the relay sends
    ``constellation[code[ra, rb]]`` for its decoded pair (ra, rb), and
    ``nc_wrong`` flags ``code[ra, rb] != code[ia, ib]``."""
    root = math.sqrt(k.es)
    xa = pts[d.ia]
    xb = pts[d.ib]
    y_r = d.h_ar * (root * k.a) * xa + d.h_br * (root * k.b) * xb + d.z_r
    y_d1 = d.h_ad * (root * k.a) * xa + d.h_bd * (root * k.b) * xb + d.z_d1
    ra, rb = relay_ml_decode(y_r, d.h_ar, d.h_br, k, pts)
    # code[ra, rb] is gathered twice on purpose: a named copy held through
    # phase 2 shifted the heap layout and raised a sweep's peak RSS by ~4 MB.
    x_r = constellation[code[ra, rb]]
    nc_wrong = code[ra, rb] != code[d.ia, d.ib]
    y_d2 = d.h_ad * (root * k.c) * xa + d.h_bd * (root * k.d) * xb + d.h_rd * root * x_r + d.z_d2
    return Received(y_r, y_d1, y_d2, ra, rb, nc_wrong)


def simulate_batch(spec: SweepSpec, snr_db: float, point_index: int, batch_index: int, n: int) -> SepPoint:
    """Simulate one batch of frames and return its integer counters.

    The batch is drawn whole; the rest of the pipeline runs CHUNK_SIZE
    frames at a time.  Every stage is per-frame independent, so the
    counters do not depend on the chunk size.
    """
    gen = philox_stream(spec.seed, _stream_id(point_index, batch_index))
    scheme = spec.scheme_at(snr_db)
    decode = {  # looked up per call, so that a kernel patched on this module is used
        "fast": fast_decode, "novel-exhaustive": novel_decode_exhaustive_batch,
        "min-euclid": joint_min_distance, "cfnc": joint_min_distance,
    }[spec.decoder]
    draws = draw_batch(gen, spec.profile, spec.m, n)
    counts = SepPoint(snr_db)
    for start in range(0, n, CHUNK_SIZE):
        d = draws.chunk(start, start + CHUNK_SIZE)
        rx = transmit(d, *scheme)
        da, db, _ = decode(rx.y_d1, rx.y_d2, d.h_ad, d.h_bd, d.h_rd, *scheme)

        err_a = da != d.ia
        err_b = db != d.ib
        err = err_a | err_b
        counts += SepPoint(
            snr_db=snr_db,
            trials=len(d.ia),
            errors=int(np.count_nonzero(err)),
            errors_a=int(np.count_nonzero(err_a)),
            errors_b=int(np.count_nonzero(err_b)),
            relay_wrong=int(np.count_nonzero(rx.nc_wrong)),
            errors_relay_correct=int(np.count_nonzero(err & ~rx.nc_wrong)),
            errors_relay_wrong=int(np.count_nonzero(err & rx.nc_wrong)),
        )
    return counts


def _stream_id(point_index: int, batch_index: int) -> int:
    return (point_index << 32) | batch_index


def thread_count(explicit: int | None = None) -> int:
    """Worker threads: ``explicit`` (the ``--threads`` flag) if given, else
    ``MARC_PNC_THREADS``, else 1.  A count below 1 is an error."""
    if explicit is not None:
        if explicit < 1:
            raise ValueError(f"threads (--threads) must be >= 1, got {explicit}")
        return explicit
    raw = os.environ.get(THREADS_ENV_VAR, "1")
    try:
        count = int(raw)
    except ValueError:
        raise ValueError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}") from None
    if count < 1:
        raise ValueError(f"{THREADS_ENV_VAR} must be >= 1, got {raw!r}")
    return count


def run_sweep(spec: SweepSpec, threads: int | None = None, progress=None) -> SepCurve:
    """Run the full sweep; deterministic for a given spec regardless of
    thread count.

    Every point has the same batches: batch b holds
    min(BATCH_SIZE, trials_per_point - b * BATCH_SIZE) frames, so all are
    full but a last partial one.  They run in rounds of ROUND_WIDTH, and a
    point stops only between rounds, once errors >= spec.error_target; so
    the set of simulated batches is a pure function of the spec.
    """
    full, rest = divmod(spec.trials_per_point, BATCH_SIZE)
    sizes = [BATCH_SIZE] * full + ([rest] if rest else [])
    nthreads = thread_count(threads)
    points = []
    # One thread runs the batches on the calling thread: a pool thread would
    # allocate from another malloc arena.
    with ThreadPoolExecutor(max_workers=nthreads) if nthreads > 1 else contextlib.nullcontext() as pool:
        run = map if pool is None else pool.map
        for pidx, snr_db in enumerate(spec.snr_points_db):
            counts = SepPoint(snr_db)
            for start in range(0, len(sizes), ROUND_WIDTH):
                if counts.errors >= spec.error_target:
                    break
                stop = start + ROUND_WIDTH
                for r in run(simulate_batch, repeat(spec), repeat(snr_db), repeat(pidx), range(start, stop), sizes[start:stop]):
                    counts += r
            points.append(counts)
            if progress is not None:
                progress(counts)
    return SepCurve(spec=spec, points=tuple(points))


# ---------------------------------------------------------------------------
# Fast-vs-exhaustive equivalence battery


@dataclass(frozen=True)
class EquivalenceReport:
    frames: int
    mismatches: int
    first_mismatch: str | None = None


#: Share of each battery cell's frames whose relay forwards a wrong symbol.
FORCED_ERROR_FRACTION = 0.5


def equivalence_battery(
    snr_points_db=(0.0, 10.0, 20.0, 30.0),
    frames_per_cell: int = 8400,
    seed: int = 2024,
) -> EquivalenceReport:
    """Compare fast_decode against novel_decode_exhaustive frame by frame,
    for every SNR point and every profile of ``PROFILE_PRESETS``.

    Each (SNR, profile) cell is the one-point ``fast`` spec
    ``SweepSpec((snr_db,), frames_per_cell, profile, seed=seed)`` (4-PSK,
    modulo map, the default constants), whose ``scheme_at`` gives the
    arguments of every stage.  ``frames_per_cell`` is checked first, then
    all cells are built before anything is drawn, so a bad argument raises
    ``ValueError`` naming it; points need not ascend.

    Cell c draws its frames with one ``draw_batch`` call on
    ``philox_stream(seed, c)`` and relays them with ``transmit``.  It then
    draws, from the same stream, a force flag per frame and a wrong-symbol
    index per frame: a ``FORCED_ERROR_FRACTION`` of the frames move onto a
    uniformly random wrong network-coded symbol, by adding
    ``h_rd * sqrt(es) * (x_forced - x_r)`` to ``y_d2``, so the relay-error
    branch is exercised at every SNR.  The cells of one SNR point share its
    scheme, so one batch fast_decode call decodes all three, and the scalar
    exhaustive reference then checks each frame, in cell order.
    """
    snr_points_db = tuple(snr_points_db)
    frames_per_cell = _integer("frames_per_cell", frames_per_cell)
    if frames_per_cell < 1:
        raise ValueError(f"frames_per_cell must be >= 1, got {frames_per_cell}")
    if not snr_points_db:
        raise ValueError("snr_points_db must not be empty")
    groups = [  # per SNR point, its cell of each profile
        {pname: SweepSpec((snr_db,), frames_per_cell, profile, seed=seed) for pname, profile in PROFILE_PRESETS.items()}
        for snr_db in snr_points_db
    ]
    frames = mismatches = 0
    first: str | None = None

    cell = 0
    for group in groups:
        # The cells differ only in their profile, which no scheme depends on.
        spec = next(iter(group.values()))
        (snr_db,) = spec.snr_points_db
        scheme = k, pts, code, constellation = spec.scheme_at(snr_db)
        root = math.sqrt(k.es)
        received = []  # per cell, what the destination sees: (y_d1, y_d2, h_ad, h_bd, h_rd)
        for spec in group.values():
            gen = philox_stream(spec.seed, cell)
            cell += 1
            d = draw_batch(gen, spec.profile, spec.m, frames_per_cell)
            rx = transmit(d, *scheme)
            force = gen.random(frames_per_cell) < FORCED_ERROR_FRACTION
            wrong = gen.integers(0, len(constellation) - 1, size=frames_per_cell)[force]
            forced_nc = wrong + (wrong >= code[d.ia[force], d.ib[force]])
            x_r = constellation[code[rx.relay_a[force], rx.relay_b[force]]]
            rx.y_d2[force] += d.h_rd[force] * root * (constellation[forced_nc] - x_r)
            received.append((rx.y_d1, rx.y_d2, d.h_ad, d.h_bd, d.h_rd))
        columns = [np.concatenate(column) for column in zip(*received)]
        fa, fb, fcorrect = fast_decode(*columns, *scheme)
        points, table, relayed = pts.tolist(), code.tolist(), constellation.tolist()
        decided = zip(fa.tolist(), fb.tolist(), fcorrect.tolist())
        for i, (frame, got) in enumerate(zip(zip(*(column.tolist() for column in columns)), decided)):
            ref = novel_decode_exhaustive(*frame, k, points, table, relayed)
            if got != ref:
                mismatches += 1
                if first is None:
                    pname = list(group)[i // frames_per_cell]
                    first = f"snr={snr_db} profile={pname} fast={got} ref={ref}"
        frames += len(fa)
    return EquivalenceReport(frames=frames, mismatches=mismatches, first_mismatch=first)
