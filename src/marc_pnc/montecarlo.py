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
exhaustive reference.

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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .cfnc import DEFAULT_THETA, CfncConfig, make_cfnc_config
from .channel import (
    PROFILE_PRESETS,
    ChannelRealization,
    FadingProfile,
    db_to_linear,
    phase1,
    phase2,
    sample_channel,
)
from .destination import (
    DecodeInput,
    fast_decode,
    joint_min_distance,
    novel_decode_exhaustive,
    novel_decode_exhaustive_batch,
    role_swap,
)
from .netmap import LATIN_MAPS, MAP_KINDS, LatinSquare
from .numerics import RngStream, complex_gaussian, philox_bits
from .relay import relay_ml_decode, relay_ml_decode_batch
from .scheme import EXAMPLE1_ABCD, SchemeConstants, example1_constants

# Not called here: kept as module attributes because the benchmark's trace
# wraps them at this module.
from .scheme import check_hr_orthogonal, weight_matrices  # noqa: F401
from .signalset import SignalSet, make_psk

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
            value = getattr(self, name)
            index = getattr(type(value), "__index__", None)
            if index is None or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, index(value))  # numpy integers become int
        if self.m < 2 or self.m & (self.m - 1):
            raise ValueError(f"m must be a power of two >= 2, got {self.m}")
        if self.trials_per_point < 1:
            raise ValueError("trials_per_point must be >= 1")
        if self.error_target < 1:
            raise ValueError("error_target must be >= 1")
        if not isinstance(self.profile, FadingProfile):
            raise ValueError(f"profile must be a FadingProfile, got {self.profile!r}")
        pts = tuple(float(p) for p in self.snr_points_db)
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
            raise ValueError("relay-error-aware decoders require all SNR points >= 0 dB")
        # Constant validity (finite values, energy split, an es that fits a
        # float) is checked by building the constants of every point.
        for p in pts:
            k = self.constants_at(p)
        if self.decoder == "fast":
            role_swap(k)  # raises HrOrthogonalityError if no pairing holds
        elif self.decoder == "cfnc":
            self.cfnc_config()  # raises if theta collapses distinct pairs

    def constants_at(self, snr_db: float) -> SchemeConstants:
        a, b, c, d = self.constants
        return SchemeConstants(a=a, b=b, c=c, d=d, es=db_to_linear(snr_db))

    def signal_set(self) -> SignalSet:
        return make_psk(self.m)

    def relay_map(self) -> LatinSquare:
        return LATIN_MAPS[self.map_kind](self.m)

    def cfnc_config(self) -> CfncConfig:
        return make_cfnc_config(self.signal_set(), self.theta)

    def relay_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The relay function as two (M, M) tables indexed by the decoded
        pair (index_a, index_b): its network-coded value, and the point the
        relay sends.  The Latin-square map codes a pair as its cell; the
        cfnc relay combines injectively, so its code is the pair itself."""
        pts = np.asarray(self.signal_set().points, dtype=np.complex128)
        if self.decoder == "cfnc":
            return np.arange(self.m * self.m).reshape(self.m, self.m), self.cfnc_config().relay_points(pts)
        cells = np.asarray(self.relay_map().cells, dtype=np.int64)
        return cells, pts[cells]


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

    def event_count(self, which: str) -> int:
        return getattr(self, PROBABILITY_EVENTS[which])


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

    def frame(self, i: int) -> tuple[int, int, ChannelRealization, complex, complex, complex]:
        """Scalar view of one frame, for engine audits."""
        h = ChannelRealization(
            h_ar=complex(self.h_ar[i]), h_br=complex(self.h_br[i]), h_ad=complex(self.h_ad[i]),
            h_bd=complex(self.h_bd[i]), h_rd=complex(self.h_rd[i]),
        )
        return int(self.ia[i]), int(self.ib[i]), h, complex(self.z_r[i]), complex(self.z_d1[i]), complex(self.z_d2[i])

    def chunk(self, start: int, stop: int) -> "BatchDraws":
        """Frames start..stop-1, as views."""
        return BatchDraws(*(getattr(self, f.name)[start:stop] for f in dataclasses.fields(self)))


def draw_batch(gen: np.random.Generator, profile: FadingProfile, m: int, n: int) -> BatchDraws:
    return BatchDraws(
        ia=gen.integers(0, m, size=n),
        ib=gen.integers(0, m, size=n),
        h_ar=complex_gaussian(gen, profile.var_ar, n),
        h_br=complex_gaussian(gen, profile.var_br, n),
        h_ad=complex_gaussian(gen, profile.var_ad, n),
        h_bd=complex_gaussian(gen, profile.var_bd, n),
        h_rd=complex_gaussian(gen, profile.var_rd, n),
        z_r=complex_gaussian(gen, 1.0, n),
        z_d1=complex_gaussian(gen, 1.0, n),
        z_d2=complex_gaussian(gen, 1.0, n),
    )


class Received(NamedTuple):
    """What the relay and the destination receive for a run of frames, and
    the relay's decision."""

    y_r: np.ndarray
    y_d1: np.ndarray
    y_d2: np.ndarray
    relay_a: np.ndarray
    relay_b: np.ndarray
    nc_wrong: np.ndarray


def transmit(d: BatchDraws, k: SchemeConstants, pts, code, relay_pts) -> Received:
    """Phase 1, relay ML detection, the relay's forwarding and phase 2.
    ``code`` and ``relay_pts`` are ``SweepSpec.relay_tables``: the relay
    sends ``relay_pts[ra, rb]`` for its decoded pair (ra, rb), and
    ``nc_wrong`` flags ``code[ra, rb] != code[ia, ib]``."""
    root = math.sqrt(k.es)
    xa = pts[d.ia]
    xb = pts[d.ib]
    y_r = d.h_ar * (root * k.a) * xa + d.h_br * (root * k.b) * xb + d.z_r
    y_d1 = d.h_ad * (root * k.a) * xa + d.h_bd * (root * k.b) * xb + d.z_d1
    ra, rb = relay_ml_decode_batch(y_r, d.h_ar, d.h_br, k, pts)
    x_r = relay_pts[ra, rb]
    nc_wrong = code[ra, rb] != code[d.ia, d.ib]
    y_d2 = d.h_ad * (root * k.c) * xa + d.h_bd * (root * k.d) * xb + d.h_rd * root * x_r + d.z_d2
    return Received(y_r, y_d1, y_d2, ra, rb, nc_wrong)


def simulate_batch(spec: SweepSpec, snr_db: float, point_index: int, batch_index: int, n: int) -> SepPoint:
    """Simulate one batch of frames and return its integer counters.

    The batch is drawn whole; the rest of the pipeline runs CHUNK_SIZE
    frames at a time.  Every stage is per-frame independent, so the
    counters do not depend on the chunk size.
    """
    gen = np.random.Generator(philox_bits(spec.seed, _stream_id(point_index, batch_index)))
    k = spec.constants_at(snr_db)
    pts = np.asarray(spec.signal_set().points, dtype=np.complex128)
    code, relay_pts = spec.relay_tables()
    draws = draw_batch(gen, spec.profile, spec.m, n)
    counts = SepPoint(snr_db)
    for start in range(0, n, CHUNK_SIZE):
        d = draws.chunk(start, start + CHUNK_SIZE)
        rx = transmit(d, k, pts, code, relay_pts)
        frames = (rx.y_d1, rx.y_d2, d.h_ad, d.h_bd, d.h_rd, k, pts)
        # The aware decoders read the Latin-square code table (its cells);
        # min-euclid and cfnc trust the relay's point table.
        if spec.decoder == "fast":
            da, db, _ = fast_decode(*frames, code)
        elif spec.decoder == "novel-exhaustive":
            da, db, _ = novel_decode_exhaustive_batch(*frames, code)
        else:
            da, db, _ = joint_min_distance(*frames, relay_pts)

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


def equivalence_battery(
    snr_points_db=(0.0, 10.0, 20.0, 30.0),
    frames_per_cell: int = 8400,
    seed: int = 2024,
    forced_error_fraction: float = 0.5,
) -> EquivalenceReport:
    """Compare fast_decode against novel_decode_exhaustive frame by frame,
    on 4-PSK with the modulo-4 relay map, for every SNR point and every
    profile of ``PROFILE_PRESETS``.

    Each (SNR, profile) cell gets its own stream; its frames are drawn and
    relayed one at a time, then the batch fast decoder decodes the whole
    cell in one call and the scalar exhaustive reference checks each
    frame.  A ``forced_error_fraction`` of the frames (half by default)
    replace the relay's true decision with a uniformly random wrong
    network-coded symbol, so the relay-error branch is exercised at every
    SNR, not only where relay errors occur naturally.

    Arguments that would compare no frames, or give frames the fast decoder
    does not admit (SNR below 0 dB, i.e. es < 1), raise ``ValueError``
    before anything is drawn.
    """
    snr_points_db = tuple(snr_points_db)
    if frames_per_cell < 1:
        raise ValueError(f"frames_per_cell must be >= 1, got {frames_per_cell}")
    if not snr_points_db:
        raise ValueError("snr_points_db must not be empty")
    bad = [db for db in snr_points_db if not (math.isfinite(db) and db >= 0.0)]
    if bad:
        raise ValueError(f"SNR points must be finite and >= 0 dB (the fast decoder needs es >= 1), got {bad[0]}")
    if not 0.0 <= forced_error_fraction <= 1.0:
        raise ValueError(f"forced_error_fraction must be in [0, 1], got {forced_error_fraction}")
    constants = [example1_constants(db_to_linear(db)) for db in snr_points_db]
    m = 4
    s = make_psk(m)
    f = LATIN_MAPS["modulo"](m)
    pts = np.asarray(s.points, dtype=np.complex128)
    cells = np.asarray(f.cells, dtype=np.int64)
    frames = 0
    mismatches = 0
    first: str | None = None

    cell = 0
    for snr_db, k in zip(snr_points_db, constants):
        for pname, profile in PROFILE_PRESETS.items():
            rng = RngStream(seed, cell)
            cell += 1
            inputs = []
            for _ in range(frames_per_cell):
                ia = rng.index(m)
                ib = rng.index(m)
                h = sample_channel(rng, profile)
                z_r = rng.gaussian(1.0)
                z_d1 = rng.gaussian(1.0)
                z_d2 = rng.gaussian(1.0)
                force = rng.uniform() < forced_error_fraction
                xa, xb = s.points[ia], s.points[ib]
                y_r, y_d1 = phase1(k, h, xa, xb, z_r, z_d1)
                if force:
                    true_nc = f.cells[ia][ib]
                    wrong = rng.index(m - 1)
                    nc_idx = wrong if wrong < true_nc else wrong + 1
                    x_r = s.points[nc_idx]
                else:
                    ra, rb = relay_ml_decode(y_r, h, k, s)
                    x_r = s.points[f.cells[ra][rb]]
                y_d2 = phase2(k, h, xa, xb, x_r, z_d2)
                inputs.append(DecodeInput(
                    y_d1=y_d1, y_d2=y_d2, h_ad=h.h_ad, h_bd=h.h_bd, h_rd=h.h_rd,
                    constants=k, signal_set=s, relay_map=f,
                ))
            columns = (np.array([getattr(inp, name) for inp in inputs], dtype=np.complex128)
                       for name in ("y_d1", "y_d2", "h_ad", "h_bd", "h_rd"))
            fa, fb, fcorrect = fast_decode(*columns, k, pts, cells)
            for inp, got in zip(inputs, zip(fa.tolist(), fb.tolist(), fcorrect.tolist())):
                ref = novel_decode_exhaustive(inp)
                frames += 1
                if got != ref:
                    mismatches += 1
                    if first is None:
                        first = f"snr={snr_db} profile={pname} fast={got} ref={ref}"
    return EquivalenceReport(frames=frames, mismatches=mismatches, first_mismatch=first)
