"""Monte Carlo engine: frame simulation, SNR sweeps, error statistics.

``run_sweep`` partitions trials into fixed-size batches; batch b of SNR
point p draws from a counter-based stream keyed by (seed, p, b), and
per-batch results are integer counters summed in batch order.  Results are
therefore byte-identical for a given spec and seed no matter how many
worker threads run the batches, and a point stops early (only at round
boundaries) once enough errors have accumulated.

``run_frame`` sends one frame through the same destination decoders (as a
batch of one) after the scalar reference relay; tests use it to audit the
engine.  ``equivalence_battery`` holds the fast decoder against the scalar
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

import numpy as np

from .cfnc import DEFAULT_THETA, CfncConfig, cfnc_destination_decode, cfnc_run_frame, make_cfnc_config
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
    Branch,
    DecodeInput,
    DecodeOutput,
    decode_frame,
    fast_decode,
    min_euclidean_decode,
    novel_decode_exhaustive,
    novel_decode_exhaustive_batch,
    role_swap,
)
from .netmap import LatinSquare, modulo_latin, xor_latin
from .numerics import RngStream, complex_gaussian, philox_bits
from .relay import relay_forward, relay_ml_decode, relay_ml_decode_batch
from .scheme import EXAMPLE1_ABCD, SchemeConstants, example1_constants

# Not called here: kept as module attributes because the benchmark's trace
# wraps them at this module.
from .scheme import check_hr_orthogonal, weight_matrices  # noqa: F401
from .signalset import SignalSet, make_psk

MAP_KINDS = ("modulo", "xor")
DECODERS = ("min-euclid", "novel-exhaustive", "fast", "cfnc")

#: Engine partition constants.  Fixed (not configurable) so that results
#: can never depend on machine or thread count.
BATCH_SIZE = 1 << 15
ROUND_WIDTH = 4

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
        if self.m < 2 or self.m & (self.m - 1):
            raise ValueError(f"m must be a power of two >= 2, got {self.m}")
        if self.trials_per_point < 1:
            raise ValueError("trials_per_point must be >= 1")
        if self.error_target < 1:
            raise ValueError("error_target must be >= 1")
        pts = tuple(float(p) for p in self.snr_points_db)
        if not pts:
            raise ValueError("snr_points_db must not be empty")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("snr_points_db must be strictly ascending")
        if self.map_kind not in MAP_KINDS:
            raise ValueError(f"map_kind must be one of {MAP_KINDS}")
        if self.decoder not in DECODERS:
            raise ValueError(f"decoder must be one of {DECODERS}")
        if self.decoder in ("novel-exhaustive", "fast") and pts[0] < 0.0:
            raise ValueError("relay-error-aware decoders require all SNR points >= 0 dB")
        # Constant validity (energy split) is checked by building once.
        k = self.constants_at(pts[0])
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
        return modulo_latin(self.m) if self.map_kind == "modulo" else xor_latin(self.m)

    def cfnc_config(self) -> CfncConfig:
        return make_cfnc_config(self.signal_set(), self.theta)


@dataclass(frozen=True)
class FrameResult:
    xa_idx: int
    xb_idx: int
    relay_pair: tuple[int, int]
    relay_nc_error: bool
    output: DecodeOutput

    @property
    def joint_error(self) -> bool:
        return (self.output.xa_idx, self.output.xb_idx) != (self.xa_idx, self.xb_idx)


def run_frame(spec: SweepSpec, snr_db: float, rng: RngStream) -> FrameResult:
    """One complete frame: scalar relay, then the sweep's destination
    decoder on a batch of one.

    Draw order is fixed: message indices (a then b), the five fade
    coefficients in ChannelRealization field order, then the three unit
    noises z_r, z_d1, z_d2.
    """
    k = spec.constants_at(snr_db)
    s = spec.signal_set()
    f = spec.relay_map()
    ia = rng.index(spec.m)
    ib = rng.index(spec.m)
    h = sample_channel(rng, spec.profile)
    z_r = rng.gaussian(1.0)
    z_d1 = rng.gaussian(1.0)
    z_d2 = rng.gaussian(1.0)

    if spec.decoder == "cfnc":
        out, relay_pair = cfnc_run_frame(ia, ib, h, k, s, spec.cfnc_config(), z_r, z_d1, z_d2)
        nc_error = relay_pair != (ia, ib)
        return FrameResult(ia, ib, relay_pair, nc_error, out)

    xa = s.points[ia]
    xb = s.points[ib]
    y_r, y_d1 = phase1(k, h, xa, xb, z_r, z_d1)
    relay_pair = relay_ml_decode(y_r, h, k, s)
    x_r = relay_forward(relay_pair, f, s)
    y_d2 = phase2(k, h, xa, xb, x_r, z_d2)
    nc_error = f.cells[relay_pair[0]][relay_pair[1]] != f.cells[ia][ib]

    inp = DecodeInput(
        y_d1=y_d1, y_d2=y_d2, h_ad=h.h_ad, h_bd=h.h_bd, h_rd=h.h_rd,
        constants=k, signal_set=s, relay_map=f,
    )
    if spec.decoder == "min-euclid":
        out = decode_frame(min_euclidean_decode, inp)
    elif spec.decoder == "novel-exhaustive":
        out = decode_frame(novel_decode_exhaustive_batch, inp)
    else:
        out = decode_frame(fast_decode, inp)
    return FrameResult(ia, ib, relay_pair, nc_error, out)


# ---------------------------------------------------------------------------
# Aggregated statistics


@dataclass
class _Counts:
    trials: int = 0
    errors: int = 0
    errors_a: int = 0
    errors_b: int = 0
    relay_wrong: int = 0
    errors_relay_correct: int = 0
    errors_relay_wrong: int = 0

    def __iadd__(self, other: "_Counts") -> "_Counts":
        for f in dataclasses.fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self


@dataclass(frozen=True)
class SepPoint:
    """Error counters for one SNR point; probabilities are derived views."""

    snr_db: float
    trials: int
    errors: int
    errors_a: int
    errors_b: int
    relay_wrong: int
    errors_relay_correct: int
    errors_relay_wrong: int

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

    def value(self, which: str) -> float | None:
        return getattr(self, which)

    def event_count(self, which: str) -> int:
        return {
            "sep_joint": self.errors,
            "sep_a": self.errors_a,
            "sep_b": self.errors_b,
            "p_relay_err": self.relay_wrong,
            "p_err_rc": self.errors_relay_correct,
            "p_err_rw": self.errors_relay_wrong,
        }[which]


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


def simulate_batch(spec: SweepSpec, snr_db: float, point_index: int, batch_index: int, n: int) -> _Counts:
    """Simulate one batch of frames and return its integer counters."""
    gen = np.random.Generator(philox_bits(spec.seed, _stream_id(point_index, batch_index)))
    k = spec.constants_at(snr_db)
    pts = np.asarray(spec.signal_set().points, dtype=np.complex128)
    cells = np.asarray(spec.relay_map().cells, dtype=np.int64)
    d = draw_batch(gen, spec.profile, spec.m, n)
    root = math.sqrt(k.es)

    xa = pts[d.ia]
    xb = pts[d.ib]
    y_r = d.h_ar * (root * k.a) * xa + d.h_br * (root * k.b) * xb + d.z_r
    y_d1 = d.h_ad * (root * k.a) * xa + d.h_bd * (root * k.b) * xb + d.z_d1
    ra, rb = relay_ml_decode_batch(y_r, d.h_ar, d.h_br, k, pts)

    if spec.decoder == "cfnc":
        cfg = spec.cfnc_config()
        x_r = cfg.power_norm * (pts[ra] + cfg.theta * pts[rb])
        nc_wrong = (ra != d.ia) | (rb != d.ib)
    else:
        x_r = pts[cells[ra, rb]]
        nc_wrong = cells[ra, rb] != cells[d.ia, d.ib]
    y_d2 = d.h_ad * (root * k.c) * xa + d.h_bd * (root * k.d) * xb + d.h_rd * root * x_r + d.z_d2

    frames = (y_d1, y_d2, d.h_ad, d.h_bd, d.h_rd, k, pts)
    if spec.decoder == "fast":
        da, db, _ = fast_decode(*frames, cells)
    elif spec.decoder == "novel-exhaustive":
        da, db, _ = novel_decode_exhaustive_batch(*frames, cells)
    elif spec.decoder == "min-euclid":
        da, db, _ = min_euclidean_decode(*frames, cells)
    else:
        da, db, _ = cfnc_destination_decode(*frames, cfg)

    err_a = da != d.ia
    err_b = db != d.ib
    err = err_a | err_b
    return _Counts(
        trials=n,
        errors=int(np.count_nonzero(err)),
        errors_a=int(np.count_nonzero(err_a)),
        errors_b=int(np.count_nonzero(err_b)),
        relay_wrong=int(np.count_nonzero(nc_wrong)),
        errors_relay_correct=int(np.count_nonzero(err & ~nc_wrong)),
        errors_relay_wrong=int(np.count_nonzero(err & nc_wrong)),
    )


def _stream_id(point_index: int, batch_index: int) -> int:
    return (point_index << 32) | batch_index


def thread_count(explicit: int | None = None) -> int:
    if explicit is not None:
        return max(1, explicit)
    raw = os.environ.get(THREADS_ENV_VAR, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValueError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}") from None


def run_sweep(spec: SweepSpec, threads: int | None = None, progress=None) -> SepCurve:
    """Run the full sweep; deterministic for a given spec regardless of
    thread count.

    Each point processes fixed-size batches in rounds of ROUND_WIDTH; the
    early-stop check (errors >= spec.error_target) happens only between
    rounds, so the set of simulated batches is a pure function of the spec.
    """
    nthreads = thread_count(threads)
    points = []
    with ThreadPoolExecutor(max_workers=nthreads) if nthreads > 1 else contextlib.nullcontext() as pool:
        for pidx, snr_db in enumerate(spec.snr_points_db):
            counts = _Counts()
            planned = 0
            batch_index = 0
            while planned < spec.trials_per_point and counts.errors < spec.error_target:
                round_batches: list[tuple[int, int]] = []
                for _ in range(ROUND_WIDTH):
                    if planned >= spec.trials_per_point:
                        break
                    nb = min(BATCH_SIZE, spec.trials_per_point - planned)
                    round_batches.append((batch_index, nb))
                    batch_index += 1
                    planned += nb
                if pool is not None and len(round_batches) > 1:
                    results = list(pool.map(lambda bn: simulate_batch(spec, snr_db, pidx, bn[0], bn[1]), round_batches))
                else:
                    results = [simulate_batch(spec, snr_db, pidx, b, n) for b, n in round_batches]
                for r in results:
                    counts += r
            points.append(SepPoint(snr_db=snr_db, **dataclasses.asdict(counts)))
            if progress is not None:
                progress(points[-1])
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
    profiles: dict[str, FadingProfile] | None = None,
    frames_per_cell: int = 8400,
    seed: int = 2024,
    m: int = 4,
    map_kind: str = "modulo",
    forced_error_fraction: float = 0.5,
) -> EquivalenceReport:
    """Compare fast_decode against novel_decode_exhaustive frame by frame.

    Each (SNR, profile) cell gets its own stream; its frames are drawn and
    relayed one at a time, then the batch fast decoder decodes the whole
    cell in one call and the scalar exhaustive reference checks each frame.  Half the frames replace
    the relay's true decision with a uniformly random wrong network-coded
    symbol so the relay-error branch is exercised at every SNR, not only
    where relay errors occur naturally.
    """
    if profiles is None:
        profiles = PROFILE_PRESETS
    s = make_psk(m)
    f = modulo_latin(m) if map_kind == "modulo" else xor_latin(m)
    pts = np.asarray(s.points, dtype=np.complex128)
    cells = np.asarray(f.cells, dtype=np.int64)
    frames = 0
    mismatches = 0
    first: str | None = None

    cell = 0
    for snr_db in snr_points_db:
        for pname, profile in profiles.items():
            k = example1_constants(db_to_linear(snr_db))
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
                    relay_pair = relay_ml_decode(y_r, h, k, s)
                    x_r = relay_forward(relay_pair, f, s)
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
                if got != (ref.xa_idx, ref.xb_idx, ref.branch is Branch.RELAY_CORRECT):
                    mismatches += 1
                    if first is None:
                        first = f"snr={snr_db} profile={pname} fast={got} ref={ref}"
    return EquivalenceReport(frames=frames, mismatches=mismatches, first_mismatch=first)
