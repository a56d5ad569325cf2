"""Property tests: every batch kernel equals its scalar reference, frame for
frame, across the admissible space.  The O(M^2) fast decoder equals the
exhaustive rule on either kind of relay; the batch relay ML search equals
the scalar one; minimum distance equals a ``metric_m1`` scan; the cfnc
baseline equals the grid oracle of test_cfnc.

The space is every Hurwitz-Radon pairing the fast decoder accepts, with
arbitrary phases: c = 0 with |a| = 1 (A pairs with the relay), or d = 0
with |b| = 1 (B pairs, and the decoder swaps the source roles); M in
{2, 4, 8, 16}; both relay maps; and SNR in [0, 40] dB, with 0 dB (es = 1,
where the tie rule reports relay_correct = False for every frame) drawn on
purpose.
For the aware decoders, each example decodes a handful of frames whose relay
point is a uniform draw from the relay's constellation of K points, so it is
the one the relay should send about 1/K of the time and a relay error
otherwise, and both branches are exercised at every SNR.  The relay is a
Latin-square map (K = M), or the cfnc relay with M up to 8 (K = M^2); on
either, the scalar exhaustive rule, which takes the relay as the batch
kernels do, is the reference for both.  The relay, minimum-distance and
cfnc kernels need no pairing; they see frames relayed by the engine's own
phase arithmetic, and cfnc uses the combining coefficient exp(i pi / M),
which is valid for every M here.
"""

import cmath
import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from marc_pnc.channel import PROFILE_PRESETS, ChannelRealization
from marc_pnc.destination import (
    fast_decode,
    joint_min_distance,
    novel_decode_exhaustive,
    novel_decode_exhaustive_batch,
    role_swap,
)
from marc_pnc.montecarlo import SweepSpec, draw_batch, transmit
from marc_pnc.netmap import LATIN_MAPS
from marc_pnc.numerics import philox_stream
from marc_pnc.signalset import make_psk
from oracles import metric_m1, scalar_relay_ml_decode
from test_cfnc import destination_oracle

FRAMES = 8

phase = st.floats(0.0, 2 * math.pi)
# Energy split of the source that transmits in both phases, kept away from
# the endpoints where that source would pair with the relay too.
split = st.floats(0.05, math.pi / 2 - 0.05)


@st.composite
def constants(draw):
    """(a, b, c, d, role-swapped) with one Hurwitz-Radon pairing."""
    t = draw(split)
    full = cmath.exp(1j * draw(phase))
    first = cmath.rect(math.cos(t), draw(phase))
    second = cmath.rect(math.sin(t), draw(phase))
    if draw(st.booleans()):
        return full, first, 0j, second, False
    return first, full, second, 0j, True


@st.composite
def relays(draw):
    """(M, relay kind): a Latin-square map for M up to 16, or the cfnc relay
    for M up to 8."""
    kind = draw(st.sampled_from(("modulo", "xor", "cfnc")))
    return draw(st.sampled_from((2, 4, 8) if kind == "cfnc" else (2, 4, 8, 16))), kind


@settings(max_examples=900, deadline=None, derandomize=True, database=None)
@given(
    abcd=constants(),
    relay=relays(),
    snr_db=st.one_of(st.just(0.0), st.floats(0.0, 40.0)),
    profile=st.sampled_from(sorted(PROFILE_PRESETS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_fast_equals_exhaustive(abcd, relay, snr_db, profile, seed):
    *abcd, swapped = abcd
    m, kind = relay
    spec = SweepSpec(
        snr_points_db=(snr_db,), trials_per_point=1, profile=PROFILE_PRESETS[profile], m=m,
        map_kind="modulo" if kind == "cfnc" else kind, decoder="cfnc" if kind == "cfnc" else "novel-exhaustive",
        constants=tuple(abcd), theta=cmath.exp(1j * math.pi / m),
    )
    k, pts, code, constellation = spec.scheme_at(snr_db)
    assert role_swap(k) is swapped
    gen = philox_stream(seed, 0)
    d = draw_batch(gen, spec.profile, m, FRAMES)
    relay_sent = gen.integers(0, len(constellation), size=FRAMES)
    root = math.sqrt(k.es)
    xa, xb = pts[d.ia], pts[d.ib]
    y1 = d.h_ad * (root * k.a) * xa + d.h_bd * (root * k.b) * xb + d.z_d1
    y2 = d.h_ad * (root * k.c) * xa + d.h_bd * (root * k.d) * xb + d.h_rd * root * constellation[relay_sent] + d.z_d2

    frames = (y1, y2, d.h_ad, d.h_bd, d.h_rd, k, pts, code, constellation)
    fast = np.stack(fast_decode(*frames), axis=1).tolist()
    batch = np.stack(novel_decode_exhaustive_batch(*frames), axis=1).tolist()
    relay_args = (pts.tolist(), code.tolist(), constellation.tolist())
    columns = (y1.tolist(), y2.tolist(), d.h_ad.tolist(), d.h_bd.tolist(), d.h_rd.tolist())
    for i, frame in enumerate(zip(*columns)):
        want = list(novel_decode_exhaustive(*frame, k, *relay_args))
        assert fast[i] == want, f"frame {i}"
        assert batch[i] == want, f"frame {i}"
        if k.es == 1.0:
            assert not want[2], f"frame {i}"  # relay_correct is False


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    abcd=constants(),
    m=st.sampled_from((2, 4, 8, 16)),
    map_kind=st.sampled_from(("modulo", "xor")),
    snr_db=st.one_of(st.just(0.0), st.floats(0.0, 40.0)),
    profile=st.sampled_from(sorted(PROFILE_PRESETS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_relay_and_joint_decoders_equal_scalar_references(abcd, m, map_kind, snr_db, profile, seed):
    *abcd, _ = abcd
    spec = SweepSpec(
        snr_points_db=(snr_db,), trials_per_point=1, profile=PROFILE_PRESETS[profile], m=m, map_kind=map_kind,
        decoder="min-euclid", constants=tuple(abcd),
    )
    k, pts, *relay = spec.scheme_at(snr_db)
    points = make_psk(m).tolist()
    cells = LATIN_MAPS[map_kind](m)
    table = cells.tolist()
    cfnc = dataclasses.replace(spec, decoder="cfnc", theta=cmath.exp(1j * math.pi / m))
    power_norm, _ = cfnc.cfnc_config()
    d = draw_batch(philox_stream(seed, 0), spec.profile, m, FRAMES)
    rx = transmit(d, k, pts, *relay)

    frames = (rx.y_d1, rx.y_d2, d.h_ad, d.h_bd, d.h_rd)
    naive = np.stack(joint_min_distance(*frames, k, pts, cells, pts)[:2], axis=1).tolist()
    combining = np.stack(joint_min_distance(*frames, *cfnc.scheme_at(snr_db))[:2], axis=1).tolist()
    fades = zip(d.h_ar.tolist(), d.h_br.tolist(), d.h_ad.tolist(), d.h_bd.tolist(), d.h_rd.tolist())
    for i, h in enumerate(ChannelRealization(*fade) for fade in fades):
        want_pair = (int(rx.relay_a[i]), int(rx.relay_b[i]))
        assert scalar_relay_ml_decode(complex(rx.y_r[i]), h.h_ar, h.h_br, k, points) == want_pair, f"frame {i}"
        y1, y2 = complex(rx.y_d1[i]), complex(rx.y_d2[i])
        frame = (y1, y2, h.h_ad, h.h_bd, h.h_rd, k, points, table, points)
        scan = min((metric_m1(*frame, ia, ib), ia, ib) for ia in range(m) for ib in range(m))
        assert naive[i] == [scan[1], scan[2]], f"frame {i}"
        assert tuple(combining[i]) == destination_oracle(y1, y2, h, k, points, cfnc.theta, power_norm), f"frame {i}"
