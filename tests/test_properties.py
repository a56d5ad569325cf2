"""Property tests: every batch kernel equals its scalar reference, frame for
frame, across the admissible space.  The O(M^2) fast decoder equals the
exhaustive rule; the batch relay ML search equals the scalar one; minimum
distance equals a ``metric_m1`` scan; the cfnc baseline equals the grid
oracle of test_cfnc.

The space is every Hurwitz-Radon pairing the fast decoder accepts, with
arbitrary phases: c = 0 with |a| = 1 (A pairs with the relay), or d = 0
with |b| = 1 (B pairs, and the decoder swaps the source roles); M in
{2, 4, 8, 16}; both relay maps; and SNR in [0, 40] dB, with 0 dB (es = 1,
where the tie rule reports relay_correct = False for every frame) drawn on
purpose.
For the fast decoder, each example decodes a handful of frames whose relay
symbol is a uniform draw, so it is the network-coded one about 1/M of the
time and a relay error otherwise, and both branches are exercised at every
SNR.  The relay, minimum-distance and cfnc kernels need no pairing; they see
frames relayed by the engine's own phase arithmetic, and cfnc uses the
combining coefficient exp(i pi / M), which is valid for every M here.
"""

import cmath
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from marc_pnc.cfnc import make_cfnc_config
from marc_pnc.channel import PROFILE_PRESETS, db_to_linear
from marc_pnc.destination import (
    DecodeInput,
    fast_decode,
    joint_min_distance,
    metric_m1,
    novel_decode_exhaustive,
    novel_decode_exhaustive_batch,
    role_swap,
)
from marc_pnc.montecarlo import SweepSpec, draw_batch, transmit
from marc_pnc.netmap import modulo_latin, xor_latin
from marc_pnc.numerics import philox_bits
from marc_pnc.relay import relay_ml_decode
from marc_pnc.scheme import SchemeConstants
from marc_pnc.signalset import make_psk
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


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(
    abcd=constants(),
    m=st.sampled_from((2, 4, 8, 16)),
    map_kind=st.sampled_from(("modulo", "xor")),
    snr_db=st.one_of(st.just(0.0), st.floats(0.0, 40.0)),
    profile=st.sampled_from(sorted(PROFILE_PRESETS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_fast_equals_exhaustive(abcd, m, map_kind, snr_db, profile, seed):
    *abcd, swapped = abcd
    k = SchemeConstants(*abcd, es=db_to_linear(snr_db))
    assert role_swap(k) is swapped
    s = make_psk(m)
    f = modulo_latin(m) if map_kind == "modulo" else xor_latin(m)
    pts = np.asarray(s.points, dtype=np.complex128)
    cells = np.asarray(f.cells, dtype=np.int64)
    gen = np.random.Generator(philox_bits(seed, 0))
    d = draw_batch(gen, PROFILE_PRESETS[profile], m, FRAMES)
    relay_sent = gen.integers(0, m, size=FRAMES)
    root = math.sqrt(k.es)
    xa, xb = pts[d.ia], pts[d.ib]
    y1 = d.h_ad * (root * k.a) * xa + d.h_bd * (root * k.b) * xb + d.z_d1
    y2 = d.h_ad * (root * k.c) * xa + d.h_bd * (root * k.d) * xb + d.h_rd * root * pts[relay_sent] + d.z_d2

    frames = (y1, y2, d.h_ad, d.h_bd, d.h_rd, k, pts, cells)
    fast = np.stack(fast_decode(*frames), axis=1).tolist()
    batch = np.stack(novel_decode_exhaustive_batch(*frames), axis=1).tolist()
    for i in range(FRAMES):
        inp = DecodeInput(
            y_d1=complex(y1[i]), y_d2=complex(y2[i]), h_ad=complex(d.h_ad[i]), h_bd=complex(d.h_bd[i]),
            h_rd=complex(d.h_rd[i]), constants=k, signal_set=s, relay_map=f,
        )
        want = list(novel_decode_exhaustive(inp))
        assert fast[i] == want, f"frame {i}"
        assert batch[i] == want, f"frame {i}"
        if k.es == 1.0:
            assert want[2] is False


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
    k = spec.constants_at(snr_db)
    s = spec.signal_set()
    f = spec.relay_map()
    cfg = make_cfnc_config(s, cmath.exp(1j * math.pi / m))
    pts = np.asarray(s.points, dtype=np.complex128)
    cells = np.asarray(f.cells, dtype=np.int64)
    d = draw_batch(np.random.Generator(philox_bits(seed, 0)), spec.profile, m, FRAMES)
    rx = transmit(d, k, pts, *spec.relay_tables())

    frames = (rx.y_d1, rx.y_d2, d.h_ad, d.h_bd, d.h_rd, k, pts)
    naive = np.stack(joint_min_distance(*frames, pts[cells])[:2], axis=1).tolist()
    combining = np.stack(joint_min_distance(*frames, cfg.relay_points(pts))[:2], axis=1).tolist()
    for i in range(FRAMES):
        _, _, h, _, _, _ = d.frame(i)
        assert relay_ml_decode(complex(rx.y_r[i]), h, k, s) == (int(rx.relay_a[i]), int(rx.relay_b[i])), f"frame {i}"
        y1, y2 = complex(rx.y_d1[i]), complex(rx.y_d2[i])
        inp = DecodeInput(
            y_d1=y1, y_d2=y2, h_ad=h.h_ad, h_bd=h.h_bd, h_rd=h.h_rd, constants=k, signal_set=s, relay_map=f,
        )
        scan = min((metric_m1(inp, s.points[ia], s.points[ib]), ia, ib) for ia in range(m) for ib in range(m))
        assert naive[i] == [scan[1], scan[2]], f"frame {i}"
        assert tuple(combining[i]) == destination_oracle(y1, y2, h, k, s, cfg), f"frame {i}"
