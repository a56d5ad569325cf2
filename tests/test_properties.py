"""Property tests: the O(M^2) fast decoder equals the exhaustive rule, frame
for frame, across the admissible space.

The space is every Hurwitz-Radon pairing the fast decoder accepts, with
arbitrary phases: c = 0 with |a| = 1 (A pairs with the relay), or d = 0
with |b| = 1 (B pairs, and the decoder swaps the source roles); M in
{2, 4, 8, 16}; both relay maps; and SNR in [0, 40] dB, with 0 dB (es = 1,
where the tie rule labels every frame RELAY_ERROR) drawn on purpose.
Each example decodes a handful of frames whose relay symbol is a uniform
draw, so it is the network-coded one about 1/M of the time and a relay
error otherwise, and both branches are exercised at every SNR.
"""

import cmath
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from marc_pnc.channel import PROFILE_PRESETS, db_to_linear
from marc_pnc.destination import (
    Branch,
    DecodeInput,
    fast_decode,
    novel_decode_exhaustive,
    novel_decode_exhaustive_batch,
    role_swap,
)
from marc_pnc.montecarlo import draw_batch
from marc_pnc.netmap import modulo_latin, xor_latin
from marc_pnc.numerics import philox_bits
from marc_pnc.scheme import SchemeConstants
from marc_pnc.signalset import make_psk

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
        ref = novel_decode_exhaustive(inp)
        want = [ref.xa_idx, ref.xb_idx, int(ref.branch is Branch.RELAY_CORRECT)]
        assert fast[i] == want, f"frame {i}"
        assert batch[i] == want, f"frame {i}"
        if k.es == 1.0:
            assert ref.branch is Branch.RELAY_ERROR
