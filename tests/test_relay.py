import math

import numpy as np

from marc_pnc.channel import ChannelRealization
from marc_pnc.relay import relay_ml_decode
from marc_pnc.scheme import example1_constants
from marc_pnc.signalset import make_psk


def grid_oracle(y_r, h, k, points):
    """Independent argmin: enumerate all pairs and sort by (distance, ia, ib)."""
    root = math.sqrt(k.es)
    rows = []
    for ia, xa in enumerate(points):
        for ib, xb in enumerate(points):
            d = abs(y_r - h.h_ar * root * k.a * xa - h.h_br * root * k.b * xb) ** 2
            rows.append((d, ia, ib))
    rows.sort()
    return rows[0][1], rows[0][2]


def batch_decode(frames, k, points):
    """The batch relay search on frames ``(y_r, h, ...)``, as a list of pairs."""
    y_r, h_ar, h_br = (np.array(c, dtype=np.complex128) for c in zip(*((y, h.h_ar, h.h_br) for y, h, *_ in frames)))
    ra, rb = relay_ml_decode(y_r, h_ar, h_br, k, np.array(points))
    return list(zip(ra.tolist(), rb.tolist()))


def random_frame(gen, k, points, noisy=True):
    h = ChannelRealization(*(complex(*gen.standard_normal(2)) / math.sqrt(2) for _ in range(5)))
    ia, ib = (int(v) for v in gen.integers(0, len(points), size=2))
    z = complex(*gen.standard_normal(2)) / math.sqrt(2) if noisy else 0.0
    root = math.sqrt(k.es)
    y_r = h.h_ar * root * k.a * points[ia] + h.h_br * root * k.b * points[ib] + z
    return y_r, h, ia, ib


class TestRelayMlDecode:
    def test_noiseless_recovery(self):
        gen = np.random.default_rng(17)
        k = example1_constants(1.0)
        points = make_psk(4).tolist()
        frames = [random_frame(gen, k, points, noisy=False) for _ in range(500)]
        assert batch_decode(frames, k, points) == [(ia, ib) for _, _, ia, ib in frames]

    def test_dead_second_link_tie_break(self):
        # with h_br = 0 every candidate for source B is equivalent, so ties
        # resolve to index 0; source A still decodes exactly
        k = example1_constants(1.0)
        points = make_psk(4).tolist()
        h = ChannelRealization(h_ar=0.8 - 0.3j, h_br=0.0, h_ad=1.0, h_bd=1.0, h_rd=1.0)
        frames = [(h.h_ar * k.a * points[ia], h) for ia in range(4)]
        assert batch_decode(frames, k, points) == [(ia, 0) for ia in range(4)]

    def test_matches_grid_oracle_on_noisy_frames(self):
        gen = np.random.default_rng(18)
        k = example1_constants(8.0)
        points = make_psk(4).tolist()
        frames = [random_frame(gen, k, points) for _ in range(1000)]
        assert batch_decode(frames, k, points) == [grid_oracle(y_r, h, k, points) for y_r, h, _, _ in frames]

    def test_abs_and_squared_abs_agree(self):
        gen = np.random.default_rng(19)
        k = example1_constants(2.0)
        points = make_psk(4).tolist()
        root = math.sqrt(k.es)
        frames = [random_frame(gen, k, points) for _ in range(300)]
        for (y_r, h, _, _), pair in zip(frames, batch_decode(frames, k, points)):
            rows = []
            for ia, xa in enumerate(points):
                for ib, xb in enumerate(points):
                    d = abs(y_r - h.h_ar * root * k.a * xa - h.h_br * root * k.b * xb)
                    rows.append((d, ia, ib))
            rows.sort()
            assert pair == (rows[0][1], rows[0][2])
