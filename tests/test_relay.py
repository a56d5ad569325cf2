import math

import numpy as np

from marc_pnc.channel import ChannelRealization
from marc_pnc.netmap import apply_map, modulo_latin, xor_latin
from marc_pnc.relay import relay_forward, relay_ml_decode
from marc_pnc.scheme import example1_constants
from marc_pnc.signalset import make_psk


def grid_oracle(y_r, h, k, s):
    """Independent argmin: enumerate all pairs and sort by (distance, ia, ib)."""
    root = math.sqrt(k.es)
    rows = []
    for ia, xa in enumerate(s.points):
        for ib, xb in enumerate(s.points):
            d = abs(y_r - h.h_ar * root * k.a * xa - h.h_br * root * k.b * xb) ** 2
            rows.append((d, ia, ib))
    rows.sort()
    return rows[0][1], rows[0][2]


def random_frame(gen, k, s, noisy=True):
    h = ChannelRealization(*(complex(*gen.standard_normal(2)) / math.sqrt(2) for _ in range(5)))
    ia, ib = (int(v) for v in gen.integers(0, s.m, size=2))
    z = complex(*gen.standard_normal(2)) / math.sqrt(2) if noisy else 0.0
    root = math.sqrt(k.es)
    y_r = h.h_ar * root * k.a * s.points[ia] + h.h_br * root * k.b * s.points[ib] + z
    return y_r, h, ia, ib


class TestRelayMlDecode:
    def test_noiseless_recovery(self):
        gen = np.random.default_rng(17)
        k = example1_constants(1.0)
        s = make_psk(4)
        for _ in range(500):
            y_r, h, ia, ib = random_frame(gen, k, s, noisy=False)
            assert relay_ml_decode(y_r, h, k, s) == (ia, ib)

    def test_dead_second_link_tie_break(self):
        # with h_br = 0 every candidate for source B is equivalent, so ties
        # resolve to index 0; source A still decodes exactly
        k = example1_constants(1.0)
        s = make_psk(4)
        h = ChannelRealization(h_ar=0.8 - 0.3j, h_br=0.0, h_ad=1.0, h_bd=1.0, h_rd=1.0)
        for ia in range(4):
            y_r = h.h_ar * k.a * s.points[ia]
            assert relay_ml_decode(y_r, h, k, s) == (ia, 0)

    def test_matches_grid_oracle_on_noisy_frames(self):
        gen = np.random.default_rng(18)
        k = example1_constants(8.0)
        s = make_psk(4)
        for _ in range(1000):
            y_r, h, _, _ = random_frame(gen, k, s)
            assert relay_ml_decode(y_r, h, k, s) == grid_oracle(y_r, h, k, s)

    def test_abs_and_squared_abs_agree(self):
        gen = np.random.default_rng(19)
        k = example1_constants(2.0)
        s = make_psk(4)
        root = math.sqrt(k.es)
        for _ in range(300):
            y_r, h, _, _ = random_frame(gen, k, s)
            rows = []
            for ia, xa in enumerate(s.points):
                for ib, xb in enumerate(s.points):
                    d = abs(y_r - h.h_ar * root * k.a * xa - h.h_br * root * k.b * xb)
                    rows.append((d, ia, ib))
            rows.sort()
            assert relay_ml_decode(y_r, h, k, s) == (rows[0][1], rows[0][2])


class TestRelayForward:
    def test_modulo_cell(self):
        s = make_psk(4)
        assert relay_forward((1, 2), modulo_latin(4), s) == s.points[3]

    def test_origin(self):
        s = make_psk(4)
        assert relay_forward((0, 0), modulo_latin(4), s) == s.points[0]

    def test_output_alphabet_has_m_points(self):
        s = make_psk(8)
        for f in (modulo_latin(8), xor_latin(8)):
            outputs = {relay_forward((ia, ib), f, s) for ia in range(8) for ib in range(8)}
            assert len(outputs) == 8

    def test_decision_invariant(self):
        gen = np.random.default_rng(20)
        k = example1_constants(4.0)
        s = make_psk(4)
        f = modulo_latin(4)
        for _ in range(50):
            y_r, h, _, _ = random_frame(gen, k, s)
            dec = relay_ml_decode(y_r, h, k, s)
            assert relay_forward(dec, f, s) == apply_map(f, s, *dec)
