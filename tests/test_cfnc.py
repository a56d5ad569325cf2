import math

import pytest

from marc_pnc.cfnc import (
    DEFAULT_THETA,
    CfncConfig,
    cfnc_destination_decode,
    cfnc_run_frame,
    check_cfnc_uniqueness,
    make_cfnc_config,
    relay_combined_symbol,
)
from marc_pnc.channel import ChannelRealization, PROFILE_PRESETS, sample_channel
from marc_pnc.destination import DecodeInput, decode_frame
from marc_pnc.numerics import RngStream
from marc_pnc.scheme import example1_constants
from marc_pnc.signalset import make_psk

S4 = make_psk(4)


class TestUniqueness:
    def test_default_theta_on_qpsk(self):
        assert check_cfnc_uniqueness(S4, DEFAULT_THETA)
        # brute-force confirmation
        sums = [xa + DEFAULT_THETA * xb for xa in S4.points for xb in S4.points]
        assert all(abs(sums[i] - sums[j]) > 1e-9 for i in range(16) for j in range(16) if i != j)

    def test_theta_one_collides(self):
        # (1, -1) and (-1, 1) both combine to 0
        assert not check_cfnc_uniqueness(S4, 1.0 + 0.0j)

    def test_bpsk_with_imaginary_theta(self):
        assert check_cfnc_uniqueness(make_psk(2), 1j)

    def test_8psk_needs_off_lattice_theta(self):
        # the default coefficient is an 8th root of unity: on 8-PSK the
        # rotation maps the constellation to itself and pairs collide
        s8 = make_psk(8)
        assert not check_cfnc_uniqueness(s8, DEFAULT_THETA)
        half_step = complex(math.cos(math.pi / 8), math.sin(math.pi / 8))
        assert check_cfnc_uniqueness(s8, half_step)

    def test_make_config_rejects_collisions(self):
        with pytest.raises(ValueError, match="collapses"):
            make_cfnc_config(S4, theta=1.0 + 0.0j)

    def test_config_invariants(self):
        with pytest.raises(ValueError, match="theta"):
            CfncConfig(theta=2.0 + 0.0j, power_norm=1.0)
        with pytest.raises(ValueError, match="power_norm"):
            CfncConfig(theta=1j, power_norm=0.0)


class TestRelayConstellation:
    def test_power_norm_gives_unit_mean_energy(self):
        cfg = make_cfnc_config(S4)
        assert cfg.power_norm == pytest.approx(1.0 / math.sqrt(2.0))
        energies = [abs(relay_combined_symbol(cfg, S4, ia, ib)) ** 2 for ia in range(4) for ib in range(4)]
        assert sum(energies) / 16 == pytest.approx(1.0)

    def test_m_squared_distinct_points(self):
        cfg = make_cfnc_config(S4)
        pts = {
            (round(relay_combined_symbol(cfg, S4, ia, ib).real, 9), round(relay_combined_symbol(cfg, S4, ia, ib).imag, 9))
            for ia in range(4)
            for ib in range(4)
        }
        assert len(pts) == 16


def destination_oracle(y_d1, y_d2, h, k, s, cfg):
    """Independent joint scan sorted by (metric, ia, ib)."""
    root = math.sqrt(k.es)
    rows = []
    for ia, xa in enumerate(s.points):
        for ib, xb in enumerate(s.points):
            comb = cfg.power_norm * (xa + cfg.theta * xb)
            d = (
                abs(y_d1 - h.h_ad * root * k.a * xa - h.h_bd * root * k.b * xb) ** 2
                + abs(y_d2 - h.h_ad * root * k.c * xa - h.h_bd * root * k.d * xb - h.h_rd * root * comb) ** 2
            )
            rows.append((d, ia, ib))
    rows.sort()
    return rows[0][1], rows[0][2]


class TestCfncFrames:
    def test_noiseless_frame_decodes_truth(self):
        cfg = make_cfnc_config(S4)
        k = example1_constants(4.0)
        h = ChannelRealization(0.9, 1.1, 0.8 - 0.1j, 1.2 + 0.4j, 0.6 + 0.7j)
        for ia in range(4):
            for ib in range(4):
                out, relay_pair = cfnc_run_frame(ia, ib, h, k, S4, cfg, 0.0, 0.0, 0.0)
                assert relay_pair == (ia, ib)
                assert (out.xa_idx, out.xb_idx) == (ia, ib)

    def test_destination_matches_grid_oracle(self):
        cfg = make_cfnc_config(S4)
        k = example1_constants(6.0)
        rng = RngStream(300, 0)
        for _ in range(1000):
            h = sample_channel(rng, PROFILE_PRESETS["equal"])
            y_d1 = rng.gaussian(4.0)
            y_d2 = rng.gaussian(4.0)
            inp = DecodeInput(y_d1=y_d1, y_d2=y_d2, h_ad=h.h_ad, h_bd=h.h_bd, h_rd=h.h_rd, constants=k, signal_set=S4)
            out = decode_frame(cfnc_destination_decode, inp, relay=cfg)
            assert (out.xa_idx, out.xb_idx) == destination_oracle(y_d1, y_d2, h, k, S4, cfg)

    def test_noisy_frames_mostly_correct_at_high_snr(self):
        cfg = make_cfnc_config(S4)
        k = example1_constants(10**3.0)
        rng = RngStream(301, 0)
        errors = 0
        for _ in range(300):
            ia, ib = rng.index(4), rng.index(4)
            h = sample_channel(rng, PROFILE_PRESETS["equal"])
            out, _ = cfnc_run_frame(ia, ib, h, k, S4, cfg, rng.gaussian(1.0), rng.gaussian(1.0), rng.gaussian(1.0))
            errors += (out.xa_idx, out.xb_idx) != (ia, ib)
        assert errors < 30
