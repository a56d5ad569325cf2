import cmath
import math

import numpy as np
import pytest

from marc_pnc.cfnc import DEFAULT_THETA, make_cfnc_config
from marc_pnc.channel import ChannelRealization, PROFILE_PRESETS
from marc_pnc.destination import joint_min_distance
from marc_pnc.montecarlo import BatchDraws, SweepSpec, draw_batch, transmit
from marc_pnc.numerics import philox_stream
from marc_pnc.scheme import example1_constants
from marc_pnc.signalset import make_psk
from oracles import one_channel, one_gaussian

S4 = make_psk(4)
#: The 4-PSK baseline with the default coefficient, as sweeps run it: the
#: stage arguments after the constants, (pts, code, constellation).
_, *CFNC4 = SweepSpec((0.0,), 1, PROFILE_PRESETS["equal"], decoder="cfnc").scheme_at(0.0)


def relay_and_decode(d: BatchDraws, k):
    """Relay and decode frames through the sweep engine's cfnc path;
    returns what the relay and the destination decided."""
    rx = transmit(d, k, *CFNC4)
    da, db, _ = joint_min_distance(rx.y_d1, rx.y_d2, d.h_ad, d.h_bd, d.h_rd, k, *CFNC4)
    return rx, da, db


def accepts(pts, theta) -> bool:
    """True if make_cfnc_config returns for theta on pts, False if it
    rejects theta for collapsing distinct pairs."""
    try:
        make_cfnc_config(pts, theta)
    except ValueError as exc:
        assert "collapses distinct pairs" in str(exc)
        return False
    return True


class TestUniqueness:
    def test_default_theta_on_qpsk(self):
        assert accepts(S4, DEFAULT_THETA)
        # brute-force confirmation
        sums = [xa + DEFAULT_THETA * xb for xa in S4.tolist() for xb in S4.tolist()]
        assert all(abs(sums[i] - sums[j]) > 1e-9 for i in range(16) for j in range(16) if i != j)

    def test_theta_one_collides(self):
        # (1, -1) and (-1, 1) both combine to 0
        assert not accepts(S4, 1.0 + 0.0j)

    def test_bpsk_with_imaginary_theta(self):
        assert accepts(make_psk(2), 1j)

    def test_8psk_needs_off_lattice_theta(self):
        # the default coefficient is an 8th root of unity: on 8-PSK the
        # rotation maps the constellation to itself and pairs collide
        s8 = make_psk(8)
        assert not accepts(s8, DEFAULT_THETA)
        half_step = complex(math.cos(math.pi / 8), math.sin(math.pi / 8))
        assert accepts(s8, half_step)

    def test_make_config_rejects_collisions(self):
        with pytest.raises(ValueError, match="collapses"):
            make_cfnc_config(S4, theta=1.0 + 0.0j)

    def test_config_invariants(self):
        with pytest.raises(ValueError, match=r"\|theta\| must be 1"):
            make_cfnc_config(S4, 2.0 + 0.0j)
        with pytest.raises(ValueError, match="finite"):
            make_cfnc_config(S4, complex(math.nan, 0.0))

    @pytest.mark.parametrize("theta", [complex(math.inf, 0.0), complex(math.nan, 0.0), complex(0.0, -math.inf)])
    def test_make_config_rejects_a_non_finite_theta(self, theta):
        # rejected as such, before the uniqueness scan computes with it
        with pytest.raises(ValueError, match="theta must be finite"):
            make_cfnc_config(S4, theta)

    @pytest.mark.parametrize("m", [2, 4, 8, 16])
    @pytest.mark.parametrize("case", ["theta=1", "default-theta", "half-step"])
    def test_matches_pairwise_scan(self, m, case):
        theta, distinct = {
            # (a, b) and (b, a) combine alike
            "theta=1": (1.0 + 0.0j, False),
            # the default rotates 8-PSK and 16-PSK onto themselves
            "default-theta": (DEFAULT_THETA, m < 8),
            "half-step": (cmath.exp(1j * math.pi / m), True),
        }[case]
        pts = make_psk(m)
        sums = [xa + theta * xb for xa in pts.tolist() for xb in pts.tolist()]
        pairwise = all(abs(sums[i] - sums[j]) > 1e-9 for i in range(m * m) for j in range(i + 1, m * m))
        assert pairwise == distinct
        assert accepts(pts, theta) == distinct


class TestRelayConstellation:
    def test_power_norm_gives_unit_mean_energy(self):
        power_norm, constellation = make_cfnc_config(S4, DEFAULT_THETA)
        assert power_norm == pytest.approx(1.0 / math.sqrt(2.0))
        energies = [abs(z) ** 2 for z in constellation.tolist()]
        assert sum(energies) / 16 == pytest.approx(1.0)

    def test_m_squared_distinct_points(self):
        _, constellation = make_cfnc_config(S4, DEFAULT_THETA)
        pts = {(round(z.real, 9), round(z.imag, 9)) for z in constellation.tolist()}
        assert len(pts) == 16


def destination_oracle(y_d1, y_d2, h, k, points, theta, power_norm):
    """Independent joint scan sorted by (metric, ia, ib)."""
    root = math.sqrt(k.es)
    rows = []
    for ia, xa in enumerate(points):
        for ib, xb in enumerate(points):
            comb = power_norm * (xa + theta * xb)
            d = (
                abs(y_d1 - h.h_ad * root * k.a * xa - h.h_bd * root * k.b * xb) ** 2
                + abs(y_d2 - h.h_ad * root * k.c * xa - h.h_bd * root * k.d * xb - h.h_rd * root * comb) ** 2
            )
            rows.append((d, ia, ib))
    rows.sort()
    return rows[0][1], rows[0][2]


class TestCfncFrames:
    def test_noiseless_frame_decodes_truth(self):
        k = example1_constants(4.0)
        h = ChannelRealization(0.9, 1.1, 0.8 - 0.1j, 1.2 + 0.4j, 0.6 + 0.7j)
        pairs = np.arange(16)
        fades = {name: np.full(16, complex(getattr(h, name))) for name in ("h_ar", "h_br", "h_ad", "h_bd", "h_rd")}
        noise = {name: np.zeros(16, dtype=complex) for name in ("z_r", "z_d1", "z_d2")}
        d = BatchDraws(ia=pairs // 4, ib=pairs % 4, **fades, **noise)
        rx, da, db = relay_and_decode(d, k)
        assert np.array_equal(rx.relay_a, d.ia) and np.array_equal(rx.relay_b, d.ib)
        assert np.array_equal(da, d.ia) and np.array_equal(db, d.ib)
        assert not rx.nc_wrong.any()

    def test_destination_matches_grid_oracle(self):
        power_norm, _ = make_cfnc_config(S4, DEFAULT_THETA)
        k = example1_constants(6.0)
        rng = philox_stream(300, 0)
        frames = []
        for _ in range(1000):
            h = one_channel(rng, PROFILE_PRESETS["equal"])
            y_d1 = one_gaussian(rng, 4.0)
            y_d2 = one_gaussian(rng, 4.0)
            frames.append((y_d1, y_d2, h))
        columns = (np.array(c) for c in zip(*((y1, y2, h.h_ad, h.h_bd, h.h_rd) for y1, y2, h in frames)))
        da, db, _ = joint_min_distance(*columns, k, *CFNC4)
        for (y_d1, y_d2, h), out in zip(frames, zip(da.tolist(), db.tolist())):
            assert out == destination_oracle(y_d1, y_d2, h, k, S4.tolist(), DEFAULT_THETA, power_norm)

    def test_noisy_frames_mostly_correct_at_high_snr(self):
        k = example1_constants(10**3.0)
        d = draw_batch(philox_stream(301, 0), PROFILE_PRESETS["equal"], 4, 300)
        _, da, db = relay_and_decode(d, k)
        errors = np.count_nonzero((da != d.ia) | (db != d.ib))
        assert errors < 30
