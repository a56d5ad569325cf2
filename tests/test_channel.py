import math

import numpy as np
import pytest

from marc_pnc.channel import PROFILE_PRESETS, ChannelRealization, FadingProfile, db_to_linear
from marc_pnc.numerics import complex_gaussian, philox_stream
from marc_pnc.scheme import example1_constants
from marc_pnc.signalset import make_psk
from oracles import one_channel, phase1, phase2

INV = 1.0 / math.sqrt(2.0)


def random_realization(gen) -> ChannelRealization:
    vals = [complex(*gen.standard_normal(2)) * INV for _ in range(5)]
    return ChannelRealization(*vals)


class TestProfiles:
    def test_db_conversion(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(10.0) == pytest.approx(10.0)

    def test_presets(self):
        assert PROFILE_PRESETS["equal"].var_rd == 1.0
        assert PROFILE_PRESETS["sr-strong"].var_ar == pytest.approx(10.0)
        assert PROFILE_PRESETS["sr-strong"].var_rd == 1.0
        assert PROFILE_PRESETS["rd-strong"].var_rd == pytest.approx(10.0)

    def test_positive_variances_required(self):
        with pytest.raises(ValueError):
            FadingProfile(1.0, 1.0, 0.0, 1.0, 1.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="var_bd must be finite"):
                FadingProfile(1.0, 1.0, 1.0, bad, 1.0)


class TestSampleChannel:
    def test_determinism(self):
        p = PROFILE_PRESETS["equal"]
        assert one_channel(philox_stream(4, 2), p) == one_channel(philox_stream(4, 2), p)

    def test_unit_variance_moment(self):
        # batched draws share the distribution of the per-field samples
        z = complex_gaussian(philox_stream(11, 0), 1.0, 10**6)
        assert 0.99 <= float(np.mean(np.abs(z) ** 2)) <= 1.01

    def test_strong_link_moment(self):
        z = complex_gaussian(philox_stream(12, 0), db_to_linear(10.0), 10**6)
        assert 9.9 <= float(np.mean(np.abs(z) ** 2)) <= 10.1

    def test_per_link_variances_scalar_path(self):
        p = PROFILE_PRESETS["rd-strong"]
        rng = philox_stream(13, 0)
        draws = [one_channel(rng, p) for _ in range(20000)]
        mean_rd = sum(abs(h.h_rd) ** 2 for h in draws) / len(draws)
        mean_ad = sum(abs(h.h_ad) ** 2 for h in draws) / len(draws)
        assert mean_rd == pytest.approx(10.0, rel=0.05)
        assert mean_ad == pytest.approx(1.0, rel=0.05)


class TestPhases:
    def test_phase1_noiseless_example(self):
        k = example1_constants(1.0)
        h = ChannelRealization(1.0, 1.0, 0.5, 0.5, 1.0)
        y_r, _ = phase1(k, h, 1.0, 1j, 0.0, 0.0)
        assert y_r == pytest.approx(1.0 + 1j * INV, abs=1e-15)

    def test_zero_channel_passes_noise_through(self):
        k = example1_constants(4.0)
        h = ChannelRealization(0.0, 0.0, 0.0, 0.0, 0.0)
        y_r, y_d1 = phase1(k, h, 1.0, 1.0, 0.25 + 1j, -2.0)
        assert (y_r, y_d1) == (0.25 + 1j, -2.0)
        assert phase2(k, h, 1.0, 1.0, 1.0, 3j) == 3j

    def test_signal_scales_with_sqrt_energy(self):
        k1 = example1_constants(1.0)
        k4 = example1_constants(4.0)
        h = ChannelRealization(1 + 1j, 0.3j, -0.2, 0.7, 1.1)
        y1, _ = phase1(k1, h, 1j, -1.0, 0.0, 0.0)
        y4, _ = phase1(k4, h, 1j, -1.0, 0.0, 0.0)
        assert y4 == pytest.approx(2.0 * y1, abs=1e-15)

    def test_phase2_no_first_source_term_when_c_zero(self):
        k = example1_constants(1.0)
        h = ChannelRealization(0.0, 0.0, 123.0, 0.5, 0.25)
        for xa in make_psk(4).tolist():
            assert phase2(k, h, xa, 1.0, 1j, 0.0) == phase2(k, h, 0.0, 1.0, 1j, 0.0)

    def test_phase2_direct_formula(self):
        k = example1_constants(1.0)
        h = ChannelRealization(0.0, 0.0, 0.0, 1.0, 1.0)
        assert phase2(k, h, 1.0, 1.0, -1.0, 0.0) == pytest.approx(INV - 1.0, abs=1e-15)


class TestMatrixFormConsistency:
    def test_scalar_vs_matrix_formulation(self):
        # y_D row vector must equal sqrt(es) * h * C(xa, xb, xr) + z
        from marc_pnc.scheme import codeword_matrix

        gen = np.random.default_rng(21)
        points = make_psk(4).tolist()
        for _ in range(200):
            k = example1_constants(float(gen.uniform(0.5, 50.0)))
            h = random_realization(gen)
            xa, xb, xr = (points[int(gen.integers(0, 4))] for _ in range(3))
            z1, z2 = (complex(*gen.standard_normal(2)) for _ in range(2))
            _, y_d1 = phase1(k, h, xa, xb, 0.0, z1)
            y_d2 = phase2(k, h, xa, xb, xr, z2)

            prod = np.array([h.h_ad, h.h_bd, h.h_rd]) @ codeword_matrix(k, xa, xb, xr)
            root = math.sqrt(k.es)
            assert abs(y_d1 - (root * prod[0] + z1)) < 1e-12 * root
            assert abs(y_d2 - (root * prod[1] + z2)) < 1e-12 * root

    def test_quasi_static_contract(self):
        # one realization serves both phases: sampling is outside the phase
        # functions, so reusing h trivially keeps it constant; this guards
        # the signature (phases take h, never an rng)
        k = example1_constants(2.0)
        rng = philox_stream(3, 3)
        h = one_channel(rng, PROFILE_PRESETS["equal"])
        y_r1, _ = phase1(k, h, 1.0, 1.0, 0.0, 0.0)
        _ = phase2(k, h, 1.0, 1.0, 1.0, 0.0)
        y_r2, _ = phase1(k, h, 1.0, 1.0, 0.0, 0.0)
        assert y_r1 == y_r2
