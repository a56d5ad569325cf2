import cmath
import math
import threading

import numpy as np
import pytest

from marc_pnc import montecarlo
from marc_pnc.cfnc import cfnc_destination_decode
from marc_pnc.channel import PROFILE_PRESETS, ChannelRealization
from marc_pnc.destination import (
    Branch,
    DecodeInput,
    HrOrthogonalityError,
    fast_decode,
    metric_m1,
    min_euclidean_decode,
    novel_decode_exhaustive,
    novel_decode_exhaustive_batch,
)
from marc_pnc.montecarlo import (
    BATCH_SIZE,
    THREADS_ENV_VAR,
    SweepSpec,
    thread_count,
    draw_batch,
    run_frame,
    run_sweep,
)
from marc_pnc.numerics import RngStream, philox_bits
from marc_pnc.relay import relay_ml_decode, relay_ml_decode_batch
from marc_pnc.sweepio import curve_to_csv
from test_cfnc import destination_oracle

EQUAL = PROFILE_PRESETS["equal"]
INV = 1.0 / math.sqrt(2.0)
# d = 0: only the B and relay weight matrices are Hurwitz-Radon orthogonal,
# so the fast decoder runs with the source roles swapped.
ROLE_SWAP_CONSTANTS = (INV + 0j, 1.0 + 0j, INV + 0j, 0j)


def small_spec(**kw) -> SweepSpec:
    args = dict(snr_points_db=(10.0,), trials_per_point=50_000, profile=EQUAL, decoder="fast", seed=77)
    args.update(kw)
    return SweepSpec(**args)


class TestSweepSpec:
    def test_grid_must_ascend(self):
        with pytest.raises(ValueError, match="ascending"):
            small_spec(snr_points_db=(10.0, 5.0))

    def test_aware_decoders_need_nonnegative_snr(self):
        with pytest.raises(ValueError, match=">= 0 dB"):
            small_spec(snr_points_db=(-5.0, 10.0))
        # the naive decoder has no such floor
        small_spec(snr_points_db=(-5.0, 10.0), decoder="min-euclid")

    def test_unknown_decoder_and_map(self):
        with pytest.raises(ValueError, match="decoder"):
            small_spec(decoder="zf")
        with pytest.raises(ValueError, match="map_kind"):
            small_spec(map_kind="latin")

    def test_invalid_constants_rejected(self):
        with pytest.raises(ValueError):
            small_spec(constants=(1.0 + 0j, 1.0 + 0j, 1.0 + 0j, 0.0j))

    @pytest.mark.parametrize("m", [0, 1, 3, 6, 12])
    def test_m_must_be_power_of_two(self, m):
        with pytest.raises(ValueError, match="power of two"):
            small_spec(m=m)

    def test_fast_decoder_needs_an_hr_pairing(self):
        neither = (INV + 0j, INV + 0j, INV + 0j, INV * 1j)
        with pytest.raises(HrOrthogonalityError):
            small_spec(constants=neither)
        small_spec(constants=neither, decoder="novel-exhaustive")
        small_spec(constants=ROLE_SWAP_CONSTANTS, m=8, map_kind="xor")

    def test_cfnc_theta_must_keep_pairs_distinct(self):
        # the default coefficient is an 8th root of unity and collides on 8-PSK
        with pytest.raises(ValueError, match="collapses"):
            small_spec(decoder="cfnc", m=8)
        small_spec(decoder="cfnc", m=8, theta=cmath.exp(1j * math.pi / 8))


class TestRunFrame:
    def test_determinism(self):
        spec = small_spec()
        seq_a = [run_frame(spec, 10.0, RngStream(5, i)) for i in range(20)]
        seq_b = [run_frame(spec, 10.0, RngStream(5, i)) for i in range(20)]
        assert seq_a == seq_b

    def test_no_errors_at_extreme_snr(self):
        spec = small_spec()
        for i in range(1000):
            fr = run_frame(spec, 60.0, RngStream(6, i))
            assert not fr.joint_error

    def test_relay_flag_matches_relay_only_resimulation(self):
        # independent phase-1-only replay from the same streams
        spec = small_spec()
        s = spec.signal_set()
        f = spec.relay_map()
        k = spec.constants_at(20.0)
        root = math.sqrt(k.es)
        for i in range(400):
            fr = run_frame(spec, 20.0, RngStream(9, i))
            rng = RngStream(9, i)
            ia = rng.index(4)
            ib = rng.index(4)
            h_ar = rng.gaussian(EQUAL.var_ar)
            h_br = rng.gaussian(EQUAL.var_br)
            rng.gaussian(EQUAL.var_ad), rng.gaussian(EQUAL.var_bd), rng.gaussian(EQUAL.var_rd)
            z_r = rng.gaussian(1.0)
            y_r = h_ar * root * k.a * s.points[ia] + h_br * root * k.b * s.points[ib] + z_r
            h = ChannelRealization(h_ar, h_br, 0.0 + 0j, 0.0 + 0j, 0.0 + 0j)
            pair = relay_ml_decode(y_r, h, k, s)
            assert fr.relay_pair == pair
            assert fr.relay_nc_error == (f.cells[pair[0]][pair[1]] != f.cells[ia][ib])

    def test_cfnc_frame_runs(self):
        spec = small_spec(decoder="cfnc")
        fr = run_frame(spec, 30.0, RngStream(10, 0))
        assert fr.output.branch is Branch.RELAY_CORRECT


def check_batch_kernels_against_oracles(spec, snr_db, n):
    """Draw and relay n frames as simulate_batch does, then hold each batch
    kernel to an independent reference: scalar relay ML for the relay, the
    scalar exhaustive rule for both aware decoders, a metric_m1 scan for
    minimum distance and the grid oracle of test_cfnc for the baseline."""
    s = spec.signal_set()
    f = spec.relay_map()
    pts = np.asarray(s.points)
    cells = np.asarray(f.cells)
    k = spec.constants_at(snr_db)
    cfg = spec.cfnc_config()
    root = math.sqrt(k.es)
    d = draw_batch(np.random.Generator(philox_bits(123, 9)), EQUAL, spec.m, n)
    xa, xb = pts[d.ia], pts[d.ib]
    y_r = d.h_ar * (root * k.a) * xa + d.h_br * (root * k.b) * xb + d.z_r
    y_d1 = d.h_ad * (root * k.a) * xa + d.h_bd * (root * k.b) * xb + d.z_d1
    ra, rb = relay_ml_decode_batch(y_r, d.h_ar, d.h_br, k, pts)
    x_r = pts[cells[ra, rb]]
    y_d2 = d.h_ad * (root * k.c) * xa + d.h_bd * (root * k.d) * xb + d.h_rd * root * x_r + d.z_d2

    frames = (y_d1, y_d2, d.h_ad, d.h_bd, d.h_rd, k, pts)
    fast = np.stack(fast_decode(*frames, cells), axis=1).tolist()
    exhaustive = np.stack(novel_decode_exhaustive_batch(*frames, cells), axis=1).tolist()
    naive = np.stack(min_euclidean_decode(*frames, cells)[:2], axis=1).tolist()
    combining = np.stack(cfnc_destination_decode(*frames, cfg)[:2], axis=1).tolist()

    for i in range(n):
        _, _, h, _, _, _ = d.frame(i)
        assert relay_ml_decode(complex(y_r[i]), h, k, s) == (int(ra[i]), int(rb[i]))
        inp = DecodeInput(y_d1=complex(y_d1[i]), y_d2=complex(y_d2[i]), h_ad=h.h_ad, h_bd=h.h_bd,
                          h_rd=h.h_rd, constants=k, signal_set=s, relay_map=f)
        ref = novel_decode_exhaustive(inp)
        want = [ref.xa_idx, ref.xb_idx, int(ref.branch is Branch.RELAY_CORRECT)]
        assert fast[i] == want
        assert exhaustive[i] == want
        scan = min((metric_m1(inp, s.points[ia], s.points[ib]), ia, ib) for ia in range(s.m) for ib in range(s.m))
        assert naive[i] == [scan[1], scan[2]]
        assert tuple(combining[i]) == destination_oracle(complex(y_d1[i]), complex(y_d2[i]), h, k, s, cfg)


class TestBatchKernels:
    @pytest.mark.parametrize(
        "snr_db,m,map_kind,n",
        [(0.0, 4, "modulo", 700), (14.0, 4, "modulo", 700), (12.0, 8, "xor", 250)],
    )
    def test_vectorised_decoders_match_scalar(self, snr_db, m, map_kind, n):
        # the default combining coefficient is an 8th root of unity and
        # collides on 8-PSK; rotate by half an angular step there
        theta = complex(math.cos(math.pi / m), math.sin(math.pi / m))
        check_batch_kernels_against_oracles(small_spec(m=m, map_kind=map_kind, theta=theta), snr_db, n)

    @pytest.mark.parametrize("snr_db", [0.0, 20.0])
    def test_role_swapped_kernels_match_oracles(self, snr_db):
        spec = small_spec(m=8, map_kind="xor", constants=ROLE_SWAP_CONSTANTS, theta=cmath.exp(1j * math.pi / 8))
        check_batch_kernels_against_oracles(spec, snr_db, 250)


class TestRunSweep:
    def test_trial_cap_respected_exactly(self):
        spec = small_spec(trials_per_point=BATCH_SIZE + 123, error_target=10**9)
        curve = run_sweep(spec)
        assert curve.points[0].trials == BATCH_SIZE + 123

    def test_early_stop_on_error_target(self):
        spec = small_spec(snr_points_db=(0.0,), trials_per_point=10**7, error_target=500)
        curve = run_sweep(spec)
        p = curve.points[0]
        assert p.errors >= 500
        assert p.trials < 10**7

    def test_deterministic_repeat(self):
        spec = small_spec(snr_points_db=(6.0, 12.0), trials_per_point=70_000, error_target=10**9)
        assert run_sweep(spec) == run_sweep(spec)

    def test_thread_count_from_env(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "3")
        assert thread_count() == 3
        assert thread_count(2) == 2
        monkeypatch.delenv(THREADS_ENV_VAR)
        assert thread_count() == 1

    def test_malformed_thread_env_names_the_variable(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "two")
        with pytest.raises(ValueError, match=THREADS_ENV_VAR):
            thread_count()

    def test_failed_batch_leaves_no_pool_threads(self, monkeypatch):
        def fail(*args):
            raise RuntimeError("batch failed")

        monkeypatch.setattr(montecarlo, "simulate_batch", fail)
        # two batches per round, so the round goes through the pool
        spec = small_spec(trials_per_point=2 * BATCH_SIZE, error_target=10**9)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="batch failed"):
            run_sweep(spec, threads=2)
        assert threading.active_count() == before

    def test_thread_count_does_not_change_results(self):
        spec = small_spec(snr_points_db=(8.0,), trials_per_point=200_000, error_target=10**9)
        c1 = run_sweep(spec, threads=1)
        c3 = run_sweep(spec, threads=3)
        assert c1 == c3
        assert curve_to_csv(c1) == curve_to_csv(c3)

    def test_count_identities(self):
        # law of total probability holds exactly on the counters
        spec = small_spec(snr_points_db=(4.0, 10.0), trials_per_point=100_000, error_target=10**9)
        for p in run_sweep(spec).points:
            assert p.errors == p.errors_relay_correct + p.errors_relay_wrong
            assert p.errors >= max(p.errors_a, p.errors_b)
            assert 0 <= p.relay_wrong <= p.trials

    def test_monotone_sep_in_snr(self):
        spec = small_spec(snr_points_db=(10.0, 30.0), trials_per_point=150_000, error_target=10**9)
        curve = run_sweep(spec)
        assert curve.points[0].sep_joint > curve.points[1].sep_joint

    def test_seed_consistency_within_binomial_noise(self):
        base = small_spec(snr_points_db=(12.0,), trials_per_point=200_000, error_target=10**9)
        p1 = run_sweep(base).points[0]
        p2 = run_sweep(small_spec(snr_points_db=(12.0,), trials_per_point=200_000, error_target=10**9, seed=78)).points[0]
        sigma = math.sqrt(p1.sep_joint * (1 - p1.sep_joint) / p1.trials)
        assert abs(p1.sep_joint - p2.sep_joint) < 3 * sigma * math.sqrt(2)

    def test_absent_conditional_bins_reported_as_none(self):
        spec = small_spec(snr_points_db=(60.0,), trials_per_point=2000, error_target=10**9)
        p = run_sweep(spec).points[0]
        assert p.relay_wrong == 0
        assert p.p_err_rw is None

    def test_decoder_quality_ordering(self):
        # relay-error awareness must beat blind minimum distance
        aware = run_sweep(small_spec(snr_points_db=(22.0,), trials_per_point=150_000, error_target=10**9))
        naive = run_sweep(small_spec(snr_points_db=(22.0,), trials_per_point=150_000, error_target=10**9, decoder="min-euclid"))
        assert aware.points[0].sep_joint < naive.points[0].sep_joint
