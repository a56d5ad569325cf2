import cmath
import dataclasses
import math
import threading

import numpy as np
import pytest

from marc_pnc import montecarlo
from marc_pnc.channel import PROFILE_PRESETS, ChannelRealization, FadingProfile
from marc_pnc.destination import (
    HrOrthogonalityError,
    fast_decode,
    joint_min_distance,
    metric_m1,
    novel_decode_exhaustive,
    novel_decode_exhaustive_batch,
)
from marc_pnc.montecarlo import (
    BATCH_SIZE,
    THREADS_ENV_VAR,
    SweepSpec,
    thread_count,
    draw_batch,
    run_sweep,
    transmit,
)
from marc_pnc.netmap import LATIN_MAPS
from marc_pnc.numerics import philox_stream
from marc_pnc.signalset import make_psk
from marc_pnc.sweepio import curve_to_csv
from oracles import phase1, phase2, scalar_relay_ml_decode
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
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_snr_points_must_be_finite(self, bad):
        with pytest.raises(ValueError, match=f"finite.*{bad}"):
            small_spec(snr_points_db=(10.0, bad))
        with pytest.raises(ValueError, match="finite"):
            small_spec(snr_points_db=(0.0, 10.0, bad), decoder="min-euclid")

    @pytest.mark.parametrize(
        "grid", [lambda: [10.0, 20.0], lambda: (p for p in (10.0, 20.0))], ids=["list", "generator"]
    )
    def test_any_iterable_grid_is_kept_as_the_checked_tuple(self, grid):
        spec = small_spec(snr_points_db=grid(), trials_per_point=64)
        assert spec.snr_points_db == (10.0, 20.0)
        hash(spec)  # a frozen spec holding a list could not be hashed
        assert [p.snr_db for p in run_sweep(spec).points] == [10.0, 20.0]

    def test_grid_must_ascend(self):
        with pytest.raises(ValueError, match="ascending"):
            small_spec(snr_points_db=(10.0, 5.0))

    def test_aware_decoders_need_nonnegative_snr(self):
        with pytest.raises(ValueError, match=">= 0 dB, got -5.0"):
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

    @pytest.mark.parametrize(
        "field, bad",
        [("seed", 1.5), ("trials_per_point", 1000.0), ("m", 4.0), ("error_target", True), ("seed", np.True_)],
    )
    def test_integer_fields_must_be_integers(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            small_spec(**{field: bad})

    def test_integer_fields_accept_numpy_integers(self):
        spec = small_spec(m=np.int64(4), seed=np.uint64(77), trials_per_point=np.int32(1000), error_target=np.int64(10))
        assert spec == small_spec(m=4, seed=77, trials_per_point=1000, error_target=10)
        assert all(type(getattr(spec, f)) is int for f in ("m", "seed", "trials_per_point", "error_target"))
        assert run_sweep(spec).points[0].trials == 1000

    def test_every_snr_point_must_have_a_finite_linear_snr(self):
        # 10^(4000/10) overflows a float; the grid's first point does not
        for decoder in ("fast", "min-euclid"):
            with pytest.raises(ValueError, match="4000.0 dB"):
                small_spec(snr_points_db=(0.0, 4000.0), decoder=decoder)
        small_spec(snr_points_db=(0.0, 3000.0))

    def test_an_snr_whose_squared_metrics_overflow_is_rejected(self):
        # es * largest variance must stay below 1e-4 of the largest float
        for decoder in montecarlo.DECODERS:
            with pytest.raises(ValueError, match="3070.0 dB is too large"):
                small_spec(snr_points_db=(0.0, 3070.0), decoder=decoder)
        with pytest.raises(ValueError, match="2950.0 dB is too large"):
            small_spec(snr_points_db=(2950.0,), profile=FadingProfile.from_db(rd=100.0))
        small_spec(snr_points_db=(2950.0,), profile=FadingProfile.from_db(rd=90.0))

    @pytest.mark.parametrize("profile", [{"var_ar": 1.0}, "equal"])
    def test_profile_must_be_a_fading_profile(self, profile):
        with pytest.raises(ValueError, match="profile must be a FadingProfile"):
            small_spec(profile=profile)

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


def check_batch_kernels_against_oracles(spec, snr_db, n):
    """Draw n frames and relay them through the engine's own phase
    arithmetic (``montecarlo.transmit``), then hold it and each batch kernel
    to an independent reference: scalar ``phase1``/``phase2`` and the Latin
    cells for ``transmit`` (under both the Latin-square and the cfnc relay
    of ``SweepSpec.scheme_at``), scalar relay ML for the relay, the scalar
    exhaustive rule for both aware decoders on both relays, a metric_m1 scan
    for minimum distance and the grid oracle of test_cfnc for the
    baseline."""
    points = make_psk(spec.m).tolist()
    cells = LATIN_MAPS[spec.map_kind](spec.m).tolist()
    cfnc_spec = dataclasses.replace(spec, decoder="cfnc")
    power_norm, _ = cfnc_spec.cfnc_config()
    d = draw_batch(philox_stream(123, 9), EQUAL, spec.m, n)
    latin, cfnc = spec.scheme_at(snr_db), cfnc_spec.scheme_at(snr_db)
    k = latin[0]
    y_r, y_d1, y_d2, ra, rb, nc_wrong = transmit(d, *latin)
    combined = transmit(d, *cfnc)

    frames = (y_d1, y_d2, d.h_ad, d.h_bd, d.h_rd)
    fast = np.stack(fast_decode(*frames, *latin), axis=1).tolist()
    exhaustive = np.stack(novel_decode_exhaustive_batch(*frames, *latin), axis=1).tolist()
    combined_frames = (y_d1, combined.y_d2, d.h_ad, d.h_bd, d.h_rd, *cfnc)
    fast_cfnc = np.stack(fast_decode(*combined_frames), axis=1).tolist()
    exhaustive_cfnc = np.stack(novel_decode_exhaustive_batch(*combined_frames), axis=1).tolist()
    cfnc_code, cfnc_points = (t.tolist() for t in cfnc[2:])
    naive = np.stack(joint_min_distance(*frames, *latin)[:2], axis=1).tolist()
    combining = np.stack(joint_min_distance(*frames, *cfnc)[:2], axis=1).tolist()

    def close(z, want):
        # transmit associates the products differently, so not bit-exact
        return z == pytest.approx(want, rel=1e-12, abs=1e-12)

    fades = zip(d.h_ar.tolist(), d.h_br.tolist(), d.h_ad.tolist(), d.h_bd.tolist(), d.h_rd.tolist())
    for i, h in enumerate(ChannelRealization(*fade) for fade in fades):
        ia, ib = int(d.ia[i]), int(d.ib[i])
        z_r, z_d1, z_d2 = complex(d.z_r[i]), complex(d.z_d1[i]), complex(d.z_d2[i])
        xa, xb = points[ia], points[ib]
        pair = scalar_relay_ml_decode(complex(y_r[i]), h.h_ar, h.h_br, k, points)
        assert pair == (int(ra[i]), int(rb[i]))
        want_r, want_d1 = phase1(k, h, xa, xb, z_r, z_d1)
        assert close(y_r[i], want_r) and close(y_d1[i], want_d1)
        assert close(y_d2[i], phase2(k, h, xa, xb, points[cells[pair[0]][pair[1]]], z_d2))
        assert nc_wrong[i] == (cells[pair[0]][pair[1]] != cells[ia][ib])
        # cfnc: same phase 1, the relay combines its pair injectively
        assert (combined.y_r[i], combined.y_d1[i]) == (y_r[i], y_d1[i])
        assert (int(combined.relay_a[i]), int(combined.relay_b[i])) == pair
        x_r = power_norm * (points[pair[0]] + spec.theta * points[pair[1]])
        assert close(combined.y_d2[i], phase2(k, h, xa, xb, x_r, z_d2))
        assert combined.nc_wrong[i] == (pair != (ia, ib))
        frame = (complex(y_d1[i]), complex(y_d2[i]), h.h_ad, h.h_bd, h.h_rd, k, points, cells, points)
        want = list(novel_decode_exhaustive(*frame))
        assert fast[i] == want
        assert exhaustive[i] == want
        y_cfnc = complex(combined.y_d2[i])
        combined_frame = (complex(y_d1[i]), y_cfnc, h.h_ad, h.h_bd, h.h_rd, k, points, cfnc_code, cfnc_points)
        want = list(novel_decode_exhaustive(*combined_frame))
        assert fast_cfnc[i] == want
        assert exhaustive_cfnc[i] == want
        scan = min((metric_m1(*frame, ia, ib), ia, ib) for ia in range(spec.m) for ib in range(spec.m))
        assert naive[i] == [scan[1], scan[2]]
        assert tuple(combining[i]) == destination_oracle(complex(y_d1[i]), complex(y_d2[i]), h, k, points, spec.theta, power_norm)


class TestBatchKernels:
    @pytest.mark.parametrize(
        "snr_db,m,map_kind,n",
        [(0.0, 4, "modulo", 700), (14.0, 4, "modulo", 700), (12.0, 8, "xor", 250), (0.0, 16, "xor", 40),
         (24.0, 16, "xor", 40)],
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

    @pytest.mark.parametrize("snr_db", [0.0, 16.0])
    def test_role_swapped_kernels_match_oracles_m4(self, snr_db):
        check_batch_kernels_against_oracles(small_spec(constants=ROLE_SWAP_CONSTANTS), snr_db, 500)


class TestChunking:
    @pytest.mark.parametrize("decoder", montecarlo.DECODERS)
    def test_counters_do_not_depend_on_the_chunk_size(self, decoder, monkeypatch):
        # low SNR, so every counter is far from zero
        spec = small_spec(snr_points_db=(4.0,), decoder=decoder)
        n = 2 * montecarlo.CHUNK_SIZE + 3
        chunked = montecarlo.simulate_batch(spec, 4.0, 0, 5, n)
        assert chunked.trials == n and chunked.relay_wrong > 0 and chunked.errors_relay_correct > 0
        monkeypatch.setattr(montecarlo, "CHUNK_SIZE", n)  # one unchunked kernel call per stage
        assert montecarlo.simulate_batch(spec, 4.0, 0, 5, n) == chunked

    @pytest.mark.parametrize(
        "decoder,kernel",
        [("fast", "fast_decode"), ("novel-exhaustive", "novel_decode_exhaustive_batch"),
         ("min-euclid", "joint_min_distance"), ("cfnc", "joint_min_distance")],
    )
    def test_each_chunk_calls_its_kernel_through_this_module(self, decoder, kernel, monkeypatch):
        # the benchmark's trace and TestEquivalenceBattery wrap kernels here
        calls = []

        def counting(name):
            real = getattr(montecarlo, name)

            def call(*args):
                calls.append(name)
                return real(*args)

            return call

        for name in ("fast_decode", "novel_decode_exhaustive_batch", "joint_min_distance"):
            monkeypatch.setattr(montecarlo, name, counting(name))
        monkeypatch.setattr(montecarlo, "CHUNK_SIZE", 100)
        montecarlo.simulate_batch(small_spec(decoder=decoder), 10.0, 0, 0, 250)
        assert calls == [kernel] * 3


class TestEquivalenceBattery:
    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"frames_per_cell": 0}, "frames_per_cell"),
            ({"frames_per_cell": -3}, "frames_per_cell"),
            ({"snr_points_db": ()}, "snr_points_db"),
            ({"snr_points_db": (math.inf,)}, "inf"),
            ({"snr_points_db": (10.0, -0.5)}, "-0.5"),
            ({"snr_points_db": (math.nan,)}, "nan"),
            ({"snr_points_db": (3070.0,), "frames_per_cell": 50}, "3070.0 dB"),
            ({"seed": 1.5}, "seed"),
            ({"snr_points_db": (4000.0,)}, "4000.0 dB"),
            ({"frames_per_cell": 2.5}, "frames_per_cell"),
            ({"frames_per_cell": True}, "frames_per_cell"),
        ],
    )
    def test_bad_arguments_fail_before_drawing(self, kwargs, message, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew frames")

        monkeypatch.setattr(montecarlo, "philox_stream", no_draws)
        with pytest.raises(ValueError, match=message):
            montecarlo.equivalence_battery(**kwargs)

    def test_a_disagreement_is_counted(self, monkeypatch):
        def flip_frame_0_of_each_cell(*args):
            # the three cells of an SNR point share one call, 20 frames each
            a, b, correct = fast_decode(*args)
            correct = correct.copy()
            correct[::20] = ~correct[::20]
            return a, b, correct

        monkeypatch.setattr(montecarlo, "fast_decode", flip_frame_0_of_each_cell)
        report = montecarlo.equivalence_battery(snr_points_db=(10.0,), frames_per_cell=20)
        first_profile = next(iter(PROFILE_PRESETS))
        assert report.frames == 20 * len(PROFILE_PRESETS) == 60
        assert report.mismatches == 3  # frame 0 of each profile's cell
        assert report.first_mismatch.startswith(f"snr=10.0 profile={first_profile} ")

    def test_one_decode_call_per_snr_point_names_the_flipped_frame(self, monkeypatch):
        # Each call holds the three profile cells of one SNR point, in
        # PROFILE_PRESETS order; flip frame 5 of the middle cell at 10 dB.
        calls = []

        def flip_one(*args):
            a, b, correct = fast_decode(*args)
            calls.append((args[5].es, len(a)))
            if len(calls) == 2:
                correct = correct.copy()
                correct[20 + 5] = not correct[20 + 5]
            return a, b, correct

        monkeypatch.setattr(montecarlo, "fast_decode", flip_one)
        report = montecarlo.equivalence_battery(snr_points_db=(0.0, 10.0, 20.0), frames_per_cell=20)
        middle = list(PROFILE_PRESETS)[1]
        assert [n for _, n in calls] == [60, 60, 60]
        assert [es for es, _ in calls] == pytest.approx([1.0, 10.0, 100.0])
        assert (report.frames, report.mismatches) == (180, 1)
        assert report.first_mismatch.startswith(f"snr=10.0 profile={middle} ")

    @pytest.mark.parametrize("snr_db", [20.0, 30.0])
    def test_forced_relay_errors_reach_the_oracle(self, snr_db, monkeypatch):
        # Half of the frames forward a wrong symbol, and at 20 dB and above
        # the relay itself rarely errs, so the oracle must take the
        # relay-error branch on about half of the frames.  Over seeds 5 and
        # 100-109 the share read 0.463-0.511 at 20 dB and 0.477-0.534 at
        # 30 dB; without the forced errors, seed 5 read 0.016 and 0.002.
        branches = []

        def recording(*args):
            result = novel_decode_exhaustive(*args)
            branches.append(result[2])
            return result

        monkeypatch.setattr(montecarlo, "novel_decode_exhaustive", recording)
        montecarlo.equivalence_battery(snr_points_db=(snr_db,), frames_per_cell=300, seed=5)
        assert len(branches) == 900
        assert 0.42 <= branches.count(False) / len(branches) <= 0.58


def record_batches(monkeypatch, errors_at=()):
    """Replace ``simulate_batch`` with a fake that records each call's
    (point, batch, n) and returns n trials, with 10 errors for a
    (point, batch) in ``errors_at`` and none otherwise."""
    calls = []

    def fake(spec, snr_db, point, batch, n):
        calls.append((point, batch, n))
        return montecarlo.SepPoint(snr_db, trials=n, errors=10 if (point, batch) in errors_at else 0)

    monkeypatch.setattr(montecarlo, "simulate_batch", fake)
    return calls


class TestRunSweep:
    def test_batch_schedule_is_full_batches_then_the_remainder(self, monkeypatch):
        calls = record_batches(monkeypatch)
        spec = small_spec(snr_points_db=(0.0, 10.0), trials_per_point=5 * BATCH_SIZE + 123, error_target=10**9)
        curve = run_sweep(spec)
        per_point = [(b, BATCH_SIZE) for b in range(5)] + [(5, 123)]
        assert calls == [(p, b, n) for p in (0, 1) for b, n in per_point]
        assert [pt.trials for pt in curve.points] == [spec.trials_per_point] * 2

    @pytest.mark.parametrize("crossed_at, batches", [(0, range(4)), (1, range(4)), (3, range(4)), (4, range(6))])
    def test_a_point_stops_only_at_the_end_of_a_round(self, crossed_at, batches, monkeypatch):
        # Rounds are batches 0-3 and 4-5: crossing the error target in a
        # round still runs the rest of it, and the next point runs in full.
        calls = record_batches(monkeypatch, errors_at={(0, crossed_at)})
        spec = small_spec(snr_points_db=(0.0, 10.0), trials_per_point=5 * BATCH_SIZE + 123, error_target=10)
        curve = run_sweep(spec)
        sizes = [BATCH_SIZE] * 5 + [123]
        assert calls == [(0, b, sizes[b]) for b in batches] + [(1, b, sizes[b]) for b in range(6)]
        assert curve.points[0].errors == 10

    def test_thread_count_does_not_change_the_batches(self, monkeypatch):
        schedules = []
        for threads in (1, 2):
            calls = record_batches(monkeypatch, errors_at={(1, 2)})
            spec = small_spec(snr_points_db=(0.0, 10.0), trials_per_point=9 * BATCH_SIZE + 1, error_target=10)
            run_sweep(spec, threads=threads)
            schedules.append(sorted(calls))
        assert schedules[0] == schedules[1]
        assert len(schedules[0]) == 10 + 4

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

    @pytest.mark.parametrize("bad", [0, -3])
    def test_thread_count_below_one_names_the_flag_or_variable(self, bad, monkeypatch):
        with pytest.raises(ValueError, match="--threads"):
            thread_count(bad)
        monkeypatch.setenv(THREADS_ENV_VAR, str(bad))
        with pytest.raises(ValueError, match=THREADS_ENV_VAR):
            thread_count()

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
        assert p.errors == 0
        assert p.relay_wrong == 0
        assert p.p_err_rw is None

    def test_decoder_quality_ordering(self):
        # relay-error awareness must beat blind minimum distance
        aware = run_sweep(small_spec(snr_points_db=(22.0,), trials_per_point=150_000, error_target=10**9))
        naive = run_sweep(small_spec(snr_points_db=(22.0,), trials_per_point=150_000, error_target=10**9, decoder="min-euclid"))
        assert aware.points[0].sep_joint < naive.points[0].sep_joint
