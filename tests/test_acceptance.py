"""Acceptance suite: one test per release criterion.

The Monte Carlo sweeps are shared session fixtures; budgets are sized so
the whole module runs in minutes at desk scale while every fitted point
keeps at least the 50-error statistical floor.  Each test registers a
PASS/FAIL line that the conftest hook prints in the terminal summary.
"""

import math
import time

import numpy as np
import pytest

from marc_pnc.channel import PROFILE_PRESETS, sample_channel
from marc_pnc.cli import SCENARIOS, snr_at_sep
from marc_pnc.destination import DecodeInput, EvalCounter, decode_frame, fast_decode, novel_decode_exhaustive
from marc_pnc.diversity import estimate_diversity, probability_window
from marc_pnc.montecarlo import SweepSpec, equivalence_battery, run_sweep
from marc_pnc.netmap import check_exclusive_law, modulo_latin, xor_latin
from marc_pnc.numerics import RngStream, qr_2x3
from marc_pnc.scheme import (
    SchemeConstants,
    check_full_rank_condition,
    check_hr_orthogonal,
    example1_constants,
    weight_matrices,
)
from marc_pnc.signalset import make_psk
from marc_pnc.sweepio import curve_to_csv

INV = 1.0 / math.sqrt(2.0)
EQUAL = PROFILE_PRESETS["equal"]


@pytest.fixture(scope="session")
def equal_fast_curve():
    """Main diversity sweep: equal variances, fast decoder."""
    spec = SweepSpec(
        snr_points_db=tuple(float(s) for s in range(12, 31, 2)),
        trials_per_point=20_000_000,
        profile=EQUAL,
        decoder="fast",
        seed=20_240,
        error_target=6_000,
    )
    return run_sweep(spec)


@pytest.fixture(scope="session")
def equal_naive_curve():
    """Same setup decoded blindly; its error floor sits an order higher."""
    spec = SweepSpec(
        snr_points_db=tuple(float(s) for s in range(28, 45, 2)),
        trials_per_point=1_500_000,
        profile=EQUAL,
        decoder="min-euclid",
        seed=20_241,
        error_target=6_000,
    )
    return run_sweep(spec)


COMPARISON_GRIDS = {
    "equal": (14.0, 16.0, 20.0, 24.0, 26.0, 28.0),
    "sr-strong": (14.0, 16.0, 18.0, 20.0, 24.0, 28.0),
    "rd-strong": (16.0, 20.0, 24.0, 28.0, 30.0, 32.0),
}


@pytest.fixture(scope="session")
def comparison_curves():
    curves = {}
    for preset, grid in COMPARISON_GRIDS.items():
        for decoder in ("fast", "cfnc"):
            spec = SweepSpec(
                snr_points_db=grid,
                trials_per_point=4_000_000,
                profile=PROFILE_PRESETS[preset],
                decoder=decoder,
                seed=20_242,
                error_target=3_000,
            )
            curves[(preset, decoder)] = run_sweep(spec)
    return curves


class TestCriterion1FastDecoderEquivalence:
    def test_fast_identical_to_exhaustive(self, acceptance_report):
        t0 = time.time()
        report = equivalence_battery(
            snr_points_db=(0.0, 10.0, 20.0, 30.0),
            frames_per_cell=8_400,
            seed=20_401,
        )
        elapsed = time.time() - t0
        ok = report.frames >= 100_000 and report.mismatches == 0 and elapsed < 60.0
        acceptance_report(
            "criterion 1: fast decoder output-identical to exhaustive reference",
            ok,
            f"{report.frames} frames, {report.mismatches} mismatches, {elapsed:.1f}s",
        )
        assert report.frames >= 100_000
        assert report.mismatches == 0, report.first_mismatch
        assert elapsed < 60.0


class TestCriterion2AlgebraicCheckers:
    def test_checkers(self, acceptance_report):
        ok = True
        for m in (2, 4, 8, 16):
            ok &= check_exclusive_law(modulo_latin(m).cells)
            ok &= check_exclusive_law(xor_latin(m).cells)
        violators = (
            [[0] * 4 for _ in range(4)],
            [[r] * 4 for r in range(4)],
            [[0, 1, 2, 3], [0, 1, 2, 3], [2, 3, 0, 1], [3, 0, 1, 2]],
        )
        ok &= all(not check_exclusive_law(v) for v in violators)

        k1 = example1_constants(1.0)
        ok &= check_full_rank_condition(k1, make_psk(4))
        ok &= check_full_rank_condition(k1, make_psk(8))
        flat = SchemeConstants(a=INV, b=INV, c=INV, d=INV, es=1.0)
        ok &= not check_full_rank_condition(flat, make_psk(4))

        wm = weight_matrices(k1)
        ok &= check_hr_orthogonal(wm.wa, wm.wr, tol=1e-12)
        ok &= not check_hr_orthogonal(wm.wb, wm.wr, tol=1e-12)

        acceptance_report("criterion 2: exclusive law, full rank, weight-matrix orthogonality", ok)
        assert ok


class TestCriterion3QrStructure:
    def test_structural_zeros_on_random_channels(self, acceptance_report):
        k = example1_constants(1.0)
        rng = RngStream(20_403, 0)
        hs = [sample_channel(rng, PROFILE_PRESETS[("equal", "sr-strong", "rd-strong")[i % 3]]) for i in range(10_000)]
        h_ad, h_bd, h_rd = (np.array([getattr(h, name) for h in hs]) for name in ("h_ad", "h_bd", "h_rd"))
        heq = np.stack([
            np.stack([k.a * h_ad, k.b * h_bd, np.zeros_like(h_ad)], -1),
            np.stack([k.c * h_ad, k.d * h_bd, h_rd], -1),
        ], -2)
        # Rotating the unit vectors e1, e2 gives the columns of q*.
        one, zero = np.ones_like(h_ad), np.zeros_like(h_ad)
        e1 = qr_2x3(k.a * h_ad, k.c * h_ad, k.b * h_bd, k.d * h_bd, h_rd, one, zero)
        e2 = qr_2x3(k.a * h_ad, k.c * h_ad, k.b * h_bd, k.d * h_bd, h_rd, zero, one)
        q = np.conj(np.stack([np.stack([e1.yt1, e1.yt2], -1), np.stack([e2.yt1, e2.yt2], -1)], -2))
        r = np.stack([np.stack([e1.r11, e1.r12, e1.r13], -1), np.stack([e1.r21, e1.r22, e1.r23], -1)], -2)
        r21_exact = bool(np.all(r[:, 1, 0] == 0.0))
        worst_r13 = float(np.abs(r[:, 0, 2]).max())
        worst_recon = float(np.abs(q @ r - heq).max())
        ok = r21_exact and worst_r13 < 1e-10 and worst_recon < 1e-10
        acceptance_report(
            "criterion 3: rotated channel has exact lower zero and vanishing (1,3) entry",
            ok,
            f"max |r13| = {worst_r13:.2e}, max reconstruction error = {worst_recon:.2e}",
        )
        assert ok


class TestCriterion4DiversityOrderTwo:
    def test_fitted_slope(self, acceptance_report, equal_fast_curve):
        window = probability_window(equal_fast_curve, "sep_joint", (1e-6, 1e-3))
        fit = estimate_diversity(equal_fast_curve, "sep_joint", window, min_events=50)
        ok = 1.7 <= fit.slope <= 2.3
        acceptance_report(
            "criterion 4: relay-error-aware decoder reaches diversity order two",
            ok,
            f"slope {fit.slope:.3f} over {fit.fit_window_db} dB ({fit.n_points} points, r^2={fit.r_squared:.4f})",
        )
        assert ok, fit


class TestCriterion5NaiveDecoderDiversityLoss:
    def test_fitted_slope_below_aware_decoder(self, acceptance_report, equal_fast_curve, equal_naive_curve):
        window = probability_window(equal_naive_curve, "sep_joint", (1e-6, 1e-3))
        naive_fit = estimate_diversity(equal_naive_curve, "sep_joint", window, min_events=50)
        aware_window = probability_window(equal_fast_curve, "sep_joint", (1e-6, 1e-3))
        aware_fit = estimate_diversity(equal_fast_curve, "sep_joint", aware_window, min_events=50)
        ok = 0.7 <= naive_fit.slope <= 1.3 and naive_fit.slope < aware_fit.slope
        acceptance_report(
            "criterion 5: blind minimum-distance decoding loses a diversity order",
            ok,
            f"naive slope {naive_fit.slope:.3f} vs aware slope {aware_fit.slope:.3f}",
        )
        assert ok, (naive_fit, aware_fit)


class TestCriterion6ConditionalOrders:
    def test_conditional_slopes(self, acceptance_report, equal_fast_curve):
        rc_window = probability_window(equal_fast_curve, "p_err_rc", (1e-6, 1e-3))
        rc = estimate_diversity(equal_fast_curve, "p_err_rc", rc_window, min_events=50)
        rw_window = probability_window(equal_fast_curve, "p_err_rw", (1e-3, 0.2))
        rw = estimate_diversity(equal_fast_curve, "p_err_rw", rw_window, min_events=50)
        relay_window = probability_window(equal_fast_curve, "p_relay_err", (1e-3, 0.2))
        relay = estimate_diversity(equal_fast_curve, "p_relay_err", relay_window, min_events=50)
        ok = 1.7 <= rc.slope <= 2.3 and 0.6 <= rw.slope <= 1.4 and 0.7 <= relay.slope <= 1.3
        acceptance_report(
            "criterion 6: conditional error orders (relay right: 2, relay wrong: 1, relay-error rate: 1)",
            ok,
            f"slopes rc={rc.slope:.3f}, rw={rw.slope:.3f}, relay={relay.slope:.3f}",
        )
        assert ok, (rc, rw, relay)


class TestCriterion7BaselineComparison:
    def test_network_coded_scheme_beats_baseline(self, acceptance_report, comparison_curves):
        details = []
        ok = True
        compared = 0
        for preset in COMPARISON_GRIDS:
            pnc = comparison_curves[(preset, "fast")]
            cfnc = comparison_curves[(preset, "cfnc")]
            for p_pnc, p_cfnc in zip(pnc.points, cfnc.points):
                if p_pnc.sep_joint < 1e-2 and p_cfnc.sep_joint < 1e-2:
                    compared += 1
                    ok &= p_pnc.sep_joint < p_cfnc.sep_joint
        gaps = {}
        for preset in COMPARISON_GRIDS:
            s_pnc = snr_at_sep(comparison_curves[(preset, "fast")], 1e-2)
            s_cfnc = snr_at_sep(comparison_curves[(preset, "cfnc")], 1e-2)
            gaps[preset] = None if s_pnc is None or s_cfnc is None else s_cfnc - s_pnc
            ref = SCENARIOS[preset]["reference_gain_db"]
            details.append(f"{preset}: measured {gaps[preset]:.2f} dB (reference {ref})")
        ok &= compared >= 9
        # the strong relay-destination link must show the widest gap
        ok &= gaps["rd-strong"] == max(g for g in gaps.values() if g is not None)
        acceptance_report(
            "criterion 7: network-coded scheme beats the combining baseline on all presets",
            ok,
            f"{compared} comparison points; gain at SEP 1e-2: " + "; ".join(details),
        )
        assert ok, details


class TestCriterion8ComplexityScaling:
    def test_instrumented_candidate_counts(self, acceptance_report):
        counts = {}
        for m in (4, 8, 16):
            s = make_psk(m)
            f = modulo_latin(m)
            k = example1_constants(8.0)
            rng = RngStream(20_408, m)
            fast_n = exh_n = 0
            frames = 25
            for _ in range(frames):
                h = sample_channel(rng, EQUAL)
                inp = DecodeInput(
                    y_d1=rng.gaussian(2.0), y_d2=rng.gaussian(2.0), h_ad=h.h_ad, h_bd=h.h_bd,
                    h_rd=h.h_rd, constants=k, signal_set=s, relay_map=f,
                )
                cf, ce = EvalCounter(), EvalCounter()
                decode_frame(fast_decode, inp, counter=cf)
                novel_decode_exhaustive(inp, counter=ce)
                fast_n += cf.n
                exh_n += ce.n
            counts[m] = (fast_n / frames, exh_n / frames)
        fast_ratios = (counts[8][0] / counts[4][0], counts[16][0] / counts[8][0])
        exh_ratios = (counts[8][1] / counts[4][1], counts[16][1] / counts[8][1])
        ok = all(3.5 <= r <= 4.5 for r in fast_ratios) and all(7.0 <= r <= 9.0 for r in exh_ratios)
        acceptance_report(
            "criterion 8: quadratic vs cubic candidate-evaluation scaling",
            ok,
            f"fast x{fast_ratios[0]:.2f}/x{fast_ratios[1]:.2f}, exhaustive x{exh_ratios[0]:.2f}/x{exh_ratios[1]:.2f} per doubling",
        )
        assert ok, (fast_ratios, exh_ratios)


class TestCriterion9Determinism:
    def test_byte_identical_csv_for_any_thread_count(self, acceptance_report):
        spec = SweepSpec(
            snr_points_db=(6.0, 10.0),
            trials_per_point=150_000,
            profile=EQUAL,
            decoder="fast",
            seed=20_409,
            error_target=10**9,
        )
        texts = [curve_to_csv(run_sweep(spec, threads=t)) for t in (1, 1, 4)]
        ok = texts[0] == texts[1] == texts[2]
        acceptance_report(
            "criterion 9: sweeps are byte-reproducible regardless of worker threads",
            ok,
            f"{len(texts[0])} CSV bytes compared across runs",
        )
        assert ok
