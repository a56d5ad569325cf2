import dataclasses
import math

import numpy as np
import pytest

from marc_pnc.channel import ChannelRealization, PROFILE_PRESETS, phase1, phase2, sample_channel
from marc_pnc.destination import (
    Branch,
    DecodeInput,
    EvalCounter,
    HrOrthogonalityError,
    decode_frame,
    fast_decode,
    metric_m1,
    metric_m2,
    metric_m3,
    metric_m4,
    min_euclidean_decode,
    novel_decode_exhaustive,
    phi_metrics,
)
from marc_pnc.netmap import modulo_latin
from marc_pnc.numerics import RngStream, qr_2x3
from marc_pnc.relay import relay_forward, relay_ml_decode
from marc_pnc.scheme import SchemeConstants, example1_constants
from marc_pnc.signalset import make_psk

INV = 1.0 / math.sqrt(2.0)
S4 = make_psk(4)
MOD4 = modulo_latin(4)


def make_input(y_d1, y_d2, h, k, s=S4, f=MOD4) -> DecodeInput:
    return DecodeInput(y_d1=y_d1, y_d2=y_d2, h_ad=h.h_ad, h_bd=h.h_bd, h_rd=h.h_rd, constants=k, signal_set=s, relay_map=f)


def random_decode_input(rng: RngStream, es: float, k=None, profile=None, force_relay_error=False):
    """One random frame through the true protocol, returning the decode
    input plus the transmitted indices and the relay decision."""
    k = (example1_constants(es) if k is None else dataclasses.replace(k, es=es))
    profile = profile or PROFILE_PRESETS["equal"]
    ia = rng.index(4)
    ib = rng.index(4)
    h = sample_channel(rng, profile)
    z_r = rng.gaussian(1.0)
    z_d1 = rng.gaussian(1.0)
    z_d2 = rng.gaussian(1.0)
    xa, xb = S4.points[ia], S4.points[ib]
    y_r, y_d1 = phase1(k, h, xa, xb, z_r, z_d1)
    if force_relay_error:
        wrong = rng.index(3)
        nc = wrong if wrong < MOD4.cells[ia][ib] else wrong + 1
        x_r = S4.points[nc]
        relay_pair = None
    else:
        relay_pair = relay_ml_decode(y_r, h, k, S4)
        x_r = relay_forward(relay_pair, MOD4, S4)
    y_d2 = phase2(k, h, xa, xb, x_r, z_d2)
    return make_input(y_d1, y_d2, h, k), (ia, ib), relay_pair


def frame_rotation(inp: DecodeInput):
    """The 2x3 factor r of this frame's equivalent channel and the received
    pair rotated by q*, from qr_2x3 on a batch of one."""
    k = inp.constants
    entries = (k.a * inp.h_ad, k.c * inp.h_ad, k.b * inp.h_bd, k.d * inp.h_bd, inp.h_rd, inp.y_d1, inp.y_d2)
    qr = qr_2x3(*(np.array([z], dtype=np.complex128) for z in entries))
    r = np.array([[qr.r11[0], qr.r12[0], qr.r13[0]], [qr.r21[0], qr.r22[0], qr.r23[0]]])
    return r, (complex(qr.yt1[0]), complex(qr.yt2[0]))


def noiseless_relay_correct_input(ia, ib, es, h=None):
    k = example1_constants(es)
    h = h or ChannelRealization(1.0, 1.0, 0.9 + 0.2j, 0.4 - 1.1j, 0.7 + 0.7j)
    xa, xb = S4.points[ia], S4.points[ib]
    x_r = S4.points[MOD4.cells[ia][ib]]
    _, y_d1 = phase1(k, h, xa, xb, 0.0, 0.0)
    y_d2 = phase2(k, h, xa, xb, x_r, 0.0)
    return make_input(y_d1, y_d2, h, k)


class TestMetrics:
    def test_m1_zero_at_truth_noiseless(self):
        inp = noiseless_relay_correct_input(2, 3, es=10.0)
        assert metric_m1(inp, S4.points[2], S4.points[3]) < 1e-24

    def test_m1_with_zero_channel_is_received_energy(self):
        k = example1_constants(4.0)
        h = ChannelRealization(0.0, 0.0, 0.0, 0.0, 0.0)
        inp = make_input(1 + 2j, 3 - 1j, h, k)
        want = abs(1 + 2j) ** 2 + abs(3 - 1j) ** 2
        for i in range(4):
            assert metric_m1(inp, S4.points[i], S4.points[(i + 1) % 4]) == pytest.approx(want)

    def test_m1_nonnegative(self):
        rng = RngStream(100, 0)
        for _ in range(50):
            inp, _, _ = random_decode_input(rng, es=5.0)
            for xa in S4.points:
                for xb in S4.points:
                    assert metric_m1(inp, xa, xb) >= 0.0

    def test_m2_single_candidate_for_bpsk(self):
        s2 = make_psk(2)
        f2 = modulo_latin(2)
        k = example1_constants(3.0)
        h = ChannelRealization(1.0, 1.0, 0.9, 1.2, 0.8)
        inp = DecodeInput(y_d1=0.3 + 0.1j, y_d2=-0.2j, h_ad=h.h_ad, h_bd=h.h_bd, h_rd=h.h_rd,
                          constants=k, signal_set=s2, relay_map=f2)
        root = math.sqrt(k.es)
        for ia in range(2):
            for ib in range(2):
                other = s2.points[1 - f2.cells[ia][ib]]
                want = (
                    abs(inp.y_d1 - h.h_ad * root * k.a * s2.points[ia] - h.h_bd * root * k.b * s2.points[ib]) ** 2
                    + abs(inp.y_d2 - h.h_ad * root * k.c * s2.points[ia] - h.h_bd * root * k.d * s2.points[ib]
                          - h.h_rd * root * other) ** 2
                )
                assert metric_m2(inp, s2.points[ia], s2.points[ib]) == pytest.approx(want)

    def test_m2_zero_when_relay_sent_wrong_symbol(self):
        k = example1_constants(7.0)
        h = ChannelRealization(1.0, 1.0, 1.1, 0.6 + 0.3j, -0.4 + 0.9j)
        ia, ib = 1, 2
        wrong_nc = (MOD4.cells[ia][ib] + 2) % 4
        xa, xb = S4.points[ia], S4.points[ib]
        _, y_d1 = phase1(k, h, xa, xb, 0.0, 0.0)
        y_d2 = phase2(k, h, xa, xb, S4.points[wrong_nc], 0.0)
        inp = make_input(y_d1, y_d2, h, k)
        assert metric_m2(inp, xa, xb) < 1e-24

    def test_m2_at_least_phase1_residual(self):
        rng = RngStream(101, 0)
        for _ in range(50):
            inp, _, _ = random_decode_input(rng, es=2.0)
            k = inp.constants
            root = math.sqrt(k.es)
            for xa in S4.points:
                for xb in S4.points:
                    p1 = abs(inp.y_d1 - inp.h_ad * root * k.a * xa - inp.h_bd * root * k.b * xb) ** 2
                    assert metric_m2(inp, xa, xb) >= p1 - 1e-12

    def test_m3_is_pointwise_min_of_m1_m2(self):
        rng = RngStream(102, 0)
        for _ in range(100):
            inp, _, _ = random_decode_input(rng, es=3.0)
            for xa in S4.points:
                for xb in S4.points:
                    assert metric_m3(inp, xa, xb) == min(metric_m1(inp, xa, xb), metric_m2(inp, xa, xb))

    def test_m3_zero_at_truth_noiseless(self):
        inp = noiseless_relay_correct_input(0, 0, es=9.0)
        assert metric_m3(inp, S4.points[0], S4.points[0]) < 1e-24

    def test_m4_reduces_to_residuals_at_unit_energy(self):
        rng = RngStream(103, 0)
        inp, _, _ = random_decode_input(rng, es=1.0)
        xa, xb = S4.points[1], S4.points[3]
        xr = S4.points[MOD4.cells[1][3]]
        assert metric_m4(inp, xa, xb, xr) == pytest.approx(metric_m1(inp, xa, xb), rel=1e-12)

    def test_m4_relation_to_m1_and_m2(self):
        rng = RngStream(104, 0)
        for _ in range(30):
            inp, _, _ = random_decode_input(rng, es=6.0)
            ln_es = math.log(inp.constants.es)
            for ia in range(4):
                for ib in range(4):
                    xa, xb = S4.points[ia], S4.points[ib]
                    fidx = MOD4.cells[ia][ib]
                    assert metric_m4(inp, xa, xb, S4.points[fidx]) == pytest.approx(
                        metric_m1(inp, xa, xb) + ln_es, rel=1e-12
                    )
                    best_wrong = min(metric_m4(inp, xa, xb, S4.points[r]) for r in range(4) if r != fidx)
                    assert best_wrong == pytest.approx(metric_m2(inp, xa, xb) + ln_es, rel=1e-12)

    def test_m4_requires_unit_snr(self):
        base = noiseless_relay_correct_input(0, 0, es=2.0)
        low = make_input(base.y_d1, base.y_d2,
                         ChannelRealization(1.0, 1.0, base.h_ad, base.h_bd, base.h_rd),
                         dataclasses.replace(base.constants, es=0.5))
        with pytest.raises(ValueError, match="es >= 1"):
            metric_m4(low, 1.0, 1.0, 1.0)


def pair_scan_oracle(inp: DecodeInput):
    """Independent selection rule evaluation, mirroring the documented
    x_B-major scan and per-x_B branch comparison, built from the public
    metric functions only."""
    ln_es = math.log(inp.constants.es)
    m = inp.signal_set.m
    best = None
    for ib in range(m):
        m1s = [metric_m1(inp, inp.signal_set.points[ia], inp.signal_set.points[ib]) for ia in range(m)]
        m3s = [metric_m3(inp, inp.signal_set.points[ia], inp.signal_set.points[ib]) for ia in range(m)]
        b1 = min(m1s)
        b3 = min(m3s)
        if b1 < b3 + ln_es:
            cand = (b1, ib, m1s.index(b1), Branch.RELAY_CORRECT)
        else:
            cand = (b3 + ln_es, ib, m3s.index(b3), Branch.RELAY_ERROR)
        if best is None or cand[0] < best[0]:
            best = cand
    return best[2], best[1], best[3]


class TestMinEuclideanDecode:
    def test_noiseless_relay_correct(self):
        for ia in range(4):
            for ib in range(4):
                inp = noiseless_relay_correct_input(ia, ib, es=5.0)
                out = decode_frame(min_euclidean_decode, inp)
                assert (out.xa_idx, out.xb_idx) == (ia, ib)
                assert out.branch is Branch.RELAY_CORRECT

    def test_matches_independent_scan(self):
        rng = RngStream(106, 0)
        for _ in range(1000):
            inp, _, _ = random_decode_input(rng, es=4.0)
            rows = []
            for ia in range(4):
                for ib in range(4):
                    rows.append((metric_m1(inp, S4.points[ia], S4.points[ib]), ia, ib))
            rows.sort()
            out = decode_frame(min_euclidean_decode, inp)
            assert (out.xa_idx, out.xb_idx) == (rows[0][1], rows[0][2])

    def test_works_below_unit_energy(self):
        rng = RngStream(107, 0)
        k = example1_constants(0.25)
        inp, _, _ = random_decode_input(rng, es=0.25, k=k)
        decode_frame(min_euclidean_decode, inp)  # no exception


class TestNovelDecodeExhaustive:
    def test_noiseless_relay_correct_decodes_truth_via_m1(self):
        for ia in range(4):
            inp = noiseless_relay_correct_input(ia, (ia + 1) % 4, es=8.0)
            out = novel_decode_exhaustive(inp)
            assert (out.xa_idx, out.xb_idx, out.branch) == (ia, (ia + 1) % 4, Branch.RELAY_CORRECT)

    def test_noiseless_relay_wrong_recovered_via_error_branch(self):
        # frozen frame: unit channels, relay sends point 0 instead of the
        # network-coded point 1, penalty ln(es) = 4.  Verified below by
        # evaluating the selection rule from the public metrics: the truth
        # wins through the relay-error branch while the naive decoder locks
        # onto the wrong pair (1, 0).
        es = math.exp(4.0)
        k = example1_constants(es)
        h = ChannelRealization(1.0, 1.0, 1.0, 1.0, 1.0)
        ia, ib = 0, 1
        xa, xb = S4.points[ia], S4.points[ib]
        _, y_d1 = phase1(k, h, xa, xb, 0.0, 0.0)
        y_d2 = phase2(k, h, xa, xb, S4.points[0], 0.0)
        inp = make_input(y_d1, y_d2, h, k)

        ln_es = math.log(es)
        per_pair = {
            (i, j): min(metric_m1(inp, S4.points[i], S4.points[j]), ln_es + metric_m2(inp, S4.points[i], S4.points[j]))
            for i in range(4)
            for j in range(4)
        }
        assert min(per_pair, key=per_pair.get) == (ia, ib)
        assert per_pair[(ia, ib)] == pytest.approx(ln_es)

        out = novel_decode_exhaustive(inp)
        assert (out.xa_idx, out.xb_idx, out.branch) == (ia, ib, Branch.RELAY_ERROR)
        naive = decode_frame(min_euclidean_decode, inp)
        assert (naive.xa_idx, naive.xb_idx) == (1, 0)

    def test_matches_metric_level_oracle(self):
        rng = RngStream(108, 0)
        for i in range(400):
            inp, _, _ = random_decode_input(rng, es=float(np.exp(i % 4)), force_relay_error=(i % 2 == 0))
            assert (pair_scan_oracle(inp)) == (
                (lambda o: (o.xa_idx, o.xb_idx, o.branch))(novel_decode_exhaustive(inp))
            )

    def test_requires_unit_snr(self):
        rng = RngStream(109, 0)
        inp, _, _ = random_decode_input(rng, es=0.5, k=example1_constants(0.5))
        with pytest.raises(ValueError, match="es >= 1"):
            novel_decode_exhaustive(inp)

    def test_pair_matches_plain_per_pair_scan(self):
        # literal reading of the rule: scan all pairs, per-pair objective
        # min(m1, ln(es) + m2), keep the first strict improvement
        rng = RngStream(119, 0)
        for i in range(600):
            es = (1.0, math.e, 20.0, 400.0)[i % 4]
            inp, _, _ = random_decode_input(rng, es=es, force_relay_error=(i % 2 == 0))
            ln_es = math.log(es)
            best = None
            for ib in range(4):
                for ia in range(4):
                    g = min(
                        metric_m1(inp, S4.points[ia], S4.points[ib]),
                        ln_es + metric_m2(inp, S4.points[ia], S4.points[ib]),
                    )
                    if best is None or g < best[0]:
                        best = (g, ia, ib)
            out = novel_decode_exhaustive(inp)
            assert (out.xa_idx, out.xb_idx) == (best[1], best[2])

    def test_rewrite_identity_m2_vs_m3(self):
        # min(m1, ln + m2) == min(m1, ln + m3) pointwise once es >= 1
        rng = RngStream(110, 0)
        for es in (1.0, 2.0, 31.6, 1000.0):
            for _ in range(50):
                inp, _, _ = random_decode_input(rng, es=es)
                ln_es = math.log(es)
                for xa in S4.points:
                    for xb in S4.points:
                        lhs = min(metric_m1(inp, xa, xb), ln_es + metric_m2(inp, xa, xb))
                        rhs = min(metric_m1(inp, xa, xb), ln_es + metric_m3(inp, xa, xb))
                        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestFastDecode:
    def test_equivalence_random_frames(self):
        rng = RngStream(111, 0)
        for i in range(3000):
            es = (1.0, 10.0, 100.0, 1000.0)[i % 4]
            inp, _, _ = random_decode_input(rng, es=es, force_relay_error=(i % 3 == 0))
            assert decode_frame(fast_decode, inp) == novel_decode_exhaustive(inp)

    def test_equivalence_with_swapped_roles(self):
        # only (W_B, W_R) orthogonal: d = 0 forces the role-swapped path
        k = SchemeConstants(a=INV, b=1.0, c=INV, d=0.0, es=50.0)
        rng = RngStream(112, 0)
        for _ in range(2000):
            inp, _, _ = random_decode_input(rng, es=50.0, k=k)
            assert decode_frame(fast_decode, inp) == novel_decode_exhaustive(inp)

    def test_refuses_without_orthogonality(self):
        k = SchemeConstants(a=INV, b=INV, c=INV, d=INV * 1j, es=4.0)
        inp = make_input(0.0, 0.0, ChannelRealization(1.0, 1.0, 1.0, 1.0, 1.0), k)
        with pytest.raises(HrOrthogonalityError):
            decode_frame(fast_decode, inp)

    def test_requires_unit_snr(self):
        inp = noiseless_relay_correct_input(0, 0, es=5.0)
        low = DecodeInput(y_d1=inp.y_d1, y_d2=inp.y_d2, h_ad=inp.h_ad, h_bd=inp.h_bd, h_rd=inp.h_rd,
                          constants=dataclasses.replace(inp.constants, es=0.9), signal_set=S4, relay_map=MOD4)
        with pytest.raises(ValueError, match="es >= 1"):
            decode_frame(fast_decode, low)

    def test_r13_vanishes_on_random_frames(self):
        rng = RngStream(113, 0)
        for _ in range(500):
            inp, _, _ = random_decode_input(rng, es=25.0)
            r, _ = frame_rotation(inp)
            assert abs(r[0, 2]) < 1e-10


class TestPhiMetrics:
    def test_phi1_plus_phi2_matches_m1(self):
        rng = RngStream(114, 0)
        for _ in range(1000):
            inp, _, _ = random_decode_input(rng, es=12.0)
            r, yt = frame_rotation(inp)
            for ia in range(4):
                for ib in range(4):
                    xa, xb = S4.points[ia], S4.points[ib]
                    p1, p2, _ = phi_metrics(inp, r, yt, xa, xb, S4.points[0])
                    assert p1 + p2 == pytest.approx(metric_m1(inp, xa, xb), abs=1e-8 * max(1.0, inp.constants.es))

    def test_phi3_minimum_bounded_by_network_coded_choice(self):
        rng = RngStream(115, 0)
        for _ in range(200):
            inp, _, _ = random_decode_input(rng, es=4.0)
            r, yt = frame_rotation(inp)
            for ia in range(4):
                for ib in range(4):
                    xa, xb = S4.points[ia], S4.points[ib]
                    fpt = S4.points[MOD4.cells[ia][ib]]
                    phi3_all = [phi_metrics(inp, r, yt, xa, xb, xr)[2] for xr in S4.points]
                    assert phi_metrics(inp, r, yt, xa, xb, fpt)[2] >= min(phi3_all) - 1e-15

    def test_zero_inputs_zero_metrics(self):
        k = example1_constants(1.0)
        inp = make_input(0.0, 0.0, ChannelRealization(1.0, 1.0, 1.0, 1.0, 1.0), k)
        r, _ = frame_rotation(inp)
        # zero received pair and zero symbols: every term vanishes
        phis = phi_metrics(inp, r, (0.0, 0.0), 0.0, 0.0, 0.0)
        assert phis == (0.0, 0.0, 0.0)

    def test_unitary_invariance_of_full_residual(self):
        rng = RngStream(116, 0)
        for _ in range(300):
            inp, _, _ = random_decode_input(rng, es=9.0)
            r, yt = frame_rotation(inp)
            root = math.sqrt(inp.constants.es)
            k = inp.constants
            for ia in range(4):
                for ib in range(4):
                    for ir in range(4):
                        xa, xb, xr = S4.points[ia], S4.points[ib], S4.points[ir]
                        direct = (
                            abs(inp.y_d1 - k.a * inp.h_ad * root * xa - k.b * inp.h_bd * root * xb) ** 2
                            + abs(inp.y_d2 - k.c * inp.h_ad * root * xa - k.d * inp.h_bd * root * xb
                                  - inp.h_rd * root * xr) ** 2
                        )
                        rotated = (
                            abs(yt[0] - r[0, 0] * root * xa - r[0, 1] * root * xb - r[0, 2] * root * xr) ** 2
                            + abs(yt[1] - r[1, 1] * root * xb - r[1, 2] * root * xr) ** 2
                        )
                        assert rotated == pytest.approx(direct, abs=1e-8 * max(1.0, direct))

    def test_decomposition_at_fixed_xb(self):
        # min over (x_A, x_R) of m3 splits into independent minimisations
        rng = RngStream(117, 0)
        for _ in range(200):
            inp, _, _ = random_decode_input(rng, es=16.0)
            r, yt = frame_rotation(inp)
            for ib in range(4):
                xb = S4.points[ib]
                m3_min = min(metric_m3(inp, S4.points[ia], xb) for ia in range(4))
                phi1_min = min(phi_metrics(inp, r, yt, S4.points[ia], xb, S4.points[0])[0] for ia in range(4))
                phi3_min = min(phi_metrics(inp, r, yt, S4.points[0], xb, xr)[2] for xr in S4.points)
                assert m3_min == pytest.approx(phi1_min + phi3_min, abs=1e-8 * max(1.0, m3_min))


class TestEvalCounts:
    @pytest.mark.parametrize("m", [4, 8, 16])
    def test_counts_follow_complexity_orders(self, m):
        s = make_psk(m)
        f = modulo_latin(m)
        k = example1_constants(10.0)
        rng = RngStream(118, m)
        h = sample_channel(rng, PROFILE_PRESETS["equal"])
        inp = DecodeInput(y_d1=rng.gaussian(1.0), y_d2=rng.gaussian(1.0), h_ad=h.h_ad, h_bd=h.h_bd,
                          h_rd=h.h_rd, constants=k, signal_set=s, relay_map=f)
        c_fast, c_exh, c_naive = EvalCounter(), EvalCounter(), EvalCounter()
        decode_frame(fast_decode, inp, counter=c_fast)
        novel_decode_exhaustive(inp, counter=c_exh)
        decode_frame(min_euclidean_decode, inp, counter=c_naive)
        assert c_fast.n == 2 * m * m
        assert c_exh.n == m**3
        assert c_naive.n == m * m
