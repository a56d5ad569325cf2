import dataclasses
import math
from typing import NamedTuple

import numpy as np
import pytest

from marc_pnc.cfnc import DEFAULT_THETA, make_cfnc_config
from marc_pnc.channel import ChannelRealization, PROFILE_PRESETS
from marc_pnc.destination import (
    HrOrthogonalityError,
    fast_decode,
    joint_min_distance,
    novel_decode_exhaustive,
    novel_decode_exhaustive_batch,
)
from marc_pnc.netmap import modulo_latin, xor_latin
from marc_pnc.numerics import philox_stream, qr_2x3
from marc_pnc.scheme import SchemeConstants, example1_constants
from marc_pnc.signalset import make_psk
from oracles import (
    metric_m1,
    metric_m2,
    metric_m3,
    metric_m4,
    one_channel,
    one_gaussian,
    phase1,
    phase2,
    phi_metrics,
    scalar_relay_ml_decode,
)

INV = 1.0 / math.sqrt(2.0)
S4 = make_psk(4).tolist()
MOD4 = modulo_latin(4).tolist()
#: The 4-PSK cfnc relay as (code, constellation): pair (ia, ib) sends combined point 4 ia + ib.
CFNC4 = (
    tuple(tuple(4 * ia + ib for ib in range(4)) for ia in range(4)),
    make_cfnc_config(make_psk(4), DEFAULT_THETA)[1].tolist(),
)


class Frame(NamedTuple):
    """One frame as the decoders take it, for the scalar reference:
    ``novel_decode_exhaustive(*frame)``, ``metric_m1(*frame, ia, ib)``."""

    y1: complex
    y2: complex
    h_ad: complex
    h_bd: complex
    h_rd: complex
    k: SchemeConstants
    pts: list
    code: list
    constellation: list


def make_input(y_d1, y_d2, h, k, s=S4, f=MOD4) -> Frame:
    """A frame on the Latin-square relay of map f over the points s."""
    return Frame(y_d1, y_d2, h.h_ad, h.h_bd, h.h_rd, k, s, f, s)


def decode_one(decoder, frame: Frame):
    """Run a batch decoder on one frame, as a batch of one."""
    one = (np.array([z], dtype=np.complex128) for z in frame[:5])
    a, b, correct = decoder(*one, frame.k, *(np.asarray(v) for v in frame[6:]))
    return int(a[0]), int(b[0]), bool(correct[0])


def random_decode_input(rng: np.random.Generator, es: float, k=None, profile=None, force_relay_error=False, s=S4, f=MOD4):
    """One random frame through the true protocol, returning the decode
    input plus the transmitted indices and the relay decision."""
    k = (example1_constants(es) if k is None else dataclasses.replace(k, es=es))
    profile = profile or PROFILE_PRESETS["equal"]
    ia = int(rng.integers(0, len(s)))
    ib = int(rng.integers(0, len(s)))
    h = one_channel(rng, profile)
    z_r = one_gaussian(rng, 1.0)
    z_d1 = one_gaussian(rng, 1.0)
    z_d2 = one_gaussian(rng, 1.0)
    xa, xb = s[ia], s[ib]
    y_r, y_d1 = phase1(k, h, xa, xb, z_r, z_d1)
    if force_relay_error:
        wrong = int(rng.integers(0, len(s) - 1))
        nc = wrong if wrong < f[ia][ib] else wrong + 1
        x_r = s[nc]
        relay_pair = None
    else:
        relay_pair = scalar_relay_ml_decode(y_r, h.h_ar, h.h_br, k, s)
        x_r = s[f[relay_pair[0]][relay_pair[1]]]
    y_d2 = phase2(k, h, xa, xb, x_r, z_d2)
    return make_input(y_d1, y_d2, h, k, s, f), (ia, ib), relay_pair


def frame_rotation(inp: Frame):
    """The 2x3 factor r of this frame's equivalent channel and the received
    pair rotated by q*, from qr_2x3 on a batch of one."""
    k = inp.k
    entries = (k.a * inp.h_ad, k.c * inp.h_ad, k.b * inp.h_bd, k.d * inp.h_bd, inp.h_rd, inp.y1, inp.y2)
    qr = qr_2x3(*(np.array([z], dtype=np.complex128) for z in entries))
    r = np.array([[qr.r11[0], qr.r12[0], qr.r13[0]], [qr.r21[0], qr.r22[0], qr.r23[0]]])
    return r, (complex(qr.yt1[0]), complex(qr.yt2[0]))


def noiseless_relay_correct_input(ia, ib, es, h=None):
    k = example1_constants(es)
    h = h or ChannelRealization(1.0, 1.0, 0.9 + 0.2j, 0.4 - 1.1j, 0.7 + 0.7j)
    xa, xb = S4[ia], S4[ib]
    x_r = S4[MOD4[ia][ib]]
    _, y_d1 = phase1(k, h, xa, xb, 0.0, 0.0)
    y_d2 = phase2(k, h, xa, xb, x_r, 0.0)
    return make_input(y_d1, y_d2, h, k)


class TestMetrics:
    def test_m1_zero_at_truth_noiseless(self):
        inp = noiseless_relay_correct_input(2, 3, es=10.0)
        assert metric_m1(*inp, 2, 3) < 1e-24

    def test_m1_with_zero_channel_is_received_energy(self):
        k = example1_constants(4.0)
        h = ChannelRealization(0.0, 0.0, 0.0, 0.0, 0.0)
        inp = make_input(1 + 2j, 3 - 1j, h, k)
        want = abs(1 + 2j) ** 2 + abs(3 - 1j) ** 2
        for i in range(4):
            assert metric_m1(*inp, i, (i + 1) % 4) == pytest.approx(want)

    def test_m1_nonnegative(self):
        rng = philox_stream(100, 0)
        for _ in range(50):
            inp, _, _ = random_decode_input(rng, es=5.0)
            for ia in range(4):
                for ib in range(4):
                    assert metric_m1(*inp, ia, ib) >= 0.0

    def test_m2_single_candidate_for_bpsk(self):
        s2 = make_psk(2).tolist()
        f2 = modulo_latin(2).tolist()
        k = example1_constants(3.0)
        h = ChannelRealization(1.0, 1.0, 0.9, 1.2, 0.8)
        inp = make_input(0.3 + 0.1j, -0.2j, h, k, s2, f2)
        root = math.sqrt(k.es)
        for ia in range(2):
            for ib in range(2):
                other = s2[1 - f2[ia][ib]]
                want = (
                    abs(inp.y1 - h.h_ad * root * k.a * s2[ia] - h.h_bd * root * k.b * s2[ib]) ** 2
                    + abs(inp.y2 - h.h_ad * root * k.c * s2[ia] - h.h_bd * root * k.d * s2[ib]
                          - h.h_rd * root * other) ** 2
                )
                assert metric_m2(*inp, ia, ib) == pytest.approx(want)

    def test_m2_zero_when_relay_sent_wrong_symbol(self):
        k = example1_constants(7.0)
        h = ChannelRealization(1.0, 1.0, 1.1, 0.6 + 0.3j, -0.4 + 0.9j)
        ia, ib = 1, 2
        wrong_nc = (MOD4[ia][ib] + 2) % 4
        xa, xb = S4[ia], S4[ib]
        _, y_d1 = phase1(k, h, xa, xb, 0.0, 0.0)
        y_d2 = phase2(k, h, xa, xb, S4[wrong_nc], 0.0)
        inp = make_input(y_d1, y_d2, h, k)
        assert metric_m2(*inp, ia, ib) < 1e-24

    def test_m2_at_least_phase1_residual(self):
        rng = philox_stream(101, 0)
        for _ in range(50):
            inp, _, _ = random_decode_input(rng, es=2.0)
            k = inp.k
            root = math.sqrt(k.es)
            for ia, xa in enumerate(S4):
                for ib, xb in enumerate(S4):
                    p1 = abs(inp.y1 - inp.h_ad * root * k.a * xa - inp.h_bd * root * k.b * xb) ** 2
                    assert metric_m2(*inp, ia, ib) >= p1 - 1e-12

    def test_m3_is_pointwise_min_of_m1_m2(self):
        rng = philox_stream(102, 0)
        for _ in range(100):
            inp, _, _ = random_decode_input(rng, es=3.0)
            for ia in range(4):
                for ib in range(4):
                    assert metric_m3(*inp, ia, ib) == min(metric_m1(*inp, ia, ib), metric_m2(*inp, ia, ib))

    def test_m3_zero_at_truth_noiseless(self):
        inp = noiseless_relay_correct_input(0, 0, es=9.0)
        assert metric_m3(*inp, 0, 0) < 1e-24

    def test_m4_reduces_to_residuals_at_unit_energy(self):
        rng = philox_stream(103, 0)
        inp, _, _ = random_decode_input(rng, es=1.0)
        xa, xb = S4[1], S4[3]
        xr = S4[MOD4[1][3]]
        assert metric_m4(*inp[:6], xa, xb, xr) == pytest.approx(metric_m1(*inp, 1, 3), rel=1e-12)

    def test_m4_relation_to_m1_and_m2(self):
        rng = philox_stream(104, 0)
        for _ in range(30):
            inp, _, _ = random_decode_input(rng, es=6.0)
            ln_es = math.log(inp.k.es)
            for ia in range(4):
                for ib in range(4):
                    xa, xb = S4[ia], S4[ib]
                    fidx = MOD4[ia][ib]
                    assert metric_m4(*inp[:6], xa, xb, S4[fidx]) == pytest.approx(
                        metric_m1(*inp, ia, ib) + ln_es, rel=1e-12
                    )
                    best_wrong = min(metric_m4(*inp[:6], xa, xb, S4[r]) for r in range(4) if r != fidx)
                    assert best_wrong == pytest.approx(metric_m2(*inp, ia, ib) + ln_es, rel=1e-12)

    def test_m4_requires_unit_snr(self):
        base = noiseless_relay_correct_input(0, 0, es=2.0)
        low = base._replace(k=dataclasses.replace(base.k, es=0.5))
        with pytest.raises(ValueError, match="es >= 1"):
            metric_m4(*low[:6], 1.0, 1.0, 1.0)


def pair_scan_oracle(inp: Frame):
    """Independent selection rule evaluation, mirroring the documented
    x_B-major scan and per-x_B branch comparison, built from the public
    metric functions only."""
    ln_es = math.log(inp.k.es)
    m = len(inp.pts)
    best = None
    for ib in range(m):
        m1s = [metric_m1(*inp, ia, ib) for ia in range(m)]
        m3s = [metric_m3(*inp, ia, ib) for ia in range(m)]
        b1 = min(m1s)
        b3 = min(m3s)
        if b1 < b3 + ln_es:
            cand = (b1, ib, m1s.index(b1), True)
        else:
            cand = (b3 + ln_es, ib, m3s.index(b3), False)
        if best is None or cand[0] < best[0]:
            best = cand
    return best[2], best[1], best[3]


class TestMinEuclideanDecode:
    def test_noiseless_relay_correct(self):
        for ia in range(4):
            for ib in range(4):
                inp = noiseless_relay_correct_input(ia, ib, es=5.0)
                assert decode_one(joint_min_distance, inp) == (ia, ib, True)

    def test_matches_independent_scan(self):
        rng = philox_stream(106, 0)
        for _ in range(1000):
            inp, _, _ = random_decode_input(rng, es=4.0)
            rows = []
            for ia in range(4):
                for ib in range(4):
                    rows.append((metric_m1(*inp, ia, ib), ia, ib))
            rows.sort()
            assert decode_one(joint_min_distance, inp)[:2] == rows[0][1:]

    def test_works_below_unit_energy(self):
        rng = philox_stream(107, 0)
        k = example1_constants(0.25)
        inp, _, _ = random_decode_input(rng, es=0.25, k=k)
        decode_one(joint_min_distance, inp)  # no exception


def plain_per_pair_scan(inp: Frame):
    """The literal rule from metric_m1/metric_m2: scan all pairs with x_B
    outermost, per-pair objective min(m1, ln(es) + m2), and keep the first
    strict improvement.  relay_correct is the branch of the winning x_B:
    True (trust the relay) only if its best m1 is strictly below
    ln(es) + its best min(m1, m2), so the relay-error branch wins ties."""
    m = len(inp.pts)
    ln_es = math.log(inp.k.es)
    best = None
    for ib in range(m):
        m1s = [metric_m1(*inp, ia, ib) for ia in range(m)]
        m2s = [metric_m2(*inp, ia, ib) for ia in range(m)]
        trust = min(m1s) < ln_es + min(map(min, m1s, m2s))
        for ia, (p, q) in enumerate(zip(m1s, m2s)):
            g = min(p, ln_es + q)
            if best is None or g < best[0]:
                best = (g, ia, ib, trust)
    return best[1:]


class TestNovelDecodeExhaustive:
    def test_noiseless_relay_correct_decodes_truth_via_m1(self):
        for ia in range(4):
            inp = noiseless_relay_correct_input(ia, (ia + 1) % 4, es=8.0)
            assert novel_decode_exhaustive(*inp) == (ia, (ia + 1) % 4, True)

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
        xa, xb = S4[ia], S4[ib]
        _, y_d1 = phase1(k, h, xa, xb, 0.0, 0.0)
        y_d2 = phase2(k, h, xa, xb, S4[0], 0.0)
        inp = make_input(y_d1, y_d2, h, k)

        ln_es = math.log(es)
        per_pair = {
            (i, j): min(metric_m1(*inp, i, j), ln_es + metric_m2(*inp, i, j))
            for i in range(4)
            for j in range(4)
        }
        assert min(per_pair, key=per_pair.get) == (ia, ib)
        assert per_pair[(ia, ib)] == pytest.approx(ln_es)

        assert novel_decode_exhaustive(*inp) == (ia, ib, False)
        assert decode_one(joint_min_distance, inp)[:2] == (1, 0)

    def test_matches_metric_level_oracle(self):
        rng = philox_stream(108, 0)
        for i in range(400):
            inp, _, _ = random_decode_input(rng, es=float(np.exp(i % 4)), force_relay_error=(i % 2 == 0))
            assert pair_scan_oracle(inp) == novel_decode_exhaustive(*inp)
            # the same frame read on the cfnc relay
            cfnc = inp._replace(code=CFNC4[0], constellation=CFNC4[1])
            assert pair_scan_oracle(cfnc) == novel_decode_exhaustive(*cfnc)

    def test_requires_unit_snr(self):
        rng = philox_stream(109, 0)
        inp, _, _ = random_decode_input(rng, es=0.5, k=example1_constants(0.5))
        with pytest.raises(ValueError, match="es >= 1"):
            novel_decode_exhaustive(*inp)

    @pytest.mark.parametrize("field,value", [("pts", make_psk(2).tolist()), ("code", modulo_latin(2).tolist())])
    def test_a_code_that_does_not_match_the_points_is_rejected(self, field, value):
        # a 4 x 4 code with 2 points, and a 2 x 2 code with 4 points
        inp = noiseless_relay_correct_input(0, 1, es=4.0)._replace(**{field: value})
        with pytest.raises(ValueError):
            novel_decode_exhaustive(*inp)

    def test_pair_matches_plain_per_pair_scan(self):
        for m, frames in ((2, 200), (4, 600), (8, 120), (16, 24)):
            s = make_psk(m).tolist()
            for j, f in enumerate((modulo_latin(m).tolist(), xor_latin(m).tolist())):
                rng = philox_stream(119, 2 * m + j)
                for i in range(frames):
                    es = (1.0, math.e, 20.0, 400.0)[i % 4]
                    inp, _, _ = random_decode_input(rng, es=es, force_relay_error=(i % 2 == 0), s=s, f=f)
                    assert novel_decode_exhaustive(*inp) == plain_per_pair_scan(inp)

    def test_rewrite_identity_m2_vs_m3(self):
        # min(m1, ln + m2) == min(m1, ln + m3) pointwise once es >= 1
        rng = philox_stream(110, 0)
        for es in (1.0, 2.0, 31.6, 1000.0):
            for _ in range(50):
                inp, _, _ = random_decode_input(rng, es=es)
                ln_es = math.log(es)
                for ia in range(4):
                    for ib in range(4):
                        lhs = min(metric_m1(*inp, ia, ib), ln_es + metric_m2(*inp, ia, ib))
                        rhs = min(metric_m1(*inp, ia, ib), ln_es + metric_m3(*inp, ia, ib))
                        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestFastDecode:
    def test_equivalence_random_frames(self):
        rng = philox_stream(111, 0)
        for i in range(3000):
            es = (1.0, 10.0, 100.0, 1000.0)[i % 4]
            inp, _, _ = random_decode_input(rng, es=es, force_relay_error=(i % 3 == 0))
            assert decode_one(fast_decode, inp) == novel_decode_exhaustive(*inp)

    def test_equivalence_with_swapped_roles(self):
        # only (W_B, W_R) orthogonal: d = 0 forces the role-swapped path
        k = SchemeConstants(a=INV, b=1.0, c=INV, d=0.0, es=50.0)
        rng = philox_stream(112, 0)
        for _ in range(2000):
            inp, _, _ = random_decode_input(rng, es=50.0, k=k)
            assert decode_one(fast_decode, inp) == novel_decode_exhaustive(*inp)

    def test_refuses_without_orthogonality(self):
        k = SchemeConstants(a=INV, b=INV, c=INV, d=INV * 1j, es=4.0)
        inp = make_input(0.0, 0.0, ChannelRealization(1.0, 1.0, 1.0, 1.0, 1.0), k)
        with pytest.raises(HrOrthogonalityError):
            decode_one(fast_decode, inp)

    def test_requires_unit_snr(self):
        inp = noiseless_relay_correct_input(0, 0, es=5.0)
        low = inp._replace(k=dataclasses.replace(inp.k, es=0.9))
        with pytest.raises(ValueError, match="es >= 1"):
            decode_one(fast_decode, low)

    def test_r13_vanishes_on_random_frames(self):
        rng = philox_stream(113, 0)
        for _ in range(500):
            inp, _, _ = random_decode_input(rng, es=25.0)
            r, _ = frame_rotation(inp)
            assert abs(r[0, 2]) < 1e-10


def relay_phis(inp: Frame, r, yt, ia, ib, xr):
    """phi_metrics for pair (ia, ib) of the frame's constellation, with the
    point its relay sends for that pair."""
    return phi_metrics(inp.k, r, yt, inp.pts[ia], inp.pts[ib], inp.constellation[inp.code[ia][ib]], xr)


class TestPhiMetrics:
    def test_phi1_plus_phi2_matches_m1(self):
        rng = philox_stream(114, 0)
        for _ in range(1000):
            inp, _, _ = random_decode_input(rng, es=12.0)
            r, yt = frame_rotation(inp)
            for ia in range(4):
                for ib in range(4):
                    p1, p2, _ = relay_phis(inp, r, yt, ia, ib, S4[0])
                    assert p1 + p2 == pytest.approx(metric_m1(*inp, ia, ib), abs=1e-8 * max(1.0, inp.k.es))

    def test_phi3_minimum_bounded_by_network_coded_choice(self):
        rng = philox_stream(115, 0)
        for _ in range(200):
            inp, _, _ = random_decode_input(rng, es=4.0)
            r, yt = frame_rotation(inp)
            for ia in range(4):
                for ib in range(4):
                    fpt = S4[MOD4[ia][ib]]
                    phi3_all = [relay_phis(inp, r, yt, ia, ib, xr)[2] for xr in S4]
                    assert relay_phis(inp, r, yt, ia, ib, fpt)[2] >= min(phi3_all) - 1e-15

    def test_zero_inputs_zero_metrics(self):
        k = example1_constants(1.0)
        inp = make_input(0.0, 0.0, ChannelRealization(1.0, 1.0, 1.0, 1.0, 1.0), k)
        r, _ = frame_rotation(inp)
        # zero received pair and zero symbols: every term vanishes
        phis = phi_metrics(k, r, (0.0, 0.0), 0.0, 0.0, 0.0, 0.0)
        assert phis == (0.0, 0.0, 0.0)

    def test_unitary_invariance_of_full_residual(self):
        rng = philox_stream(116, 0)
        for _ in range(300):
            inp, _, _ = random_decode_input(rng, es=9.0)
            r, yt = frame_rotation(inp)
            root = math.sqrt(inp.k.es)
            k = inp.k
            for ia in range(4):
                for ib in range(4):
                    for ir in range(4):
                        xa, xb, xr = S4[ia], S4[ib], S4[ir]
                        direct = (
                            abs(inp.y1 - k.a * inp.h_ad * root * xa - k.b * inp.h_bd * root * xb) ** 2
                            + abs(inp.y2 - k.c * inp.h_ad * root * xa - k.d * inp.h_bd * root * xb
                                  - inp.h_rd * root * xr) ** 2
                        )
                        rotated = (
                            abs(yt[0] - r[0, 0] * root * xa - r[0, 1] * root * xb - r[0, 2] * root * xr) ** 2
                            + abs(yt[1] - r[1, 1] * root * xb - r[1, 2] * root * xr) ** 2
                        )
                        assert rotated == pytest.approx(direct, abs=1e-8 * max(1.0, direct))

    def test_decomposition_at_fixed_xb(self):
        # min over (x_A, x_R) of m3 splits into independent minimisations
        rng = philox_stream(117, 0)
        for _ in range(200):
            inp, _, _ = random_decode_input(rng, es=16.0)
            r, yt = frame_rotation(inp)
            for ib in range(4):
                m3_min = min(metric_m3(*inp, ia, ib) for ia in range(4))
                phi1_min = min(relay_phis(inp, r, yt, ia, ib, S4[0])[0] for ia in range(4))
                phi3_min = min(relay_phis(inp, r, yt, 0, ib, xr)[2] for xr in S4)
                assert m3_min == pytest.approx(phi1_min + phi3_min, abs=1e-8 * max(1.0, m3_min))


class TestEvalCounts:
    @pytest.mark.parametrize("m", [4, 8, 16])
    def test_counts_follow_complexity_orders(self, m, scored_metrics):
        s = make_psk(m).tolist()
        f = modulo_latin(m).tolist()
        k = example1_constants(10.0)
        rng = philox_stream(118, m)
        h = one_channel(rng, PROFILE_PRESETS["equal"])
        inp = make_input(one_gaussian(rng, 1.0), one_gaussian(rng, 1.0), h, k, s, f)
        # per candidate x_B: phi1 and phi3 over every x_A / relay symbol
        assert scored_metrics(fast_decode, *inp) == 2 * m * m
        # per x_A: p1 over every x_B, p2 over every (x_B, relay symbol)
        assert scored_metrics(novel_decode_exhaustive_batch, *inp) == m**3 + m * m
        # per pair: one phase-1 and one phase-2 residual
        assert scored_metrics(joint_min_distance, *inp) == 2 * m * m
