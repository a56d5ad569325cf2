"""Golden outputs: the SHA-256 of ``curve_to_csv`` for a pinned spec
matrix, and of the scalar exhaustive oracle's decisions on a pinned frame
set.

The matrix covers every decoder on both relay maps, M in {4, 8} and the
three fading presets, plus the role-swapped fast path (d = 0, so only the
B and relay weight matrices are Hurwitz-Radon orthogonal).  The lowest SNR
point is 0 dB, where the es = 1 tie rule decides every aware-decoder frame.
The default combining coefficient collides on 8-PSK, so cfnc at M = 8 uses
exp(i*pi/8).  Any change to draws, decoder arithmetic, tie-breaking or the
CSV layout changes a digest.

The oracle digest pins ``novel_decode_exhaustive``, which no sweep runs:
its (index_a, index_b, branch) on frames drawn with ``draw_batch`` for M in
{2, 4, 8, 16}, both maps, es in {1, 10, 1000} and both constant choices,
half of them with a uniformly random relay symbol, plus one all-zero frame
per setting, on which every candidate ties.

The battery digest pins the frames ``equivalence_battery`` hands the
scalar oracle: the five received values and fades of every call, with the
oracle's answer.

Every point of that matrix is one partial batch, so it cannot see how a
sweep is split into batches and rounds.  The benchmark's seed-0 sweeps
(``benchmarks/golden.json``) can: each point runs up to four full batches
and one partial, over two rounds.  They are rerun here too.
"""

import cmath
import hashlib
import math

import numpy as np
import pytest

from marc_pnc import montecarlo
from marc_pnc.channel import PROFILE_PRESETS
from marc_pnc.destination import novel_decode_exhaustive
from marc_pnc.montecarlo import DECODERS, MAP_KINDS, SweepSpec, draw_batch, run_sweep, transmit
from marc_pnc.netmap import modulo_latin, xor_latin
from marc_pnc.numerics import philox_stream
from marc_pnc.scheme import EXAMPLE1_ABCD, SchemeConstants
from marc_pnc.signalset import make_psk
from marc_pnc.sweepio import curve_to_csv

SNR_DB = (0.0, 10.0, 20.0)
TRIALS = 10_000
SEED = 11
INV = 1.0 / math.sqrt(2.0)
ROLE_SWAP_CONSTANTS = (INV + 0j, 1.0 + 0j, INV + 0j, 0j)

GOLDEN = {
    "cfnc-modulo-m4-equal": "c8e553cdc0bafb0ee4ed4d06523088707483f359b54b1ca0be1b3e43cd0f5390",
    "cfnc-modulo-m4-rd-strong": "f81990d6b308aec9e3acc19aaeb8d3601b462dffed3ecb81471e5a08290f165d",
    "cfnc-modulo-m4-sr-strong": "032ec95c3333fdc3bad8740af9561c451e039412325801bde69c093209667724",
    "cfnc-modulo-m8-equal": "6e30a531b0fd8f2dbeb34bf58d99a19d47a39edaa0d1d758eeb771918c5798df",
    "cfnc-modulo-m8-rd-strong": "e270b8fc6a33cb588de32037d38e96349026f53d10ef33b95de72fb5e3642867",
    "cfnc-modulo-m8-sr-strong": "e355cd445bc9b4143d29005d54b0b56847c313746798e28bc29918a7b16e752a",
    "cfnc-xor-m4-equal": "643681ce01a56c88c13111abe1cf3307a092616b0be011a02a0a5b1bf41e8965",
    "cfnc-xor-m4-rd-strong": "58f54ca2c6527d1106f90742b68fa423a736d43696d38a2271392f18c638e8c5",
    "cfnc-xor-m4-sr-strong": "17b1a8a7d7cbd599b5d9a8a2da99294cb56e82e343747f386941f0bdced1724e",
    "cfnc-xor-m8-equal": "c065ab0cf5e5c9468aa45a89b611bed6a0db75ec1004b335d5d25b70298c8188",
    "cfnc-xor-m8-rd-strong": "ff428e75e2f93cbea9d7b1e59afe37027262bfe8805508b3247b7ff4b2d205cf",
    "cfnc-xor-m8-sr-strong": "d684eaa1ee4bfa35933a52f6e403a2d4880acd572a570167fbf29ea92da1ab15",
    "fast-modulo-m4-equal": "f19a54f5c747c80e5b0eace035ce4a3eb791bb2c2c4487c0f9dab7a6bb5a6526",
    "fast-modulo-m4-rd-strong": "734d42583a84bf31c2b85a60c38d04356f268613c433adf14218de85f28c2ccb",
    "fast-modulo-m4-sr-strong": "a16e3d1f87f75a3ffa349d710b2a8b3c62ec23257ee2fe3d1a64ee6fcf473466",
    "fast-modulo-m8-equal": "e3a93c7e690d2cf28e3706ca11cfc4a6fdfd2eb9e1107c5ec3f2364222cf68a9",
    "fast-modulo-m8-rd-strong": "291db6c6446a37f9dbf37d09bdefa3c888800de2b5e167002a58c01e647ffec8",
    "fast-modulo-m8-sr-strong": "68a078bebc9c96859e4848d3b8a99eba87e83b1981367532d089e3839f15bab8",
    "fast-xor-m4-equal": "1d416eb396a02e0adacf3b3c7459f9fd47b47adef38aa00f8afbbc93013df414",
    "fast-xor-m4-rd-strong": "ceb90f5faff1230a761adb58320e623d0672a7d5666397bc37b857bb9f84823a",
    "fast-xor-m4-sr-strong": "12b450111667f1bad438c69894490a33ca8cf1599665b95c9a2679e97fd24634",
    "fast-xor-m8-equal": "e086d7cf84a24079754015c66cba1c0c9c9d843b87cddc119a0f3d375fb6c7de",
    "fast-xor-m8-equal-role-swap": "968f5fdd8f37e45adcfc7102bb49235618fc6768a81b4a646ae2182bc10bb0d5",
    "fast-xor-m8-rd-strong": "77ae92c1bee9606e3a57d04e72d0c97657b00ac81c9c658b92af87258fb4f599",
    "fast-xor-m8-sr-strong": "0c469d8836ca8999fa5a9748906aa32a518777878e62fee3a57e33d4d5bf3358",
    "min-euclid-modulo-m4-equal": "f48c714de8c5f22cab6e976defa78056645eec4addc3df913043e4482bd7414a",
    "min-euclid-modulo-m4-rd-strong": "0aa4809b4fb59af37fdd6363b7d11f84676501c09fc22e93358bf61327467ec3",
    "min-euclid-modulo-m4-sr-strong": "4d248986263955c5c39c8d41be1b821e8a1310d0bc2f1e9d767f9309235ee247",
    "min-euclid-modulo-m8-equal": "37781bf6a7c6de6977a4edcfdf0db7a6a9d1c5d29e000153888f3b3ac6b482a8",
    "min-euclid-modulo-m8-rd-strong": "cda936c503fab28346a02403f9ca0061f86dfba77aab0ea5b87d70778702b7ca",
    "min-euclid-modulo-m8-sr-strong": "8e31db268a8f73ea9dc1196b3b9a1f9b3a733f0396deef84ee62cf7a990dc8c7",
    "min-euclid-xor-m4-equal": "e9e6b76f3f43f7b0090c98127fc93d0c1dedde3c6408ba3ae00b2424e210a30a",
    "min-euclid-xor-m4-rd-strong": "5ccdd4160bab6e1ebce8e4fbf5647b43b2ba21a896a22f95144532f217aeeda3",
    "min-euclid-xor-m4-sr-strong": "872d3a415938bdb2601f8c537c7a6316bf1390b72e59a3f0fe1157a40e2b518b",
    "min-euclid-xor-m8-equal": "a62100bc9324108089807a5502a26a8e25dc9c88b2be4e7c2eb08f31e4394b66",
    "min-euclid-xor-m8-rd-strong": "75a9583698c61ac250d49986df01631d67c3f43a78102b4e334dba3d81fbdaba",
    "min-euclid-xor-m8-sr-strong": "b264b4a93a0b90abfa0198c089fa028b1f574041d6963713989c01968d6f2d4e",
    "novel-exhaustive-modulo-m4-equal": "102f1dbffa33940f12039fb94f975e16f2724e12e569b2c071d9cf2e43dcb5d2",
    "novel-exhaustive-modulo-m4-rd-strong": "6eb2f1b3a985109bee7cd107dd19713c83a48f67a07f98d1931035121bc97320",
    "novel-exhaustive-modulo-m4-sr-strong": "d201c126c416b3a7cfaf78e152839d9b176b8c2af967da4fef65b62e77072e00",
    "novel-exhaustive-modulo-m8-equal": "e5a2c160ab6312e3e8ffd1c91da5dda234fa266ed27db0a434c75859c476224f",
    "novel-exhaustive-modulo-m8-rd-strong": "9d59778e6aa9a3b399b0d59691ee872885a2857c3f9d05daf9a8ffa87af748ab",
    "novel-exhaustive-modulo-m8-sr-strong": "584a0f7d86af2821964bff9b414029e22c6f06b4766348e49cf40d54e6af054e",
    "novel-exhaustive-xor-m4-equal": "a91836255cdd62929b0f5063a37672614a5b62fdc87708b6d3e820f434828cc8",
    "novel-exhaustive-xor-m4-rd-strong": "23d5d48179e4eccf05b0f372a77a26b44f5003697f8228d09270a21eb9dd0955",
    "novel-exhaustive-xor-m4-sr-strong": "b0dd9b4086b33374a29b1116ec3e1ef22a061255ab6676d9f7863a770457ee8b",
    "novel-exhaustive-xor-m8-equal": "fcf80238f7ddf678f783bc44fd26b3864ba04016b85a63c0e8919651cbbb43c6",
    "novel-exhaustive-xor-m8-rd-strong": "deef7fc185b5d01bc6bfaec4df0b870aabcc97f8cc1903ff20423bac7fffdbb4",
    "novel-exhaustive-xor-m8-sr-strong": "b22673e964cc1e4d097b4230202d8bfb851b727e061a4e987bdc7ce1cc371dab",
}


def golden_specs():
    specs = {}
    for decoder in DECODERS:
        for map_kind in MAP_KINDS:
            for m in (4, 8):
                for profile in PROFILE_PRESETS:
                    extra = {"theta": cmath.exp(1j * math.pi / 8)} if decoder == "cfnc" and m == 8 else {}
                    specs[f"{decoder}-{map_kind}-m{m}-{profile}"] = SweepSpec(
                        snr_points_db=SNR_DB, trials_per_point=TRIALS, profile=PROFILE_PRESETS[profile],
                        m=m, map_kind=map_kind, decoder=decoder, seed=SEED, **extra,
                    )
    specs["fast-xor-m8-equal-role-swap"] = SweepSpec(
        snr_points_db=SNR_DB, trials_per_point=TRIALS, profile=PROFILE_PRESETS["equal"],
        m=8, map_kind="xor", decoder="fast", seed=SEED, constants=ROLE_SWAP_CONSTANTS,
    )
    return specs


def digest(spec: SweepSpec) -> str:
    return hashlib.sha256(curve_to_csv(run_sweep(spec, threads=1)).encode("ascii")).hexdigest()


def test_matrix_is_complete():
    assert set(golden_specs()) == set(GOLDEN)


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_csv_digest(label):
    assert digest(golden_specs()[label]) == GOLDEN[label]


def test_benchmark_sweeps_match_their_golden_digests(bench):
    workloads, _ = bench
    golden = workloads.load_golden()
    curves = {}
    for workload in ("paper-m4", "highorder-m16"):
        plan = workloads.build_plan(workload, workloads.DEFAULT_SEED)
        for sw in plan.sweeps + plan.checks:
            curve = run_sweep(sw.spec, threads=plan.threads)
            text = curve_to_csv(curve)
            assert hashlib.sha256(text.encode("ascii")).hexdigest() == golden[sw.label], sw.label
            curves[sw.label] = curve.points
        for a, b in plan.identical:
            assert curves[a] == curves[b], (a, b)
    assert set(curves) == set(golden)


ORACLE_FRAMES = 40
ORACLE_DIGEST = "ad465d10967f04883e4f88cf81728ebb055524dfaeb9d2f1604837f090a420d2"


def oracle_inputs():
    """The pinned frame set: (setting, the oracle's arguments) in a fixed
    order."""
    stream = 0
    for m in (2, 4, 8, 16):
        pts = make_psk(m)
        points = pts.tolist()
        for map_kind in MAP_KINDS:
            cells = modulo_latin(m) if map_kind == "modulo" else xor_latin(m)
            table = cells.tolist()
            for es in (1.0, 10.0, 1000.0):
                for constants in (EXAMPLE1_ABCD, ROLE_SWAP_CONSTANTS):
                    k = SchemeConstants(*constants, es=es)
                    gen = philox_stream(SEED, stream)
                    stream += 1
                    d = draw_batch(gen, PROFILE_PRESETS["equal"], m, ORACLE_FRAMES)
                    forced = gen.random(ORACLE_FRAMES) < 0.5
                    x_forced = pts[gen.integers(0, m, size=ORACLE_FRAMES)]
                    rx = transmit(d, k, pts, cells, pts)
                    x_r = np.where(forced, x_forced, pts[cells[rx.relay_a, rx.relay_b]])
                    root = math.sqrt(es)
                    y_d2 = d.h_ad * (root * k.c) * pts[d.ia] + d.h_bd * (root * k.d) * pts[d.ib] + d.h_rd * root * x_r + d.z_d2
                    columns = zip(rx.y_d1.tolist(), y_d2.tolist(), d.h_ad.tolist(), d.h_bd.tolist(), d.h_rd.tolist())
                    label = f"m{m}-{map_kind}-es{es:g}-{'default' if constants == EXAMPLE1_ABCD else 'role-swap'}"
                    for y_d1, y2, h_ad, h_bd, h_rd in [*columns, (0j,) * 5]:
                        yield label, (y_d1, y2, h_ad, h_bd, h_rd, k, points, table, points)


def test_oracle_decisions_digest():
    h = hashlib.sha256()
    for label, frame in oracle_inputs():
        index_a, index_b, relay_correct = novel_decode_exhaustive(*frame)
        branch = "RELAY_CORRECT" if relay_correct else "RELAY_ERROR"
        h.update(f"{label} {index_a} {index_b} {branch}\n".encode("ascii"))
    assert h.hexdigest() == ORACLE_DIGEST


BATTERY_DIGEST = "bcf0fa34543fcd958fef3885cb8b217294c1cbef6d14a15387c770525b23eee6"


def test_battery_oracle_arguments_digest(monkeypatch):
    h = hashlib.sha256()
    calls = 0

    def hashed(*args):
        nonlocal calls
        result = novel_decode_exhaustive(*args)
        h.update(repr((args[:5], result)).encode())
        calls += 1
        return result

    monkeypatch.setattr(montecarlo, "novel_decode_exhaustive", hashed)
    report = montecarlo.equivalence_battery(frames_per_cell=20, seed=20401)
    assert (calls, report.mismatches) == (240, 0)
    assert h.hexdigest() == BATTERY_DIGEST
