"""Command-line interface.

Subcommands:

* ``sweep``      -- run one Monte Carlo SNR sweep and emit a CSV.
* ``verify``     -- run the algebraic design checks (exclusive law, full
                    rank, weight-matrix orthogonality) and print the maps.
* ``equiv``      -- fast-vs-exhaustive decoder equivalence battery.
* ``reproduce``  -- run a named scenario (network-coded scheme vs the
                    combining baseline) and report the measured gain.

Worker threads for sweeps come from --threads or the MARC_PNC_THREADS
environment variable; results are identical for any thread count.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .channel import PROFILE_PRESETS
from .diversity import InsufficientDataError, estimate_diversity, probability_window
from .montecarlo import DECODERS, MAP_KINDS, SepCurve, SweepSpec, equivalence_battery, run_sweep
from .netmap import check_exclusive_law, modulo_latin, xor_latin
from .scheme import (
    SchemeConstants,
    check_full_rank_condition,
    check_hr_orthogonal,
    example1_constants,
    weight_matrices,
)
from .signalset import make_psk
from .sweepio import CONFIG_KEYS, emit_csv, emit_plot_script, parse_config, spec_from_config

#: Scenario presets: fading profile plus the nominal high-SNR gain (dB) of
#: the network-coded scheme over the combining baseline, used purely as a
#: reference figure in reports.
SCENARIOS = {
    "equal": {"profile": "equal", "reference_gain_db": 3.3},
    "sr-strong": {"profile": "sr-strong", "reference_gain_db": 3.0},
    "rd-strong": {"profile": "rd-strong", "reference_gain_db": 6.5},
}


def _add_sweep_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="key=value config file; flags override it")
    p.add_argument("--snr-db", help="comma-separated SNR grid in dB")
    p.add_argument("--trials", type=int, help="trial cap per SNR point")
    p.add_argument("--error-target", type=int, help="stop a point early after this many errors")
    p.add_argument("--seed", type=int, help="RNG seed")
    p.add_argument("--m", type=int, help="constellation size (power of two)")
    p.add_argument("--map", choices=MAP_KINDS, help="relay network-coding map")
    p.add_argument("--decoder", choices=DECODERS, help="destination decoder")
    p.add_argument("--profile", choices=sorted(PROFILE_PRESETS), help="fading preset")
    for link in ("ar", "br", "ad", "bd", "rd"):
        p.add_argument(f"--var-{link}-db", type=float, help=f"{link.upper()} link variance in dB")
    for const in ("a", "b", "c", "d"):
        for part in ("re", "im"):
            p.add_argument(f"--{const}-{part}", type=float, help=f"{part} part of constant {const}")
    p.add_argument("--theta-re", type=float, help="re part of baseline combining coefficient")
    p.add_argument("--theta-im", type=float, help="im part of baseline combining coefficient")
    p.add_argument("--threads", type=int, default=None, help="worker threads (default: MARC_PNC_THREADS or 1)")


def _spec_from_args(args: argparse.Namespace) -> SweepSpec:
    values: dict[str, str] = {}
    if args.config is not None:
        values.update(parse_config(args.config.read_text()))
    # Every config key is also the dest of the flag that overrides it.
    for key in CONFIG_KEYS:
        v = getattr(args, key)
        if v is not None:
            values[key] = str(v)
    return spec_from_config(values)


def _print_point(point) -> None:
    rc = "-" if point.p_err_rc is None else f"{point.p_err_rc:.3e}"
    rw = "-" if point.p_err_rw is None else f"{point.p_err_rw:.3e}"
    print(
        f"  {point.snr_db:6.1f} dB  sep={point.sep_joint:.3e}  relay_err={point.p_relay_err:.3e}  "
        f"err|rc={rc}  err|rw={rw}  trials={point.trials}",
        flush=True,
    )


def cmd_sweep(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    print(f"sweep: decoder={spec.decoder} map={spec.map_kind} m={spec.m} seed={spec.seed}")
    curve = run_sweep(spec, threads=args.threads, progress=_print_point)
    emit_csv(curve, args.out)
    print(f"wrote {args.out}")
    if args.plot_script:
        emit_plot_script([args.out], args.plot_script)
        print(f"wrote {args.plot_script}")
    return 0


def _check(label: str, ok: bool, failures: list[str]) -> None:
    print(f"  [{'PASS' if ok else 'FAIL'}] {label}")
    if not ok:
        failures.append(label)


def cmd_verify(_args: argparse.Namespace) -> int:
    failures: list[str] = []
    print("exclusive law (modulo and XOR maps, plus violators):")
    for m in (2, 4, 8, 16):
        _check(f"modulo-{m} map satisfies the exclusive law", check_exclusive_law(modulo_latin(m).cells), failures)
        _check(f"xor-{m} map satisfies the exclusive law", check_exclusive_law(xor_latin(m).cells), failures)
    violators = {
        "constant map": [[0] * 4 for _ in range(4)],
        "first-argument-only map": [[r] * 4 for r in range(4)],
        "repeated-row map": [[0, 1, 2, 3], [0, 1, 2, 3], [2, 3, 0, 1], [3, 0, 1, 2]],
    }
    for name, cells in violators.items():
        _check(f"{name} rejected", not check_exclusive_law(cells), failures)

    print("full-rank condition for the restricted difference matrices:")
    k = example1_constants(1.0)
    for m in (4, 8):
        _check(f"default constants pass on {m}-PSK", check_full_rank_condition(k, make_psk(m)), failures)
    inv = 1.0 / math.sqrt(2.0)
    flat = SchemeConstants(a=inv, b=inv, c=inv, d=inv, es=1.0)
    _check("a=b=c=d=1/sqrt(2) rejected on 4-PSK", not check_full_rank_condition(flat, make_psk(4)), failures)

    print("weight-matrix orthogonality:")
    wm = weight_matrices(k)
    _check("(W_A, W_R) Hurwitz-Radon orthogonal", check_hr_orthogonal(wm.wa, wm.wr), failures)
    _check("(W_B, W_R) not orthogonal", not check_hr_orthogonal(wm.wb, wm.wr), failures)

    print("relay maps (rows: source A index, columns: source B index):")
    print("modulo-4:")
    print("  " + modulo_latin(4).to_text().replace("\n", "\n  "))
    print("xor-4:")
    print("  " + xor_latin(4).to_text().replace("\n", "\n  "))

    if failures:
        print(f"{len(failures)} check(s) FAILED")
        return 1
    print("all checks passed")
    return 0


def cmd_equiv(args: argparse.Namespace) -> int:
    report = equivalence_battery(frames_per_cell=args.frames_per_cell, seed=args.seed)
    print(f"frames compared: {report.frames}")
    print(f"mismatches:      {report.mismatches}")
    if report.mismatches:
        print(f"first mismatch:  {report.first_mismatch}")
        return 1
    print("fast decoder is output-identical to the exhaustive reference")
    return 0


def snr_at_sep(curve: SepCurve, target: float) -> float | None:
    """SNR (dB) at which the curve crosses the target SEP, by log-linear
    interpolation; None if the curve never crosses it."""
    pts = [(p.snr_db, p.sep_joint) for p in curve.points if p.errors > 0]
    for (s0, p0), (s1, p1) in zip(pts, pts[1:]):
        if p0 >= target >= p1 and p0 > p1 > 0:
            t = (math.log10(p0) - math.log10(target)) / (math.log10(p0) - math.log10(p1))
            return s0 + t * (s1 - s0)
    return None


def cmd_reproduce(args: argparse.Namespace) -> int:
    scenario = SCENARIOS[args.scenario]
    profile = PROFILE_PRESETS[scenario["profile"]]
    if args.quick:
        grid = tuple(float(v) for v in range(4, 25, 4))
        trials, target = 400_000, 2_000
    else:
        grid = tuple(float(v) for v in range(4, 29, 2))
        trials, target = 8_000_000, 4_000
    outdir = args.outdir
    outdir.mkdir(parents=True, exist_ok=True)

    curves: dict[str, SepCurve] = {}
    paths = {}
    for decoder in ("fast", "cfnc"):
        spec = SweepSpec(
            snr_points_db=grid,
            trials_per_point=trials,
            profile=profile,
            decoder=decoder,
            seed=args.seed,
            error_target=target,
        )
        print(f"running {decoder} sweep on scenario {args.scenario!r}:")
        curves[decoder] = run_sweep(spec, threads=args.threads, progress=_print_point)
        paths[decoder] = outdir / f"{args.scenario}_{decoder}.csv"
        emit_csv(curves[decoder], paths[decoder])
        print(f"wrote {paths[decoder]}")
    script = outdir / f"{args.scenario}_plot.py"
    emit_plot_script([paths["fast"], paths["cfnc"]], script, title=f"scenario {args.scenario}")
    print(f"wrote {script}")

    print(f"reference high-SNR gain for this scenario: {scenario['reference_gain_db']} dB")
    for target_sep in (1e-2, 1e-3):
        s_pnc = snr_at_sep(curves["fast"], target_sep)
        s_cfnc = snr_at_sep(curves["cfnc"], target_sep)
        if s_pnc is None or s_cfnc is None:
            print(f"SEP={target_sep:g}: not crossed by both curves on this grid")
        else:
            print(
                f"SEP={target_sep:g}: network-coded at {s_pnc:.2f} dB, baseline at {s_cfnc:.2f} dB, "
                f"measured gain {s_cfnc - s_pnc:.2f} dB"
            )
    try:
        fit = estimate_diversity(curves["fast"], "sep_joint", probability_window(curves["fast"], "sep_joint", (1e-7, 1e-2)))
        print(f"fitted diversity order (network-coded scheme): {fit.slope:.2f} over {fit.fit_window_db} dB")
    except InsufficientDataError as exc:  # too few points on quick grids
        print(f"diversity fit skipped: {exc}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="marc-pnc", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a Monte Carlo SNR sweep")
    _add_sweep_args(p_sweep)
    p_sweep.add_argument("--out", type=Path, default=Path("sweep.csv"), help="output CSV path")
    p_sweep.add_argument("--plot-script", type=Path, help="also emit a matplotlib plot script")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the algebraic design checks")
    p_verify.set_defaults(func=cmd_verify)

    p_equiv = sub.add_parser("equiv", help="fast-vs-exhaustive equivalence battery")
    p_equiv.add_argument("--frames-per-cell", type=int, default=8400, help="frames per (SNR, profile) cell")
    p_equiv.add_argument("--seed", type=int, default=2024)
    p_equiv.set_defaults(func=cmd_equiv)

    p_rep = sub.add_parser("reproduce", help="run a named comparison scenario")
    p_rep.add_argument("scenario", choices=sorted(SCENARIOS))
    p_rep.add_argument("--outdir", type=Path, default=Path("reproduction"))
    p_rep.add_argument("--seed", type=int, default=7)
    p_rep.add_argument("--quick", action="store_true", help="small budgets for a fast smoke run")
    p_rep.add_argument("--threads", type=int, default=None)
    p_rep.set_defaults(func=cmd_reproduce)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
