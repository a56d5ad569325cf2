"""Command-line interface.

Subcommands:

* ``sweep``      -- run one Monte Carlo SNR sweep and emit a CSV.
* ``verify``     -- run the algebraic design checks (exclusive law, full
                    rank, weight-matrix orthogonality) and print the maps.
* ``equiv``      -- fast-vs-exhaustive decoder equivalence battery.
* ``reproduce``  -- run a named scenario (network-coded scheme vs the
                    combining baseline) and report the measured gain.

``sweep`` has one flag per config key of ``sweepio.CONFIG_KEYS``
(``snr_db`` is ``--snr-db``), which overrides that key of ``--config``;
``sweepio.spec_from_config`` parses both.  Worker threads for sweeps come
from --threads or the MARC_PNC_THREADS environment variable; results are
identical for any thread count.

Bad input, a parser error included, prints one ``marc-pnc <command>:
<message>`` line on stderr and exits 2.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

from .channel import PROFILE_PRESETS
from .diversity import ASYMPTOTIC_BAND, InsufficientDataError, estimate_diversity
from .montecarlo import SepCurve, SweepSpec, equivalence_battery, run_sweep, thread_count
from .netmap import modulo_latin, xor_latin
from .scheme import design_checks
from .sweepio import CONFIG_KEYS, emit_csv, emit_plot_script, parse_config, spec_from_config

#: Scenarios, one per fading preset, each with the nominal high-SNR gain
#: (dB) of the network-coded scheme over the combining baseline, used purely
#: as a reference figure in reports.
REFERENCE_GAIN_DB = {"equal": 3.3, "sr-strong": 3.0, "rd-strong": 6.5}


def _add_sweep_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="key=value config file; flags override it")
    # One flag per config key, kept as text: spec_from_config parses a flag
    # and a config line alike.
    for key, text in CONFIG_KEYS.items():
        p.add_argument("--" + key.replace("_", "-"), help=text)
    p.add_argument("--threads", type=int, default=None, help="worker threads (default: MARC_PNC_THREADS or 1)")


def _spec_from_args(args: argparse.Namespace) -> SweepSpec:
    values = {} if args.config is None else parse_config(args.config.read_text())
    # Every config key is also the dest of the flag that overrides it.
    flags = vars(args)
    values.update((key, flags[key]) for key in CONFIG_KEYS if flags[key] is not None)
    return spec_from_config(values)


def _print_point(point) -> None:
    rc = "-" if point.p_err_rc is None else f"{point.p_err_rc:.3e}"
    rw = "-" if point.p_err_rw is None else f"{point.p_err_rw:.3e}"
    print(
        f"  {point.snr_db:6.1f} dB  sep={point.sep_joint:.3e}  relay_err={point.p_relay_err:.3e}  "
        f"err|rc={rc}  err|rw={rw}  trials={point.trials}",
        flush=True,
    )


def _input_error(command: str, exc: Exception) -> int:
    print(f"marc-pnc {command}: {exc}", file=sys.stderr)
    return 2


def _check_output_path(path: Path) -> None:
    """Fail before a sweep runs where ``path`` cannot be written as a file:
    its directory does not exist, or it is a directory itself."""
    if not path.parent.is_dir():
        raise FileNotFoundError(f"no directory {str(path.parent)!r} to write {str(path)!r} in")
    if path.is_dir():
        raise IsADirectoryError(f"{str(path)!r} is a directory")


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        spec = _spec_from_args(args)
        threads = thread_count(args.threads)
        _check_output_path(args.out)
        if args.plot_script:
            _check_output_path(args.plot_script)
    except (OSError, ValueError) as exc:
        return _input_error("sweep", exc)
    print(f"sweep: decoder={spec.decoder} map={spec.map_kind} m={spec.m} seed={spec.seed}")
    curve = run_sweep(spec, threads=threads, progress=_print_point)
    emit_csv(curve, args.out)
    print(f"wrote {args.out}")
    if args.plot_script:
        emit_plot_script([args.out], args.plot_script)
        print(f"wrote {args.plot_script}")
    return 0


def cmd_verify(_args: argparse.Namespace) -> int:
    failures = 0
    for heading, checks in design_checks().items():
        print(f"{heading}:")
        for label, ok in checks:
            print(f"  [{'PASS' if ok else 'FAIL'}] {label}")
            failures += not ok

    print("relay maps (rows: source A index, columns: source B index):")
    for name, table in (("modulo-4", modulo_latin(4)), ("xor-4", xor_latin(4))):
        print(f"{name}:")
        for row in table.tolist():
            print("  " + " ".join(map(str, row)))

    if failures:
        print(f"{failures} check(s) FAILED")
        return 1
    print("all checks passed")
    return 0


def cmd_equiv(args: argparse.Namespace) -> int:
    given = {name: getattr(args, name) for name in ("frames_per_cell", "seed") if getattr(args, name) is not None}
    start = time.perf_counter()
    try:
        report = equivalence_battery(**given)
    except ValueError as exc:
        return _input_error("equiv", exc)
    wall = time.perf_counter() - start
    print(f"equiv: {wall:.2f} s, {report.frames / wall:.0f} frames/s", file=sys.stderr)
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
    profile = PROFILE_PRESETS[args.scenario]
    if args.quick:
        grid = tuple(float(v) for v in range(4, 25, 4))
        trials, target = 400_000, 2_000
    else:
        grid = tuple(float(v) for v in range(4, 29, 2))
        trials, target = 8_000_000, 4_000
    outdir = args.outdir
    try:
        threads = thread_count(args.threads)
        outdir.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        return _input_error("reproduce", exc)

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
        curves[decoder] = run_sweep(spec, threads=threads, progress=_print_point)
        paths[decoder] = outdir / f"{args.scenario}_{decoder}.csv"
        emit_csv(curves[decoder], paths[decoder])
        print(f"wrote {paths[decoder]}")
    script = outdir / f"{args.scenario}_plot.py"
    emit_plot_script([paths["fast"], paths["cfnc"]], script, title=f"scenario {args.scenario}")
    print(f"wrote {script}")

    print(f"reference high-SNR gain for this scenario: {REFERENCE_GAIN_DB[args.scenario]} dB")
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
        fit = estimate_diversity(curves["fast"], "sep_joint", ASYMPTOTIC_BAND)
        print(f"fitted diversity order (network-coded scheme): {fit.slope:.2f} over {fit.fit_window_db} dB")
    except InsufficientDataError as exc:  # too few points on quick grids
        print(f"diversity fit skipped: {exc}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``prog: message`` line, like every
    other bad input; its subcommand parsers are of the same class."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="marc-pnc", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a Monte Carlo SNR sweep")
    _add_sweep_args(p_sweep)
    p_sweep.add_argument("--out", type=Path, default=Path("sweep.csv"), help="output CSV path")
    p_sweep.add_argument("--plot-script", type=Path, help="also emit a matplotlib plot script")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the algebraic design checks")
    p_verify.set_defaults(func=cmd_verify)

    p_equiv = sub.add_parser("equiv", help="fast-vs-exhaustive equivalence battery")
    # Unset flags fall back to equivalence_battery's own defaults.
    p_equiv.add_argument("--frames-per-cell", type=int, help="frames per (SNR, profile) cell")
    p_equiv.add_argument("--seed", type=int)
    p_equiv.set_defaults(func=cmd_equiv)

    p_rep = sub.add_parser("reproduce", help="run a named comparison scenario")
    p_rep.add_argument("scenario", choices=sorted(REFERENCE_GAIN_DB))
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
