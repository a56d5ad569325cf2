"""Sweep serialization: CSV emission/parsing, config files, plot scripts.

The CSV layout is part of the tool's contract: a block of ``#``-prefixed
``key=value`` metadata lines (constants, theta, seed, version string), the
fixed header row, then one row per SNR point.  Conditional probabilities
whose bin collected no trials serialize as an empty field, never as 0.
Floats are written with ``repr`` so parsing returns the exact values, and
nothing time- or host-dependent is written: the same spec and seed produce
byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import __version__
from .cfnc import DEFAULT_THETA
from .channel import PROFILE_PRESETS, FadingProfile
from .montecarlo import SepCurve, SweepSpec
from .scheme import EXAMPLE1_ABCD

CSV_HEADER = "snr_db,sep_joint,sep_a,sep_b,p_relay_err,p_err_rc,p_err_rw,trials"

_CSV_PROB_FIELDS = ("sep_joint", "sep_a", "sep_b", "p_relay_err", "p_err_rc", "p_err_rw")


def _fmt(x: float) -> str:
    return repr(float(x))


def curve_metadata(curve: SepCurve) -> dict[str, str]:
    spec = curve.spec
    a, b, c, d = spec.constants
    meta = {
        "version": __version__,
        "seed": str(spec.seed),
        "decoder": spec.decoder,
        "map": spec.map_kind,
        "m": str(spec.m),
        "trials_per_point": str(spec.trials_per_point),
        "error_target": str(spec.error_target),
        "a": f"{_fmt(a.real)},{_fmt(a.imag)}",
        "b": f"{_fmt(b.real)},{_fmt(b.imag)}",
        "c": f"{_fmt(c.real)},{_fmt(c.imag)}",
        "d": f"{_fmt(d.real)},{_fmt(d.imag)}",
        "theta": f"{_fmt(spec.theta.real)},{_fmt(spec.theta.imag)}",
        "var_ar": _fmt(spec.profile.var_ar),
        "var_br": _fmt(spec.profile.var_br),
        "var_ad": _fmt(spec.profile.var_ad),
        "var_bd": _fmt(spec.profile.var_bd),
        "var_rd": _fmt(spec.profile.var_rd),
    }
    if spec.decoder == "cfnc":
        meta["cfnc_power_norm"] = _fmt(spec.cfnc_config().power_norm)
        meta["cfnc_notes"] = (
            "reconstruction: constant relay scaling (unit mean energy, known at D); "
            "sources transmit in both phases with the same a,b,c,d split"
        )
    return meta


def curve_to_csv(curve: SepCurve) -> str:
    lines = [f"# {k}={v}" for k, v in curve_metadata(curve).items()]
    lines.append(CSV_HEADER)
    for p in curve.points:
        cells = [_fmt(p.snr_db)]
        for fieldname in _CSV_PROB_FIELDS:
            v = p.value(fieldname)
            cells.append("" if v is None else _fmt(v))
        cells.append(str(p.trials))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def emit_csv(curve: SepCurve, path) -> None:
    text = curve_to_csv(curve)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


@dataclass(frozen=True)
class ParsedCurve:
    metadata: dict[str, str]
    rows: tuple[dict[str, float | int | None], ...]


def parse_csv(path) -> ParsedCurve:
    metadata: dict[str, str] = {}
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    body = []
    for ln in lines:
        if ln.startswith("#"):
            k, _, v = ln[1:].strip().partition("=")
            metadata[k.strip()] = v
        elif ln:
            body.append(ln)
    if not body or body[0] != CSV_HEADER:
        raise ValueError(f"missing or unexpected header: {body[:1]!r}")
    names = CSV_HEADER.split(",")
    for ln in body[1:]:
        cells = ln.split(",")
        if len(cells) != len(names):
            raise ValueError(f"malformed row: {ln!r}")
        row: dict[str, float | int | None] = {}
        for name, cell in zip(names, cells):
            if name == "trials":
                row[name] = int(cell)
            elif cell == "":
                row[name] = None
            else:
                row[name] = float(cell)
        rows.append(row)
    return ParsedCurve(metadata=metadata, rows=tuple(rows))


def emit_plot_script(csv_paths, path, title: str = "symbol error probability") -> None:
    """Write a standalone matplotlib script that plots the given CSVs."""
    names = [str(p) for p in csv_paths]
    lines = [
        "#!/usr/bin/env python3",
        '"""Semilog SEP-vs-SNR plot for sweep CSVs emitted by marc-pnc."""',
        "import csv",
        "",
        "import matplotlib.pyplot as plt",
        "",
        f"CSV_FILES = {names!r}",
        "",
        "fig, ax = plt.subplots()",
        "for fname in CSV_FILES:",
        "    snr, sep, label = [], [], fname",
        "    with open(fname) as fh:",
        "        meta = {}",
        "        for row in csv.reader(ln for ln in fh if not ln.startswith('#')):",
        "            if row[0] == 'snr_db':",
        "                continue",
        "            if row[1]:",
        "                snr.append(float(row[0]))",
        "                sep.append(float(row[1]))",
        "    ax.semilogy(snr, sep, marker='o', label=label)",
        "ax.set_xlabel('SNR (dB)')",
        "ax.set_ylabel('SEP')",
        f"ax.set_title({title!r})",
        "ax.grid(True, which='both')",
        "ax.legend()",
        "plt.savefig('sep_plot.png', dpi=150)",
        "print('wrote sep_plot.png')",
        "",
    ]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines))


# ---------------------------------------------------------------------------
# Plain-text key=value configuration


CONFIG_KEYS = (
    "snr_db", "trials", "seed", "m", "map", "decoder", "error_target", "profile",
    "var_ar_db", "var_br_db", "var_ad_db", "var_bd_db", "var_rd_db",
    "a_re", "a_im", "b_re", "b_im", "c_re", "c_im", "d_re", "d_im",
    "theta_re", "theta_im",
)


def parse_config(text: str) -> dict[str, str]:
    """key=value lines; blank lines and #-comments ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
        k, v = (part.strip() for part in line.split("=", 1))
        if k not in CONFIG_KEYS:
            raise ValueError(f"config line {lineno}: unknown key {k!r}")
        out[k] = v
    return out


def spec_from_config(values: dict[str, str]) -> SweepSpec:
    """Build a SweepSpec from config values; unspecified fields default to
    the shipped scheme (4-PSK, modulo map, fast decoder, default constants,
    all link variances 0 dB)."""

    def get_float(key: str, default: float) -> float:
        return float(values[key]) if key in values else default

    if "profile" in values:
        name = values["profile"]
        if name not in PROFILE_PRESETS:
            raise ValueError(f"unknown profile preset {name!r}; choose from {sorted(PROFILE_PRESETS)}")
        profile = PROFILE_PRESETS[name]
    else:
        profile = FadingProfile.from_db(
            ar=get_float("var_ar_db", 0.0),
            br=get_float("var_br_db", 0.0),
            ad=get_float("var_ad_db", 0.0),
            bd=get_float("var_bd_db", 0.0),
            rd=get_float("var_rd_db", 0.0),
        )

    constants = tuple(
        complex(get_float(f"{name}_re", z.real), get_float(f"{name}_im", z.imag))
        for name, z in zip("abcd", EXAMPLE1_ABCD)
    )
    theta = complex(get_float("theta_re", DEFAULT_THETA.real), get_float("theta_im", DEFAULT_THETA.imag))

    snr_points = tuple(float(v) for v in values.get("snr_db", "0,10,20,30").split(","))
    return SweepSpec(
        snr_points_db=snr_points,
        trials_per_point=int(values.get("trials", "100000")),
        profile=profile,
        m=int(values.get("m", "4")),
        map_kind=values.get("map", "modulo"),
        decoder=values.get("decoder", "fast"),
        constants=constants,
        seed=int(values.get("seed", "0")),
        theta=theta,
        error_target=int(values.get("error_target", "10000")),
    )
