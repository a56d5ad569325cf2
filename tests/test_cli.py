import re

import pytest

from marc_pnc import cli
from marc_pnc.cfnc import DEFAULT_THETA
from marc_pnc.cli import main, snr_at_sep
from marc_pnc.channel import PROFILE_PRESETS
from marc_pnc.montecarlo import EquivalenceReport, SepCurve, SepPoint, SweepSpec
from marc_pnc.scheme import EXAMPLE1_ABCD
from marc_pnc.sweepio import CONFIG_KEYS, parse_csv

#: Per config key, two valid values: one for the config file, one for the
#: flag.  The parts of a-d and theta flip sign, so a zero part becomes -0.0.
OVERRIDES = {
    "snr_db": ("0,10", "5"), "trials": ("100", "200"), "seed": ("1", "2"), "m": ("4", "8"),
    "map": ("modulo", "xor"), "decoder": ("fast", "min-euclid"), "error_target": ("10", "20"),
    "profile": ("equal", "rd-strong"),
    **{f"var_{link}_db": ("0", "3") for link in ("ar", "br", "ad", "bd", "rd")},
    **{
        f"{name}_{part}": (repr(x), repr(-x))
        for name, z in zip(("a", "b", "c", "d", "theta"), (*EXAMPLE1_ABCD, DEFAULT_THETA))
        for part, x in (("re", z.real), ("im", z.imag))
    },
}


#: Per config key, a value that does not parse.
BAD_VALUES = {"error_target": "1e6", "snr_db": "0,,10", "m": "4.0", "theta_re": "x"}


class TestVerify:
    def test_passes_and_prints_checks(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") >= 12
        assert "[FAIL]" not in out
        assert out.endswith(
            "relay maps (rows: source A index, columns: source B index):\n"
            "modulo-4:\n  0 1 2 3\n  1 2 3 0\n  2 3 0 1\n  3 0 1 2\n"
            "xor-4:\n  0 1 2 3\n  1 0 3 2\n  2 3 0 1\n  3 2 1 0\n"
            "all checks passed\n"
        )


class TestEquiv:
    def test_small_battery(self, capsys):
        assert main(["equiv", "--frames-per-cell", "40", "--seed", "3"]) == 0
        captured = capsys.readouterr()
        assert captured.out == (
            "frames compared: 480\n"
            "mismatches:      0\n"
            "fast decoder is output-identical to the exhaustive reference\n"
        )
        assert re.fullmatch(r"equiv: \d+\.\d\d s, \d+ frames/s\n", captured.err)

    @pytest.mark.parametrize("frames", ["0", "-3"])
    def test_no_frames_is_an_error(self, frames, capsys):
        assert main(["equiv", "--frames-per-cell", frames]) == 2
        captured = capsys.readouterr()
        assert "frames_per_cell must be >= 1" in captured.err
        assert "frames compared" not in captured.out

    @pytest.mark.parametrize(
        "argv,given",
        [
            ([], {}),
            (["--seed", "5"], {"seed": 5}),
            (["--frames-per-cell", "7", "--seed", "0"], {"frames_per_cell": 7, "seed": 0}),
        ],
    )
    def test_passes_only_the_flags_given(self, argv, given, monkeypatch):
        calls = []

        def battery(**kwargs):
            calls.append(kwargs)
            return EquivalenceReport(frames=1, mismatches=0)

        monkeypatch.setattr(cli, "equivalence_battery", battery)
        assert main(["equiv", *argv]) == 0
        assert calls == [given]


class TestSweep:
    def test_end_to_end_with_config_and_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("snr_db = 6,12\ntrials = 30000\nseed = 4\ndecoder = fast\nerror_target = 1000000000\n")
        out_csv = tmp_path / "out.csv"
        script = tmp_path / "plot.py"
        rc = main(["sweep", "--config", str(cfg), "--seed", "9", "--out", str(out_csv), "--plot-script", str(script)])
        assert rc == 0
        parsed = parse_csv(out_csv)
        assert parsed.metadata["seed"] == "9"  # flag overrides config
        assert [row["snr_db"] for row in parsed.rows] == [6.0, 12.0]
        assert parsed.rows[0]["sep_joint"] > parsed.rows[1]["sep_joint"]
        assert script.exists()

    @pytest.mark.parametrize("key", CONFIG_KEYS)
    def test_flag_overrides_the_config_file(self, key, tmp_path):
        in_file, in_flag = OVERRIDES[key]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {in_file}\n")

        def spec(*argv):
            return cli._spec_from_args(cli.build_parser().parse_args(["sweep", *argv]))

        flag = ["--" + key.replace("_", "-"), in_flag]
        # repr tells -0.0 from 0.0, where == does not
        assert repr(spec("--config", str(cfg), *flag)) == repr(spec(*flag))
        assert repr(spec(*flag)) != repr(spec("--config", str(cfg)))

    def test_profile_flag(self, tmp_path):
        out_csv = tmp_path / "o.csv"
        rc = main(["sweep", "--snr-db", "10", "--trials", "20000", "--error-target", "1000000000",
                   "--profile", "rd-strong", "--out", str(out_csv)])
        assert rc == 0
        assert float(parse_csv(out_csv).metadata["var_rd"]) == pytest.approx(10.0)

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--m", "3"], "m must be a power of two"),
            (["--threads", "0"], "--threads"),
            (["--snr-db", "1,x"], "could not convert"),
            (["--config", "{cfg}"], "unknown key 'frobnicate'"),
            (["--config", "{missing}"], "No such file"),
            (["--snr-db", "0,4000"], "4000.0 dB"),
            (["--var-ar-db", "4000"], "4000.0 dB"),
            (["--var-ar-db", "inf"], "var_ar must be finite"),
            (["--b-im", "nan", "--decoder", "min-euclid"], "b must be finite"),
            (["--theta-re", "inf", "--decoder", "cfnc"], "theta must be finite"),
            (["--theta-re", "nan", "--decoder", "cfnc"], "theta must be finite"),
            (["--snr-db", "3070", "--decoder", "fast"], "3070.0 dB is too large"),
            (["--profile", "rd-strong", "--var-ar-db", "5"], "not both: got profile and var_ar_db"),
            (["--config", "{preset}", "--var-rd-db", "10"], "not both: got profile and var_rd_db"),
            (["--theta-re", "2", "--decoder", "cfnc"], "|theta| must be 1"),
            (["--config", "{values}/error_target"], "error_target: invalid literal for int()"),
            (["--config", "{values}/snr_db"], "snr_db: could not convert string to float: ''"),
            (["--config", "{values}/m"], "m: invalid literal for int()"),
            (["--config", "{values}/theta_re"], "theta_re: could not convert string to float: 'x'"),
        ],
    )
    def test_bad_input_is_one_line_and_exit_2(self, argv, message, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frobnicate = 1\n")
        preset = tmp_path / "preset.cfg"
        preset.write_text("profile = equal\n")
        values = tmp_path / "values"
        values.mkdir()
        for key, value in BAD_VALUES.items():
            (values / key).write_text(f"{key} = {value}\n")
        out_csv = tmp_path / "out.csv"
        argv = [a.format(cfg=cfg, missing=tmp_path / "missing.cfg", preset=preset, values=values) for a in argv]
        assert main(["sweep", "--trials", "100", "--out", str(out_csv), *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("marc-pnc sweep: ") and message in captured.err
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.out == "" and not out_csv.exists()

    @pytest.mark.parametrize("flag", ["--out", "--plot-script"])
    @pytest.mark.parametrize("target,message", [("missing-dir/x", "no directory"), ("a-dir", "is a directory")])
    def test_unwritable_output_fails_before_the_sweep(self, flag, target, message, tmp_path, capsys, monkeypatch):
        def run_sweep(*args, **kwargs):
            pytest.fail("the sweep ran although its output could not be written")

        monkeypatch.setattr(cli, "run_sweep", run_sweep)
        (tmp_path / "a-dir").mkdir()
        out_csv = tmp_path / "out.csv"
        path = tmp_path / target
        assert main(["sweep", "--trials", "100", "--out", str(out_csv), flag, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("marc-pnc sweep: ") and message in captured.err and str(path) in captured.err
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.out == "" and sorted(p.name for p in tmp_path.iterdir()) == ["a-dir"]
        assert not any((tmp_path / "a-dir").iterdir())


class TestReproduce:
    def test_quick_scenario_run(self, tmp_path, capsys):
        rc = main(["reproduce", "equal", "--quick", "--outdir", str(tmp_path), "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert (tmp_path / "equal_fast.csv").exists()
        assert (tmp_path / "equal_cfnc.csv").exists()
        assert (tmp_path / "equal_plot.py").exists()
        assert "reference high-SNR gain for this scenario: 3.3 dB" in out
        assert "measured gain" in out

    def test_fit_line_uses_the_asymptotic_band(self, tmp_path, capsys, monkeypatch):
        # SEP 5e-2 at 4 dB, falling a decade per 4 dB step (slope 2.5):
        # only 12, 16 and 20 dB lie inside (1e-6, 1e-3).
        def run_sweep(spec, threads=None, progress=None):
            trials = 10**9
            points = []
            for i, snr_db in enumerate(spec.snr_points_db):
                errors = 5 * 10 ** (7 - i)
                points.append(SepPoint(snr_db, trials, errors, errors, errors, 0, errors, 0))
            return SepCurve(spec=spec, points=tuple(points))

        monkeypatch.setattr(cli, "run_sweep", run_sweep)
        assert main(["reproduce", "equal", "--quick", "--outdir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.endswith("fitted diversity order (network-coded scheme): 2.50 over (12.0, 20.0) dB\n")

    def test_bad_threads_fail_before_the_outdir_is_made(self, tmp_path, capsys):
        outdir = tmp_path / "repro"
        assert main(["reproduce", "equal", "--quick", "--outdir", str(outdir), "--threads", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("marc-pnc reproduce: ") and "--threads" in captured.err
        assert captured.out == "" and not outdir.exists()

    def test_outdir_that_is_a_file_fails_before_any_sweep(self, tmp_path, capsys, monkeypatch):
        def run_sweep(*args, **kwargs):
            pytest.fail("a sweep ran although the output directory could not be made")

        monkeypatch.setattr(cli, "run_sweep", run_sweep)
        outdir = tmp_path / "taken"
        outdir.write_text("not a directory\n")
        assert main(["reproduce", "equal", "--quick", "--outdir", str(outdir)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("marc-pnc reproduce: ") and str(outdir) in captured.err
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.out == "" and outdir.read_text() == "not a directory\n"


class TestSnrAtSep:
    def test_log_interpolation(self):
        spec = SweepSpec(snr_points_db=(10.0, 20.0), trials_per_point=10**6,
                         profile=PROFILE_PRESETS["equal"], seed=0)
        points = (
            SepPoint(10.0, 10**6, 10**4, 10**4, 10**4, 0, 10**4, 0),
            SepPoint(20.0, 10**6, 10**2, 10**2, 10**2, 0, 10**2, 0),
        )
        curve = SepCurve(spec=spec, points=points)
        # sep falls 1e-2 -> 1e-4 over 10 dB; crosses 1e-3 midway
        assert snr_at_sep(curve, 1e-3) == pytest.approx(15.0)
        assert snr_at_sep(curve, 1e-5) is None
