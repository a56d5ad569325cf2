import re

import pytest

from marc_pnc import cli
from marc_pnc.cli import main, snr_at_sep
from marc_pnc.channel import PROFILE_PRESETS
from marc_pnc.montecarlo import EquivalenceReport, SepCurve, SepPoint, SweepSpec
from marc_pnc.sweepio import parse_csv


class TestVerify:
    def test_passes_and_prints_checks(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") >= 12
        assert "[FAIL]" not in out
        assert "0 1 2 3" in out  # map grids printed


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
        ],
    )
    def test_bad_input_is_one_line_and_exit_2(self, argv, message, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frobnicate = 1\n")
        out_csv = tmp_path / "out.csv"
        argv = [a.format(cfg=cfg, missing=tmp_path / "missing.cfg") for a in argv]
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
