import math

import pytest

from marc_pnc.channel import PROFILE_PRESETS, FadingProfile
from marc_pnc.montecarlo import SweepSpec, run_sweep
from marc_pnc.sweepio import (
    CSV_HEADER,
    curve_to_csv,
    emit_csv,
    emit_plot_script,
    parse_config,
    parse_csv,
    spec_from_config,
)


def run_small(decoder="fast", snr=(8.0, 14.0), seed=5, trials=40_000):
    spec = SweepSpec(snr_points_db=snr, trials_per_point=trials, profile=PROFILE_PRESETS["equal"],
                     decoder=decoder, seed=seed, error_target=10**9)
    return run_sweep(spec)


class TestCsv:
    def test_header_exact(self):
        assert CSV_HEADER == "snr_db,sep_joint,sep_a,sep_b,p_relay_err,p_err_rc,p_err_rw,trials"

    def test_round_trip_values_identical(self, tmp_path):
        curve = run_small()
        path = tmp_path / "c.csv"
        emit_csv(curve, path)
        parsed = parse_csv(path)
        assert len(parsed.rows) == len(curve.points)
        for row, p in zip(parsed.rows, curve.points):
            assert row["snr_db"] == p.snr_db
            assert row["sep_joint"] == p.sep_joint
            assert row["sep_a"] == p.sep_a
            assert row["sep_b"] == p.sep_b
            assert row["p_relay_err"] == p.p_relay_err
            assert row["p_err_rc"] == p.p_err_rc
            assert row["p_err_rw"] == p.p_err_rw
            assert row["trials"] == p.trials

    def test_missing_bins_serialize_empty(self, tmp_path):
        spec = SweepSpec(snr_points_db=(60.0,), trials_per_point=2000, profile=PROFILE_PRESETS["equal"],
                         decoder="fast", seed=1, error_target=10**9)
        curve = run_sweep(spec)
        assert curve.points[0].p_err_rw is None
        path = tmp_path / "c.csv"
        emit_csv(curve, path)
        data_line = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")][1]
        assert data_line.endswith(",,2000") or ",,," in data_line
        assert parse_csv(path).rows[0]["p_err_rw"] is None

    def test_byte_identical_for_same_spec(self, tmp_path):
        a = curve_to_csv(run_small())
        b = curve_to_csv(run_small())
        assert a == b
        assert "version=" in a and "seed=" in a and "theta=" in a

    def test_metadata_round_trip(self, tmp_path):
        curve = run_small()
        path = tmp_path / "c.csv"
        emit_csv(curve, path)
        meta = parse_csv(path).metadata
        assert meta["decoder"] == "fast"
        assert meta["seed"] == "5"
        assert float(meta["var_rd"]) == 1.0

    def test_rejects_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            parse_csv(path)


class TestPlotScript:
    def test_emitted_script_compiles_and_references_csvs(self, tmp_path):
        curve = run_small()
        csv_path = tmp_path / "c.csv"
        emit_csv(curve, csv_path)
        script = tmp_path / "plot.py"
        emit_plot_script([csv_path], script)
        text = script.read_text()
        assert str(csv_path) in text
        compile(text, str(script), "exec")


class TestConfig:
    def test_defaults(self):
        spec = spec_from_config({})
        assert spec.decoder == "fast"
        assert spec.m == 4
        assert spec.map_kind == "modulo"
        assert spec.constants[0] == 1.0 + 0j
        assert spec.profile == FadingProfile.from_db()
        assert spec_from_config({"snr_db": "5", "trials": "7"}) == SweepSpec((5.0,), 7, FadingProfile.from_db())

    def test_full_file(self):
        text = """
        # comment line
        snr_db = 0,10,20
        trials = 5000
        seed = 42
        m = 4
        map = xor
        decoder = min-euclid
        error_target = 123
        var_rd_db = 10
        a_re = 0.6
        c_re = 0.8
        theta_re = 0.0
        theta_im = 1.0
        """
        spec = spec_from_config(parse_config(text))
        assert spec.snr_points_db == (0.0, 10.0, 20.0)
        assert spec.trials_per_point == 5000
        assert spec.seed == 42
        assert spec.map_kind == "xor"
        assert spec.decoder == "min-euclid"
        assert spec.error_target == 123
        assert spec.profile.var_rd == pytest.approx(10.0)
        assert spec.constants[0] == 0.6 + 0j
        assert spec.constants[2] == 0.8 + 0j
        assert spec.theta == 1j

    def test_profile_preset_shortcut(self):
        spec = spec_from_config({"profile": "sr-strong"})
        assert spec.profile == PROFILE_PRESETS["sr-strong"]

    def test_profile_and_link_variances_rejected_together(self):
        with pytest.raises(ValueError, match="not both: got profile and var_ar_db, var_rd_db$"):
            spec_from_config({"profile": "equal", "var_rd_db": "10", "var_ar_db": "3"})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config("snr = 0,10")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_config("just some text")

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("trials", "1e6", "trials: invalid literal for int() with base 10: '1e6'"),
            ("m", "4.0", "m: invalid literal for int() with base 10: '4.0'"),
            ("snr_db", "0,,10", "snr_db: could not convert string to float: ''"),
            ("theta_re", "x", "theta_re: could not convert string to float: 'x'"),
            ("var_rd_db", "x", "var_rd_db: could not convert string to float: 'x'"),
        ],
    )
    def test_a_value_that_does_not_parse_names_its_key(self, key, value, message):
        with pytest.raises(ValueError) as caught:
            spec_from_config({key: value})
        assert str(caught.value) == message

    def test_constants_as_re_im_pairs(self):
        inv = 1.0 / math.sqrt(2.0)
        spec = spec_from_config(parse_config(f"b_re = {inv}\nb_im = 0.0"))
        assert spec.constants[1] == pytest.approx(inv)
