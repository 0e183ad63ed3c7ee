"""Command-line surface: figure export, witness/probe/validate verdicts, exit
codes, config handling."""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from kraus_witness import JCMQubit, channels
from kraus_witness.cli import main
from kraus_witness.probes import SMALL_TIME_WINDOW

# sha256 of the closed-route CSVs, shared with the benchmark's output check
REFERENCE_CSV = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "reference.json").read_text()
)["csv_sha256"]


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    body = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, body


class TestFigureCommand:
    def test_overlap_figure(self, tmp_path, capsys):
        out = tmp_path / "f1.csv"
        assert main(["figure", "1", "--out", str(out)]) == 0
        header, body = read_csv(out)
        assert header == ["t", "F"]
        assert body.shape == (501, 2)
        fids = body[:, 1]
        assert np.all(np.diff(fids) >= -1e-10)
        assert fids[-1] >= 0.999
        assert "wrote 501 rows" in capsys.readouterr().out

    def test_overlap_figure_zero_lag(self, tmp_path):
        out = tmp_path / "f1.csv"
        assert main(["figure", "1", "--tau", "0", "--out", str(out)]) == 0
        _, body = read_csv(out)
        np.testing.assert_allclose(body[:, 1], 1.0, atol=1e-14)

    def test_byte_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["figure", "4", "--out", str(a)]) == 0
        assert main(["figure", "4", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_memory_comparison_figure(self, tmp_path):
        out = tmp_path / "f3.csv"
        assert main(["figure", "3", "--out", str(out)]) == 0
        header, body = read_csv(out)
        assert header == ["t", "F_markov", "F_nonmarkov"]
        assert np.min(body[:, 2] - body[:, 1]) >= -1e-10

    def test_memory_comparison_rates(self, tmp_path, capsys):
        # --gamma sets the slow kernel, --gamma2 the fast one
        out = tmp_path / "f3.csv"
        assert main(["figure", "3", "--gamma", "0.02", "--gamma2", "5", "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("F_markov(gamma=5): ")
        assert lines[2].startswith("F_nonmarkov(gamma=0.02): ")

    def test_revival_figure_stays_positive(self, tmp_path):
        out = tmp_path / "f5.csv"
        assert main(["figure", "5", "--out", str(out)]) == 0
        header, body = read_csv(out)
        assert header == ["t", "G"]
        assert np.min(body[:, 1]) >= -1e-12
        assert np.max(body[:, 1]) == pytest.approx(7.179672e-2, rel=1e-5)

    def test_csv_round_trip(self, tmp_path):
        # the 17-digit format reproduces the doubles bit for bit
        from kraus_witness import make_grid, scan_G

        out = tmp_path / "f2.csv"
        assert main(["figure", "2", "--out", str(out)]) == 0
        _, body = read_csv(out)
        grid = make_grid(0.0, 20.0, 0.02)
        result = scan_G(__import__("kraus_witness").YENonMarkov(), grid, 1.0)
        assert np.array_equal(body[:, 1], np.asarray(result.values))

    def test_default_output_in_cwd(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["figure", "5"]) == 0
        assert "G: min" in capsys.readouterr().out
        assert (tmp_path / "fig5.csv").exists()


class TestCsvContract:
    """The closed-route CSVs stay byte-identical to the recorded digests."""

    @pytest.mark.parametrize(
        "label, argv",
        [(f"figure-{fid}", ["figure", str(fid)]) for fid in range(1, 6)]
        + [
            (f"witness-{model}", ["witness", "--model", model, "--tau", "1", "--tau", "2"])
            for model in ("ye-markov", "ye-nonmarkov", "jcm-qubit", "ck")
        ],
    )
    def test_closed_route_csv_bytes(self, label, argv, tmp_path, capsys):
        out = tmp_path / f"{label}.csv"
        assert main(argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == REFERENCE_CSV[label]


class TestWitnessCommand:
    def test_quiet_on_revival_model(self, capsys):
        assert main(["witness", "--model", "ck"]) == 0
        out = capsys.readouterr().out
        assert "tau=0.523599" in out
        assert "min G" in out
        assert out.strip().endswith("verdict: NoViolationFound")

    def test_multiple_lags_csv(self, tmp_path, capsys):
        out = tmp_path / "w.csv"
        code = main(
            ["witness", "--model", "ye-markov", "--tau", "1", "--tau", "2", "--out", str(out)]
        )
        assert code == 0
        header, body = read_csv(out)
        assert header == ["Gamma_t", "G_tau=1", "G_tau=2"]
        assert body.shape[1] == 3

    def test_trigger_exit_code(self, capsys):
        code = main(["witness", "--model", "ck", "--witness-tol", "-1"])
        assert code == 3
        captured = capsys.readouterr()
        assert "verdict: NonMarkovianWitnessed" in captured.out
        assert "negative" in captured.err

    def test_env_tolerance(self, monkeypatch, capsys):
        monkeypatch.setenv("KRAUS_WITNESS_TOL", "-5")
        assert main(["witness", "--model", "ye-markov"]) == 3
        capsys.readouterr()

    def test_flag_beats_env(self, monkeypatch, capsys):
        monkeypatch.setenv("KRAUS_WITNESS_TOL", "-5")
        assert main(["witness", "--model", "ye-markov", "--witness-tol", "1e-8"]) == 0
        capsys.readouterr()

    def test_nonfinite_env_tolerance(self, monkeypatch, capsys):
        monkeypatch.setenv("KRAUS_WITNESS_TOL", "nan")
        assert main(["witness", "--model", "ck"]) == 1
        assert "KRAUS_WITNESS_TOL must be finite" in capsys.readouterr().err

    def test_env_read_by_witness_only(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("KRAUS_WITNESS_TOL", "abc")
        assert main(["validate", "--model", "ck"]) == 0
        assert main(["figure", "5", "--out", str(tmp_path / "f5.csv")]) == 0
        assert main(["witness", "--model", "ck"]) == 1
        capsys.readouterr()

    def test_overflowing_later_time_is_refused(self, capsys):
        # the grid's later rows put t + tau beyond the largest float
        argv = ["--tau=1.7e308", "--start=0", "--stop=1.7e308", "--step=1e307"]
        assert main(["witness", "--model=ck"] + argv) == 2
        assert main(["figure", "1"] + argv) == 2
        err = capsys.readouterr().err
        assert err.count("error: evolution time must be finite and nonnegative, got inf") == 2

    def test_overflowing_later_time_is_refused_on_the_generic_route(self, capsys):
        # a mixed ck state has no closed form; numpy's t + tau must not warn
        argv = ["witness", "--model=ck", "--rho11=0.9", "--rho22=0.1", "--rho12=0.1",
                "--tau=1.7e308", "--start=0", "--stop=1.7e308", "--step=1e307"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: evolution time must be finite and nonnegative, got inf\n"


class TestProbeCommand:
    def test_sqrt_family(self, capsys):
        assert main(["probe", "--model", "ye-markov"]) == 0
        out = capsys.readouterr().out
        assert "family classification: SqrtT" in out
        assert "0*" in out
        lo, hi, count = SMALL_TIME_WINDOW
        assert f"window [{lo:g}, {hi:g}] ({count} points)" in out

    def test_linear_family_with_csv(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        assert main(["probe", "--model", "ye-nonmarkov", "--out", str(out)]) == 0
        assert "family classification: LinearT" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == "op,exponent,residual"
        assert len(lines) == 5

    def test_window_override(self, capsys):
        code = main(
            ["probe", "--model", "ck", "--t-min", "1e-5", "--t-max", "1e-3", "--points", "10"]
        )
        assert code == 0
        assert "LinearT" in capsys.readouterr().out

    def test_too_few_points(self, capsys):
        assert main(["probe", "--model", "ck", "--points", "4"]) == 1
        assert "usage error" in capsys.readouterr().err


class TestValidateCommand:
    @pytest.mark.parametrize(
        "model", ["ye-markov", "ye-nonmarkov", "jcm-qubit", "jcm-photon", "ck"]
    )
    def test_reference_channels_pass(self, model, capsys):
        assert main(["validate", "--model", model]) == 0
        assert "channel valid within 1e-10" in capsys.readouterr().out

    def test_insufficient_cutoff(self, capsys):
        code = main(["validate", "--model", "jcm-qubit", "--alpha", "2", "--n-cut", "1"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_sample_count_floor(self, capsys):
        assert main(["validate", "--model", "ck", "--samples", "1"]) == 1
        capsys.readouterr()

    def test_stack_size_changes_nothing(self, monkeypatch, capsys):
        # 400 samples of a 45-operator channel: one stack, then one time a stack
        argv = ["validate", "--model", "jcm-qubit", "--alpha", "2", "--samples", "400"]
        assert main(argv) == 0
        whole = capsys.readouterr().out
        sizes = []
        kraus = JCMQubit.kraus
        monkeypatch.setattr(JCMQubit, "kraus", lambda self, ts: sizes.append(len(ts)) or kraus(self, ts))
        monkeypatch.setattr(channels, "_DEFECT_STACK_BYTES", 1)
        assert main(argv) == 0
        assert capsys.readouterr().out == whole
        assert sizes == [1] * 401  # the first sizes a time's operators

    def test_narrow_window(self, capsys):
        # validate samples its window and has no grid step to compare against
        assert main(["validate", "--model", "ck", "--start", "0", "--stop", "0.01"]) == 0
        assert "over 50 times" in capsys.readouterr().out

    def test_defect_beyond_tolerance_exits_two(self, monkeypatch, capsys):
        # no reference model reaches it, so the operators are scaled by 1 + 1e-9
        kraus = JCMQubit.kraus
        monkeypatch.setattr(JCMQubit, "kraus", lambda self, ts: kraus(self, ts) * (1.0 + 1e-9))
        assert main(["validate", "--model", "jcm-qubit"]) == 2
        out = capsys.readouterr().out
        assert "max completeness defect 2.000e-09" in out
        assert out.endswith("channel completeness defect exceeds 1e-10\n")

    def test_overflowing_rabi_angle_is_refused(self, capsys):
        assert main(["validate", "--model", "jcm-qubit", "--alpha", "1", "--stop", "1.7e308"]) == 2
        assert "error: Rabi angle" in capsys.readouterr().err


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["figure", "1", "--step", "0"],
            ["witness", "--model", "ck", "--lambda", "1.0"],
            ["witness", "--model", "nope"],
            ["witness"],
            ["figure", "9"],
            ["witness", "--model", "ck", "--tau", "-1"],
            ["witness", "--model", "ck", "--seed", "3"],
            ["figure", "2", "--witness-tol", "1e-8"],
            ["probe", "--model", "ck", "--tau", "1"],
            ["validate", "--model", "ck", "--out", "x.csv"],
            ["witness", "--model", "ck", "--stop", "inf"],
            ["witness", "--model", "ck", "--tau", "inf"],
            ["witness", "--model", "ck", "--tau", "nan"],
            ["witness", "--model", "ck", "--witness-tol", "nan"],
            ["witness", "--model", "ck", "--rho11", "nan"],
            ["witness", "--model", "ck", "--rho12", "nan"],
            ["witness", "--model", "jcm-photon", "--alpha", "nan"],
            ["witness", "--model", "jcm-photon", "--alpha", "inf"],
            ["probe", "--model", "ck", "--t-max", "inf"],
            ["probe", "--model", "ck", "--points", "-1"],
            ["validate", "--model", "ck", "--stop", "inf"],
            ["figure", "3", "--gamma2", "-1"],
            ["figure", "3", "--gamma2", "nan"],
        ],
        ids=["zero-step", "inapplicable-param", "unknown-model", "missing-model", "bad-figure",
             "negative-lag", "seed-flag", "figure-witness-tol", "probe-tau", "validate-out",
             "inf-stop", "inf-lag", "nan-lag", "nan-witness-tol", "nan-rho11", "nan-rho12",
             "nan-alpha", "inf-alpha", "inf-t-max", "negative-points", "validate-inf-stop",
             "negative-gamma2", "nan-gamma2"],
    )
    def test_exit_code_one(self, argv, capsys):
        assert main(argv) == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["witness", "--model", "ck", "--start", "2", "--stop", "1"],
             "grid must satisfy stop > start >= 0, got start=2.0 stop=1.0"),
            (["probe", "--model", "ck", "--t-min", "0.01", "--t-max", "0.001"],
             "probe window must satisfy 0 < t-min < t-max, got [0.01, 0.001]"),
        ],
        ids=["stop-before-start", "probe-window-reversed"],
    )
    def test_reversed_windows_are_named(self, argv, message, capsys):
        assert main(argv) == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"

    @pytest.mark.parametrize("stop", ["1", "1e300"])
    def test_grid_too_fine_to_build_is_a_usage_error(self, stop, capsys):
        argv = ["witness", "--model=ck", "--start=0", f"--stop={stop}", "--step=1e-300"]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"usage error: grid from 0.0 to {float(stop)!r} in steps of 1e-300 has too many points\n"
        )

    def test_grid_too_large_to_allocate_is_a_usage_error(self, capsys):
        # 5e17 points: numpy can size the array but not allocate its 4 EB
        argv = ["witness", "--model=ck", "--start=0", "--stop=1", "--step=2e-18"]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "usage error: grid from 0.0 to 1.0 in steps of 2e-18 has too many points\n"
        )

    def test_inapplicable_param_names_flag(self, capsys):
        main(["witness", "--model", "ck", "--lambda", "1.0"])
        assert "--lambda" in capsys.readouterr().err

    def test_coarse_grid_guard(self, capsys):
        # fewer than ten steps across the window is rejected up front
        assert main(["witness", "--model", "ck", "--step", "3"]) == 1
        capsys.readouterr()

    def test_help_exits_clean(self, capsys):
        assert main(["--help"]) == 0
        assert main(["witness", "--help"]) == 0
        capsys.readouterr()


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        conf = tmp_path / "w.conf"
        conf.write_text("model = ye-nonmarkov\ngamma = 1e-4\ntau = 1, 2\n# comment\n")
        assert main(["witness", "--config", str(conf)]) == 0
        out = capsys.readouterr().out
        assert "tau=1" in out and "tau=2" in out

    def test_flag_overrides_config(self, tmp_path, capsys):
        conf = tmp_path / "w.conf"
        conf.write_text("model = ye-markov\nGamma = 1.0\n")
        assert main(["witness", "--config", str(conf), "--Gamma", "2.0"]) == 0
        capsys.readouterr()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        conf = tmp_path / "w.conf"
        conf.write_text("model = ck\nbogus = 1\n")
        assert main(["witness", "--config", str(conf)]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_seed_key_rejected(self, tmp_path, capsys):
        # nothing on the command line is sampled, so there is no seed to set
        conf = tmp_path / "w.conf"
        conf.write_text("model = ck\nseed = 1\n")
        assert main(["witness", "--config", str(conf)]) == 1
        assert "unknown key 'seed'" in capsys.readouterr().err

    def test_config_key_rejected(self, tmp_path, capsys):
        # --config is an option, but a file cannot name another file
        other = tmp_path / "other.conf"
        other.write_text("model = ck\n")
        conf = tmp_path / "w.conf"
        conf.write_text(f"config = {other}\n")
        assert main(["witness", "--config", str(conf)]) == 1
        assert "unknown key 'config'" in capsys.readouterr().err

    def test_malformed_value_rejected(self, tmp_path, capsys):
        conf = tmp_path / "w.conf"
        conf.write_text("model = ck\ntau = abc\n")
        assert main(["witness", "--config", str(conf)]) == 1
        capsys.readouterr()

    def test_malformed_parameter_value_rejected(self, tmp_path, capsys):
        conf = tmp_path / "w.conf"
        conf.write_text("model = ye-markov\nGamma = fast\n")
        assert main(["witness", "--config", str(conf)]) == 1
        assert "config key 'Gamma' has malformed value 'fast'" in capsys.readouterr().err

    def test_line_without_equals_rejected(self, tmp_path, capsys):
        conf = tmp_path / "w.conf"
        conf.write_text("model = ck\ntau 1\n")
        assert main(["witness", "--config", str(conf)]) == 1
        assert f"{conf}:2: expected key=value, got 'tau 1'" in capsys.readouterr().err

    def test_unknown_model_rejected(self, tmp_path, capsys):
        # the flag's choices never see a model named in the file
        conf = tmp_path / "w.conf"
        conf.write_text("model = nope\n")
        assert main(["witness", "--config", str(conf)]) == 1
        assert "unknown model 'nope'; choose one of ck, jcm-photon" in capsys.readouterr().err

    def test_empty_lag_list_rejected(self, tmp_path, capsys):
        conf = tmp_path / "w.conf"
        conf.write_text("model = ck\ntau = ,\n")
        assert main(["witness", "--config", str(conf)]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_key_for_other_subcommand_ignored(self, tmp_path, capsys):
        # witness has no --samples, so the value is never converted
        conf = tmp_path / "w.conf"
        conf.write_text("model = ck\nsamples = abc\n")
        assert main(["witness", "--config", str(conf)]) == 0
        capsys.readouterr()

    def test_one_file_serves_every_subcommand(self, tmp_path, capsys):
        conf = tmp_path / "all.conf"
        conf.write_text("model = ck\nsamples = 5\ntau = 1, 2\npoints = 8\n")
        assert main(["witness", "--config", str(conf)]) == 0
        assert "tau=2" in capsys.readouterr().out
        assert main(["validate", "--config", str(conf)]) == 0
        assert "over 5 times" in capsys.readouterr().out
        assert main(["probe", "--config", str(conf)]) == 0
        assert "(8 points)" in capsys.readouterr().out

    def test_nonfinite_value_rejected(self, tmp_path, capsys):
        conf = tmp_path / "w.conf"
        conf.write_text("model = ck\nstop = inf\n")
        assert main(["witness", "--config", str(conf)]) == 1
        assert "--stop must be finite" in capsys.readouterr().err

    def test_undecodable_config_is_a_usage_error(self, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_bytes(b"tau = 1\n\xff\xfe bad = 2\n")
        assert main(["witness", "--model", "ck", "--config", str(conf)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ")
        assert f"{conf}:2: not UTF-8 text" in err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["witness", "--config", str(tmp_path / "absent.conf")]) in (1, 2)
        capsys.readouterr()


class TestIoErrors:
    def test_unwritable_output(self, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert main(["figure", "5", "--out", str(target)]) == 2
        assert "io error" in capsys.readouterr().err


class TestDimensionlessTime:
    def test_rate_rescaling_matches(self, tmp_path):
        # the abscissa is Gamma t, so doubling Gamma must not move the curve
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["witness", "--model", "ye-markov", "--out", str(a)]) == 0
        assert main(["witness", "--model", "ye-markov", "--Gamma", "2.0", "--out", str(b)]) == 0
        _, body_a = read_csv(a)
        _, body_b = read_csv(b)
        np.testing.assert_allclose(body_a, body_b, atol=1e-12)

    def test_revival_window_default(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["witness", "--model", "ck", "--out", str(out)]) == 0
        _, body = read_csv(out)
        assert body[-1, 0] == pytest.approx(2.0 * math.pi, abs=0.01)
