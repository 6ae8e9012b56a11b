import json
import os
import threading
from pathlib import Path

import pytest

from alp.cli import build_parser, main, parse_args

pytestmark = pytest.mark.usefixtures("clean_env")


@pytest.fixture
def clean_env(monkeypatch):
    monkeypatch.delenv("ALP_SEED", raising=False)


@pytest.fixture
def tiny_input(tmp_path):
    path = tmp_path / "tiny.csv"
    assert main(["synth", "--users", "1", "--days", "2", "--pois", "3",
                 "--dwell-minutes", "20", "--speed", "8", "--trip",
                 "--sample-period", "120", "--seed", "3", "--out", str(path)]) == 0
    return path


class TestParsing:
    def test_optimize_invocation(self):
        inv = parse_args(["optimize", "--input", "d.csv", "--lppm", "geo-i",
                          "--objectives", "min:pois,min:distortion:scale=500",
                          "--seed", "7"])
        assert inv.command == "optimize"
        assert inv.flags["seed"] == 7
        from alp.optimizer import parse_objectives

        assert len(parse_objectives(inv.flags["objectives"])) == 2

    def test_protect_static_invocation(self):
        inv = parse_args(["protect", "--lppm", "promesse", "--param", "alpha=200",
                          "--input", "d.csv"])
        assert inv.command == "protect"
        assert inv.flags["param"] == ["alpha=200"]

    def test_seed_defaults_to_42(self):
        assert parse_args(["synth"]).flags["seed"] == 42

    def test_seed_env_fallback(self, monkeypatch):
        monkeypatch.setenv("ALP_SEED", "99")
        assert parse_args(["synth"]).flags["seed"] == 99
        assert parse_args(["synth", "--seed", "1"]).flags["seed"] == 1

    def test_seed_env_bad_value_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("ALP_SEED", "abc")
        with pytest.raises(SystemExit) as exc:
            parse_args(["synth"])
        assert exc.value.code == 2
        assert "ALP_SEED: bad value 'abc'" in capsys.readouterr().err
        assert parse_args(["synth", "--seed", "1"]).flags["seed"] == 1

    def test_unknown_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["synth", "--bogus", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["synth", "evaluate", "protect", "optimize", "online"])
    def test_help_exits_zero_and_documents_flags(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--seed" in out

    def test_config_file_supplies_values_flags_win(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("lppm = promesse\nseed = 5\n# comment\nparam = alpha=120\n")
        inv = parse_args(["online", "--config", str(config), "--seed", "6", "--input", "d.csv"])
        assert inv.flags["lppm"] == "promesse"
        assert inv.flags["seed"] == 6          # explicit flag wins
        assert inv.flags["param"] == ["alpha=120"]

    def test_bad_config_file_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        for text, problem in (("not a pair\n", "expected key = value"),
                              ("lppm = geo-i\nseed = abc\n", "bad value 'abc' for seed"),
                              ("# x\n\nt_min = x\n", "bad value 'x' for t_min"),
                              ("final_state = ture\n", "bad value 'ture' for final_state"),
                              ("lppm = geo-i\nsede = 5\n", "unknown key 'sede'")):
            config.write_text(text)
            with pytest.raises(SystemExit) as exc:
                parse_args(["online", "--config", str(config)])
            assert exc.value.code == 2
            line_no = len(text.splitlines())
            assert f"{config}:{line_no}: {problem}" in capsys.readouterr().err

    def test_config_file_may_hold_other_commands_keys(self, tmp_path):
        # one file can feed both synth and online
        config = tmp_path / "run.conf"
        config.write_text("users = 2\ntrip = yes\nlppm = promesse\nfinal_state = Off\n")
        inv = parse_args(["online", "--config", str(config), "--input", "d.csv"])
        assert inv.flags["users"] == 2 and inv.flags["trip"] is True
        assert inv.flags["final_state"] is False
        assert parse_args(["synth", "--config", str(config)]).flags["users"] == 2


class TestSynthCommand:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["synth", "--users", "2", "--days", "1", "--seed", "9",
                "--sample-period", "300"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_truth_output(self, tmp_path):
        out = tmp_path / "d.csv"
        truth = tmp_path / "truth.json"
        assert main(["synth", "--pois", "3", "--seed", "4", "--sample-period", "300",
                     "--out", str(out), "--truth-out", str(truth)]) == 0
        payload = json.loads(truth.read_text())
        assert len(payload["u000"]) == 3


class TestStaticCommands:
    def test_evaluate_prints_metric_table(self, tiny_input, capsys):
        code = main(["evaluate", "--input", str(tiny_input), "--lppm", "promesse",
                     "--param", "alpha=200", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "pois" in out and "distortion_m" in out and "coverage" in out
        assert "u000" in out

    def test_even_robust_k_fails_alike_without_partial_output(self, tiny_input, tmp_path, capsys):
        args = ["--input", str(tiny_input), "--lppm", "geo-i", "--param", "epsilon=0.01",
                "--robust-k", "2"]
        out_dir = tmp_path / "rep"
        errors = []
        for argv in (["evaluate", *args], ["online", *args, "--out-dir", str(out_dir)]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors[0] == errors[1] == "error: robust_k must be an odd integer >= 1, got 2\n"
        assert not out_dir.exists()

    def test_protect_writes_default_path(self, tiny_input, capsys):
        assert main(["protect", "--input", str(tiny_input), "--lppm", "promesse",
                     "--param", "alpha=200"]) == 0
        assert tiny_input.with_name("tiny_protected.csv").exists()

    def test_protect_missing_param_is_usage_error(self, tiny_input, capsys):
        code = main(["protect", "--input", str(tiny_input), "--lppm", "promesse"])
        assert code == 2
        assert "--param" in capsys.readouterr().err

    def test_missing_input_is_usage_error(self, capsys):
        code = main(["optimize", "--lppm", "geo-i"])
        assert code == 2
        assert "--input" in capsys.readouterr().err

    def test_unreadable_input_is_runtime_error(self, tmp_path, capsys):
        missing = tmp_path / "absent.csv"
        code = main(["evaluate", "--input", str(missing), "--lppm", "promesse",
                     "--param", "alpha=200"])
        assert code == 1
        assert "absent.csv" in capsys.readouterr().err

    def test_no_partial_output_on_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("user,timestamp,lat,lon\nu1,1000,95.0,5.0\n")
        out = tmp_path / "out.csv"
        code = main(["protect", "--input", str(bad), "--lppm", "promesse",
                     "--param", "alpha=200", "--out", str(out)])
        assert code == 1
        assert not out.exists()


class TestPipelineCommands:
    def test_optimize_writes_report_files(self, tiny_input, tmp_path, capsys):
        out_dir = tmp_path / "rep"
        code = main(["optimize", "--input", str(tiny_input), "--lppm", "promesse",
                     "--seed", "2", "--out-dir", str(out_dir), "--name", "run"])
        assert code == 0
        rows = (out_dir / "run.csv").read_text().splitlines()
        assert rows[0] == "user,day,param_name,param_value,pois,distortion_m,coverage,cost"
        assert len(rows) == 2  # one user
        summary = json.loads((out_dir / "run.json").read_text())
        assert set(summary["cdf"]) == {"pois", "distortion", "coverage"}
        assert (out_dir / "run_protected.csv").exists()

    def test_online_static_baseline_report(self, tiny_input, tmp_path):
        out_dir = tmp_path / "rep"
        code = main(["online", "--input", str(tiny_input), "--lppm", "geo-i",
                     "--param", "epsilon=0.01", "--seed", "2",
                     "--out-dir", str(out_dir), "--name", "static"])
        assert code == 0
        summary = json.loads((out_dir / "static.json").read_text())
        assert summary["run_config"]["mode"] == "static-baseline"
        rows = (out_dir / "static.csv").read_text().splitlines()
        assert len(rows) == 3  # two daily batches

    def test_online_adaptive_runs_identically(self, tiny_input, tmp_path):
        names = []
        for name in ("r1", "r2"):
            code = main(["online", "--input", str(tiny_input), "--lppm", "promesse",
                         "--seed", "8", "--out-dir", str(tmp_path / name), "--name", "run"])
            assert code == 0
            names.append((tmp_path / name / "run.csv").read_bytes())
        assert names[0] == names[1]

    def test_units_run_on_the_calling_thread(self, tiny_input, tmp_path, monkeypatch):
        import alp.pipeline

        threads = []

        def recorded(*args, process=alp.pipeline._process_unit):
            threads.append(threading.get_ident())
            return process(*args)

        monkeypatch.setattr(alp.pipeline, "_process_unit", recorded)
        outputs = []
        for workers in ("1", "2", "4"):
            out_dir = tmp_path / workers
            assert main(["online", "--input", str(tiny_input), "--lppm", "promesse",
                         "--seed", "8", "--workers", workers, "--out-dir", str(out_dir),
                         "--name", "run"]) == 0
            outputs.append([(out_dir / f).read_bytes()
                            for f in ("run.csv", "run.json", "run_protected.csv")])
        assert threads == [threading.get_ident()] * 6  # two daily units per run
        assert outputs[0] == outputs[1] == outputs[2]
