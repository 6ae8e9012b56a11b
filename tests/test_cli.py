import json
import os
import re
import subprocess
import sys
import threading

import pytest

from alp.cli import _run_config, build_parser, main, parse_args
from alp.geo import CellGrid
from alp.io import write_dataset_csv
from alp.lppm import MECHANISMS
from alp.metrics import PoiClusteringParams
from alp.optimizer import AnnealingSchedule, Objective
from alp.pipeline import RunConfig
from alp.synth import SynthSpec, generate_synthetic_dataset

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
                              ("lppm = geo-i\nsede = 5\n", "unknown key 'sede'"),
                              ("t0 = 0.5\nt-min = 0.1\nt0 = inf\n", "duplicate key 't0'"),
                              ("t0 = inf\n", "bad value 'inf' for t0")):
            config.write_text(text)
            with pytest.raises(SystemExit) as exc:
                parse_args(["online", "--config", str(config)])
            assert exc.value.code == 2
            line_no = len(text.splitlines())
            assert f"{config}:{line_no}: {problem}" in capsys.readouterr().err

    def test_undecodable_config_file_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_bytes(b"\xff\xfe")
        with pytest.raises(SystemExit) as exc:
            parse_args(["synth", "--config", str(config)])
        assert exc.value.code == 2
        assert f"error: {config}: 'utf-8' codec can't decode byte 0xff in position 0" in capsys.readouterr().err

    def test_config_file_param_lines_accumulate(self, tmp_path):
        # like repeated --param flags; an explicit --param still wins
        config = tmp_path / "run.conf"
        config.write_text("param = epsilon=0.01\nlppm = geo-i\nparam = epsilon=0.02\n")
        inv = parse_args(["online", "--config", str(config), "--input", "d.csv"])
        assert inv.flags["param"] == ["epsilon=0.01", "epsilon=0.02"]
        inv = parse_args(["online", "--config", str(config), "--param", "epsilon=0.05"])
        assert inv.flags["param"] == ["epsilon=0.05"]

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

    @pytest.mark.parametrize("command, extra, code, message", [
        ("protect", ["--lppm", "geo-i", "--param", "epsilon=inf"], 1,
         "error: epsilon must be positive and finite"),
        ("online", ["--lppm", "promesse", "--poi-stay-minutes", "inf"], 2,
         "argument --poi-stay-minutes: not a finite number: 'inf'"),
        ("online", ["--lppm", "promesse", "--t0", "inf"], 2,
         "argument --t0: not a finite number: 'inf'"),
    ], ids=["epsilon", "poi-stay-minutes", "t0"])
    def test_non_finite_values_fail_promptly(self, tiny_input, tmp_path, command, extra, code,
                                             message):
        # run as a child: at --t0 inf the cooling loop would never end
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        argv = [sys.executable, "-m", "alp.cli", command, "--input", str(tiny_input), *extra,
                "--out" if command == "protect" else "--out-dir",
                str(out_dir / "p.csv") if command == "protect" else str(out_dir)]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}  # finds this alp
        result = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
        assert result.returncode == code
        assert message in result.stderr and "Traceback" not in result.stderr
        assert list(out_dir.iterdir()) == []

    def test_no_partial_output_on_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("user,timestamp,lat,lon\nu1,1000,95.0,5.0\n")
        out = tmp_path / "out.csv"
        code = main(["protect", "--input", str(bad), "--lppm", "promesse",
                     "--param", "alpha=200", "--out", str(out)])
        assert code == 1
        assert not out.exists()


class TestSettingsCheckedBeforeInput:
    """Settings that depend on flags alone fail before the input is opened."""

    @pytest.mark.parametrize("extra, message", [
        (["protect", "--lppm", "geo-i", "--param", "epsilon=inf"],
         "epsilon must be positive and finite"),
        (["evaluate", "--lppm", "geo-i", "--param", "epsilon=0.01", "--robust-k", "4"],
         "robust_k must be an odd integer >= 1, got 4"),
        (["evaluate", "--lppm", "promesse", "--param", "beta=3"],
         "'promesse' config missing parameters: ['alpha']"),
        (["online", "--lppm", "geo-i", "--robust-k", "2"],
         "robust_k must be an odd integer >= 1, got 2"),
        (["optimize", "--lppm", "geo-i", "--objectives", "min:nope"],
         "unknown evaluator 'nope'; registered: coverage, distortion, pois"),
        (["online", "--lppm", "promesse", "--param", "alpha=0"],
         "alpha must be positive and finite"),
        (["online", "--lppm", "geo-i", "--objectives", ","],
         "at least one objective is required"),
        (["online", "--lppm", "geo-i", "--objectives", "min:pois,max:pois"],
         "objectives name evaluator 'pois' twice"),
        (["online", "--lppm", "geo-i", "--objectives", "min:pois:scale=1e999"],
         "objective scale must be positive and finite"),
    ], ids=["protect-epsilon", "evaluate-k", "evaluate-param", "online-k", "optimize-objective",
            "online-static-param", "online-no-objective", "online-repeated-objective",
            "online-infinite-scale"])
    def test_error_names_the_setting_not_the_missing_file(self, tmp_path, capsys, extra, message):
        command, *flags = extra
        argv = [command, "--input", str(tmp_path / "missing.csv"), *flags]
        if command in ("online", "optimize"):
            argv += ["--out-dir", str(tmp_path / "out")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []


class TestUnreadableInput:
    """Rows csv or the UTF-8 decoder cannot read fail with their line, not a traceback."""

    @pytest.mark.parametrize("row, message", [
        (b"x" * 200_000 + b",2000,45,5\n", "field larger than field limit (131072)"),
        (b"caf\xe9,2000,45,5\n",
         "'utf-8' codec can't decode byte 0xe9 in position 39: invalid continuation byte"),
    ], ids=["oversized-field", "latin-1-byte"])
    def test_protect_reports_the_line(self, tmp_path, capsys, row, message):
        source = tmp_path / "d.csv"
        source.write_bytes(b"user,timestamp,lat,lon\nu1,1000,45,5\n" + row)
        out = tmp_path / "p.csv"
        argv = ["protect", "--input", str(source), "--lppm", "geo-i", "--param", "epsilon=0.01",
                "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {source}: 1 malformed row(s): line 3: {message}\n"
        assert not out.exists()

    def test_online_rejects_timestamps_outside_the_calendar(self, tmp_path, capsys):
        source = tmp_path / "d.csv"
        source.write_text("user,timestamp,lat,lon\nu,253402300800000,45,5\n"
                          "u,9999-12-31T23:59:59-01:00,45,5\nu,-99999999999,45,5\n")
        out_dir = tmp_path / "out"
        argv = ["online", "--input", str(source), "--lppm", "promesse", "--out-dir", str(out_dir)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {source}: 3 malformed row(s): line 2: timestamp '253402300800000' out of range; "
            "line 3: timestamp '9999-12-31T23:59:59-01:00' out of range; "
            "line 4: timestamp '-99999999999' out of range\n")
        assert not out_dir.exists()


class TestParamItems:
    """Each ``--param`` name is given once, with a number, in whatever form."""

    @pytest.mark.parametrize("params, config_lines, message", [
        (["epsilon=0.01", "epsilon=5"], "", "--param 'epsilon' given twice"),
        (["epsilon=0.01,epsilon=0.02"], "", "--param 'epsilon' given twice"),
        ([], "param = epsilon=0.01\nparam = epsilon=5\n", "--param 'epsilon' given twice"),
        (["epsilon=abc"], "", "bad --param 'epsilon=abc': 'abc' is not a number"),
    ], ids=["repeated-flag", "comma-list", "config-lines", "not-a-number"])
    def test_bad_item_fails_without_output(self, tiny_input, tmp_path, capsys, params,
                                           config_lines, message):
        config = tmp_path / "run.conf"
        config.write_text(config_lines)
        out = tmp_path / "p.csv"
        argv = ["protect", "--config", str(config), "--input", str(tiny_input), "--lppm", "geo-i",
                "--out", str(out)]
        for param in params:
            argv += ["--param", param]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestLightCommandsSkipScipy:
    def test_protect_and_synth_never_import_scipy(self, tmp_path):
        # The distortion kd-tree imports scipy lazily and the radius sampler
        # uses numpy alone, so neither command should pay for scipy.
        data = tmp_path / "d.csv"
        script = (
            "import sys\n"
            "from alp.cli import main\n"
            f"assert main(['synth', '--users', '1', '--sample-period', '600', '--out', {str(data)!r}]) == 0\n"
            f"assert main(['protect', '--input', {str(data)!r}, '--lppm', 'geo-i',"
            " '--param', 'epsilon=0.01']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}  # finds this alp
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                env=env, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[]"
        assert (tmp_path / "d_protected.csv").exists()


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

    def test_unknown_objective_is_runtime_error_without_output(self, tiny_input, tmp_path, capsys):
        code = main(["online", "--input", str(tiny_input), "--lppm", "promesse",
                     "--objectives", "min:nope", "--out-dir", str(tmp_path), "--name", "run"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: unknown evaluator 'nope'; "
                                "registered: coverage, distortion, pois\n")
        assert list(tmp_path.glob("run*")) == []

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


class TestSingleOwner:
    """Unset flags leave each default to its dataclass or mechanism-table entry."""

    @pytest.mark.parametrize("command", ["optimize", "online"])
    @pytest.mark.parametrize("lppm", sorted(MECHANISMS))
    def test_required_flags_give_the_default_run_config(self, command, lppm):
        inv = parse_args([command, "--input", "d.csv", "--lppm", lppm, "--seed", "5"])
        assert _run_config(inv) == RunConfig(lppm, seed=5)

    def test_param_gives_the_static_baseline(self):
        inv = parse_args(["online", "--input", "d.csv", "--lppm", "geo-i",
                          "--param", "epsilon=0.01", "--seed", "5"])
        assert _run_config(inv) == RunConfig("geo-i", static_assignment={"epsilon": 0.01}, seed=5)

    def test_each_flag_sets_its_field(self):
        inv = parse_args(["optimize", "--input", "d.csv", "--lppm", "geo-i", "--seed", "5",
                          "--objectives", "max:coverage", "--t0", "2", "--t-min", "0.01",
                          "--cooling", "0.5", "--poi-diameter", "150", "--poi-stay-minutes", "10",
                          "--match-threshold", "80", "--cell-size", "300", "--robust-k", "5",
                          "--final-state"])
        assert _run_config(inv) == RunConfig(
            "geo-i", objectives=(Objective("coverage", minimise=False),),
            schedule=AnnealingSchedule(t0=2.0, t_min=0.01, delta_t=0.5),
            poi_params=PoiClusteringParams(150.0, 600_000, 80.0),
            cell_size_m=300.0, seed=5, robust_k=5, use_best=False)

    def test_synth_defaults_come_from_the_spec(self, tmp_path, capsys):
        out = tmp_path / "cli.csv"
        assert main(["synth", "--seed", "3", "--out", str(out)]) == 0
        expected = write_dataset_csv(generate_synthetic_dataset(SynthSpec(seed=3)).dataset,
                                     tmp_path / "lib.csv")
        assert out.read_bytes() == expected.read_bytes()

    def test_help_states_the_dataclass_defaults(self):
        poi, spec = PoiClusteringParams(), SynthSpec()
        schedule = AnnealingSchedule()
        defaults = {
            "t0": schedule.t0, "t_min": schedule.t_min, "cooling": schedule.delta_t,
            "poi_diameter": poi.max_diameter_m, "poi_stay_minutes": poi.min_stay_ms / 60_000,
            "match_threshold": poi.match_threshold_m, "cell_size": CellGrid().cell_size_m,
            "users": spec.users, "days": spec.days, "pois": spec.pois_per_user,
            "dwell_minutes": spec.dwell_minutes, "speed": spec.speed_mps,
            "sample_period": spec.sample_period_s,
        }
        (sub,) = (a for a in build_parser()._actions if a.dest == "command")
        stated = {action.dest: float(m.group(1))
                  for command in sub.choices.values() for action in command._actions
                  if (m := re.search(r"\(default ([0-9][0-9.e+-]*)\)", action.help or ""))}
        assert stated == {dest: float(value) for dest, value in defaults.items()}
