import concurrent.futures
import dataclasses
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import vhsim.cli as cli
from vhsim.cli import (
    CSV_COLUMNS,
    MAX_REPLICATES,
    ResultRow,
    ScenarioError,
    emit_csv,
    emit_summary,
    format_reduction_cell,
    main,
    parse_scenario,
    run_ablation,
    run_matrix,
)
from vhsim.simulation import ScenarioConfig, TrialMetrics, run_trial

FAST = dict(duration=20.0, density=0.1, environment="square12")


@pytest.fixture
def trial_calls(monkeypatch):
    """The configs `cli.run_trial` is called with, in call order.

    perfbench's `_decision_capture` wraps `cli.run_trial` in the same way and
    reads one call per distinct config of a serial `run_matrix`.
    """
    calls = []

    def counting_trial(config):
        calls.append(config)
        return run_trial(config)

    monkeypatch.setattr(cli, "run_trial", counting_trial)
    return calls


@pytest.fixture
def stub_calls(monkeypatch):
    """The configs `cli.run_trial` is called with; each call returns fixed metrics and runs no trial."""
    calls = []

    def stub_trial(config):
        calls.append(config)
        return TrialMetrics(social_conflicts=2, physicality_conflicts=1, stable_percentage=1.0)

    monkeypatch.setattr(cli, "run_trial", stub_trial)
    return calls


class TestParseScenario:
    def test_empty_gives_defaults(self):
        assert parse_scenario("") == ScenarioConfig()

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\ndensity: 0.2  # trailing\n"
        assert parse_scenario(text).density == 0.2

    def test_negative_density_names_field(self):
        with pytest.raises(ScenarioError, match="density"):
            parse_scenario("density: -1")

    def test_unknown_key_named(self):
        with pytest.raises(ScenarioError, match="walking_speed"):
            parse_scenario("walking_speed: 2.0")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ScenarioError, match="duplicate"):
            parse_scenario("density: 0.1\ndensity: 0.2")

    def test_bad_number_rejected(self):
        with pytest.raises(ScenarioError, match="density"):
            parse_scenario("density: lots")

    def test_malformed_line(self):
        with pytest.raises(ScenarioError, match="line 1"):
            parse_scenario("just some words")

    def test_passage_environment(self):
        cfg = parse_scenario("environment: passage")
        env = cfg.build_environment()
        assert (env.width, env.height) == (3.0, 20.0)
        assert env.side_walls

    def test_bool_parsing(self):
        cfg = parse_scenario("environment: custom\nenv_side_walls: true\nenv_width: 4\nenv_height: 12")
        assert cfg.env_side_walls is True

    @staticmethod
    def scenario_text(config):
        """Every field of a config as one `key: value` line."""
        return "".join(f"{f.name}: {getattr(config, f.name)}\n" for f in dataclasses.fields(config))

    def test_round_trip_default(self):
        cfg = ScenarioConfig()
        assert parse_scenario(self.scenario_text(cfg)) == cfg

    def test_round_trip_modified(self):
        cfg = ScenarioConfig(
            environment="passage", density=0.17, seed=42, coefficient_c=2.5,
            tracking_distance=12.0, condition="none", dt=0.05,
        )
        assert parse_scenario(self.scenario_text(cfg)) == cfg


class TestEmitCsv:
    def _rows(self):
        return [
            ResultRow(
                environment="square20", density=0.05, axis="", value="", replicate=0,
                seed=1, social_none=86, social_proposed=0, physicality_none=62,
                physicality_proposed=0, social_reduction=1.0, physicality_reduction=1.0,
                stable_pct=0.77, mean_ingroup=0.93,
            ),
            ResultRow(
                environment="passage", density=0.25, axis="", value="", replicate=1,
                seed=2, social_none=297, social_proposed=74, physicality_none=189,
                physicality_proposed=5, social_reduction=0.750842, physicality_reduction=0.973545,
                stable_pct=0.63, mean_ingroup=None,
            ),
        ]

    def test_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(self._rows(), p1)
        emit_csv(list(reversed(self._rows())), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_only_when_empty(self, tmp_path):
        p = tmp_path / "empty.csv"
        emit_csv([], p)
        assert p.read_text() == ",".join(CSV_COLUMNS) + "\n"

    def test_unwritable_path_reports_path(self, tmp_path):
        bad = tmp_path / "missing_dir" / "out.csv"
        with pytest.raises(OSError, match="missing_dir"):
            emit_csv([], bad)

    def test_six_significant_digits(self, tmp_path):
        p = tmp_path / "c.csv"
        emit_csv(self._rows(), p)
        body = p.read_text()
        assert "0.750842" in body
        assert "0.973545" in body


class TestSummary:
    def test_cell_format(self):
        assert format_reduction_cell(86, 0) == "100% (0/86)"
        assert format_reduction_cell(522, 104) == "80% (104/522)"
        assert format_reduction_cell(204, 18) == "91% (18/204)"
        assert format_reduction_cell(0, 0) == "n/a (0/0)"

    def test_summary_pools_replicates(self):
        rows = [
            ResultRow("square20", 0.05, "", "", 0, 1, social_none=40, social_proposed=0,
                      physicality_none=30, physicality_proposed=0, stable_pct=0.8),
            ResultRow("square20", 0.05, "", "", 1, 2, social_none=46, social_proposed=0,
                      physicality_none=32, physicality_proposed=0, stable_pct=0.7),
        ]
        text = emit_summary(rows)
        assert "100% (0/86)" in text
        assert "100% (0/62)" in text
        assert "75.0%" in text

    def test_axis_named_once(self):
        def row(environment, density, axis, value):
            return ResultRow(environment, density, axis, value, 0, 1, social_none=4, social_proposed=1,
                             physicality_none=2, physicality_proposed=0, stable_pct=0.5)

        text = emit_summary([
            row("square12", 0.1, "density", "0.1"),
            row("passage", 0.25, "environment", "passage"),
            row("square12", 0.25, "coefficient_c", "4.0"),
        ])
        assert [line.split(":")[0] for line in text.splitlines()] == [
            "passage density=0.25", "square12 density=0.1", "square12 density=0.25 coefficient_c=4.0",
        ]


class TestRunAblation:
    def test_bad_axis(self, stub_calls):
        for axis in ("weather", "condition"):
            with pytest.raises(ScenarioError, match="axis"):
                run_ablation(ScenarioConfig(), axis, [1])
        assert stub_calls == []

    def test_empty_values(self, stub_calls):
        with pytest.raises(ScenarioError, match="values"):
            run_ablation(ScenarioConfig(), "density", [])
        assert stub_calls == []

    @pytest.mark.parametrize("value", ["abc", None])
    def test_uncoercible_value_named(self, stub_calls, value):
        # the CLI parses its list first; a library caller reaches the coercion
        with pytest.raises(ScenarioError, match="values"):
            run_ablation(ScenarioConfig(), "density", [value], replicates=1)
        assert stub_calls == []

    def test_not_enough_seeds(self, stub_calls):
        with pytest.raises(ScenarioError, match="seeds"):
            run_ablation(ScenarioConfig(), "density", [0.1], replicates=3, seeds=[1])
        assert stub_calls == []

    def test_default_seeds_follow_replicates(self, stub_calls):
        rows = run_ablation(ScenarioConfig(), "coefficient_c", [1.0], replicates=6)
        assert [r.seed for r in rows] == [1, 2, 3, 4, 5, 6]

    def test_paired_rows(self):
        base = ScenarioConfig(**FAST)
        rows = run_ablation(base, "coefficient_c", [0.0, 1.0], replicates=1, seeds=[1])
        assert len(rows) == 2
        for row in rows:
            assert row.axis == "coefficient_c"
            assert row.social_none is not None
            assert row.social_proposed is not None
            assert row.stable_pct is not None

    def test_none_trials_shared_across_values(self):
        # the no-avoidance baseline does not depend on the swept coefficient,
        # so both sweep points report identical baseline counts
        base = ScenarioConfig(**FAST)
        rows = run_ablation(base, "coefficient_c", [0.0, 2.0], replicates=1, seeds=[3])
        assert rows[0].social_none == rows[1].social_none
        assert rows[0].physicality_none == rows[1].physicality_none

    @pytest.mark.parametrize("axis", cli._PLANNER_AXES)
    def test_none_trial_ignores_planner_axis(self, axis):
        # guards the list: on these axes every sweep point shares one none trial
        base = ScenarioConfig(**{**FAST, "density": 0.25}, condition="none")
        low, high = (run_trial(replace(base, **{axis: value})) for value in (2.0, 20.0))
        assert low == high

    def test_planner_axis_runs_one_none_trial_per_seed(self, trial_calls):
        base = ScenarioConfig(**{**FAST, "duration": 5.0})
        run_ablation(base, "coefficient_c", [0.0, 1.0, 4.0], replicates=2, seeds=[1, 2])
        assert len(trial_calls) == len(set(trial_calls)) == 2 + 3 * 2
        assert [c.seed for c in trial_calls if c.condition == "none"] == [1, 2]

    def test_environment_axis(self):
        base = ScenarioConfig(**FAST)
        rows = run_ablation(base, "environment", ["square12", "passage"], replicates=1, seeds=[1])
        assert [r.environment for r in rows] == ["square12", "passage"]

    def test_density_sweep_pairs_as_matrix(self):
        # the two runners pair a density point's trials the same way
        base = ScenarioConfig(**{**FAST, "duration": 10.0})
        swept = run_ablation(base, "density", [0.05, 0.25], replicates=2, seeds=[1, 2])
        grid = run_matrix(base, [base.environment], [0.05, 0.25], replicates=2, seeds=[1, 2])
        fields = ("environment", "density", "seed", "social_none", "social_proposed", "physicality_none",
                  "physicality_proposed", "social_reduction", "physicality_reduction", "stable_pct")
        assert [[getattr(r, f) for f in fields] for r in swept] == [[getattr(r, f) for f in fields] for r in grid]


class TestReplicateSeeds:
    def test_repeated_seed_rejected(self, stub_calls):
        # a repeated seed would count one trial as two replicates
        with pytest.raises(ScenarioError, match="seeds"):
            run_matrix(ScenarioConfig(), ["square12"], [0.25], replicates=2, seeds=[3, 3])
        with pytest.raises(ScenarioError, match="seeds"):
            run_ablation(ScenarioConfig(), "density", [0.25], replicates=2, seeds=[3, 3])
        assert stub_calls == []

    def test_only_used_seeds_must_differ(self, stub_calls):
        rows = run_matrix(ScenarioConfig(), ["square12"], [0.25], replicates=2, seeds=[3, 4, 3])
        assert [r.seed for r in rows] == [3, 4]

    @pytest.mark.parametrize("replicates", [0, MAX_REPLICATES + 1])
    def test_replicates_bounded(self, stub_calls, replicates):
        with pytest.raises(ScenarioError, match="replicates"):
            run_matrix(ScenarioConfig(), ["square12"], [0.25], replicates=replicates)
        with pytest.raises(ScenarioError, match="replicates"):
            run_ablation(ScenarioConfig(), "density", [0.25], replicates=replicates)
        assert stub_calls == []


class TestRepeatedSweepValues:
    # a repeated value's trials would run once and be pooled twice
    def test_matrix_rejects_repeats(self, stub_calls):
        with pytest.raises(ScenarioError, match="environments"):
            run_matrix(ScenarioConfig(), ["square12", "square12"], [0.25], replicates=1)
        with pytest.raises(ScenarioError, match="densities"):
            run_matrix(ScenarioConfig(), ["square12"], [0.25, 0.25], replicates=1)
        assert stub_calls == []

    def test_matrix_names_an_unhashable_axis(self, stub_calls):
        # a nested list cannot be checked for repeats, nor run as a setting
        with pytest.raises(ScenarioError, match="densities"):
            run_matrix(ScenarioConfig(), ["square12"], [[0.25]], replicates=1)
        with pytest.raises(ScenarioError, match="environments"):
            run_matrix(ScenarioConfig(), [["square12"]], [0.25], replicates=1)
        assert stub_calls == []

    def test_ablation_compares_coerced_values(self, stub_calls):
        with pytest.raises(ScenarioError, match="values"):
            run_ablation(ScenarioConfig(), "coefficient_c", [1.0, 1], replicates=1)
        with pytest.raises(ScenarioError, match="values"):
            run_ablation(ScenarioConfig(), "density", ["0.1", "0.10"], replicates=1)
        with pytest.raises(ScenarioError, match="values"):
            run_ablation(ScenarioConfig(), "environment", ["passage", "square12", "passage"], replicates=1)
        assert stub_calls == []


class TestRunMatrix:
    def test_empty_grid_rejected(self, stub_calls):
        # an empty axis would run nothing and return no rows
        with pytest.raises(ScenarioError, match="environments"):
            run_matrix(ScenarioConfig(), [], [0.25], replicates=1)
        with pytest.raises(ScenarioError, match="densities"):
            run_matrix(ScenarioConfig(), ["square12"], [], replicates=1)
        assert stub_calls == []

    def test_parallel_pool_sized_to_distinct_trials(self, monkeypatch):
        # an in-process stand-in for the process pool, recording its size
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        base = ScenarioConfig(**FAST)
        serial = run_matrix(base, ["square12"], [0.1], replicates=1, seeds=[1])
        parallel = run_matrix(base, ["square12"], [0.1], replicates=1, seeds=[1], jobs=8)
        assert sizes == [2]
        assert parallel == serial
        # more distinct trials than usable CPUs, and far more jobs: one worker a CPU
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        sizes.clear()
        trials = [replace(base, duration=1.0, seed=seed) for seed in range(1, 2 * cpus + 2)]
        assert len(cli._run_many(trials, jobs=100_000)) == 2 * cpus + 1
        assert sizes == ([cpus] if cpus > 1 else [])

    def test_one_run_trial_call_per_config(self, trial_calls):
        base = ScenarioConfig(**{**FAST, "duration": 5.0})
        rows = run_matrix(base, ["square12", "passage"], [0.05, 0.1], replicates=2, seeds=[1, 2])
        assert len(trial_calls) == len(set(trial_calls)) == 2 * len(rows) == 2 * 2 * 2 * 2

    def test_grid_shape(self):
        base = ScenarioConfig(**FAST)
        rows = run_matrix(base, ["square12", "passage"], [0.05, 0.1], replicates=2, seeds=[1, 2])
        assert len(rows) == 2 * 2 * 2
        envs = {r.environment for r in rows}
        assert envs == {"square12", "passage"}
        for row in rows:
            assert row.social_none is not None
            assert row.social_proposed is not None


class TestPairedSeeds:
    def test_identical_pedestrian_streams(self, tmp_path):
        # condition must not perturb the pedestrian simulation: compare traces
        import io

        base = ScenarioConfig(environment="square12", density=0.15, duration=15.0, seed=11)
        streams = []
        for condition in ("none", "proposed"):
            buf = io.StringIO()
            run_trial(replace(base, condition=condition), trace=buf)
            peds = [json.loads(line)["peds"] for line in buf.getvalue().splitlines()[1:]]
            streams.append(peds)
        assert streams[0] == streams[1]


class TestMainCli:
    def test_simulate_writes_outputs(self, tmp_path, capsys):
        scenario = tmp_path / "s.txt"
        scenario.write_text("environment: square12\ndensity: 0.1\nduration: 10\n")
        out = tmp_path / "out"
        code = main([
            "simulate", "--scenario", str(scenario), "--seed", "2", "--out", str(out), "--trace",
        ])
        assert code == 0
        assert (out / "metrics.csv").exists()
        trace_lines = (out / "trace.jsonl").read_text().splitlines()
        assert json.loads(trace_lines[0])["schema"] == "vhsim-trace/1"
        assert len(trace_lines) == 1 + 100
        assert "social=" in capsys.readouterr().out

    def test_non_utf8_scenario_names_field(self, tmp_path, capsys):
        scenario = tmp_path / "latin1.txt"
        scenario.write_bytes(b"seed: 1\n\xff\n")
        assert main(["simulate", "--scenario", str(scenario)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: scenario:") and str(scenario) in err

    @pytest.mark.parametrize("name", ["missing.txt", "."])
    def test_unreadable_scenario_names_field(self, tmp_path, capsys, name):
        scenario = tmp_path / name  # a path that does not exist, or a directory
        assert main(["simulate", "--scenario", str(scenario)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: scenario:") and str(scenario) in err

    def test_scenario_with_byte_order_mark(self, tmp_path, capsys):
        scenario = tmp_path / "bom.txt"
        scenario.write_bytes(b"\xef\xbb\xbfduration: 5\n")
        assert main(["simulate", "--scenario", str(scenario)]) == 0
        assert "social=" in capsys.readouterr().out

    def test_sweep_commands_share_their_options(self):
        parser = cli.build_parser()
        shared = {"scenario": None, "replicates": 5, "seeds": None, "out": None, "jobs": 1}
        ablate = vars(parser.parse_args(["ablate", "--axis", "density", "--values", "0.1"]))
        matrix = vars(parser.parse_args(["matrix"]))
        assert {key: ablate[key] for key in shared} == {key: matrix[key] for key in shared} == shared

    def test_simulate_rejects_bad_scenario(self, tmp_path, capsys):
        scenario = tmp_path / "bad.txt"
        scenario.write_text("density: -3\n")
        code = main(["simulate", "--scenario", str(scenario)])
        assert code == 2
        assert "density" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [
        ("candidate_angular_step", "0"),
        ("candidate_radial_step", "0"),
        ("seed", "-1"),
        ("duration", "inf"),
        ("density", "inf"),
        ("dt", "1e-9"),
        ("duration", "1e300"),
        ("horizon_cap", "nan"),
        ("replan_interval", "inf"),
        ("planning_margin", "-5"),
        ("goal_tolerance", "-1"),
        ("vh_turn_rate", "-1"),
        ("arrive_position_tol", "-1"),
        pytest.param("env_height", "1\nenvironment: custom\nenv_width: 1", id="custom-1x1-room"),
    ])
    def test_simulate_names_field_of_unrunnable_scenario(self, tmp_path, capsys, field, value):
        scenario = tmp_path / "bad.txt"
        scenario.write_text(f"{field}: {value}\n")
        code = main(["simulate", "--scenario", str(scenario)])
        assert code == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("command,field", [
        ("ablate --axis density --values -1", "density"),
        ("ablate --axis density --values abc", "values"),
        ("ablate --axis density --values 0.1 --jobs 0", "jobs"),
        ("matrix --environments foo", "environment"),
        ("matrix --densities x", "densities"),
        ("matrix --jobs 0", "jobs"),
        ("matrix --replicates 0", "replicates"),
        (f"matrix --replicates {MAX_REPLICATES + 1}", "replicates"),
        (f"ablate --axis density --values 0.1 --replicates {MAX_REPLICATES + 1}", "replicates"),
        ("matrix --environments square12 --densities 0.25 --replicates 2 --seeds 3,3", "seeds"),
        ("ablate --axis density --values 0.1 --replicates 2 --seeds 3,3", "seeds"),
        ("matrix --environments passage,passage", "environments"),
        ("matrix --densities 0.1,0.10", "densities"),
        ("ablate --axis density --values 0.1,0.10", "values"),
        ("ablate --axis environment --values square12,square12", "values"),
    ])
    def test_sweep_argument_error_names_field(self, monkeypatch, capsys, command, field):
        def no_trial(config):
            raise AssertionError("a trial ran before the sweep arguments were checked")

        monkeypatch.setattr(cli, "run_trial", no_trial)
        assert main(command.split()) == 2
        assert field in capsys.readouterr().err

    def test_trace_requires_out(self, capsys):
        assert main(["simulate", "--trace"]) == 2

    def test_ablate_condition_axis_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ablate", "--axis", "condition", "--values", "none,proposed"])
        assert exc.value.code == 2
        assert "--axis" in capsys.readouterr().err

    def test_ablate_smoke(self, tmp_path, capsys):
        out = tmp_path / "abl"
        scenario = tmp_path / "s.txt"
        scenario.write_text("environment: square12\ndensity: 0.1\nduration: 10\n")
        code = main([
            "ablate", "--axis", "coefficient_d", "--values", "0.5,2.0",
            "--scenario", str(scenario), "--replicates", "1", "--out", str(out),
        ])
        assert code == 0
        csv_path = out / "ablation_coefficient_d.csv"
        assert csv_path.exists()
        lines = csv_path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3

    def test_matrix_smoke(self, tmp_path, capsys):
        out = tmp_path / "mat"
        scenario = tmp_path / "s.txt"
        scenario.write_text("duration: 10\n")
        code = main([
            "matrix", "--environments", "square12", "--densities", "0.05,0.1",
            "--scenario", str(scenario), "--replicates", "1", "--out", str(out),
        ])
        assert code == 0
        lines = (out / "matrix.csv").read_text().splitlines()
        assert len(lines) == 3
        summary = capsys.readouterr().out.splitlines()
        assert [line.split(": social ")[0] for line in summary] == ["square12 density=0.05", "square12 density=0.1"]

    def test_csv_deterministic_across_runs(self, tmp_path):
        scenario = tmp_path / "s.txt"
        scenario.write_text("environment: square12\ndensity: 0.1\nduration: 10\n")
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 0
            outs.append((out / "metrics.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_python_m_vhsim_runs_without_warning(self):
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        result = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "vhsim", "simulate", "--duration", "1"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "social=" in result.stdout
