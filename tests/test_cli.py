"""Tests for the ``biglittle`` command-line interface."""

import os
import re
import shlex

import pytest

import repro.cli
import repro.dist
from repro.cli import build_parser, main

README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")


def _documented_commands() -> list[str]:
    """Every ``biglittle …`` line in README.md's shell blocks and in the
    ``repro.cli`` and ``repro.dist`` docstrings, continuations joined and
    ``#`` comments dropped."""
    with open(README) as fh:
        readme = fh.read()
    blocks = re.findall(r"^```bash\n(.*?)^```", readme, re.M | re.S)
    texts = blocks + [repro.cli.__doc__, repro.dist.__doc__]
    commands = []
    for text in texts:
        for line in re.sub(r"\\\n\s*", " ", text).splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("biglittle "):
                commands.append(line)
    return commands


class TestDocumentedCommands:
    def test_documents_commands(self):
        commands = _documented_commands()
        assert len(commands) > 20
        assert any(c.startswith("biglittle worker") for c in commands)

    @pytest.mark.parametrize("command", _documented_commands())
    def test_documented_command_parses(self, command):
        build_parser().parse_args(shlex.split(command)[1:])


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_parses_seed(self):
        args = build_parser().parse_args(["run", "table3", "--seed", "5"])
        assert args.experiment == "table3"
        assert args.seed == 5

    def test_characterize_validates_app(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["characterize", "not-an-app"])

    def test_batch_parses_runner_options(self):
        args = build_parser().parse_args([
            "batch", "--apps", "bbench,browser", "--configs", "L4+B4,L2+B1",
            "--seeds", "0,1", "--workers", "4", "--timeout", "30",
            "--retries", "2", "--no-cache",
        ])
        assert args.command == "batch"
        assert args.apps == "bbench,browser"
        assert args.workers == 4
        assert args.timeout == 30.0
        assert args.retries == 2
        assert args.no_cache

    def test_sweep_validates_target(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "not-a-sweep"])
        args = build_parser().parse_args(["sweep", "params", "--workers", "2"])
        assert args.target == "params"
        assert args.workers == 2

    def test_observe_parses_exports_and_verbosity(self):
        args = build_parser().parse_args([
            "-v", "observe", "bbench", "--seed", "3", "--max-seconds", "2",
            "--perfetto", "t.json", "--metrics", "m.json",
            "--events", "e.jsonl",
        ])
        assert args.command == "observe"
        assert args.app == "bbench"
        assert args.seed == 3
        assert args.max_seconds == 2.0
        assert args.perfetto == "t.json"
        assert args.metrics == "m.json"
        assert args.events == "e.jsonl"
        assert args.verbose == 1

    def test_observe_validates_app(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["observe", "not-an-app"])


class TestNumericOptionValidation:
    """Out-of-range counts fail at parse time with argparse's usage error."""

    @pytest.fixture(autouse=True)
    def no_simulation(self, monkeypatch):
        def refuse(*args, **kwargs):
            pytest.fail("work started before the options were validated")

        monkeypatch.setattr("repro.core.study.run_app", refuse)
        monkeypatch.setattr("repro.cli.build_app_sim", refuse)
        monkeypatch.setattr("repro.runner.BatchRunner", refuse)

    @pytest.mark.parametrize("argv", [
        ["batch", "--retries", "-1", "--no-cache"],
        ["explore", "--retries", "-1", "--no-cache"],
        ["timeline", "bbench", "--width", "0"],
        ["profile", "bbench", "--top", "-1"],
        ["profile", "bbench", "--top", "0"],
    ], ids=["batch-retries", "explore-retries", "timeline-width",
            "profile-top-negative", "profile-top-zero"])
    def test_rejected_with_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "must be >=" in err

    def test_zero_retries_parse(self):
        for command in ("batch", "explore"):
            args = build_parser().parse_args([command, "--retries", "0"])
            assert args.retries == 0


class TestCommands:
    def test_list_prints_artifacts(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out and "fig13" in out

    def test_run_unknown_experiment(self):
        with pytest.raises(KeyError):
            main(["run", "fig99"])

    def test_characterize_runs(self, capsys):
        assert main(["characterize", "video-player"]) == 0
        out = capsys.readouterr().out
        assert "TLP statistics" in out
        assert "Efficiency decomposition" in out

    def test_report_runs(self, capsys):
        assert main(["report", "video-player", "--seed", "7"]) == 0
        report = capsys.readouterr().out
        assert report.startswith("=== video-player (fps app, L4+B4) ===")
        assert "Per-task execution profile" in report
        # One renderer prints the TLP, matrix and efficiency block of both.
        assert main(["characterize", "video-player", "--seed", "7"]) == 0
        block = capsys.readouterr().out.strip()
        assert block.startswith("TLP statistics")
        assert "Active-core distribution" in block
        assert "Efficiency decomposition" in block
        assert block in report

    def test_profile_runs(self, capsys):
        assert main(["profile", "video-player", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "Per-task execution profile" in out
        assert "video-player/" in out

    @pytest.mark.parametrize("reference", [False, True])
    def test_cprofile_runs(self, capsys, tmp_path, reference):
        path = str(tmp_path / "run.pstats")
        argv = ["cprofile", "video-player", "--top", "3", "--pstats", path]
        assert main(argv + (["--reference"] if reference else [])) == 0
        out = capsys.readouterr().out
        assert "cumulative" in out
        if reference:
            assert "fast-forward disabled" in out
        else:
            assert "ticks fast-forwarded in" in out
        assert os.path.getsize(path) > 0

    def test_timeline_runs(self, capsys):
        assert main(["timeline", "video-player", "--width", "30"]) == 0
        out = capsys.readouterr().out
        assert "busy" in out and "span:" in out

    def test_run_with_json_export(self, capsys, tmp_path):
        path = str(tmp_path / "out.json")
        assert main(["run", "fig6", "--json", path]) == 0
        import json

        with open(path) as f:
            payload = json.load(f)
        assert "power_mw" in payload

    def test_batch_runs_grid(self, capsys, tmp_path):
        json_path = str(tmp_path / "report.json")
        rc = main([
            "batch", "--apps", "video-player", "--configs", "L4+B4,L2",
            "--seeds", "0", "--chip", "exynos5422", "--max-seconds", "0.5",
            "--workers", "1", "--cache-dir", str(tmp_path / "cache"),
            "--json", json_path,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Batch: 2/2 ok" in out
        assert "video-player/L4+B4/s0" in out
        import json

        with open(json_path) as f:
            payload = json.load(f)
        assert payload["cache_misses"] == 2
        assert len(payload["results"]) == 2

        # A warm rerun of the same grid is served entirely from cache.
        rc = main([
            "batch", "--apps", "video-player", "--configs", "L4+B4,L2",
            "--seeds", "0", "--chip", "exynos5422", "--max-seconds", "0.5",
            "--workers", "1", "--cache-dir", str(tmp_path / "cache"),
        ])
        assert rc == 0
        assert "2 cached" in capsys.readouterr().out

    def test_observe_runs_and_exports(self, capsys, tmp_path):
        import json

        from repro.obs.export import validate_trace_events

        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        events_path = tmp_path / "events.jsonl"
        rc = main([
            "observe", "bbench", "--max-seconds", "2",
            "--perfetto", str(trace_path),
            "--metrics", str(metrics_path),
            "--events", str(events_path),
        ])
        assert rc == 0
        # Stdout carries only the summary tables; exports land on disk.
        out = capsys.readouterr().out
        assert "Migrations" in out
        assert "OPP residency" in out

        payload = json.loads(trace_path.read_text())
        assert validate_trace_events(payload) == []
        assert payload["otherData"]["app"] == "bbench"

        metrics = json.loads(metrics_path.read_text())
        assert metrics["counters"]["migrations.total"] >= 0
        assert metrics["gauges"]["total_ticks"] == 2000

        lines = events_path.read_text().splitlines()
        assert lines
        assert all("event" in json.loads(line) for line in lines)

    def test_observe_summary_only(self, capsys):
        rc = main(["observe", "video-player", "--max-seconds", "1"])
        assert rc == 0
        assert "Migrations" in capsys.readouterr().out


class TestExploreCommand:
    def test_explore_parses_options(self):
        args = build_parser().parse_args([
            "explore", "--workloads", "browser", "--axis", "big_cores=0,2",
            "--sampler", "grid", "--horizon", "2.0", "--area-mm2", "18",
            "--max-points", "16", "--json", "f.json",
        ])
        assert args.command == "explore"
        assert args.axis == ["big_cores=0,2"]
        assert args.sampler == "grid"
        assert args.horizon == 2.0
        assert args.area_mm2 == 18.0

    def test_explore_rejects_unknown_sampler(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explore", "--sampler", "annealing"])

    def test_explore_rejects_unknown_axis(self, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "explore", "--axis", "ring_oscillators=1,2",
                "--cache-dir", str(tmp_path),
            ])

    def test_explore_tiny_grid_end_to_end(self, capsys, tmp_path):
        import json

        artifact = tmp_path / "frontier.json"
        rc = main([
            "explore", "--workloads", "browser",
            "--axis", "little_cores=2", "--axis", "big_cores=0,1",
            "--sampler", "grid", "--horizon", "0.4", "--workers", "1",
            "--cache-dir", str(tmp_path / "cache"), "--json", str(artifact),
        ])
        assert rc == 0
        assert "Pareto frontier" in capsys.readouterr().out
        payload = json.loads(artifact.read_text())
        assert payload["frontier"]
        assert payload["n_evaluations"] == 2


class TestCacheCommand:
    def test_cache_parses_flags(self):
        args = build_parser().parse_args(["cache", "--stats", "--prune"])
        assert args.command == "cache"
        assert args.stats and args.prune

    def test_cache_reports_and_prunes_stale_versions(self, capsys, tmp_path):
        stale = tmp_path / "0.0.0-old" / "deadbeef"
        stale.mkdir(parents=True)
        (stale / "result.json").write_text("{}")

        rc = main(["cache", "--stats", "--cache-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0.0.0-old" in out and "stale" in out
        assert "Per-app breakdown" in out

        rc = main(["cache", "--prune", "--cache-dir", str(tmp_path)])
        assert rc == 0
        assert "pruned 1 entries" in capsys.readouterr().out
        assert not (tmp_path / "0.0.0-old").exists()
