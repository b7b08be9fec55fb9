"""Tests for the command-line interface."""

import json

import pytest

from repro.experiments.cli import build_parser, main


@pytest.fixture(autouse=True)
def _manifests_in_tmp(monkeypatch, tmp_path):
    """Keep CLI-written run manifests inside the test sandbox."""
    monkeypatch.setenv("REPRO_MANIFEST_DIR", str(tmp_path / "manifests"))


class TestParser:
    def test_every_experiment_has_a_subcommand(self):
        parser = build_parser()
        for name in ("fig1", "fig6", "fig10"):
            args = parser.parse_args([name])
            assert args.command == name

    def test_config_overrides_parsed(self):
        parser = build_parser()
        args = parser.parse_args(
            ["fig6", "--instructions", "100", "--channels", "4",
             "--scheduler", "fcfs"]
        )
        assert args.instructions == 100
        assert args.channels == 4
        assert args.scheduler == "fcfs"

    def test_mix_subcommand(self):
        args = build_parser().parse_args(["mix", "2-MEM"])
        assert args.mix_name == "2-MEM"

    def test_unknown_mix_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mix", "3-MEM"])


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig10" in out
        assert "2-MEM" in out

    def test_mix_run(self, capsys):
        code = main([
            "mix", "2-ILP", "--instructions", "200", "--warmup", "50",
            "--scale", "32",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "bzip2" in out
        assert "row-buffer hit rate" in out

    def test_figure_run_with_subset(self, capsys):
        code = main([
            "fig8", "--instructions", "200", "--warmup", "50",
            "--scale", "32", "--mixes", "2-ILP",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out
        assert "2-ILP" in out


class TestAblationCommands:
    def test_ablation_subcommands_exist(self):
        parser = build_parser()
        args = parser.parse_args(["abl-page-mode", "--mixes", "2-MEM"])
        assert args.command == "abl-page-mode"

    def test_list_includes_ablations(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        assert "abl-mshr" in out

    def test_ablation_runs(self, capsys):
        code = main([
            "abl-page-mode", "--instructions", "200", "--warmup", "50",
            "--scale", "32", "--mixes", "2-MEM",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "page mode" in out

    def test_csv_export(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code = main([
            "fig8", "--instructions", "200", "--warmup", "50",
            "--scale", "32", "--mixes", "2-ILP", "--csv", str(target),
        ])
        assert code == 0
        assert target.read_text().startswith("mix,page,xor")


class TestVersion:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestManifests:
    QUICK = ["--instructions", "200", "--warmup", "50", "--scale", "32"]

    def _manifest_path(self, out: str) -> str:
        lines = [
            line for line in out.splitlines()
            if line.startswith("[manifest: ")
        ]
        assert lines, out
        return lines[-1][len("[manifest: "):-1]

    def test_mix_prints_manifest_path(self, capsys):
        assert main(["mix", "2-ILP", *self.QUICK]) == 0
        path = self._manifest_path(capsys.readouterr().out)
        with open(path) as handle:
            doc = json.load(handle)
        assert doc["runs"][0]["apps"] == ["bzip2", "gzip"]

    def test_figure_prints_manifest_path(self, capsys, tmp_path):
        assert main([
            "fig8", *self.QUICK, "--mixes", "2-ILP",
            "--manifest-dir", str(tmp_path / "custom"),
        ]) == 0
        path = self._manifest_path(capsys.readouterr().out)
        assert str(tmp_path / "custom") in path
        with open(path) as handle:
            doc = json.load(handle)
        assert doc["runs"]  # every simulated job recorded


class TestTraceCommand:
    QUICK = ["--instructions", "200", "--warmup", "50", "--scale", "32"]

    def test_trace_writes_valid_chrome_trace(self, capsys, tmp_path):
        from repro.telemetry import validate_chrome_trace

        target = tmp_path / "trace.json"
        code = main([
            "trace", "2-MEM", *self.QUICK, "--trace-out", str(target),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "[trace written to" in out
        assert "[manifest: " in out
        with open(target) as handle:
            doc = json.load(handle)
        assert validate_chrome_trace(doc) == []
        assert doc["traceEvents"]

    def test_trace_jsonl_format(self, capsys, tmp_path):
        from repro.telemetry import load_jsonl

        target = tmp_path / "trace.jsonl"
        code = main([
            "trace", "2-MEM", *self.QUICK,
            "--trace-out", str(target), "--trace-format", "jsonl",
        ])
        assert code == 0
        records = load_jsonl(target)
        assert records and all("ts" in r and "name" in r for r in records)

    def test_mix_telemetry_and_trace_flags(self, capsys, tmp_path):
        target = tmp_path / "mix-trace.json"
        code = main([
            "mix", "2-MEM", *self.QUICK,
            "--telemetry", "--trace-out", str(target),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "telemetry:" in out
        assert target.exists()


class TestErrorExits:
    def test_unknown_report_experiment_exits_2(self, capsys, tmp_path):
        code = main([
            "report", "--experiments", "nope",
            "--out", str(tmp_path / "report.md"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err
        assert "nope" in err


class TestResilienceFlags:
    QUICK = ["--instructions", "200", "--warmup", "50", "--scale", "32"]

    def test_flags_parsed(self):
        args = build_parser().parse_args([
            "fig10", "--timeout", "30", "--retries", "2", "--resume",
        ])
        assert args.timeout == 30.0
        assert args.retries == 2
        assert args.resume is True

    def test_resume_requires_cache_dir(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig10", *self.QUICK, "--mixes", "2-MEM", "--resume"])
        assert "--cache-dir" in str(excinfo.value)

    def test_journal_written_and_reported(self, capsys, tmp_path):
        code = main([
            "fig10", *self.QUICK, "--mixes", "2-MEM",
            "--cache-dir", str(tmp_path / "cache"), "--resume",
        ])
        assert code == 0
        path = tmp_path / "cache" / "jobs.jsonl"
        assert f"[job log: {path}]" in capsys.readouterr().out
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[0]["event"] == "log-start"
        done = [r for r in records if r.get("outcome") == "done"]
        assert done and all(r["event"] == "release" for r in done)

    def test_fault_plan_abort_then_resume(self, capsys, tmp_path, monkeypatch):
        """The chaos-lane flow, in-process: a fault plan aborts the run
        with exit 3 and a resume hint; the --resume rerun completes."""
        from repro.faults import FAULT_PLAN_ENV, FaultPlan, FaultSpec

        plan = FaultPlan(specs=(FaultSpec(kind="exception", attempt=None),))
        plan_path = plan.write(tmp_path / "plan.json")
        cache_dir = str(tmp_path / "cache")
        argv = ["fig10", *self.QUICK, "--mixes", "2-MEM",
                "--cache-dir", cache_dir, "--resume"]

        monkeypatch.setenv(FAULT_PLAN_ENV, str(plan_path))
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "--resume" in err
        assert "jobs.jsonl" in err

        monkeypatch.delenv(FAULT_PLAN_ENV)
        assert main(argv) == 0
        assert "[job log: " in capsys.readouterr().out
