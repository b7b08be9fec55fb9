"""Tests for the ``repro lint`` command-line front end."""

import io

import pytest

from repro.analysis.cli import main as lint_main
from repro.experiments.cli import main as repro_main


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.py"
    path.write_text("def f(xs):\n    return sorted(xs)\n")
    return path


@pytest.fixture
def dirty_file(tmp_path):
    path = tmp_path / "dirty.py"
    path.write_text("import random\nimport time\nt = time.time()\n")
    return path


@pytest.fixture
def taint_pkg(tmp_path):
    """Cross-file wall-clock -> job-log record flow (TNT003 + DET002)."""
    pkg = tmp_path / "taintpkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "clock.py").write_text(
        "import time\n\n\ndef stamp():\n    return time.time()\n"
    )
    (pkg / "runner.py").write_text(
        "from taintpkg.clock import stamp\n\n\n"
        "def run(joblog, key):\n"
        "    joblog.append({'key': key, 'when': stamp()})\n"
    )
    return pkg


def run(argv):
    import argparse

    from repro.analysis.cli import add_lint_arguments, run_lint

    parser = argparse.ArgumentParser()
    add_lint_arguments(parser)
    out = io.StringIO()
    code = run_lint(parser.parse_args(argv), out=out)
    return code, out.getvalue()


def usage_error(argv):
    """Exit status of an invocation argparse rejects."""
    with pytest.raises(SystemExit) as exc:
        lint_main(argv)
    return exc.value.code


class TestExitCodes:
    def test_clean_exits_zero(self, clean_file):
        assert lint_main([str(clean_file)]) == 0

    def test_findings_exit_one(self, dirty_file):
        assert lint_main([str(dirty_file)]) == 1

    def test_missing_path_exits_two(self):
        assert lint_main(["/no/such/path.py"]) == 2

    def test_syntax_error_exits_two(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        assert lint_main([str(bad)]) == 2

    def test_no_paths_exits_two(self):
        assert lint_main([]) == 2

    def test_unknown_select_code_exits_two(self, clean_file, capsys):
        # There is no rule selection: one pass runs every rule.
        assert usage_error([str(clean_file), "--select", "DET999"]) == 2
        assert "--select" in capsys.readouterr().err


class TestOutput:
    def test_json_document(self, dirty_file):
        """Each finding is one parseable line, then the summary."""
        code, text = run([str(dirty_file)])
        assert code == 1
        *findings, summary = text.splitlines()
        assert [line.split()[1] for line in findings] == ["DET001", "DET002"]
        assert all(line.startswith(f"{dirty_file}:") for line in findings)
        assert summary == "2 finding(s), 0 error(s) in 1 file"

    def test_human_summary_line(self, dirty_file):
        code, text = run([str(dirty_file)])
        assert code == 1
        assert "2 finding(s), 0 error(s) in 1 file" in text
        assert "DET001" in text and "DET002" in text

    def test_select_filters_rules(self, taint_pkg):
        """Per-line and whole-program rules report from the same pass."""
        code, text = run([str(taint_pkg)])
        assert code == 1
        assert "DET002" in text and "TNT003" in text

    def test_list_rules(self):
        code, text = run(["--list-rules"])
        assert code == 0
        codes = [line.split()[0] for line in text.splitlines()]
        assert codes == sorted(codes)
        assert {"DET000", "DET004", "TNT003", "FS001", "FS002"} <= set(codes)


class TestMainCliIntegration:
    def test_lint_subcommand_registered(self, dirty_file, capsys):
        assert repro_main(["lint", str(dirty_file)]) == 1
        assert "DET001" in capsys.readouterr().out

    def test_lint_clean_tree(self, clean_file, capsys):
        assert repro_main(["lint", str(clean_file)]) == 0
        capsys.readouterr()

    def test_deep_flag_reaches_analyzer(self, taint_pkg, capsys):
        """The whole-program pass is the default: no flag reaches it."""
        assert repro_main(["lint", str(taint_pkg)]) == 1
        assert "TNT003" in capsys.readouterr().out


class TestDeepMode:
    def test_deep_clean_exits_zero(self, clean_file):
        assert run([str(clean_file.parent)])[0] == 0

    def test_deep_findings_exit_one_with_trace(self, taint_pkg):
        code, text = run([str(taint_pkg)])
        assert code == 1
        assert "TNT003" in text
        assert "joblog.append" in text  # the rendered source->sink trace

    def test_deep_missing_path_exits_two(self, taint_pkg):
        code, text = run([str(taint_pkg), "/no/such/path.py"])
        assert code == 2
        assert "error: /no/such/path.py" in text

    def test_deep_syntax_error_exits_two(self, taint_pkg):
        # An unparseable file outranks the findings elsewhere.
        (taint_pkg / "bad.py").write_text("def broken(:\n")
        code, text = run([str(taint_pkg)])
        assert code == 2
        assert "TNT003" in text and "bad.py" in text

    def test_select_with_deep_exits_two(self, clean_file):
        # One output format: machine-readable variants are usage errors.
        assert usage_error([str(clean_file), "--format", "json"]) == 2

    def test_trace_starts_at_source_line(self, taint_pkg):
        """The trace starts at the finding's own source line."""
        _, text = run([str(taint_pkg)])
        lines = text.splitlines()
        (at,) = [i for i, line in enumerate(lines) if " TNT003 " in line]
        location = lines[at].split(":")[:2]
        assert lines[at + 1].split()[0] == ":".join(location) + ":"

    def test_json_output_includes_trace(self, taint_pkg):
        _, text = run([str(taint_pkg)])
        steps = [line for line in text.splitlines() if "-> " in line]
        assert steps
        assert "job-log record" in steps[-1]

    def test_cache_dir_speeds_warm_run(self, taint_pkg):
        """A second run over an unchanged tree prints the same report."""
        assert run([str(taint_pkg)]) == run([str(taint_pkg)])


class TestBaselineWorkflow:
    def test_update_then_gate(self, taint_pkg):
        runner = taint_pkg / "runner.py"
        runner.write_text(
            runner.read_text().rstrip("\n")
            + "  # repro: allow(TNT003) fixture\n"
        )
        (taint_pkg / "clock.py").write_text(
            "import time\n\n\ndef stamp():\n"
            "    return time.time()  # repro: allow(DET002) fixture\n"
        )
        code, text = run([str(taint_pkg)])
        assert code == 0, text

    def test_new_finding_still_fails(self, taint_pkg):
        self.test_update_then_gate(taint_pkg)
        (taint_pkg / "extra.py").write_text("import random\n")
        code, text = run([str(taint_pkg)])
        assert code == 1
        assert "DET001" in text and "TNT003" not in text

    def test_fixed_finding_reported_stale(self, taint_pkg):
        self.test_update_then_gate(taint_pkg)
        (taint_pkg / "clock.py").write_text("def stamp():\n    return 0.0\n")
        code, text = run([str(taint_pkg)])
        assert code == 1
        assert "DET000" in text and "TNT003 suppresses nothing" in text

    def test_corrupt_baseline_exits_two(self, tmp_path):
        """A file that is not UTF-8 is an error line, not a traceback."""
        (tmp_path / "latin1.py").write_bytes(b"name = '\xe9'\n")
        code, text = run([str(tmp_path)])
        assert code == 2
        assert "error:" in text and "latin1.py" in text
