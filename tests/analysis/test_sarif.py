"""The rendered report of ``repro lint``: catalog, levels and traces.

The human report is the one output format, so its shape is the
contract a reader (or a CI log grep) relies on: every finding is one
``path:line:col: CODE [level] message`` line, a taint finding is
followed by its source→sink steps, and ``--list-rules`` names every
rule family the pass runs.
"""

import re
import textwrap

from repro.analysis.cli import main as lint_main
from repro.analysis.dataflow import rule_codes
from repro.analysis.fs_rules import FS_RULES
from repro.analysis.linter import Finding, Severity, all_rules
from repro.analysis.taint_rules import TNT_RULES

FINDING_LINE = re.compile(
    r"^(?P<path>\S+):(?P<line>\d+):(?P<col>\d+): (?P<code>[A-Z]{2,4}\d{3}) "
    r"\[(?P<level>warning|error)\] .+$"
)


def taint_finding():
    return Finding(
        path="src/m.py", line=3, col=1, code="TNT003",
        message="wall-clock time.time() reaches job-log record",
        severity=Severity.ERROR,
        trace=(
            ("src/m.py", 3, "wall-clock time.time()"),
            ("src/m.py", 4, "t = ..."),
            ("src/n.py", 9, "job-log record via joblog.append(...)"),
        ),
    )


def per_line_finding():
    return Finding(
        path="src/m.py", line=1, col=1, code="DET001",
        message="raw random import", severity=Severity.ERROR,
    )


def run_cli(argv, capsys):
    code = lint_main(argv)
    return code, capsys.readouterr().out


def write_pkg(root):
    pkg = root / "rpkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "log.py").write_text(textwrap.dedent("""
        import random
        import time


        def note(joblog):
            joblog.append({"event": "start", "at": time.monotonic()})
    """))
    return pkg


class TestDocument:
    def test_validates_against_subset_schema(self, tmp_path, capsys):
        """Every finding line of a real report parses as a finding."""
        code, text = run_cli([str(write_pkg(tmp_path))], capsys)
        assert code == 1
        lines = [ln for ln in text.splitlines() if FINDING_LINE.match(ln)]
        assert {FINDING_LINE.match(ln)["code"] for ln in lines} == {
            "DET001", "TNT003",
        }

    def test_empty_report_validates(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        code, text = run_cli([str(tmp_path)], capsys)
        assert code == 0
        assert text == "0 finding(s), 0 error(s) in 1 file\n"

    def test_version_and_json_serializable(self):
        """Findings are plain frozen values: hashable and comparable."""
        assert len({taint_finding(), taint_finding()}) == 1
        assert taint_finding() != per_line_finding()

    def test_rule_catalog_covers_every_family(self, capsys):
        code, text = run_cli(["--list-rules"], capsys)
        assert code == 0
        listed = {line.split()[0] for line in text.splitlines()}
        assert {r.code for r in all_rules()} <= listed
        assert set(TNT_RULES) <= listed
        assert set(FS_RULES) <= listed
        assert "DET000" in listed
        assert listed == rule_codes() | {"DET000"}

    def test_result_carries_fingerprint_and_level(self):
        rendered = taint_finding().render()
        match = FINDING_LINE.match(rendered)
        assert match is not None
        assert match["code"] == "TNT003"
        assert match["level"] == "error"

    def test_trace_becomes_code_flow(self):
        steps = taint_finding().render_trace()
        assert len(steps) == 3
        assert steps[0].split() == ["src/m.py:3:", "wall-clock", "time.time()"]
        assert all(step.lstrip().startswith("->") for step in steps[1:])
        assert "src/n.py:9:" in steps[-1]

    def test_shallow_finding_has_no_code_flow(self):
        assert per_line_finding().render_trace() == []
