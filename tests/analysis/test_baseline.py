"""Accepting a finding: a justified pragma on the line is the one way.

There is no side file of accepted findings: ``# repro: allow(CODE)``
on the finding's line (or, for a taint finding, on its sink line) is
the whole mechanism, and a pragma that no longer suppresses anything
is itself a DET000 finding, so acceptances cannot outlive the hazard.
"""

import textwrap

from repro.analysis.dataflow import analyze_paths

LOG = """
    import time


    def note(joblog):
        joblog.append({{"event": "start", "at": time.monotonic()}}){sink}
"""


def write_module(root, source, name="log.py"):
    path = root / name
    path.write_text(textwrap.dedent(source))
    return path


def codes(path):
    report = analyze_paths([path])
    assert not report.errors, report.errors
    return [f.code for f in report.findings]


class TestFingerprint:
    def test_stable_across_line_shifts(self, tmp_path):
        """A pragma travels with its line, not with a line number."""
        accepted = LOG.format(sink="  # repro: allow(TNT003) fixture")
        write_module(tmp_path, accepted)
        assert codes(tmp_path) == []
        write_module(tmp_path, "\n\n# moved down\n" + textwrap.dedent(accepted))
        assert codes(tmp_path) == []

    def test_changes_with_code_path_anchor(self, tmp_path):
        """A pragma accepts only the code it names."""
        write_module(tmp_path, LOG.format(sink="  # repro: allow(FS002) wrong"))
        assert codes(tmp_path) == ["DET000", "TNT003"]


class TestRoundTrip:
    def test_write_then_load(self, tmp_path):
        """One pragma may accept several codes on one line."""
        write_module(tmp_path, """
            import random  # repro: allow(DET001, DET003) typing only
        """)
        report = analyze_paths([tmp_path])
        (stale,) = report.findings
        assert stale.code == "DET000" and "DET003" in stale.message

    def test_write_is_deterministic(self, tmp_path):
        write_module(tmp_path, LOG.format(sink=""), name="a.py")
        write_module(tmp_path, "import random\n", name="b.py")
        first = [f.render() for f in analyze_paths([tmp_path]).findings]
        second = [f.render() for f in analyze_paths([tmp_path]).findings]
        assert first == second == sorted(first)

    def test_missing_file_is_empty(self, tmp_path):
        report = analyze_paths([tmp_path])
        assert report.ok and report.files_checked == 0

    def test_malformed_json_raises(self, tmp_path):
        """An unparseable file is an error entry, never an exception."""
        write_module(tmp_path, "def broken(:\n")
        report = analyze_paths([tmp_path])
        assert report.errors and not report.ok

    def test_wrong_schema_raises(self, tmp_path):
        """A misspelled pragma is not a pragma: nothing is accepted."""
        write_module(tmp_path, LOG.format(sink="  # repro: allow(TNT3) typo"))
        assert codes(tmp_path) == ["TNT003"]


class TestApply:
    def test_splits_new_from_baselined(self, tmp_path):
        write_module(tmp_path, LOG.format(sink="  # repro: allow(TNT003) ok"))
        write_module(tmp_path, "import random\n", name="new.py")
        assert codes(tmp_path) == ["DET001"]

    def test_stale_entries_reported(self, tmp_path):
        write_module(tmp_path, """
            def note(joblog):
                joblog.append({"event": "start"})  # repro: allow(TNT003) stale
        """)
        report = analyze_paths([tmp_path])
        (stale,) = report.findings
        assert stale.code == "DET000"
        assert "TNT003 suppresses nothing" in stale.message
