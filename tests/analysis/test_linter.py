"""Tests for the determinism linter: framework and every rule.

Each rule gets a positive fixture (the hazard is found), a negative
fixture (legitimate code stays clean), and a pragma fixture (the
finding is suppressed by ``# repro: allow(...)``).
"""

import textwrap

from repro.analysis.dataflow import analyze_paths
from repro.analysis.linter import (
    Severity,
    all_rules,
    lint_source,
    pragmas_for_source,
)


def codes(source: str, path: str = "<test>") -> list[str]:
    """Rule codes found in ``source``, in report order."""
    return [f.code for f in lint_source(textwrap.dedent(source), path)]


class TestFramework:
    def test_all_rules_catalog(self):
        rules = all_rules()
        assert [r.code for r in rules] == [
            "DET001", "DET002", "DET003", "DET004", "DET006", "DET007",
            "DET008",
        ]
        for rule in rules:
            assert rule.summary
            assert rule.node_types

    def test_findings_sorted_by_location(self):
        findings = lint_source(
            "import os\nx = os.listdir('.')\nimport random\n"
        )
        assert [f.line for f in findings] == sorted(f.line for f in findings)

    def test_finding_render_and_dict(self):
        (finding,) = lint_source("import random\n", path="mod.py")
        assert finding.render().startswith("mod.py:1:1: DET001 [error]")
        assert finding.code == "DET001"
        assert finding.severity is Severity.ERROR

    def test_pragma_parsing_multiple_codes(self):
        allowed = pragmas_for_source(
            "x = 1  # repro: allow(DET001, DET006) because reasons\n"
        )
        assert allowed == {1: frozenset({"DET001", "DET006"})}

    def test_pragma_only_suppresses_named_code(self):
        # The pragma names DET006 but the line trips DET001: DET001 is
        # reported, and the DET006 suppression is flagged as unused.
        findings = lint_source("import random  # repro: allow(DET006)\n")
        assert [f.code for f in findings] == ["DET000", "DET001"]

    def test_unused_pragma_flagged(self):
        findings = lint_source("x = 1  # repro: allow(DET002) stale\n")
        assert [f.code for f in findings] == ["DET000"]
        assert "DET002" in findings[0].message

    def test_used_pragma_not_flagged_unused(self):
        assert codes("import random  # repro: allow(DET001) ok\n") == []

    def test_unran_codes_never_flagged_unused(self):
        # A TNT pragma survives a shallow run untouched: the taint
        # rules didn't execute, so "unused" cannot be determined.
        assert codes("x = 1  # repro: allow(TNT001) deep-only\n") == []

    def test_docstring_pragma_example_ignored(self):
        # A pragma *mentioned* in a docstring or quoting comment is
        # neither a suppression nor an unused-pragma finding.
        source = '"""Example: # repro: allow(DET001)."""\nimport random\n'
        findings = lint_source(source)
        assert [f.code for f in findings] == ["DET001"]

    def test_quoting_comment_not_a_pragma(self):
        # The pragma must start the comment; prose quoting the syntax
        # (like linter.py's own docs) does not count.
        assert codes("x = 1  #: use ``# repro: allow(DET001)`` here\n") == []

    def test_rule_subset_selection(self):
        # Every rule runs; each finding names the rule that made it.
        source = "import random\nimport time\nt = time.time()\n"
        assert codes(source) == ["DET001", "DET002"]

    def test_analyze_paths_reports_missing_path(self):
        report = analyze_paths(["/no/such/dir"])
        assert report.errors
        assert not report.ok

    def test_analyze_paths_reports_syntax_error(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        report = analyze_paths([str(bad)])
        assert report.files_checked == 1
        assert any("bad.py" in e for e in report.errors)

    def test_analyze_paths_walks_directories(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text("import random\n")
        (tmp_path / "pkg" / "b.py").write_text("x = 1\n")
        report = analyze_paths([str(tmp_path)])
        assert report.files_checked == 2
        assert [f.code for f in report.findings] == ["DET001"]


class TestRawRandom:  # DET001
    def test_import_flagged(self):
        assert codes("import random\n") == ["DET001"]

    def test_from_import_flagged(self):
        assert codes("from random import Random\n") == ["DET001"]

    def test_call_flagged(self):
        assert "DET001" in codes(
            "import random  # repro: allow(DET001)\nx = random.random()\n"
        )

    def test_severity_is_error(self):
        (finding,) = lint_source("import random\n")
        assert finding.severity is Severity.ERROR

    def test_rng_module_exempt(self):
        assert codes("import random\n", path="src/repro/common/rng.py") == []

    def test_deterministic_rng_clean(self):
        assert codes(
            "from repro.common.rng import DeterministicRng\n"
            "rng = DeterministicRng(1)\n"
        ) == []

    def test_pragma_suppresses(self):
        assert codes("import random  # repro: allow(DET001) typing\n") == []


class TestWallClock:  # DET002
    def test_time_time_flagged(self):
        assert codes("import time\nt = time.time()\n") == ["DET002"]

    def test_datetime_now_flagged(self):
        assert codes(
            "import datetime\nd = datetime.datetime.now()\n"
        ) == ["DET002"]

    def test_perf_counter_clean(self):
        assert codes("import time\nt = time.perf_counter()\n") == []

    def test_pragma_suppresses(self):
        assert codes(
            "import time\n"
            "t = time.time()  # repro: allow(DET002) provenance stamp\n"
        ) == []


class TestUnorderedIteration:  # DET003
    def test_for_over_set_literal_flagged(self):
        assert codes("for x in {1, 2, 3}:\n    print(x)\n") == ["DET003"]

    def test_comprehension_over_set_call_flagged(self):
        assert codes("out = [x for x in set(range(3))]\n") == ["DET003"]

    def test_for_over_list_clean(self):
        assert codes("for x in [1, 2, 3]:\n    print(x)\n") == []

    def test_for_over_sorted_set_clean(self):
        assert codes("for x in sorted({1, 2}):\n    print(x)\n") == []

    def test_pragma_suppresses(self):
        assert codes(
            "for x in {1, 2}:  # repro: allow(DET003) order-free\n"
            "    print(x)\n"
        ) == []


class TestModuleState:  # DET004
    def test_global_counter_flagged(self):
        source = """\
        _count = 0

        def bump():
            global _count
            _count += 1
        """
        assert "DET004" in codes(source)

    def test_module_level_mutable_literal_flagged(self):
        assert codes("_registry = []\n") == ["DET004"]

    def test_dunder_all_exempt(self):
        assert codes('__all__ = ["x", "y"]\n') == []

    def test_uppercase_constant_exempt(self):
        assert codes("KNOWN = []\n_TABLE = {}\n") == []

    def test_function_local_clean(self):
        assert codes("def f():\n    acc = []\n    return acc\n") == []

    def test_pragma_suppresses(self):
        assert codes(
            "_registry = []  # repro: allow(DET004) populated at import\n"
        ) == []


class TestUnsortedListing:  # DET006
    def test_listdir_flagged(self):
        assert codes("import os\nnames = os.listdir('.')\n") == ["DET006"]

    def test_glob_method_flagged(self):
        assert "DET006" in codes(
            "def entries(path):\n    return list(path.glob('*.pkl'))\n"
        )

    def test_sorted_listing_clean(self):
        assert codes("import os\nnames = sorted(os.listdir('.'))\n") == []

    def test_sorted_glob_clean(self):
        assert codes(
            "def entries(path):\n    return sorted(path.glob('*.pkl'))\n"
        ) == []

    def test_pragma_suppresses(self):
        assert codes(
            "import os\n"
            "n = len(os.listdir('.'))  # repro: allow(DET006) count only\n"
        ) == []


class TestFloatSetReduction:  # DET007
    def test_sum_over_set_flagged(self):
        assert codes("total = sum({0.1, 0.2, 0.3})\n") == ["DET007"]

    def test_sum_over_list_clean(self):
        assert codes("total = sum([0.1, 0.2, 0.3])\n") == []

    def test_pragma_suppresses(self):
        assert codes(
            "total = sum({0.1, 0.2})  # repro: allow(DET007) exact halves\n"
        ) == []


class TestIdOrdering:  # DET008
    def test_id_call_flagged(self):
        assert codes("def key(obj):\n    return id(obj)\n") == ["DET008"]

    def test_method_named_id_clean(self):
        assert codes("def key(obj):\n    return obj.id(1)\n") == []

    def test_pragma_suppresses(self):
        assert codes(
            "def key(obj):\n"
            "    return id(obj)  # repro: allow(DET008) debug repr only\n"
        ) == []
