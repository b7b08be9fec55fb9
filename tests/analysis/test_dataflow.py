"""Tests for the whole-program taint + filesystem analysis.

The fixtures are small on-disk packages (module resolution is
path-based), each encoding one flow the analysis must catch — or must
*not* catch, for the sanitized negatives.  Two reproduce bugs this
repo actually shipped — the non-atomic cache publish (FS001/FS003)
and a replace without fsync (FS002) — and the lease-grant fixtures
pin the job-log record shape TNT003 must keep catching.
"""

import textwrap

import pytest

from repro.analysis.dataflow import analyze_paths


def write_pkg(root, name, files):
    """Create package ``name`` under ``root`` from {module: source}."""
    pkg = root / name
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    for module, source in files.items():
        (pkg / f"{module}.py").write_text(textwrap.dedent(source))
    return pkg


def run_deep(path):
    report = analyze_paths([path])
    assert not report.errors, report.errors
    return report


def finding_codes(report):
    return [f.code for f in report.findings]


class TestCrossFileTaint:
    def test_wall_clock_through_helper_into_cache_payload(self, tmp_path):
        """time.time() -> helper return -> dict -> joblog.append: TNT003."""
        pkg = write_pkg(tmp_path, "flowpkg", {
            "clock": """
                import time

                def stamp():
                    return time.time()
            """,
            "runner": """
                from flowpkg.clock import stamp

                def run(joblog, cfg):
                    record = {"cfg": cfg, "when": stamp()}
                    joblog.append(record)
            """,
        })
        report = run_deep(pkg)
        # DET002 still fires per-line on the time.time() call; the
        # same pass adds the flow finding.
        assert sorted(finding_codes(report)) == ["DET002", "TNT003"]
        (finding,) = [f for f in report.findings if f.code == "TNT003"]
        # Anchored at the *source*, traced to the sink.
        assert finding.path.endswith("clock.py")
        assert "wall-clock time.time()" in finding.message
        trace_files = {step[0].rsplit("/", 1)[-1] for step in finding.trace}
        assert trace_files == {"clock.py", "runner.py"}
        assert "joblog.append" in finding.trace[-1][2]

    def test_wall_clock_seed_into_config_kwarg(self, tmp_path):
        """int(time.time()) passed by keyword into a callee whose
        parameter reaches a job-log record: keyword arguments map to
        parameters by name across modules."""
        pkg = write_pkg(tmp_path, "seedpkg", {
            "log": """
                def record(joblog, channels=1, seed=0):
                    joblog.append({"seed": seed, "channels": channels})
            """,
            "driver": """
                import time
                from seedpkg.log import record

                def fresh_run(joblog, channels):
                    seed = int(time.time())
                    record(joblog, seed=seed, channels=channels)
            """,
        })
        report = run_deep(pkg)
        (finding,) = [f for f in report.findings if f.code == "TNT003"]
        assert finding.severity.value == "error"
        assert "seed" in " ".join(step[2] for step in finding.trace)

    def test_pid_into_journal_record(self, tmp_path):
        pkg = write_pkg(tmp_path, "jpkg", {
            "journal": """
                import os

                class JobLog:
                    def append(self, *records):
                        pass

                def note(journal):
                    journal.append({"event": "failure", "worker": os.getpid()})
            """,
        })
        report = run_deep(pkg)
        assert "TNT003" in finding_codes(report)

    def test_monotonic_clock_into_lease_grant_record(self, tmp_path):
        """A deadline is in-memory only; persisting it in the grant
        record the job log replays is a TNT003."""
        pkg = write_pkg(tmp_path, "lpkg", {
            "leases": """
                import time

                class LeaseLog:
                    def __init__(self, joblog):
                        self.joblog = joblog

                    def grant(self, key, lease_s):
                        deadline = time.monotonic() + lease_s
                        self.joblog.append(
                            {"event": "grant", "key": key, "deadline": deadline}
                        )
            """,
        })
        report = run_deep(pkg)
        (finding,) = [f for f in report.findings if f.code == "TNT003"]
        assert "wall-clock time.monotonic()" in finding.message
        assert "append" in finding.trace[-1][2]

    def test_lease_grant_without_clock_is_clean(self, tmp_path):
        pkg = write_pkg(tmp_path, "cleanlease", {
            "leases": """
                import time

                class LeaseLog:
                    def __init__(self, joblog):
                        self.joblog = joblog
                        self.deadlines = {}

                    def grant(self, key, lease_s):
                        self.deadlines[key] = time.monotonic() + lease_s
                        self.joblog.append(
                            {"event": "grant", "key": key, "lease_s": lease_s}
                        )
            """,
        })
        assert "TNT003" not in finding_codes(run_deep(pkg))

    def test_sorted_listing_is_clean(self, tmp_path):
        """sorted(os.listdir()) into a job-log record: order laundered."""
        pkg = write_pkg(tmp_path, "cleanpkg", {
            "keys": """
                import os

                def note(joblog, d):
                    joblog.append({"files": sorted(os.listdir(d))})
            """,
        })
        assert finding_codes(run_deep(pkg)) == []

    def test_unsorted_listing_into_key_flagged_as_warning(self, tmp_path):
        pkg = write_pkg(tmp_path, "orderpkg", {
            "keys": """
                import os

                def note(joblog, d):
                    joblog.append({"files": os.listdir(d)})
            """,
        })
        report = run_deep(pkg)
        # DET006 (per-line) and TNT003 (flow) both see it; the order
        # taint is heuristic, so the TNT finding is a warning.
        tnt = [f for f in report.findings if f.code == "TNT003"]
        assert len(tnt) == 1
        assert tnt[0].severity.value == "warning"

    def test_sorting_does_not_launder_value_taint(self, tmp_path):
        pkg = write_pkg(tmp_path, "valpkg", {
            "keys": """
                import time

                def note(joblog):
                    joblog.append({"when": sorted([time.time()])})
            """,
        })
        assert "TNT003" in finding_codes(run_deep(pkg))

    def test_taint_through_instance_attribute(self, tmp_path):
        pkg = write_pkg(tmp_path, "attrpkg", {
            "worker": """
                import time

                class Worker:
                    def __init__(self, joblog):
                        self.joblog = joblog
                        self.stamp = time.time()

                    def note(self):
                        self.joblog.append({"when": self.stamp})
            """,
        })
        assert "TNT003" in finding_codes(run_deep(pkg))

    def test_deferred_default_factory_source(self, tmp_path):
        pkg = write_pkg(tmp_path, "facpkg", {
            "manifest": """
                import time
                from dataclasses import dataclass, field

                @dataclass
                class Manifest:
                    created: float = field(default_factory=time.time)

                    def log(self, journal):
                        journal.append({"created": self.created})
            """,
        })
        report = run_deep(pkg)
        assert "TNT003" in finding_codes(report)
        (finding,) = [f for f in report.findings if f.code == "TNT003"]
        assert "deferred" in finding.message


    def test_source_after_six_parameter_values_is_kept(self, tmp_path):
        """Which taint survives must not depend on operand order: a
        clock value behind six parameter values still reaches the
        record (the LeaseTable.grant shape)."""
        pkg = write_pkg(tmp_path, "manypkg", {
            "leases": """
                import time

                class LeaseTable:
                    def __init__(self, joblog):
                        self.joblog = joblog

                    def grant(self, key, run_id, holder, attempt, lease_s, why):
                        self.joblog.append({
                            "key": key, "run": run_id, "holder": holder,
                            "attempt": attempt, "lease_s": lease_s,
                            "why": why, "at": time.monotonic(),
                        })
            """,
        })
        (finding,) = run_deep(pkg).findings
        assert finding.code == "TNT003"
        assert "wall-clock time.monotonic()" in finding.message

    def test_function_defined_inside_a_block_is_analyzed(self, tmp_path):
        """A callback defined under ``if``/``with`` is still a function
        (the shape of the runner's store-persist callback)."""
        pkg = write_pkg(tmp_path, "blockpkg", {
            "run": """
                import os

                def execute(joblog, misses):
                    if misses:
                        def finish(key):
                            joblog.append({"key": key, "pid": os.getpid()})
                        return finish
            """,
        })
        assert finding_codes(run_deep(pkg)) == ["TNT003"]

    @pytest.mark.parametrize("call", ["socket.gethostname()", "platform.node()"])
    def test_host_name_into_job_log_record(self, tmp_path, call):
        module = call.split(".")[0]
        pkg = write_pkg(tmp_path, "hostpkg", {
            "log": f"""
                import {module}

                def note(joblog):
                    joblog.append({{"event": "start", "host": {call}}})
            """,
        })
        (finding,) = run_deep(pkg).findings
        assert finding.code == "TNT003"
        assert f"environment {call}" in finding.message


class TestFilesystemRules:
    def test_pr6_shape_nonatomic_publish(self, tmp_path):
        """exists() then a direct write into cache_dir: the shipped
        publish-race bug shape — FS001 (torn write) + FS003 (TOCTOU)."""
        pkg = write_pkg(tmp_path, "fspkg", {
            "cache": """
                import json

                def publish(cache_dir, name, payload):
                    path = cache_dir / name
                    if path.exists():
                        return False
                    with open(path, "w") as fh:
                        json.dump(payload, fh)
                    return True
            """,
        })
        report = run_deep(pkg)
        assert sorted(finding_codes(report)) == ["FS001", "FS003"]

    def test_atomic_publish_is_clean(self, tmp_path):
        pkg = write_pkg(tmp_path, "fsok", {
            "cache": """
                import json
                import os

                def publish(cache_dir, name, payload):
                    path = cache_dir / name
                    if path.exists():
                        return False
                    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
                    with open(tmp, "w") as fh:
                        json.dump(payload, fh)
                        fh.flush()
                        os.fsync(fh.fileno())
                    try:
                        os.link(tmp, path)
                    except FileExistsError:
                        return False
                    finally:
                        os.unlink(tmp)
                    return True
            """,
        })
        assert finding_codes(run_deep(pkg)) == []

    def test_replace_without_fsync(self, tmp_path):
        pkg = write_pkg(tmp_path, "fsr", {
            "index": """
                import json
                import os

                def save_index(index_path, doc):
                    tmp = index_path.with_name(
                        f"{index_path.name}.{os.getpid()}.tmp")
                    with open(tmp, "w") as fh:
                        json.dump(doc, fh)
                    os.replace(tmp, index_path)
            """,
        })
        assert finding_codes(run_deep(pkg)) == ["FS002"]

    def test_collidable_shared_tempfile(self, tmp_path):
        pkg = write_pkg(tmp_path, "fst", {
            "spool": """
                def stage(store_dir, payload):
                    tmp = store_dir / "staging.tmp"
                    tmp.write_text(payload)
            """,
        })
        report = run_deep(pkg)
        assert "FS004" in finding_codes(report)

    def test_unshared_write_is_clean(self, tmp_path):
        pkg = write_pkg(tmp_path, "fsu", {
            "export": """
                def export_csv(out_path, rows):
                    with open(out_path, "w") as fh:
                        for row in rows:
                            fh.write(row + "\\n")
            """,
        })
        assert finding_codes(run_deep(pkg)) == []


class TestPragmas:
    def test_suppression_at_source_line(self, tmp_path):
        pkg = write_pkg(tmp_path, "prag1", {
            "mod": """
                import time

                def note(joblog):
                    t = time.time()  # repro: allow(TNT003, DET002) fixture
                    joblog.append({"when": t})
            """,
        })
        assert finding_codes(run_deep(pkg)) == []

    def test_suppression_at_sink_line(self, tmp_path):
        pkg = write_pkg(tmp_path, "prag2", {
            "mod": """
                import time

                def note(joblog):
                    t = time.time()  # repro: allow(DET002) fixture
                    joblog.append({"when": t})  # repro: allow(TNT003) fixture
            """,
        })
        assert finding_codes(run_deep(pkg)) == []

    def test_unused_tnt_pragma_reported_in_deep_run(self, tmp_path):
        pkg = write_pkg(tmp_path, "prag3", {
            "mod": """
                def f(x):  # repro: allow(TNT003) nothing here
                    return x
            """,
        })
        report = run_deep(pkg)
        assert finding_codes(report) == ["DET000"]


class TestReportShape:
    def test_syntax_error_reported_not_raised(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        report = analyze_paths([bad])
        assert report.errors and not report.ok

    def test_det_rules_included_in_deep_run(self, tmp_path):
        pkg = write_pkg(tmp_path, "detpkg", {
            "mod": "import random\n",
        })
        assert "DET001" in finding_codes(run_deep(pkg))

    def test_deterministic_output_order(self, tmp_path):
        pkg = write_pkg(tmp_path, "ordpkg", {
            "m1": "import random\nimport time\nt = time.time()\n",
            "m2": "import random\n",
        })
        first = [f.render() for f in run_deep(pkg).findings]
        second = [f.render() for f in run_deep(pkg).findings]
        assert first == second
        assert first == sorted(first)


@pytest.mark.parametrize("source,expected", [
    # Conservative passthrough: unresolved call with tainted arg, then
    # a resolved helper that returns its parameter.
    (
        "import time\n\n"
        "def cache_key(x):\n    return hash(x)\n\n"
        "def key(fmt, joblog):\n"
        "    joblog.append(cache_key(fmt(time.time())))\n",
        ["TNT003"],
    ),
    # Taint dies when not passed anywhere.
    (
        "import time\n\n"
        "def cache_key(x):\n    return hash(x)\n\n"
        "def key(v, joblog):\n    t = time.time()\n"
        "    joblog.append(cache_key(v))\n",
        [],
    ),
])
def test_propagation_edges(tmp_path, source, expected):
    path = tmp_path / "edge.py"
    path.write_text(source)
    report = analyze_paths([path])
    tnt = [f.code for f in report.findings if f.code.startswith("TNT")]
    assert tnt == expected
