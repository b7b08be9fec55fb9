"""``repro lint`` over the simulator's own tree: clean as committed, and
each retained rule still catches the bug that justifies keeping it.

This is the tree-level gate CI runs as ``repro lint src/repro``.  The
mutation test is the rules' evidence made executable: every entry is a
realistic regression of today's tree (a shipped bug, or a one-line
edit the rule flags while the goldens and the chaos suite miss it),
and the one pass over the mutated copy must report exactly those
findings — no more, no fewer.
"""

import argparse
import io
import shutil
from pathlib import Path

from repro.analysis.cli import add_lint_arguments, run_lint
from repro.analysis.dataflow import analyze_paths

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"

#: (file under src/repro, text in today's tree, replacement, expected
#: finding code).  A file may carry several edits.
MUTATIONS = [
    # DET000: the pragma outlives the call it excused.
    ("service/store.py",
     "now = time.time()  # repro: allow(DET002)",
     "now = time.monotonic()  # repro: allow(DET002)",
     "DET000"),
    # DET001: the VM's default RNG goes back to an unseeded one.
    ("os/vm.py",
     'rng or DeterministicRng(12345, tag="vm:default")',
     "rng or random.Random()",
     "DET001"),
    # DET002: retry backoff jitter drawn from the host clock.
    ("experiments/resilience.py",
     'jitter = (derive_seed(0, f"{job_id}:backoff:{attempt}") % 1024) / 1024.0',
     "jitter = time.time() % 1.0",
     "DET002"),
    # DET003: the shutdown record lists finished jobs in set order.
    ("service/scheduler.py",
     'done = [j.key for j in jobs if j.state == "done"]',
     'done = [j.key for j in set(jobs) if j.state == "done"]',
     "DET003"),
    # DET004: the shipped process-global request counter.
    ("dram/system.py",
     "            self._req_seq += 1\n"
     "            request.req_id = self._req_seq\n",
     "            global _next_request_id\n"
     "            _next_request_id += 1\n"
     "            request.req_id = _next_request_id\n",
     "DET004"),
    # DET006: the store's key listing in directory order.
    ("service/store.py",
     'return sorted(p.stem for p in self.cache_dir.glob("*.pkl"))',
     'return [p.stem for p in self.cache_dir.glob("*.pkl")]',
     "DET006"),
    # DET007: throughput that counts equal IPCs once.
    ("metrics/speedup.py",
     "    return sum(multi_ipcs)\n",
     "    return sum(set(multi_ipcs))\n",
     "DET007"),
    # DET008: DRAM command trace events keyed by address.
    ("dram/controller.py",
     '"req": request.req_id,',
     '"req": id(request),',
     "DET008"),
    # TNT003: a clock reading in the terminal-failure record the job
    # log replays.
    ("service/scheduler.py",
     'job.record("release", outcome="failed", detail=detail)',
     'job.record("release", outcome="failed", detail=detail, '
     'at=time.monotonic())',
     "TNT003"),
    # FS001: server info written straight onto its shared final path.
    ("service/client.py",
     '    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")\n'
     '    with open(tmp, "w") as handle:\n',
     '    with open(path, "w") as handle:\n',
     "FS001"),
    ("service/client.py",
     "    os.replace(tmp, path)\n    return path\n",
     "    return path\n",
     "FS001"),
    # FS002: the shipped replace-without-fsync, on a run manifest.
    ("telemetry/manifest.py",
     "            os.fsync(handle.fileno())\n"
     "        os.replace(tmp, path)",
     "        os.replace(tmp, path)",
     "FS002"),
    # FS004: entry staging file shared by every writer of a key.
    ("service/store.py",
     'path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")',
     'self.cache_dir / f"{key}.pkl.tmp"',
     "FS004"),
]


def test_source_tree_is_lint_clean():
    """The gate exactly as CI runs it: ``repro lint src/repro`` exits 0."""
    parser = argparse.ArgumentParser()
    add_lint_arguments(parser)
    out = io.StringIO()
    code = run_lint(parser.parse_args([str(SRC)]), out=out)
    assert code == 0, out.getvalue()
    assert out.getvalue().startswith("0 finding(s), 0 error(s) in ")


def test_source_tree_is_deep_clean():
    """The whole-program pass finds nothing: no DET finding, no
    cross-file taint flow, no filesystem race."""
    report = analyze_paths([SRC])
    assert report.files_checked > 50
    rendered = "\n".join(
        f.render() + "\n" + "\n".join(f.render_trace()) for f in report.findings
    )
    assert report.ok, f"unsuppressed findings:\n{rendered}\n{report.errors}"


def test_mutated_tree_reports_exactly_the_seeded_bugs(tmp_path):
    tree = tmp_path / "repro"
    shutil.copytree(SRC, tree, ignore=shutil.ignore_patterns("__pycache__"))
    for rel, old, new, _code in MUTATIONS:
        path = tree / rel
        text = path.read_text(encoding="utf-8")
        assert text.count(old) == 1, f"{rel}: mutation anchor not unique: {old!r}"
        path.write_text(text.replace(old, new), encoding="utf-8")

    report = analyze_paths([tree])

    assert not report.errors
    found = {
        (f.code, Path(f.path).relative_to(tree).as_posix())
        for f in report.findings
    }
    assert found == {(code, rel) for rel, _old, _new, code in MUTATIONS}
