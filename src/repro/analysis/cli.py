"""``repro lint`` — the determinism analysis's command-line front end.

Registered as a subcommand of the main experiment CLI
(``python -m repro lint src/repro``).  One pass
(:func:`repro.analysis.dataflow.analyze_paths`) runs every rule: the
per-line DET rules, the FS write-discipline rules and the TNT
source→sink taint rules, whose findings print with their traces.

Exit codes follow the usual linter convention so CI can gate on them:

* ``0`` — no unsuppressed findings,
* ``1`` — at least one finding,
* ``2`` — operational failure (no path, missing path, unparseable file).
"""

from __future__ import annotations

import argparse
import sys
from typing import IO, Sequence


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint subcommand's arguments to ``parser``."""
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directory trees to analyze, as one program",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )


def _print_rules(out: IO[str]) -> None:
    from repro.analysis.fs_rules import FS_RULES
    from repro.analysis.linter import (
        UNUSED_PRAGMA_CODE,
        UNUSED_PRAGMA_SUMMARY,
        Severity,
        all_rules,
    )
    from repro.analysis.taint_rules import TNT_RULES

    catalog = [(UNUSED_PRAGMA_CODE, UNUSED_PRAGMA_SUMMARY, Severity.WARNING)]
    catalog += [(rule.code, rule.summary, rule.severity) for rule in all_rules()]
    catalog += [
        (code, summary, severity)
        for code, (summary, severity) in {**TNT_RULES, **FS_RULES}.items()
    ]
    for code, summary, severity in sorted(catalog):
        out.write(f"{code} [{severity.value}] {summary}\n")


def run_lint(
    args: argparse.Namespace, out: IO[str] | None = None
) -> int:
    """Execute the lint subcommand; returns the process exit code.

    The lint engine is imported here, so building the ``repro`` parser
    does not load it.
    """
    stream: IO[str] = out if out is not None else sys.stdout
    if args.list_rules:
        _print_rules(stream)
        return 0
    if not args.paths:
        stream.write("error: no paths given (try 'repro lint src/repro')\n")
        return 2

    from repro.analysis.dataflow import analyze_paths

    report = analyze_paths(args.paths)
    for finding in report.findings:
        stream.write(finding.render() + "\n")
        for line in finding.render_trace():
            stream.write(line + "\n")
    for error in report.errors:
        stream.write(f"error: {error}\n")
    noun = "file" if report.files_checked == 1 else "files"
    stream.write(
        f"{len(report.findings)} finding(s), {len(report.errors)} error(s) "
        f"in {report.files_checked} {noun}\n"
    )
    if report.errors:
        return 2
    return 1 if report.findings else 0


def main(argv: Sequence[str] | None = None) -> int:
    """Standalone entry point (``python -m repro.analysis.cli``)."""
    parser = argparse.ArgumentParser(
        prog="repro-lint", description="determinism analysis for repro"
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
