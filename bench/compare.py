#!/usr/bin/env python3
"""Compare two ``bench/run.py --out`` reports: parent A against change B.

    python3 bench/compare.py A.json B.json

For every workload x end-to-end metric it prints both medians (over the
report's untraced passes), the run-to-run spread (distance between the
first and third quartile of the passes as a share of their median, the
wider of the two sides), the metric's bound from ``bench/metrics.py``
and a verdict:

``ok``          B's median is not worse than A's by more than the bound
``worse``       it is, and the spread is within the bound
``unresolved``  the spread is wider than the bound, so neither "worse"
                nor "unchanged" can be said -- unless every pass of B
                reads better than every pass of A, which is ``ok``

Simulated statistics and counts that must repeat exactly
(``sim_stats_digest`` and ``EXACT_REPEAT`` in ``bench/metrics.py``) are
compared for equality: between two runs of the same code and seed any
difference is a determinism bug; between parent and change it means
the change altered simulated behaviour, not only host speed.

Exit code 0 when nothing is ``worse`` and every exact quantity matches.
This is also the tool that shows two sets of runs of the same code
agree.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

# Run as a script, sys.path[0] is bench/: import as the ``bench`` package.
if Path(sys.path[0]).resolve() == Path(__file__).resolve().parent:
    sys.path[0] = str(Path(__file__).resolve().parent.parent)

from bench.metrics import END_TO_END, EXACT_REPEAT  # noqa: E402


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for one pass)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(metric: str, a: list[float], b: list[float]) -> tuple[str, float]:
    """(ok | worse | unresolved, B's median relative to A's, + = worse)."""
    spec = END_TO_END[metric]
    sign = 1.0 if spec["better"] == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    change = sign * (med_b - med_a) / med_a
    if max(spread(a), spread(b)) > spec["bound"]:
        b_wins_all = (
            max(b) < min(a) if spec["better"] == "lower" else min(b) > max(a)
        )
        return ("ok" if b_wins_all else "unresolved"), change
    return ("worse" if change > spec["bound"] else "ok"), change


def compare(doc_a: dict, doc_b: dict, out=sys.stdout) -> tuple[list, list]:
    """Print the table; return (worse metrics, exact quantities that differ)."""
    worse: list[str] = []
    inexact: list[str] = []
    seeds = doc_a["context"]["seed"], doc_b["context"]["seed"]
    print(f"A: seed {seeds[0]}   B: seed {seeds[1]}", file=out)
    for name, a in doc_a["workloads"].items():
        b = doc_b["workloads"].get(name)
        if b is None:
            print(f"== {name}: missing from B", file=out)
            inexact.append(f"{name}: missing")
            continue
        print(f"== {name}  (A {a['passes']} passes, B {b['passes']} passes)",
              file=out)
        print(f"   {'metric':<18}{'median A':>12}{'median B':>12}"
              f"{'worse by':>10}{'spread':>9}{'bound':>8}  verdict", file=out)
        for metric, spec in END_TO_END.items():
            va = a["end_to_end"][metric]["samples"]
            vb = b["end_to_end"][metric]["samples"]
            word, change = verdict(metric, va, vb)
            if word == "worse":
                worse.append(f"{name}/{metric}")
            print(f"   {metric:<18}{statistics.median(va):>12.4f}"
                  f"{statistics.median(vb):>12.4f}{100 * change:>9.1f}%"
                  f"{100 * max(spread(va), spread(vb)):>8.1f}%"
                  f"{100 * spec['bound']:>7.0f}%  {word}", file=out)
        if a["failed"] or b["failed"]:
            print(f"   FAILED operations: A {a['failed']}/{a['attempted']}, "
                  f"B {b['failed']}/{b['attempted']}", file=out)
            worse.append(f"{name}/failed")
        if seeds[0] != seeds[1]:
            print("   simulated statistics: not compared (seeds differ)",
                  file=out)
            continue
        same = a["sim_stats_digest"] == b["sim_stats_digest"]
        print("   simulated statistics "
              + ("identical" if same else "CHANGED")
              + f" (sim_stats_digest {' '.join(a['sim_stats_digest'])}"
              + ("" if same else f" -> {' '.join(b['sim_stats_digest'])}")
              + ")", file=out)
        if not same:
            inexact.append(f"{name}/sim_stats_digest")
        if "per_layer" in a and "per_layer" in b:
            for metric in EXACT_REPEAT:
                x = a["per_layer"][metric]["value"]
                y = b["per_layer"][metric]["value"]
                if x != y:
                    print(f"   exact-repeat {metric}: {x} != {y}", file=out)
                    inexact.append(f"{name}/{metric}")
    return worse, inexact


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[0], file=sys.stderr)
        print("usage: python3 bench/compare.py A.json B.json", file=sys.stderr)
        return 2
    docs = [json.loads(Path(p).read_text()) for p in argv]
    return 1 if any(compare(*docs)) else 0


if __name__ == "__main__":
    sys.exit(main())
