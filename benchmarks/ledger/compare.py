#!/usr/bin/env python3
"""Compare two run sets of the ledger, one row per workload and metric.

    python3 benchmarks/ledger/compare.py A/runs.json B/runs.json

A run set is what ``run.py --repeat K --out DIR`` leaves in
``DIR/runs.json``.  A is the baseline (the parent commit), B the candidate.

Each workload starts with a ``correctness`` row: runs made, runs that were
not correct and operations failed of operations attempted, per side.  It
reads ``regressed`` when B has more incorrect runs or a larger share of
failed operations than A, ``unresolved`` when B has incorrect runs but no
more than A (a broken baseline decides nothing), ``unchanged`` otherwise.

Then, for every end-to-end metric, the row shows both medians, how much
worse B is as a share of A (negative: better), the spread of each side's
own runs, the bound from ``BENCHMARK.json`` and a verdict:

``regressed``
    B's median is worse than A's by more than the bound.
``improved``
    B's median is better than A's by more than the spread of A's own runs,
    and B wins at least nine of ten pairs (run *i* of A against run *i* of B).
``unchanged``
    neither of the above.
``unresolved``
    the runs of one side disagree among themselves by more than the
    bound, so the comparison cannot tell a change from noise.

Runs keep their place in the set: an incorrect run gives no values, is left
out of its side's median and spread, and its pair is not played.  The
spread is the distance between the first and third quartile as a share of
the median (max - min with fewer than four runs).  The exit code is 1 when
any row regressed or B has an incorrect run, 0 otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_runs(path: str) -> dict[str, list[dict]]:
    """``workload -> its untraced runs``, correct or not, in the order they were made."""
    with open(path, encoding="utf-8") as handle:
        runs = json.load(handle)
    table: dict[str, list[dict]] = {}
    for run in runs:
        if not run.get("trace"):
            table.setdefault(run["workload"], []).append(run)
    return table


def metric_values(runs: list[dict], name: str) -> list[float | None]:
    """One value per run, ``None`` where the run was incorrect or has no such metric."""
    return [
        run["metrics"][name]["value"] if run.get("correct") and name in run.get("metrics", {}) else None
        for run in runs
    ]


def spread(values: list[float]) -> float:
    """Run-to-run disagreement of one side, as a share of its median."""
    middle = statistics.median(values)
    if len(values) < 2 or not middle:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(middle)
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(middle)


def verdict(a: list, b: list, better: str, bound: float) -> tuple[str, float]:
    """``(verdict, worse_share)``; worse_share > 0 means B is worse than A.

    *a* and *b* are aligned by run index and may hold ``None``.
    """
    have_a = [x for x in a if x is not None]
    have_b = [y for y in b if y is not None]
    median_a, median_b = statistics.median(have_a), statistics.median(have_b)
    change = (median_b - median_a) / abs(median_a) if median_a else 0.0
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * change
    if max(spread(have_a), spread(have_b)) > bound:
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    # run i of A and run i of B are a pair (same seed, same place in the set)
    pairs = [(x, y) for x, y in zip(a, b) if x is not None and y is not None]
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    if -worse > spread(have_a) and pairs and wins >= 0.9 * len(pairs):
        return "improved", worse
    return "unchanged", worse


def failures(runs: list[dict]) -> tuple[int, int, int]:
    """``(incorrect runs, operations failed, operations attempted)`` of one side."""
    incorrect = sum(not run.get("correct") for run in runs)
    return incorrect, sum(run.get("failed", 0) for run in runs), sum(run.get("attempted", 0) for run in runs)


def correctness(runs_a: list[dict], runs_b: list[dict]) -> tuple[str, str]:
    """``(verdict, text)`` of the workload's correctness row."""
    bad_a, failed_a, attempted_a = failures(runs_a)
    bad_b, failed_b, attempted_b = failures(runs_b)
    share_a = failed_a / attempted_a if attempted_a else 0.0
    share_b = failed_b / attempted_b if attempted_b else 0.0
    if bad_b > bad_a or share_b > share_a:
        word = "regressed"
    elif bad_b:
        word = "unresolved"
    else:
        word = "unchanged"
    text = (
        f"A: {len(runs_a)} runs, {bad_a} incorrect, {failed_a} of {attempted_a} operations failed; "
        f"B: {len(runs_b)} runs, {bad_b} incorrect, {failed_b} of {attempted_b} operations failed"
    )
    return word, text


def compare(path_a: str, path_b: str, contract: dict) -> tuple[list[str], bool]:
    """The report lines and whether the exit code must be non-zero."""
    table_a, table_b = load_runs(path_a), load_runs(path_b)
    lines = [
        f"{'workload':<15} {'metric':<26} {'A median':>12} {'B median':>12} {'B worse by':>10} "
        f"{'spread A':>8} {'spread B':>8} {'bound':>6}  verdict"
    ]
    failed = False
    for workload in (w["name"] for w in contract["workloads"]):
        runs_a, runs_b = table_a.get(workload, []), table_b.get(workload, [])
        word, text = correctness(runs_a, runs_b)
        failed = failed or word != "unchanged"
        lines.append(f"{workload:<15} {'correctness':<26} {text}  {word}")
        for metric in contract["end_to_end"]:
            a, b = metric_values(runs_a, metric["name"]), metric_values(runs_b, metric["name"])
            have_a = [x for x in a if x is not None]
            have_b = [y for y in b if y is not None]
            if not have_a or not have_b:
                lines.append(f"{workload:<15} {metric['name']:<26} {'(no correct runs on one side)':>36}")
                continue
            word, worse = verdict(a, b, metric["better"], metric["bound"])
            failed = failed or word == "regressed"
            lines.append(
                f"{workload:<15} {metric['name']:<26} {statistics.median(have_a):>12.5g} "
                f"{statistics.median(have_b):>12.5g} {worse:>+10.1%} {spread(have_a):>8.1%} {spread(have_b):>8.1%} "
                f"{metric['bound']:>6.0%}  {word}  (n={len(have_a)},{len(have_b)})"
            )
    return lines, failed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 2
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        contract = json.load(handle)
    lines, failed = compare(argv[0], argv[1], contract)
    print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
