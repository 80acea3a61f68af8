#!/usr/bin/env python3
"""Pair two checkouts' benchmark runs by workload and seed and summarize them.

Usage: python scripts/pair_stats.py PARENT CHANGE [--benchmark BENCHMARK.json]

PARENT and CHANGE are two checkout copies, each holding the result files
``.perfbench/results/BENCH_<workload>_seed<n>_trace0.json`` that
``perfbench/run.py --trace 0`` wrote there.  The runs of one workload and
seed on both sides form a pair.  For each workload this prints each side's
``provenance.commit`` and ``source_sha256``, its ``failed`` and
``wrong_outputs`` counts, and for each ``end_to_end`` metric of
BENCHMARK.json: the pair count, the parent's median and quartiles, the
change's median and its change relative to the parent's, the pairs the
change wins by the metric's ``better``, and two verdicts:

* ``claim met`` where the change wins at least 9 in 10 of the pairs and its
  median is better than the parent's by more than the parent's
  interquartile range;
* ``within bound`` where the change's median is not worse than the
  parent's by more than the metric's ``bound``, relative to the parent's.

Exits 1 where a metric is beyond its bound, where a run is incorrect (a
wrong output or a trace mismatch), or where the change failed a larger
share of its operations than the parent.
"""
import argparse
import json
import pathlib
import re
import statistics
import sys

_RESULT = re.compile(r"BENCH_(?P<workload>.+)_seed(?P<seed>\d+)_trace0\.json")


def load_runs(checkout: pathlib.Path) -> dict:
    """{(workload, seed): result record} of a checkout's untraced runs."""
    runs = {}
    for path in sorted((checkout / ".perfbench" / "results").glob("BENCH_*_trace0.json")):
        found = _RESULT.fullmatch(path.name)
        if found:
            runs[found["workload"], int(found["seed"])] = json.loads(
                path.read_text(encoding="utf-8"))
    return runs


def quartiles(values) -> tuple:
    """(q1, median, q3), linearly interpolated between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def metric_row(metric: dict, pairs) -> dict:
    """The statistics of one ``end_to_end`` metric over (parent, change)
    value pairs."""
    lower = metric["better"] == "lower"
    parent, change = [p for p, _ in pairs], [c for _, c in pairs]
    q1, parent_median, q3 = quartiles(parent)
    change_median = statistics.median(change)
    wins = sum((c < p) if lower else (c > p) for p, c in pairs)
    gain = parent_median - change_median if lower else change_median - parent_median
    return {
        "name": metric["name"], "pairs": len(pairs), "parent_median": parent_median,
        "q1": q1, "q3": q3, "change_median": change_median,
        "rel": _relative(change_median - parent_median, parent_median),
        "wins": wins, "claim": wins >= 0.9 * len(pairs) and gain > q3 - q1,
        "within": _relative(-gain, parent_median) <= metric["bound"], "bound": metric["bound"],
    }


def _relative(difference: float, reference: float) -> float:
    """``difference`` relative to ``reference``; against a zero reference
    any nonzero difference is infinitely large."""
    if reference:
        return difference / abs(reference)
    return 0.0 if difference == 0 else float("inf") if difference > 0 else float("-inf")


def _side_summary(label: str, runs) -> list[str]:
    commits = sorted({(r["provenance"].get("commit") or "?", r["provenance"]["source_sha256"])
                      for r in runs})
    lines = [f"  {label}: commit {commit} source_sha256 {sha}" for commit, sha in commits]
    lines.append(f"  {label}: failed {sum(r['failed'] for r in runs)} of "
                 f"{sum(r['attempted'] for r in runs)} attempted, wrong_outputs "
                 f"{sum(r['wrong_outputs'] for r in runs)}, trace mismatches "
                 f"{sum(len(r.get('trace_mismatches') or []) for r in runs)}")
    return lines


def _failed_share(runs) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def summarize(parent: dict, change: dict, benchmark: dict) -> tuple[list[str], bool]:
    """The report's lines, and whether every check passed."""
    lines, ok = [], True
    keys = sorted(set(parent) & set(change))
    for key in sorted(set(parent) ^ set(change)):
        side = "parent" if key in parent else "change"
        lines.append(f"unpaired: {key[0]} seed {key[1]} only in the {side} checkout")
    for workload in sorted({w for w, _ in keys}):
        seeds = [s for w, s in keys if w == workload]
        ps, cs = [parent[workload, s] for s in seeds], [change[workload, s] for s in seeds]
        lines.append(f"{workload}: {len(seeds)} pairs, seeds {', '.join(map(str, seeds))}")
        lines += _side_summary("parent", ps) + _side_summary("change", cs)
        for label, runs in (("parent", ps), ("change", cs)):
            if any(r["wrong_outputs"] or r.get("trace_mismatches") for r in runs):
                lines.append(f"  FAIL: a {label} run is incorrect")
                ok = False
        if _failed_share(cs) > _failed_share(ps):
            lines.append(f"  FAIL: the change failed {_failed_share(cs):.3g} of its "
                         f"operations, the parent {_failed_share(ps):.3g}")
            ok = False
        lines.append(f"  {'metric':<14} {'pairs':>5} {'parent median [q1, q3]':>34} "
                     f"{'change':>11} {'rel':>8} {'wins':>7}  verdicts")
        for metric in benchmark["end_to_end"]:
            pairs = [(p["metrics"][metric["name"]]["value"], c["metrics"][metric["name"]]["value"])
                     for p, c in zip(ps, cs) if metric["name"] in p["metrics"]
                     and metric["name"] in c["metrics"]]
            pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
            if not pairs:
                lines.append(f"  {metric['name']:<14} no paired values")
                continue
            row = metric_row(metric, pairs)
            verdicts = ("claim met" if row["claim"] else "claim not met") + ", " + \
                ("within bound" if row["within"] else f"BEYOND its bound {row['bound']:g}")
            ok = ok and row["within"]
            median = f"{row['parent_median']:.6g} [{row['q1']:.6g}, {row['q3']:.6g}]"
            lines.append(f"  {row['name']:<14} {row['pairs']:>5} {median:>34} "
                         f"{row['change_median']:>11.6g} {100 * row['rel']:>+7.2f}% "
                         f"{row['wins']:>3}/{row['pairs']:<3}  {verdicts}")
    if not keys:
        lines.append("no workload and seed has a run in both checkouts")
        ok = False
    return lines, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--benchmark", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parents[1] / "BENCHMARK.json")
    args = parser.parse_args(argv)
    benchmark = json.loads(args.benchmark.read_text(encoding="utf-8"))
    lines, ok = summarize(load_runs(args.parent), load_runs(args.change), benchmark)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
