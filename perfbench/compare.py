#!/usr/bin/env python3
"""Compare perfbench results of a parent commit and a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR [--claim WORKLOAD:METRIC ...]
                                 [--benchmark BENCHMARK.json]

Each directory holds one file per run: the standard output of one
`perfbench` run (its `# perfbench workload=...` line names the workload, its
last line is the result JSON). Within a workload, runs pair up in sorted
file-name order, so name them by run index (zero-padded) and alternate which
side runs first.

For each workload and end-to-end metric in BENCHMARK.json it prints both
sides' median and quartiles, and how many pairs the change won (ties count
for neither). A claimed (workload, metric) is met when the change wins at
least 9/10 of the pairs, its median beats the parent's by more than the
parent's interquartile range, and no more runs failed than at the parent.
Every other pair is "no worse", "regressed" (median worse by more than the
metric's bound), or "unresolved" (a side's interquartile range exceeds the
bound, unless every change run beats every parent run). Exits 1 when a claim
is not met or a metric regressed.
"""

import argparse
import json
import os
import re
import statistics
import sys


HEADER = re.compile(r"^# perfbench workload=(\S+)")


def load_runs(directory):
    """Returns {workload: [result, ...]} in sorted file-name order."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path, encoding="utf-8") as f:
            lines = f.read().strip().splitlines()
        workloads = [m.group(1) for m in map(HEADER.match, lines) if m]
        if not workloads:
            raise ValueError(f"{path}: not a perfbench result (no `# perfbench workload=` line)")
        runs.setdefault(workloads[0], []).append(json.loads(lines[-1]))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def beats(a, b, better):
    return a < b if better == "lower" else a > b


def judge(parent, change, metric, claimed):
    """Verdict for one (workload, metric): returns (verdict, details dict)."""
    better, bound = metric["better"], metric["bound"]
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(beats(c, p, better) for p, c in pairs)
    details = {"parent": (pm, p1, p3), "change": (cm, c1, c3), "wins": wins, "pairs": len(pairs)}
    if claimed:
        met = wins >= 0.9 * len(pairs) and beats(cm, pm, better) and abs(cm - pm) > p3 - p1
        return ("claim met" if met else "claim not met"), details
    if all(beats(c, p, better) for c in change for p in parent):
        return "no worse", details
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    if spread > bound:
        return "unresolved", details
    worse = cm - pm if better == "lower" else pm - cm
    if worse > bound * abs(pm):
        return "regressed", details
    return "no worse", details


def compare(parent_runs, change_runs, benchmark, claims):
    """Yields report lines; the last item is the exit code."""
    failing = False
    for workload in sorted(set(parent_runs) & set(change_runs)):
        parent, change = parent_runs[workload], change_runs[workload]
        p_failed = sum(r["failed"] for r in parent)
        c_failed = sum(r["failed"] for r in change)
        incorrect = sum(not r["correct"] for r in parent + change)
        yield (f"{workload}: {len(parent)} parent runs, {len(change)} change runs, "
               f"failed {p_failed} -> {c_failed}, incorrect runs {incorrect}")
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            p = [r["metrics"][name]["value"] for r in parent if name in r["metrics"]]
            c = [r["metrics"][name]["value"] for r in change if name in r["metrics"]]
            if not p or not c:
                continue
            claimed = (workload, name) in claims
            verdict, d = judge(p, c, metric, claimed)
            if claimed and c_failed > p_failed:
                verdict = "claim not met"
            failing |= verdict in ("claim not met", "regressed")
            (pm, p1, p3), (cm, c1, c3) = d["parent"], d["change"]
            yield (f"  {name:<16} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  "
                   f"change {cm:.6g} [{c1:.6g}, {c3:.6g}]  wins {d['wins']}/{d['pairs']}  {verdict}")
    yield 1 if failing else 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    parser.add_argument("--claim", action="append", default=[], help="WORKLOAD:METRIC")
    args = parser.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as f:
        benchmark = json.load(f)
    claims = {tuple(c.split(":", 1)) for c in args.claim}
    *lines, code = compare(load_runs(args.parent), load_runs(args.change), benchmark, claims)
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
