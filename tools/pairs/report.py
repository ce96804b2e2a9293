#!/usr/bin/env python3
"""The pair table of tools/pairs/run.sh.

    report.py <runs-dir> <workload>...

Reads <runs-dir>/<workload>/<pair>/{parent,change}/<workload>.json (the
repo benchmark's result files) and prints, per workload and end-to-end
metric: each side's median [q1, q3], the ratio of the medians (change /
parent), the pairs the change won and an exact one-sided sign-test p (ties
dropped). Whether higher or lower is better comes from BENCHMARK.json.
`setup_s` and `peak_rss_mb` are flagged when the two sides of a pair fit
different cell counts: both move with the number of cells a run fits.
"""

import json
import statistics
import sys
from math import comb
from pathlib import Path

CELL_COUNT_METRICS = ("setup_s", "peak_rss_mb")


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def sign_test(wins, losses):
    """P(at least `wins` of the untied pairs) when either side is as likely."""
    n = wins + losses
    if n == 0:
        return None
    return sum(comb(n, k) for k in range(wins, n + 1)) / 2**n


def fmt(x):
    return f"{x:.4g}"


def load(runs, workload):
    pairs = []
    for pair in sorted((runs / workload).iterdir(), key=lambda p: int(p.name)):
        sides = {s: json.loads((pair / s / f"{workload}.json").read_text()) for s in ("parent", "change")}
        pairs.append(sides)
    return pairs


def main():
    runs = Path(sys.argv[1])
    metrics = json.loads(Path("BENCHMARK.json").read_text())["end_to_end"]
    for workload in sys.argv[2:]:
        pairs = load(runs, workload)
        cells = {s: sorted({p[s]["cells"] for p in pairs}) for s in ("parent", "change")}
        cells_differ = any(p["parent"]["cells"] != p["change"]["cells"] for p in pairs)
        fingerprints = {s: {p[s]["fingerprint"] for p in pairs} for s in ("parent", "change")}
        print(f"\n## {workload} ({len(pairs)} pairs)\n")
        print(f"cells: parent {cells['parent']}, change {cells['change']}; "
              f"sim.fingerprint {'equal' if fingerprints['parent'] == fingerprints['change'] else 'DIFFERS'}\n")
        print("| metric | parent median [q1, q3] | change median [q1, q3] | ratio | won | p |")
        print("|---|---|---|---:|---:|---:|")
        for m in metrics:
            name, higher = m["name"], m["better"] == "higher"
            values = [(p["parent"]["end_to_end"][name]["value"], p["change"]["end_to_end"][name]["value"])
                      for p in pairs]
            parent = quartiles([a for a, _ in values])
            change = quartiles([b for _, b in values])
            wins = sum((b > a) if higher else (b < a) for a, b in values)
            losses = sum((b < a) if higher else (b > a) for a, b in values)
            p = sign_test(wins, losses)
            ratio = change[1] / parent[1] if parent[1] else float("nan")
            flag = " (cells differ)" if name in CELL_COUNT_METRICS and cells_differ else ""
            print(f"| {name}{flag} | {fmt(parent[1])} [{fmt(parent[0])}, {fmt(parent[2])}] "
                  f"| {fmt(change[1])} [{fmt(change[0])}, {fmt(change[2])}] | {ratio:.3f} "
                  f"| {wins}/{len(values)} | {'tied' if p is None else f'{p:.3g}'} |")


if __name__ == "__main__":
    main()
