#!/usr/bin/env python3
"""Compare two result sets of the repo benchmark.

    benchmark/compare.py A B

A and B are directories of `<workload>.json` files as `run.sh --out` writes
them (`benchmark/out`, `benchmark/baseline/set1`, ...). A is the base.

Prints one row per (workload, end-to-end metric): both values, B/A, the
bound, and a verdict:

  ok          B is no worse than A by more than the bound
  worse       it is
  unresolved  the repeats inside A or B spread wider than the bound, so a
              difference that size cannot be told from noise (still `ok`
              if B reads better than A)

Exits 1 on any `worse`, and on anything that must repeat exactly and did
not: `sim.fingerprint`, any sim or count value (end-to-end or per-layer),
or more failed operations in B than in A. Both sets must come from the
same seed and sizes; host-clock per-layer values are never compared.
"""

import json
import pathlib
import sys


def load(directory):
    docs = {}
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        doc = json.loads(path.read_text())
        docs[doc["workload"]] = doc
    if not docs:
        sys.exit(f"compare: no result files in {directory}")
    return docs


def verdict(metric_a, metric_b):
    """Returns (B/A, verdict) for one end-to-end metric."""
    a, b = metric_a["value"], metric_b["value"]
    bound = metric_a["bound"]
    ratio = b / a if a else float("inf")
    worse_by = (a - b) / a if metric_a["better"] == "higher" else (b - a) / a
    if metric_a["clock"] != "host":
        # Same seed, same program: exact or it is a finding.
        return ratio, "ok" if a == b else ("worse" if worse_by > 0 else "changed")
    if worse_by <= 0:
        return ratio, "ok"
    spread = max(metric_a.get("spread", 0.0), metric_b.get("spread", 0.0))
    if spread > bound:
        return ratio, "unresolved"
    return ratio, "worse" if worse_by > bound else "ok"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, other = load(sys.argv[1]), load(sys.argv[2])
    failures = []
    print(f"{'workload':<11} {'metric':<24} {'A':>14} {'B':>14} {'B/A':>8} {'bound':>6}  verdict")
    for name in base:
        if name not in other:
            failures.append(f"{name}: missing from {sys.argv[2]}")
            continue
        a, b = base[name], other[name]
        for key in ("seed", "ops", "scale_div"):
            if a[key] != b[key]:
                sys.exit(f"compare: {name}: {key} differs ({a[key]} vs {b[key]}); not comparable")
        for metric, ma in a["end_to_end"].items():
            mb = b["end_to_end"][metric]
            ratio, word = verdict(ma, mb)
            print(
                f"{name:<11} {metric:<24} {ma['value']:>14.6g} {mb['value']:>14.6g} "
                f"{ratio:>8.4f} {ma['bound']:>6.2f}  {word}"
            )
            if word in ("worse", "changed"):
                failures.append(f"{name}: {metric} {word} ({ma['value']} -> {mb['value']})")
        if a["fingerprint"] != b["fingerprint"]:
            failures.append(f"{name}: sim.fingerprint {a['fingerprint']} -> {b['fingerprint']}")
        share_a = a["failed"] / a["attempted"]
        share_b = b["failed"] / b["attempted"]
        print(f"{name:<11} {'failed_ops_share':<24} {share_a:>14.6g} {share_b:>14.6g}")
        if share_b > share_a:
            failures.append(f"{name}: failed_ops_share {share_a} -> {share_b}")
        if a["per_layer"] and b["per_layer"]:
            for metric, ma in a["per_layer"].items():
                mb = b["per_layer"][metric]
                if ma["clock"] != "host" and ma["value"] != mb["value"]:
                    failures.append(f"{name}: {metric} {ma['value']} -> {mb['value']}")
    for line in failures:
        print(f"FAIL {line}")
    print(f"compare: {len(failures)} finding(s) (base A = {sys.argv[1]})")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
