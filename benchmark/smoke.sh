#!/usr/bin/env bash
# Smoke test: every workload at 1/50 of its size, two untraced cells plus
# the traced pass, bounds off. Checks that every name prints, that the
# mirror matched, that nothing failed and that the outputs parse. Well
# under 30 s after the build; CI can call it as is.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

out=benchmark/out/smoke
rm -rf "$out"
names=$(benchmark/run.sh --list | awk '$1 != "workload" { print $2 }' | sort)
for workload in $(benchmark/run.sh --list | awk '$1 == "workload" { print $2 }'); do
    log="$out/$workload.log"
    mkdir -p "$out"
    benchmark/run.sh --workload "$workload" --scale-div 50 --seconds 0 --trace 1 \
        --out "$out" >"$log"

    printed=$(grep -E '^[A-Za-z0-9_.-]+ [-0-9.e]+ [A-Za-z0-9_/%.-]+ (host|sim|count)$' "$log" |
        awk '{ print $1 }' | sort)
    if [ "$printed" != "$names" ]; then
        echo "smoke: $workload did not print exactly the listed metric names" >&2
        diff <(echo "$names") <(echo "$printed") >&2 || true
        exit 1
    fi
    grep -qx 'bench.mirror_match 1 count count' "$log" ||
        { echo "smoke: $workload: mirror did not match" >&2; exit 1; }
    grep -q '^# failed_ops_share 0 ' "$log" ||
        { echo "smoke: $workload: operations failed" >&2; exit 1; }
    python3 - "$log" "$out/$workload.json" "$out/$workload.spans.jsonl" <<'EOF'
import json, sys
log, result, spans = sys.argv[1:]
last = json.loads(open(log).read().splitlines()[-1])
assert set(last) == {"correct", "attempted", "failed", "metrics"}, last.keys()
assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
doc = json.load(open(result))
assert doc["correct"] is True and doc["per_layer"], result
lines = [json.loads(line) for line in open(spans)]
kept = [l for l in lines if "id" in l]
assert kept and kept[0]["name"] == "cell" and kept[0]["parent"] is None
assert all(l["parent"] is None or l["parent"] < l["id"] for l in kept)
assert any("total" in l for l in lines)
EOF
    echo "smoke: $workload ok"
done
echo "smoke: all workloads ok"
