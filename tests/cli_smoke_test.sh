#!/usr/bin/env bash
# Output smokes of fedclust_sim (docs/OBSERVABILITY.md, docs/WIRE_FORMAT.md):
#  * observability: a tiny traced run must leave a Chrome trace and a
#    per-round metrics JSONL that exist, are non-empty and parse, and the
#    trace must hold the fl.round, client.train and gemm spans;
#  * fault injection: a faulted run must complete and surface fault.*
#    counters in its metrics JSONL;
#  * wire codecs: a qint8 run must put strictly fewer bytes on the wire
#    than the raw payload it carries, both on its `wire codec` stdout line
#    and in its last metrics line, and must log comm.wire_bytes;
#  * log timestamps: they count from process start, so the round-0 line of
#    an untraced FedClust run, logged after the whole set-up, carries a
#    prefix of at least the round time it reports.
# Usage: cli_smoke_test.sh <fedclust_sim>
set -euo pipefail

sim=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

fail() {
  echo "cli_smoke: $*" >&2
  exit 1
}

small=(--clients=8 --train=6 --test=4 --sample=0.5)

# Observability.
"$sim" --method=FedClust --rounds=2 "${small[@]}" \
    --trace-out="$dir/trace.json" \
    --metrics-out="$dir/metrics.jsonl" > /dev/null || fail "traced run failed"
for f in "$dir/trace.json" "$dir/metrics.jsonl"; do
  [ -s "$f" ] || fail "obs: $f missing or empty"
done
grep -q '"traceEvents"' "$dir/trace.json" || fail "obs: no traceEvents"
grep -q '"fl.round"' "$dir/trace.json" || fail "obs: no fl.round span"
grep -q '"round"' "$dir/metrics.jsonl" || fail "obs: no round lines"
if command -v python3 > /dev/null 2>&1; then
  python3 - "$dir" << 'EOF' || fail "obs: trace or metrics do not parse"
import json, sys
d = sys.argv[1]
trace = json.load(open(f"{d}/trace.json"))
names = {e.get("name") for e in trace["traceEvents"]}
for want in ("fl.round", "client.train", "gemm"):
    assert want in names, f"span {want!r} missing from trace"
for line in open(f"{d}/metrics.jsonl"):
    json.loads(line)
EOF
fi

# Fault injection.
"$sim" --method=FedAvg --rounds=3 "${small[@]}" \
    --fault-spec="crash=0.3,straggle=0.3,delay=4,deadline=2,corrupt=0.3,comm=0.3" \
    --metrics-out="$dir/fault_metrics.jsonl" > /dev/null ||
  fail "faulted run failed"
[ -s "$dir/fault_metrics.jsonl" ] || fail "fault: metrics missing or empty"
grep -q '"fault\.' "$dir/fault_metrics.jsonl" ||
  fail "fault: no fault.* counters in metrics"

# Wire codecs.
"$sim" --method=FedClust --rounds=2 "${small[@]}" --codec=qint8 \
    --metrics-out="$dir/codec_metrics.jsonl" > "$dir/codec.out" ||
  fail "qint8 run failed"
grep -q 'wire codec qint8' "$dir/codec.out" ||
  fail "codec: no codec summary line"
payload=$(grep -oP 'payload \K[0-9]+' "$dir/codec.out" || true)
wire=$(grep -oP 'wire \K[0-9]+(?= B)' "$dir/codec.out" || true)
[ -n "$payload" ] && [ -n "$wire" ] && [ "$wire" -lt "$payload" ] ||
  fail "codec: wire bytes ($wire) not below payload ($payload)"
grep -q '"comm\.wire_bytes"' "$dir/codec_metrics.jsonl" ||
  fail "codec: no comm.wire_bytes in metrics"
if command -v python3 > /dev/null 2>&1; then
  python3 - "$dir" << 'EOF' || fail "codec: metrics check failed"
import json, sys
d = sys.argv[1]
last = None
for line in open(f"{d}/codec_metrics.jsonl"):
    last = json.loads(line)
assert last["comm.wire_bytes"] < last["comm.payload_bytes"], \
    "qint8 wire bytes not below payload bytes"
EOF
fi

# Log timestamps.
"$sim" --method=FedClust --rounds=1 --clients=20 --train=20 --test=10 \
    --sample=0.5 2> "$dir/epoch.log" > /dev/null || fail "epoch run failed"
round0=$(grep -m1 '\] round 0 ' "$dir/epoch.log") ||
  fail "epoch: no round 0 line"
prefix=$(sed -E 's/^\[ *([0-9.]+) .*/\1/' <<< "$round0")
took=$(sed -E 's/.* ([0-9.]+)s$/\1/' <<< "$round0")
awk -v p="$prefix" -v t="$took" 'BEGIN { exit !(t > 0 && p >= t) }' ||
  fail "epoch: round 0 logged at ${prefix}s, before its own ${took}s: $round0"

echo "cli_smoke: obs, fault, codec and log-epoch smokes ok"
