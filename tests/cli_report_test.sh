#!/usr/bin/env bash
# Journal + report contracts of fedclust_sim and fedclust_report
# (docs/OBSERVABILITY.md): a journaled run must leave a JSONL that
# fedclust_report ingests into JSON + markdown reports; a self-compare must
# be clean (exit 0), and a deliberately fatter run (raw_f32 against a qint8
# baseline, ~4x the wire bytes) must trip the --compare regression gate
# with exit status 2 and a `REGRESSION wire_bytes` line.
# Usage: cli_report_test.sh <fedclust_sim> <fedclust_report>
set -euo pipefail

sim=$1
report=$2
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

fail() {
  echo "cli_report: $*" >&2
  exit 1
}

flags=(--method=FedClust --clients=8 --rounds=3 --train=6 --test=4
       --sample=0.5 --seed=5)
"$sim" "${flags[@]}" --codec=qint8 \
    --journal-out="$dir/base.journal.jsonl" \
    --metrics-out="$dir/base.metrics.jsonl" \
    --trace-out="$dir/base.trace.json" > /dev/null || fail "qint8 run failed"
[ -s "$dir/base.journal.jsonl" ] || fail "journal missing or empty"
grep -q '"journal":1' "$dir/base.journal.jsonl" || fail "no journal header"
grep -q '"ev":"sampled"' "$dir/base.journal.jsonl" || fail "no sampled rows"
grep -q '"ev":"upload"' "$dir/base.journal.jsonl" || fail "no upload rows"

"$report" --journal="$dir/base.journal.jsonl" \
    --metrics="$dir/base.metrics.jsonl" \
    --trace="$dir/base.trace.json" \
    --json-out="$dir/base.report.json" \
    --md-out="$dir/base.report.md" > /dev/null || fail "report failed"
grep -q '"report_version":1' "$dir/base.report.json" ||
  fail "JSON report lacks report_version"
grep -q '# fedclust run report' "$dir/base.report.md" ||
  fail "markdown report lacks its header"
python3 - "$dir/base.report.json" <<'EOF' || fail "JSON report contents"
import json, sys
rep = json.load(open(sys.argv[1]))
assert rep["rounds"] == 3, "wrong round count"
assert rep["totals"]["upload_wire_bytes"] > 0, "no upload wire bytes"
assert rep["per_round"], "per_round empty"
EOF

"$report" --journal="$dir/base.journal.jsonl" \
    --metrics="$dir/base.metrics.jsonl" \
    --compare="$dir/base.report.json" > /dev/null ||
  fail "self-compare flagged a regression"

"$sim" "${flags[@]}" --codec=raw_f32 \
    --journal-out="$dir/fat.journal.jsonl" > /dev/null ||
  fail "raw_f32 run failed"
rc=0
"$report" --journal="$dir/fat.journal.jsonl" \
    --compare="$dir/base.report.json" \
    > /dev/null 2> "$dir/compare.err" || rc=$?
[ "$rc" -eq 2 ] || fail "regression compare exited $rc, want 2"
grep -q 'REGRESSION wire_bytes' "$dir/compare.err" ||
  fail "wire-byte regression not flagged"
echo "cli_report ok"
