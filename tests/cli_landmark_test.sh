#!/usr/bin/env bash
# Landmark clustering contracts of fedclust_sim (docs/SCALING.md §Landmark
# clustering):
#   (a) exact clustering is the sketch with every client a landmark: for
#       FedClust and PACFL, no flag, --landmarks=0 and --landmarks=N give
#       the same trace CSV and state digest, and an exact run records no
#       cluster.landmark.* counter in its metrics JSONL;
#   (b) on a population with ground-truth group structure the sketch must
#       reproduce the exact partition, gated through fedclust_report's
#       adjusted-Rand agreement (--ari-min) over the journaled partitions.
# Usage: cli_landmark_test.sh <fedclust_sim> <fedclust_report>
set -euo pipefail

sim=$1
report=$2
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

fail() {
  echo "cli_landmark: $*" >&2
  exit 1
}
state_line() { grep '^state crc32c=' "$1"; }

for method in FedClust PACFL; do
  flags=(--method="$method" --clients=20 --train=10 --test=10 --rounds=3)
  "$sim" "${flags[@]}" --out="$dir/$method.csv" > "$dir/$method.out" ||
    fail "$method run failed"
  for lm in 0 20; do
    "$sim" "${flags[@]}" --landmarks=$lm --out="$dir/$method.lm$lm.csv" \
        --metrics-out="$dir/$method.lm$lm.metrics.jsonl" \
        > "$dir/$method.lm$lm.out" || fail "$method --landmarks=$lm failed"
    cmp -s "$dir/$method.csv" "$dir/$method.lm$lm.csv" ||
      fail "$method --landmarks=$lm trace differs from exact"
    [ "$(state_line "$dir/$method.out")" = \
      "$(state_line "$dir/$method.lm$lm.out")" ] ||
      fail "$method --landmarks=$lm state digest differs from exact"
    if grep -q '"cluster\.landmark\.' "$dir/$method.lm$lm.metrics.jsonl"; then
      fail "$method --landmarks=$lm (exact) recorded landmark counters"
    fi
  done
done

agree_flags=(--method=FedClust --dataset=fmnist --partition=skew
             --label-pool=4 --clients=32 --train=8 --test=4 --rounds=1
             --sample=0.25 --k=4 --seed=7)
"$sim" "${agree_flags[@]}" --journal-out="$dir/exact.journal.jsonl" \
    --metrics-out="$dir/exact.metrics.jsonl" > /dev/null ||
  fail "exact agreement run failed"
"$sim" "${agree_flags[@]}" --landmarks=16 \
    --journal-out="$dir/lm.journal.jsonl" \
    --metrics-out="$dir/lm.metrics.jsonl" > /dev/null ||
  fail "landmark agreement run failed"
grep -q '"cluster\.landmark\.count"' "$dir/lm.metrics.jsonl" ||
  fail "the sketch recorded no landmark counters"
"$report" --journal="$dir/exact.journal.jsonl" \
    --metrics="$dir/exact.metrics.jsonl" \
    --json-out="$dir/exact.report.json" --md-out=/dev/null > /dev/null ||
  fail "exact report failed"
"$report" --journal="$dir/lm.journal.jsonl" \
    --metrics="$dir/lm.metrics.jsonl" --md-out="$dir/lm.report.md" \
    --compare="$dir/exact.report.json" --ari-min=0.9 \
    --acc-tol=1 --bytes-tol-pct=100000 --time-tol-pct=100000 \
    > "$dir/agree.out" ||
  fail "sketch partition diverged from exact: $(cat "$dir/agree.out")"
grep -q 'clustering agreement' "$dir/agree.out" ||
  fail "no agreement line from fedclust_report"
grep -q 'landmark sketch: 16 landmarks' "$dir/lm.report.md" ||
  fail "report lacks the landmark clustering section"
echo "cli_landmark ok"
