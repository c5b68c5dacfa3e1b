#!/usr/bin/env bash
# Kill-and-resume contract of fedclust_sim (docs/INVARIANTS.md "Snapshot"):
# checkpoint at round 2, halt (the deterministic stand-in for a kill),
# resume, and require the per-round trace CSV and the end-state digest to
# be bit-identical to an uninterrupted run, with the resumed half running
# at 1 and 4 threads, for FedAvg and FedClust. A truncated snapshot must be
# rejected, not half-loaded, and so must a resume under
# --fast-math-kernels=1, whose config fingerprint differs.
# Usage: cli_resume_test.sh <fedclust_sim>
set -euo pipefail

sim=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

fail() {
  echo "cli_resume: $*" >&2
  exit 1
}
state_line() { grep '^state crc32c=' "$1"; }

for method in FedAvg FedClust; do
  flags=(--method="$method" --clients=8 --rounds=4 --train=6 --test=4
         --sample=0.5 --seed=11)
  FEDCLUST_THREADS=1 "$sim" "${flags[@]}" --out="$dir/$method.full.csv" \
      > "$dir/$method.full.out" || fail "$method uninterrupted run failed"
  FEDCLUST_THREADS=1 "$sim" "${flags[@]}" --checkpoint-out="$dir/$method" \
      --halt-after=2 > /dev/null || fail "$method halted run failed"
  [ -s "$dir/$method/manifest.json" ] || fail "$method manifest.json missing"
  snap="$dir/$method/snapshot-000002.fcsnap"
  [ -s "$snap" ] || fail "$method snapshot missing"
  for threads in 1 4; do
    FEDCLUST_THREADS=$threads "$sim" "${flags[@]}" --resume="$snap" \
        --out="$dir/$method.t$threads.csv" > "$dir/$method.t$threads.out" ||
      fail "$method resume failed (threads=$threads)"
    cmp -s "$dir/$method.full.csv" "$dir/$method.t$threads.csv" ||
      fail "$method trace differs (threads=$threads)"
    [ "$(state_line "$dir/$method.full.out")" = \
      "$(state_line "$dir/$method.t$threads.out")" ] ||
      fail "$method state digest differs (threads=$threads)"
  done
done

flags=(--method=FedAvg --clients=8 --rounds=4 --train=6 --test=4
       --sample=0.5 --seed=11)
head -c 100 "$dir/FedAvg/snapshot-000002.fcsnap" > "$dir/corrupt.fcsnap"
if "$sim" "${flags[@]}" --resume="$dir/corrupt.fcsnap" > /dev/null 2>&1; then
  fail "a truncated snapshot was accepted"
fi
if "$sim" "${flags[@]}" --fast-math-kernels=1 \
    --resume="$dir/FedAvg/snapshot-000002.fcsnap" > /dev/null \
    2> "$dir/fast.err"; then
  fail "a resume under --fast-math-kernels=1 was accepted"
fi
grep -q 'fingerprint mismatch' "$dir/fast.err" ||
  fail "fast-math resume not refused for a fingerprint mismatch: $(cat "$dir/fast.err")"
echo "cli_resume ok"
