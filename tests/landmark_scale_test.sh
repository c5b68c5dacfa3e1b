#!/usr/bin/env bash
# Landmark clustering at population scale (docs/SCALING.md §Landmark
# clustering): FedClust at 100k virtual clients with --landmarks=256 must
# finish under the same RSS ceiling as scale_smoke (exact clustering would
# need the O(N²) proximity matrix, ~40 GB) and stay bit-identical, trace
# CSV and state digest, at 1 and 4 worker threads. Its one-sample warmups
# also run every workspace replica's reused step buffers at 4 threads. The
# quick landmark contracts (--landmarks=0 is exact clustering, the
# sketch's agreement gate) are the cli_landmark test.
# Usage: landmark_scale_test.sh <fedclust_sim>
set -euo pipefail

sim=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

fail() {
  echo "landmark_scale: $*" >&2
  exit 1
}
state_line() { grep '^state crc32c=' "$1"; }

flags=(--method=FedClust --dataset=fmnist --clients=100000 --train=1
       --test=1 --sample=0.0005 --rounds=1 --eval-clients=50 --seed=3
       --virtual-clients=1 --client-cache=64 --landmarks=256 --k=4)
for threads in 1 4; do
  FEDCLUST_THREADS=$threads "$sim" "${flags[@]}" \
      --out="$dir/scale.t$threads.csv" > "$dir/scale.t$threads.out" ||
    fail "run failed (threads=$threads)"
  rss=$(grep -oP '^peak rss \K[0-9]+' "$dir/scale.t$threads.out" || true)
  [ -n "$rss" ] && [ "$rss" -lt 131072 ] ||
    fail "100k RSS ${rss:-?} KiB above 131072 KiB ceiling (threads=$threads)"
done
cmp -s "$dir/scale.t1.csv" "$dir/scale.t4.csv" ||
  fail "100k trace differs across thread counts"
[ "$(state_line "$dir/scale.t1.out")" = \
  "$(state_line "$dir/scale.t4.out")" ] ||
  fail "100k state digest differs across thread counts"
echo "landmark_scale ok (100k clients, 256 landmarks, rss ${rss} KiB)"
