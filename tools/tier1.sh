#!/usr/bin/env bash
# Tier-1 verification: the full release test suite (including the
# check_docs, one-worker socket_single_worker, two-worker
# socket_two_workers, kill -9 worker restart socket_restart,
# kill-and-resume cli_resume, landmark-contract cli_landmark, every-ISA
# cli_isa, journal + fedclust_report gate cli_report,
# obs/fault/codec/log-epoch output cli_smoke and 100k-client store
# scale_smoke ctests), then the concurrency tests (thread pool + parallel
# round executor + obs stress) rebuilt and re-run under ThreadSanitizer,
# then the fault/wire/snapshot tests rebuilt and re-run under
# Address+UBSanitizer, then the landmark clustering smoke at 100k clients.
# Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

state_line() { grep '^state crc32c=' "$1"; }

cmake --preset release
cmake --build --preset release -j "$(nproc)"
ctest --preset release -j "$(nproc)"

cmake --preset tsan
cmake --build --preset tsan-smoke -j "$(nproc)"
FEDCLUST_THREADS=4 ctest --preset tsan-smoke

cmake --preset asan
cmake --build --preset asan-smoke -j "$(nproc)"
FEDCLUST_THREADS=4 ctest --preset asan-smoke

# Landmark clustering smoke (docs/SCALING.md §Landmark clustering):
# FedClust at 100k virtual clients with --landmarks=256 must finish under
# the same RSS ceiling as the FedAvg scale smoke (exact clustering would
# need the O(N²) proximity matrix, ~40 GB) and stay bit-identical at 1 and
# 4 worker threads. The quick landmark contracts (--landmarks=0 is exact
# clustering, the sketch's agreement gate) are the cli_landmark ctest.
lm_dir=build/landmark_smoke
rm -rf "$lm_dir" && mkdir -p "$lm_dir"
lm_scale_flags=(--method=FedClust --dataset=fmnist --clients=100000
                --train=1 --test=1 --sample=0.0005 --rounds=1
                --eval-clients=50 --seed=3 --virtual-clients=1
                --client-cache=64 --landmarks=256 --k=4)
for threads in 1 4; do
  FEDCLUST_THREADS=$threads ./build/tools/fedclust_sim \
      "${lm_scale_flags[@]}" --out="$lm_dir/scale.t$threads.csv" \
      > "$lm_dir/scale.t$threads.out"
  lm_rss=$(grep -oP '^peak rss \K[0-9]+' "$lm_dir/scale.t$threads.out")
  [ -n "$lm_rss" ] && [ "$lm_rss" -lt 131072 ] ||
    { echo "landmark smoke: 100k RSS $lm_rss KiB above 131072 KiB ceiling" \
        >&2; exit 1; }
done
cmp "$lm_dir/scale.t1.csv" "$lm_dir/scale.t4.csv" ||
  { echo "landmark smoke: 100k trace differs across thread counts" >&2
    exit 1; }
[ "$(state_line "$lm_dir/scale.t1.out")" = \
  "$(state_line "$lm_dir/scale.t4.out")" ] ||
  { echo "landmark smoke: 100k state digest differs across threads" >&2
    exit 1; }
echo "landmark smoke ok (100k clients, 256 landmarks, rss ${lm_rss} KiB)"

