#!/usr/bin/env bash
# Tier-1 verification: the full release test suite (including the
# check_docs, one-worker socket_single_worker, two-worker
# socket_two_workers, kill -9 worker restart socket_restart,
# kill-and-resume cli_resume, landmark-contract cli_landmark, every-ISA
# cli_isa, journal + fedclust_report gate cli_report,
# obs/fault/codec/log-epoch output cli_smoke, 100k-client store
# scale_smoke and, labelled slow, 100k-client landmark_scale ctests), then
# the concurrency tests (thread pool + parallel round executor + obs
# stress + every method's thread-count determinism) rebuilt and re-run
# under ThreadSanitizer, then the
# fault/wire/snapshot/nn tests rebuilt and re-run under
# Address+UBSanitizer. Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset release
cmake --build --preset release -j "$(nproc)"
ctest --preset release -j "$(nproc)"

cmake --preset tsan
cmake --build --preset tsan-smoke -j "$(nproc)"
FEDCLUST_THREADS=4 ctest --preset tsan-smoke

cmake --preset asan
cmake --build --preset asan-smoke -j "$(nproc)"
FEDCLUST_THREADS=4 ctest --preset asan-smoke
