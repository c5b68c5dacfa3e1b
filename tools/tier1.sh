#!/usr/bin/env bash
# Tier-1 verification: the full release test suite (including the
# check_docs, one-worker socket_single_worker, kill -9 worker restart
# socket_restart, kill-and-resume cli_resume and landmark-contract
# cli_landmark ctests), then the concurrency tests
# (thread pool + parallel round executor + obs stress) rebuilt and re-run
# under ThreadSanitizer, then the fault/wire/snapshot tests rebuilt and
# re-run under Address+UBSanitizer, then simulator CLI smokes:
# observability, fault injection, wire codecs, the event journal +
# fedclust_report regression gate, the client store and landmark
# clustering at 100k clients, SIMD dispatch (scalar vs native ISA
# bit-identity), and the multi-process transport (server + two workers on
# a Unix socket, bit-identical to in-process).
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

# Observability smoke: a tiny run must produce a Chrome trace and a
# per-round JSONL that exist, are non-empty, and parse.
smoke_dir=build/obs_smoke
rm -rf "$smoke_dir" && mkdir -p "$smoke_dir"
./build/tools/fedclust_sim --method=FedClust --clients=8 --rounds=2 \
    --train=6 --test=4 --sample=0.5 \
    --trace-out="$smoke_dir/trace.json" \
    --metrics-out="$smoke_dir/metrics.jsonl" >/dev/null
for f in "$smoke_dir/trace.json" "$smoke_dir/metrics.jsonl"; do
  [ -s "$f" ] || { echo "obs smoke: $f missing or empty" >&2; exit 1; }
done
grep -q '"traceEvents"' "$smoke_dir/trace.json"
grep -q '"fl.round"' "$smoke_dir/trace.json"
grep -q '"round"' "$smoke_dir/metrics.jsonl"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$smoke_dir" <<'EOF'
import json, sys
d = sys.argv[1]
trace = json.load(open(f"{d}/trace.json"))
names = {e.get("name") for e in trace["traceEvents"]}
for want in ("fl.round", "client.train", "gemm"):
    assert want in names, f"obs smoke: span {want!r} missing from trace"
for line in open(f"{d}/metrics.jsonl"):
    json.loads(line)
EOF
fi
echo "obs smoke ok"

# Fault-injection smoke: a faulted run must complete and surface fault.*
# counters in the per-round metrics JSONL.
./build/tools/fedclust_sim --method=FedAvg --clients=8 --rounds=3 \
    --train=6 --test=4 --sample=0.5 \
    --fault-spec="crash=0.3,straggle=0.3,delay=4,deadline=2,corrupt=0.3,comm=0.3" \
    --metrics-out="$smoke_dir/fault_metrics.jsonl" >/dev/null
[ -s "$smoke_dir/fault_metrics.jsonl" ] ||
  { echo "fault smoke: metrics missing or empty" >&2; exit 1; }
grep -q '"fault\.' "$smoke_dir/fault_metrics.jsonl" ||
  { echo "fault smoke: no fault.* counters in metrics" >&2; exit 1; }
echo "fault smoke ok"

# Wire-codec smoke: a quantized (qint8) run must complete, put strictly
# fewer bytes on the wire than the raw payload it carries, and surface the
# comm.* ledgers in a parseable per-round metrics JSONL.
./build/tools/fedclust_sim --method=FedClust --clients=8 --rounds=2 \
    --train=6 --test=4 --sample=0.5 --codec=qint8 \
    --metrics-out="$smoke_dir/codec_metrics.jsonl" > "$smoke_dir/codec.out"
grep -q 'wire codec qint8' "$smoke_dir/codec.out" ||
  { echo "codec smoke: no codec summary line" >&2; exit 1; }
payload=$(grep -oP 'payload \K[0-9]+' "$smoke_dir/codec.out")
wire=$(grep -oP 'wire \K[0-9]+(?= B)' "$smoke_dir/codec.out")
[ -n "$payload" ] && [ -n "$wire" ] && [ "$wire" -lt "$payload" ] ||
  { echo "codec smoke: wire bytes ($wire) not below payload ($payload)" >&2
    exit 1; }
grep -q '"comm\.wire_bytes"' "$smoke_dir/codec_metrics.jsonl" ||
  { echo "codec smoke: no comm.wire_bytes in metrics" >&2; exit 1; }
if command -v python3 >/dev/null 2>&1; then
  python3 - "$smoke_dir" <<'EOF'
import json, sys
d = sys.argv[1]
last = None
for line in open(f"{d}/codec_metrics.jsonl"):
    last = json.loads(line)
assert last["comm.wire_bytes"] < last["comm.payload_bytes"], \
    "codec smoke: qint8 wire bytes not below payload bytes"
EOF
fi
echo "codec smoke ok"

# Journal + report smoke: a journaled run must leave a JSONL that
# fedclust_report can ingest into JSON + markdown reports; self-compare
# must be clean (exit 0) and a deliberately fatter run (raw_f32 against a
# qint8 baseline, ~4x the wire bytes) must trip the --compare regression
# gate with exit status 2.
report_dir=build/report_smoke
rm -rf "$report_dir" && mkdir -p "$report_dir"
report_flags=(--method=FedClust --clients=8 --rounds=3 --train=6 --test=4
              --sample=0.5 --seed=5)
./build/tools/fedclust_sim "${report_flags[@]}" --codec=qint8 \
    --journal-out="$report_dir/base.journal.jsonl" \
    --metrics-out="$report_dir/base.metrics.jsonl" \
    --trace-out="$report_dir/base.trace.json" >/dev/null
[ -s "$report_dir/base.journal.jsonl" ] ||
  { echo "report smoke: journal missing or empty" >&2; exit 1; }
grep -q '"journal":1' "$report_dir/base.journal.jsonl"
grep -q '"ev":"sampled"' "$report_dir/base.journal.jsonl"
grep -q '"ev":"upload"' "$report_dir/base.journal.jsonl"
./build/tools/fedclust_report \
    --journal="$report_dir/base.journal.jsonl" \
    --metrics="$report_dir/base.metrics.jsonl" \
    --trace="$report_dir/base.trace.json" \
    --json-out="$report_dir/base.report.json" \
    --md-out="$report_dir/base.report.md" >/dev/null
grep -q '"report_version":1' "$report_dir/base.report.json"
grep -q '# fedclust run report' "$report_dir/base.report.md"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$report_dir" <<'EOF'
import json, sys
rep = json.load(open(f"{sys.argv[1]}/base.report.json"))
assert rep["rounds"] == 3, "report smoke: wrong round count"
assert rep["totals"]["upload_wire_bytes"] > 0, "report smoke: no wire bytes"
assert rep["per_round"], "report smoke: per_round empty"
EOF
fi
./build/tools/fedclust_report \
    --journal="$report_dir/base.journal.jsonl" \
    --metrics="$report_dir/base.metrics.jsonl" \
    --compare="$report_dir/base.report.json" >/dev/null ||
  { echo "report smoke: self-compare flagged a regression" >&2; exit 1; }
./build/tools/fedclust_sim "${report_flags[@]}" --codec=raw_f32 \
    --journal-out="$report_dir/fat.journal.jsonl" >/dev/null
rc=0
./build/tools/fedclust_report \
    --journal="$report_dir/fat.journal.jsonl" \
    --compare="$report_dir/base.report.json" \
    >/dev/null 2>"$report_dir/compare.err" || rc=$?
[ "$rc" -eq 2 ] ||
  { echo "report smoke: regression compare exited $rc, want 2" >&2; exit 1; }
grep -q 'REGRESSION wire_bytes' "$report_dir/compare.err" ||
  { echo "report smoke: wire-byte regression not flagged" >&2; exit 1; }
echo "journal+report smoke ok"

# SIMD dispatch smoke: the same run under FEDCLUST_ISA=scalar and under the
# best native ISA must produce bit-identical trace CSVs and state digests
# (docs/INVARIANTS.md "Kernels"), at 1 and 4 worker threads, for a lossy
# codec (qint8 exercises every kernel family). The run must also report the
# resolved ISA in its stdout summary and in the metrics summary table.
simd_dir=build/simd_smoke
rm -rf "$simd_dir" && mkdir -p "$simd_dir"
simd_flags=(--method=FedClust --clients=8 --rounds=3 --train=6 --test=4
            --sample=0.5 --seed=7 --codec=qint8)
./build/tools/fedclust_sim "${simd_flags[@]}" \
    --metrics-out="$simd_dir/metrics.jsonl" \
    --out="$simd_dir/native.csv" > "$simd_dir/native.out"
native_isa=$(grep -oP 'simd kernels: isa=\K[a-z0-9]+' "$simd_dir/native.out")
[ -n "$native_isa" ] ||
  { echo "simd smoke: no 'simd kernels: isa=' line in output" >&2; exit 1; }
grep -q "kernels\.isa\.$native_isa" "$simd_dir/native.out" ||
  { echo "simd smoke: metrics summary lacks kernels.isa.$native_isa" >&2
    exit 1; }
for threads in 1 4; do
  for isa in scalar "$native_isa"; do
    FEDCLUST_THREADS=$threads FEDCLUST_ISA=$isa ./build/tools/fedclust_sim \
        "${simd_flags[@]}" --out="$simd_dir/$isa.t$threads.csv" \
        > "$simd_dir/$isa.t$threads.out"
    cmp "$simd_dir/native.csv" "$simd_dir/$isa.t$threads.csv" ||
      { echo "simd smoke: trace differs (isa=$isa threads=$threads)" >&2
        exit 1; }
    [ "$(state_line "$simd_dir/native.out")" = \
      "$(state_line "$simd_dir/$isa.t$threads.out")" ] ||
      { echo "simd smoke: state digest differs (isa=$isa threads=$threads)" >&2
        exit 1; }
  done
done
if FEDCLUST_ISA=bogus ./build/tools/fedclust_sim "${simd_flags[@]}" \
    >/dev/null 2>&1; then
  echo "simd smoke: unknown FEDCLUST_ISA was accepted" >&2; exit 1
fi
echo "simd dispatch smoke ok (native isa: $native_isa)"

# Multi-process transport smoke — bit-identity: the same campaign
# run in-process (fedclust_sim) and over a Unix socket (fedclust_server +
# two fedclust_worker processes) must produce byte-identical trace CSVs
# and state digests, for FedAvg and FedClust, at 1 and 4 worker threads
# (docs/TRANSPORT.md "Bit-identity contract").
net_dir=build/net_smoke
rm -rf "$net_dir" && mkdir -p "$net_dir"
for method in FedAvg FedClust; do
  net_flags=(--method="$method" --clients=8 --rounds=3 --train=8 --test=4
             --sample=0.5 --seed=13 --codec=qint8 --deterministic=1)
  FEDCLUST_THREADS=1 ./build/tools/fedclust_sim "${net_flags[@]}" \
      --out="$net_dir/$method.inproc.csv" > "$net_dir/$method.inproc.out"
  for threads in 1 4; do
    sock="unix:$net_dir/$method.t$threads.sock"
    FEDCLUST_THREADS=$threads ./build/tools/fedclust_server \
        "${net_flags[@]}" --listen="$sock" --workers=2 \
        --out="$net_dir/$method.t$threads.csv" \
        > "$net_dir/$method.t$threads.out" 2>&1 &
    server_pid=$!
    worker_pids=()
    for w in 0 1; do
      FEDCLUST_THREADS=$threads ./build/tools/fedclust_worker \
          "${net_flags[@]}" --connect="$sock" \
          > "$net_dir/$method.t$threads.w$w.log" 2>&1 &
      worker_pids+=($!)
    done
    wait "$server_pid" ||
      { echo "transport smoke: $method server failed (threads=$threads)" >&2
        cat "$net_dir/$method.t$threads.out" >&2; exit 1; }
    wait "${worker_pids[@]}" ||
      { echo "transport smoke: $method worker failed (threads=$threads)" >&2
        exit 1; }
    cmp "$net_dir/$method.inproc.csv" "$net_dir/$method.t$threads.csv" ||
      { echo "transport smoke: $method trace differs (threads=$threads)" >&2
        exit 1; }
    [ "$(state_line "$net_dir/$method.inproc.out")" = \
      "$(state_line "$net_dir/$method.t$threads.out")" ] ||
      { echo "transport smoke: $method state digest differs" \
             "(threads=$threads)" >&2; exit 1; }
  done
done
echo "transport bit-identity smoke ok"


# Scale smoke — the client store at population scale: 100k clients with a
# 0.1% cohort must run in bounded memory (LRU cache of 64 that really
# evicts, so the RSS ceiling is independent of the population) and stay
# bit-identical to the never-evicting store, at 1 and 4 worker threads
# (docs/INVARIANTS.md §Scale).
scale_dir=build/scale_smoke
rm -rf "$scale_dir" && mkdir -p "$scale_dir"
scale_flags=(--method=FedAvg --dataset=fmnist --clients=100000 --train=1
             --test=1 --sample=0.001 --rounds=2 --eval-clients=50 --seed=3)
FEDCLUST_THREADS=1 ./build/tools/fedclust_sim "${scale_flags[@]}" \
    --out="$scale_dir/full.csv" > "$scale_dir/full.out"
for threads in 1 4; do
  FEDCLUST_THREADS=$threads ./build/tools/fedclust_sim "${scale_flags[@]}" \
      --virtual-clients=1 --client-cache=64 \
      --out="$scale_dir/virt.t$threads.csv" \
      > "$scale_dir/virt.t$threads.out"
  cmp "$scale_dir/full.csv" "$scale_dir/virt.t$threads.csv" ||
    { echo "scale smoke: trace differs from never-evicting store" \
           "(threads=$threads)" >&2; exit 1; }
  [ "$(state_line "$scale_dir/full.out")" = \
    "$(state_line "$scale_dir/virt.t$threads.out")" ] ||
    { echo "scale smoke: state digest differs (threads=$threads)" >&2
      exit 1; }
  virt_rss=$(grep -oP '^peak rss \K[0-9]+' "$scale_dir/virt.t$threads.out")
  # Ceiling: 128 MiB leaves headroom over the observed ~25 MiB while still
  # proving the population never resided in memory.
  [ -n "$virt_rss" ] && [ "$virt_rss" -lt 131072 ] ||
    { echo "scale smoke: virtual RSS $virt_rss KiB above 131072 KiB ceiling" \
        >&2; exit 1; }
  evictions=$(grep -oP 'client store: .* \K[0-9]+(?= evictions)' \
              "$scale_dir/virt.t$threads.out")
  [ -n "$evictions" ] && [ "$evictions" -gt 0 ] ||
    { echo "scale smoke: bounded store never evicted (threads=$threads)" >&2
      exit 1; }
done
echo "scale smoke ok (virtual rss ${virt_rss} KiB, ${evictions} evictions)"

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

