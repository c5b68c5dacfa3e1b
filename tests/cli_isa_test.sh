#!/usr/bin/env bash
# Dispatch-invariance contract of the kernel tables (docs/INVARIANTS.md
# "Kernels"): every ISA this host accepts must reproduce the native run's
# per-round trace CSV and end-state digest, at 1 and 4 threads, for two
# campaigns. A FedClust qint8 LeNet-5 run exercises every kernel family;
# a ResNet-9 FedAvg run calls n = 16 and m = 8 GEMMs, which hit different
# tile edges on AVX2 (6 x 16 tiles) and AVX-512 (8 x 32). An ISA other
# than scalar is skipped only when the binary rejects it as not supported
# on this host. The native run must name its ISA in stdout and in the
# metrics summary, and an unknown FEDCLUST_ISA must be rejected.
# Usage: cli_isa_test.sh <fedclust_sim>
set -euo pipefail

sim=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

fail() {
  echo "cli_isa: $*" >&2
  exit 1
}
state_line() { grep '^state crc32c=' "$1"; }

fedclust_flags=(--method=FedClust --clients=8 --rounds=3 --train=6 --test=4
                --sample=0.5 --seed=7 --codec=qint8)
resnet9_flags=(--method=FedAvg --dataset=cifar100 --clients=6 --train=10
               --test=4 --rounds=2 --sample=0.5)

# check <name> <flags...>: the native run is the reference for every ISA.
check() {
  local name=$1
  shift
  local ref="$dir/$name.native"
  "$sim" "$@" --metrics-out="$ref.metrics.jsonl" --out="$ref.csv" \
      > "$ref.out" || fail "$name native run failed"
  local native_isa
  native_isa=$(sed -n 's/^simd kernels: isa=\([a-z0-9]*\).*/\1/p' "$ref.out")
  [ -n "$native_isa" ] || fail "$name: no 'simd kernels: isa=' line"
  grep -q "kernels\.isa\.$native_isa" "$ref.out" ||
    fail "$name: metrics summary lacks kernels.isa.$native_isa"
  local ran=0
  for isa in scalar avx2 avx512 neon; do
    for threads in 1 4; do
      local run="$dir/$name.$isa.t$threads"
      if ! FEDCLUST_THREADS=$threads FEDCLUST_ISA=$isa "$sim" "$@" \
          --out="$run.csv" > "$run.out" 2> "$run.err"; then
        [ "$isa" != scalar ] &&
          grep -q 'ISA not supported on this host' "$run.err" && continue
        fail "$name isa=$isa threads=$threads failed: $(cat "$run.err")"
      fi
      cmp -s "$ref.csv" "$run.csv" ||
        fail "$name trace differs (isa=$isa threads=$threads)"
      [ "$(state_line "$ref.out")" = "$(state_line "$run.out")" ] ||
        fail "$name state digest differs (isa=$isa threads=$threads)"
      ran=$((ran + 1))
    done
  done
  echo "cli_isa: $name ok ($ran runs, native isa: $native_isa)"
}

check fedclust "${fedclust_flags[@]}"
check resnet9 "${resnet9_flags[@]}"

if FEDCLUST_ISA=bogus "$sim" "${fedclust_flags[@]}" > /dev/null 2>&1; then
  fail "an unknown FEDCLUST_ISA was accepted"
fi
echo "cli_isa ok"
