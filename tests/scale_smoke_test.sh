#!/usr/bin/env bash
# Scale smoke — the client store at population scale (docs/INVARIANTS.md
# §Scale): 100k clients with a 0.1% cohort must run in bounded memory (an
# LRU cache of 64 that really evicts, so the RSS ceiling is independent of
# the population) and stay bit-identical to the never-evicting store, trace
# CSV and state digest, at 1 and 4 worker threads.
# Usage: scale_smoke_test.sh <fedclust_sim>
set -euo pipefail

sim=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

fail() {
  echo "scale_smoke: $*" >&2
  exit 1
}
state_line() { grep '^state crc32c=' "$1"; }

flags=(--method=FedAvg --dataset=fmnist --clients=100000 --train=1 --test=1
       --sample=0.001 --rounds=2 --eval-clients=50 --seed=3)
FEDCLUST_THREADS=1 "$sim" "${flags[@]}" --out="$dir/full.csv" \
    > "$dir/full.out" || fail "never-evicting run failed"
for threads in 1 4; do
  FEDCLUST_THREADS=$threads "$sim" "${flags[@]}" --virtual-clients=1 \
      --client-cache=64 --out="$dir/virt.t$threads.csv" \
      > "$dir/virt.t$threads.out" || fail "bounded run failed (threads=$threads)"
  cmp -s "$dir/full.csv" "$dir/virt.t$threads.csv" ||
    fail "trace differs from never-evicting store (threads=$threads)"
  [ "$(state_line "$dir/full.out")" = \
    "$(state_line "$dir/virt.t$threads.out")" ] ||
    fail "state digest differs (threads=$threads)"
  virt_rss=$(grep -oP '^peak rss \K[0-9]+' "$dir/virt.t$threads.out" || true)
  # Ceiling: 128 MiB leaves headroom over the observed ~16 MiB while still
  # proving the population never resided in memory.
  [ -n "$virt_rss" ] && [ "$virt_rss" -lt 131072 ] ||
    fail "virtual RSS ${virt_rss:-?} KiB above 131072 KiB ceiling" \
         "(threads=$threads)"
  evictions=$(grep -oP 'client store: .* \K[0-9]+(?= evictions)' \
              "$dir/virt.t$threads.out" || true)
  [ -n "$evictions" ] && [ "$evictions" -gt 0 ] ||
    fail "bounded store never evicted (threads=$threads)"
done
echo "scale_smoke ok (virtual rss ${virt_rss} KiB, ${evictions} evictions)"
