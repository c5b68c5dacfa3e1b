#!/usr/bin/env bash
# Multi-process transport bit-identity: the same campaign run in-process
# (fedclust_sim) and over a Unix socket (fedclust_server plus two
# fedclust_worker processes) must produce byte-identical trace CSVs and
# state digests, for FedAvg and FedClust, at 1 and 4 worker threads, with
# the server and both workers exiting 0 (docs/TRANSPORT.md "Bit-identity
# contract"). Each campaign runs under qint8 and under raw_f32: qint8
# quantizes away a flip in a returned parameter's low mantissa bits, and
# raw_f32 carries every bit into the state digest.
# Usage: socket_two_workers_test.sh <fedclust_sim> <fedclust_server> <fedclust_worker>
set -euo pipefail

sim=$1
server=$2
worker=$3
dir=$(mktemp -d)
pids=()
cleanup() {
  for pid in "${pids[@]}"; do kill -9 "$pid" 2>/dev/null || true; done
  rm -rf "$dir"
}
trap cleanup EXIT

fail() {
  echo "socket_two_workers: $*" >&2
  for log in "$dir"/*.out "$dir"/*.log; do
    [ -e "$log" ] || continue
    echo "--- $log" >&2
    cat "$log" >&2
  done
  exit 1
}

state_line() { grep '^state crc32c=' "$1"; }

for codec in qint8 raw_f32; do
  for method in FedAvg FedClust; do
    flags=(--method="$method" --clients=8 --rounds=3 --train=8 --test=4
           --sample=0.5 --seed=13 --codec="$codec" --deterministic=1)
    run="$method.$codec"
    FEDCLUST_THREADS=1 "$sim" "${flags[@]}" --out="$dir/$run.inproc.csv" \
        > "$dir/$run.inproc.out" 2> "$dir/$run.inproc.log" ||
      fail "$run fedclust_sim failed"
    for threads in 1 4; do
      tag="$run.t$threads"
      sock="unix:$dir/$tag.sock"
      FEDCLUST_THREADS=$threads "$server" "${flags[@]}" --listen="$sock" \
          --workers=2 --out="$dir/$tag.csv" > "$dir/$tag.out" 2>&1 &
      server_pid=$!
      pids=("$server_pid")
      worker_pids=()
      for w in 0 1; do
        FEDCLUST_THREADS=$threads "$worker" "${flags[@]}" --connect="$sock" \
            > "$dir/$tag.w$w.log" 2>&1 &
        worker_pids+=($!)
        pids+=($!)
      done
      wait "$server_pid" || fail "$run server failed (threads=$threads)"
      for pid in "${worker_pids[@]}"; do
        wait "$pid" || fail "$run worker failed (threads=$threads)"
      done
      pids=()
      cmp "$dir/$run.inproc.csv" "$dir/$tag.csv" ||
        fail "$run trace differs (threads=$threads)"
      inproc=$(state_line "$dir/$run.inproc.out") ||
        fail "$run: no in-process digest"
      socket=$(state_line "$dir/$tag.out") ||
        fail "$run: no socket digest (threads=$threads)"
      [ "$inproc" = "$socket" ] ||
        fail "$run digest $socket, in-process $inproc (threads=$threads)"
    done
  done
done
echo "socket_two_workers ok"
