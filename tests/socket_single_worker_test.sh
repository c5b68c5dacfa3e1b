#!/usr/bin/env bash
# One fedclust_server with a single fedclust_worker on a Unix socket. Each
# round of this 20-client FedAvg campaign has 10 calls, far more requests
# than one worker's socket buffers hold, so it checks the server's
# per-worker in-flight bound (docs/TRANSPORT.md "Flow control"). The
# campaign must finish without losing its worker and print the same state
# digest and trace as fedclust_sim in-process. Then a worker started with
# --fast-math-kernels=1, which changes results and so the config
# fingerprint, must be refused at the handshake.
# Usage: socket_single_worker_test.sh <fedclust_sim> <fedclust_server> <fedclust_worker>
set -euo pipefail

sim=$1
server=$2
worker=$3
dir=$(mktemp -d)
pids=()
cleanup() {
  for pid in "${pids[@]}"; do kill "$pid" 2>/dev/null || true; done
  rm -rf "$dir"
}
trap cleanup EXIT

fail() {
  echo "socket_single_worker: $*" >&2
  for log in "$dir"/*.out "$dir"/*.log; do
    echo "--- $log" >&2
    cat "$log" >&2
  done
  exit 1
}

flags=(--method=FedAvg --clients=20 --train=10 --test=10 --rounds=3
       --sample=0.5 --seed=5)
FEDCLUST_THREADS=1 "$sim" "${flags[@]}" --out="$dir/inproc.csv" \
    > "$dir/inproc.out" 2>&1 || fail "fedclust_sim failed"

sock="unix:$dir/server.sock"
FEDCLUST_THREADS=1 "$server" "${flags[@]}" --listen="$sock" --workers=1 \
    --net-timeout-ms=5000 --accept-timeout-ms=20000 --out="$dir/socket.csv" \
    > "$dir/server.out" 2>&1 &
server_pid=$!
pids+=("$server_pid")
FEDCLUST_THREADS=1 "$worker" "${flags[@]}" --connect="$sock" \
    > "$dir/worker.log" 2>&1 &
worker_pid=$!
pids+=("$worker_pid")

wait "$server_pid" || fail "fedclust_server failed"
wait "$worker_pid" || fail "fedclust_worker failed"
pids=()

if grep -q 'lost worker' "$dir/server.out"; then
  fail "the server lost its worker"
fi
inproc=$(grep '^state crc32c=' "$dir/inproc.out") || fail "no in-process digest"
socket=$(grep '^state crc32c=' "$dir/server.out") || fail "no socket digest"
[ "$inproc" = "$socket" ] || fail "digest $socket, in-process $inproc"
cmp -s "$dir/inproc.csv" "$dir/socket.csv" || fail "trace CSVs differ"

refuse_sock="unix:$dir/refuse.sock"
FEDCLUST_THREADS=1 "$server" "${flags[@]}" --listen="$refuse_sock" \
    --workers=1 --accept-timeout-ms=3000 > "$dir/refuse.out" 2>&1 &
server_pid=$!
pids+=("$server_pid")
FEDCLUST_THREADS=1 "$worker" "${flags[@]}" --fast-math-kernels=1 \
    --connect="$refuse_sock" > "$dir/refuse_worker.log" 2>&1 &
pids+=($!)
rc=0
wait "$server_pid" || rc=$?
[ "$rc" -eq 1 ] || fail "server exited $rc with a fast-math worker, want 1"
grep -q 'config mismatch' "$dir/refuse.out" ||
  fail "the fast-math worker was not refused for a config mismatch"
echo "socket_single_worker ok ($socket; fast-math worker refused)"
