#!/usr/bin/env bash
# Crash supervision over a Unix socket: kill -9 one of two fedclust_worker
# processes mid-campaign and restart it from its --checkpoint-state file.
# The campaign must complete (server exit 0), the restarted worker must
# resume from its state file, and the crash must be billed honestly
# (fault.worker_crash counter, worker_restart journal row), while the
# trace CSV and state digest stay identical to fedclust_sim in-process
# (docs/TRANSPORT.md "Bit-identity contract"). The campaign runs under
# qint8 and under raw_f32: qint8 quantizes away a flip in a returned
# parameter's low mantissa bits, and raw_f32 carries every bit into the
# state digest.
# Usage: socket_restart_test.sh <fedclust_sim> <fedclust_server> <fedclust_worker>
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
  echo "socket_restart: $*" >&2
  for log in "$dir"/*.out "$dir"/*.log; do
    [ -e "$log" ] || continue
    echo "--- $log" >&2
    cat "$log" >&2
  done
  exit 1
}

start_worker() {  # $1 = worker tag, $2 = incarnation tag
  FEDCLUST_THREADS=1 "$worker" "${flags[@]}" --connect="$sock" \
      --checkpoint-state="$dir/$codec.$1.state" \
      > "$dir/$codec.$1.$2.log" 2>&1 &
  pids+=($!)
}

for codec in qint8 raw_f32; do
  flags=(--method=FedClust --clients=10 --rounds=12 --train=64 --test=8
         --sample=0.5 --seed=13 --codec="$codec" --deterministic=1)
  FEDCLUST_THREADS=1 "$sim" "${flags[@]}" --out="$dir/$codec.inproc.csv" \
      > "$dir/$codec.inproc.out" 2>&1 || fail "$codec: fedclust_sim failed"

  sock="unix:$dir/$codec.sock"
  FEDCLUST_THREADS=1 "$server" "${flags[@]}" --listen="$sock" --workers=2 \
      --net-timeout-ms=5000 --metrics-out="$dir/$codec.metrics.jsonl" \
      --journal-out="$dir/$codec.journal.jsonl" --out="$dir/$codec.socket.csv" \
      > "$dir/$codec.server.out" 2>&1 &
  server_pid=$!
  pids=("$server_pid")
  start_worker w0 a
  w0_pid=$!
  start_worker w1 a
  w1_pid=$!
  for _ in $(seq 1 200); do
    grep -q 'round 1 ' "$dir/$codec.server.out" && break
    sleep 0.1
  done
  grep -q 'round 1 ' "$dir/$codec.server.out" ||
    fail "$codec: campaign never reached round 1"
  kill -9 "$w0_pid"
  wait "$w0_pid" 2>/dev/null || true
  start_worker w0 b
  w0b_pid=$!

  wait "$server_pid" || fail "$codec: the server did not survive the kill -9"
  wait "$w1_pid" || fail "$codec: the surviving worker failed"
  wait "$w0b_pid" || fail "$codec: the restarted worker failed"
  pids=()

  grep -q 'resuming from state file' "$dir/$codec.w0.b.log" ||
    fail "$codec: the restarted worker did not resume from its state file"
  grep -q '"fault\.worker_crash":[1-9]' "$dir/$codec.metrics.jsonl" ||
    fail "$codec: the crash was not billed in fault.worker_crash"
  grep -q '"ev":"worker_restart"' "$dir/$codec.journal.jsonl" ||
    fail "$codec: no worker_restart journal row"
  inproc=$(grep '^state crc32c=' "$dir/$codec.inproc.out") ||
    fail "$codec: no in-process digest"
  socket=$(grep '^state crc32c=' "$dir/$codec.server.out") ||
    fail "$codec: no socket digest"
  [ "$inproc" = "$socket" ] ||
    fail "$codec: digest $socket, in-process $inproc"
  cmp -s "$dir/$codec.inproc.csv" "$dir/$codec.socket.csv" ||
    fail "$codec: trace CSVs differ after kill -9 + restart"
  echo "socket_restart $codec ok ($socket)"
done
