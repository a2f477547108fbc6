#!/usr/bin/env bash
# restart_smoke.sh — end-to-end durability check for `cachedse serve -store`.
#
# Builds the CLI, starts the service against a fresh store directory,
# uploads a trace and runs an exploration, then kills the server and starts
# a new instance over the same directory. The restarted server must still
# serve the trace by digest and answer the same exploration as a cache hit
# ("cached": true) without recomputing. CI runs this as its own job; it is
# equally runnable locally.
set -euo pipefail
cd "$(dirname "$0")/.."

addr=${ADDR:-127.0.0.1:18344}
base="http://$addr"
tmp=$(mktemp -d)
pid=""
cleanup() {
  [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/cachedse" ./cmd/cachedse

# A small loopy trace with reads, writes and instruction fetches.
awk 'BEGIN {
  for (rep = 0; rep < 40; rep++)
    for (i = 0; i < 50; i++) {
      printf "2 %x\n", 4096 + i
      printf "0 %x\n", 8192 + i * 3 % 257
      if (i % 5 == 0) printf "1 %x\n", 12288 + i
    }
}' > "$tmp/t.din"

start_server() {
  "$tmp/cachedse" serve -addr "$addr" -store "$tmp/store" &
  pid=$!
  for _ in $(seq 1 100); do
    curl -sf "$base/healthz" > /dev/null 2>&1 && return 0
    sleep 0.1
  done
  echo "restart_smoke: server did not come up on $addr" >&2
  exit 1
}

stop_server() {
  kill -TERM "$pid"
  wait "$pid" || true
  pid=""
}

start_server
digest=$(curl -sf --data-binary @"$tmp/t.din" "$base/v1/traces" |
  sed -n 's/.*"digest": "\([0-9a-f]*\)".*/\1/p' | head -n 1)
[ -n "$digest" ] || { echo "restart_smoke: upload returned no digest" >&2; exit 1; }

explore1=$(curl -sf -X POST -d "{\"trace\":\"$digest\",\"k\":50}" "$base/v1/explore")
echo "$explore1" | grep -q '"cached": false' ||
  { echo "restart_smoke: first explore unexpectedly cached" >&2; exit 1; }

stop_server
echo "restart_smoke: server stopped, restarting over $tmp/store"
start_server

curl -sf "$base/v1/traces/$digest" > /dev/null ||
  { echo "restart_smoke: trace $digest lost across restart" >&2; exit 1; }

explore2=$(curl -sf -X POST -d "{\"trace\":\"$digest\",\"k\":50}" "$base/v1/explore")
echo "$explore2" | grep -q '"cached": true' ||
  { echo "restart_smoke: restarted explore was not a cache hit" >&2; exit 1; }

# The answers themselves must match, not just both exist.
tab1=$(echo "$explore1" | sed 's/"cached": false/"cached": X/')
tab2=$(echo "$explore2" | sed 's/"cached": true/"cached": X/')
[ "$tab1" = "$tab2" ] ||
  { echo "restart_smoke: explore answers differ across restart" >&2; exit 1; }

stop_server

echo "restart_smoke: OK — trace and cached result survived the restart"
