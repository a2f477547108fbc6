#!/usr/bin/env bash
# obs_smoke.sh — end-to-end observability check for `cachedse serve`.
#
# Builds the CLI, starts the service, uploads a trace and runs an async
# exploration, then requires every observability surface to answer:
# /healthz and /readyz (liveness vs readiness probes), /metrics (classic
# Prometheus plus negotiated OpenMetrics with exemplars and # EOF), the
# per-job span tree at GET /v1/jobs/{id}/trace with the engine phases
# present, and the continuous profiler's snapshot ring. A second leg
# boots a three-node cluster and requires one client-pinned trace ID to
# span ingress, proxy hop and owner in the stitched cluster-wide tree.
# CI runs this as its own job; it is equally runnable locally.
set -euo pipefail
cd "$(dirname "$0")/.."

addr=${ADDR:-127.0.0.1:18355}
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

# A small loopy trace; big enough for non-trivial phase timings.
awk 'BEGIN {
  for (rep = 0; rep < 60; rep++)
    for (i = 0; i < 50; i++) {
      printf "2 %x\n", 4096 + i
      printf "0 %x\n", 8192 + i * 3 % 257
    }
}' > "$tmp/t.din"

"$tmp/cachedse" serve -addr "$addr" -store "$tmp/store" -log-format json \
  -profile-dir "$tmp/profiles" -profile-interval 1s &
pid=$!
for _ in $(seq 1 100); do
  curl -sf "$base/healthz" > /dev/null 2>&1 && break
  sleep 0.1
done

curl -sf "$base/healthz" | grep -q ok ||
  { echo "obs_smoke: /healthz not ok" >&2; exit 1; }
curl -sf "$base/readyz" | grep -q ok ||
  { echo "obs_smoke: /readyz not ok" >&2; exit 1; }

digest=$(curl -sf --data-binary @"$tmp/t.din" "$base/v1/traces" |
  sed -n 's/.*"digest": "\([0-9a-f]*\)".*/\1/p' | head -n 1)
[ -n "$digest" ] || { echo "obs_smoke: upload returned no digest" >&2; exit 1; }

# Async dispatch so the job (and its span tree) outlives the request.
job=$(curl -sf -X POST -d "{\"trace\":\"$digest\",\"k\":50,\"async\":true}" "$base/v1/explore" |
  sed -n 's/.*"id": "\(job-[0-9]*\)".*/\1/p' | head -n 1)
[ -n "$job" ] || { echo "obs_smoke: async explore returned no job id" >&2; exit 1; }

state=""
for _ in $(seq 1 100); do
  status=$(curl -sf "$base/v1/jobs/$job")
  state=$(echo "$status" | sed -n 's/.*"state": "\([a-z]*\)".*/\1/p' | head -n 1)
  [ "$state" = "done" ] && break
  [ "$state" = "failed" ] && { echo "obs_smoke: job failed: $status" >&2; exit 1; }
  sleep 0.1
done
[ "$state" = "done" ] || { echo "obs_smoke: job never finished (state=$state)" >&2; exit 1; }

# The finished job's status carries the phase breakdown...
echo "$status" | grep -q '"phases":' ||
  { echo "obs_smoke: job status has no trace summary: $status" >&2; exit 1; }

# ...and the trace endpoint serves the full span tree with the engine phases.
spans=$(curl -sf "$base/v1/jobs/$job/trace")
for name in '"job"' '"prelude"' '"mrct"' '"postlude"'; do
  echo "$spans" | grep -q "\"name\": $name" ||
    { echo "obs_smoke: span tree missing $name: $spans" >&2; exit 1; }
done

# Metrics exposition: the request counter must have seen our calls. The
# counters increment after the response flushes, so allow a brief retry.
counted=""
for _ in $(seq 1 20); do
  metrics=$(curl -sf "$base/metrics")
  if echo "$metrics" | grep -q 'cachedse_requests_total{endpoint="explore"'; then
    counted=yes
    break
  fi
  sleep 0.1
done
[ -n "$counted" ] || { echo "obs_smoke: /metrics never counted the explore request" >&2; exit 1; }
echo "$metrics" | grep -q '^# TYPE cachedse_requests_total counter' ||
  { echo "obs_smoke: /metrics missing requests_total TYPE line" >&2; exit 1; }
echo "$metrics" | grep -q '# {' &&
  { echo "obs_smoke: classic exposition leaked OpenMetrics exemplars" >&2; exit 1; }
# The compute pipeline times its stages: the async explore ran all five.
for stage in parse route lookup compute emit; do
  echo "$metrics" | grep -q "^cachedse_stage_duration_seconds_count{verb=\"explore\",stage=\"$stage\"} [1-9]" ||
    { echo "obs_smoke: /metrics has no explore $stage stage observation" >&2; exit 1; }
done

# Negotiated OpenMetrics: exemplar-bearing buckets and the EOF terminator.
om=$(curl -sf -H 'Accept: application/openmetrics-text' "$base/metrics")
echo "$om" | tail -n 1 | grep -q '^# EOF' ||
  { echo "obs_smoke: OpenMetrics exposition not terminated by # EOF" >&2; exit 1; }
echo "$om" | grep -q '# {trace_id="' ||
  { echo "obs_smoke: OpenMetrics exposition carries no exemplars" >&2; exit 1; }
echo "$om" | grep -q '^cachedse_stage_duration_seconds_bucket{verb="explore",.*# {trace_id="' ||
  { echo "obs_smoke: stage histogram carries no exemplars" >&2; exit 1; }

# The slow-request tail has sampled the finished job.
curl -sf "$base/v1/debug/slow" | grep -q '"trace_id"' ||
  { echo "obs_smoke: /v1/debug/slow sampled nothing" >&2; exit 1; }

# The continuous profiler (armed with a 1s interval) fills its ring.
# The CPU file is listed from the moment sampling starts; the heap
# snapshot follows once the CPU window closes, so wait for both.
profiled=""
for _ in $(seq 1 100); do
  ring=$(curl -sf "$base/v1/debug/profiles")
  if echo "$ring" | grep -q '"cpu-' && echo "$ring" | grep -q '"heap-'; then
    profiled=yes
    break
  fi
  sleep 0.2
done
[ -n "$profiled" ] || { echo "obs_smoke: profiler captured no cpu+heap snapshot pair" >&2; exit 1; }

kill -TERM "$pid"
wait "$pid" || true
pid=""

# --- three-node cluster leg -------------------------------------------
# Upload through node a, explore through each ingress with a pinned
# traceparent; whichever ingress is a non-owner must produce a stitched
# cluster-wide tree whose spans come from >= 2 nodes under one trace ID.
pa=${PORT_A:-18356}
peers="na=http://127.0.0.1:$pa,nb=http://127.0.0.1:$((pa + 1)),nc=http://127.0.0.1:$((pa + 2))"
cpids=()
cluster_cleanup() {
  for p in "${cpids[@]:-}"; do [ -n "$p" ] && kill "$p" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$tmp"
}
trap cluster_cleanup EXIT
i=0
for n in na nb nc; do
  port=$((pa + i))
  "$tmp/cachedse" serve -addr "127.0.0.1:$port" -store "$tmp/store-$n" \
    -node-id "$n" -peers "$peers" -log-format json &
  cpids+=("$!")
  i=$((i + 1))
done
for n in 0 1 2; do
  for _ in $(seq 1 100); do
    curl -sf "http://127.0.0.1:$((pa + n))/healthz" > /dev/null 2>&1 && break
    sleep 0.1
  done
done

digest=$(curl -sf --data-binary @"$tmp/t.din" "http://127.0.0.1:$pa/v1/traces" |
  sed -n 's/.*"digest": "\([0-9a-f]*\)".*/\1/p' | head -n 1)
[ -n "$digest" ] || { echo "obs_smoke: cluster upload returned no digest" >&2; exit 1; }

stitched_ok=""
multi_job=""
multi_base=""
for n in 0 1 2; do
  ingress="http://127.0.0.1:$((pa + n))"
  tid=$(printf 'c0ffee%026x' $((n + 1)))
  job=$(curl -sf -X POST -H "traceparent: 00-$tid-0000000000000000-01" \
    -d "{\"trace\":\"$digest\",\"k\":50,\"async\":true}" "$ingress/v1/explore" |
    sed -n 's/.*"id": "\(job-[0-9]*\)".*/\1/p' | head -n 1)
  [ -n "$job" ] || { echo "obs_smoke: async explore via node $n returned no job id" >&2; exit 1; }
  # Poll through the *next* node: job lookups must scatter cross-node.
  poll="http://127.0.0.1:$((pa + (n + 1) % 3))"
  state=""
  for _ in $(seq 1 100); do
    state=$(curl -sf "$poll/v1/jobs/$job" | sed -n 's/.*"state": "\([a-z]*\)".*/\1/p' | head -n 1)
    [ "$state" = "done" ] && break
    sleep 0.1
  done
  [ "$state" = "done" ] || { echo "obs_smoke: cluster job via node $n never finished" >&2; exit 1; }
  # Job counters are per-node, so the same job ID can exist on two nodes
  # and a cross-node lookup may scatter to either. Ask every node and
  # keep the answer carrying our pinned trace ID — the node that ran the
  # job serves it locally, so a match always exists.
  stitched=""
  for m in 0 1 2; do
    cand=$(curl -sf "http://127.0.0.1:$((pa + m))/v1/jobs/$job/trace?cluster=1") || continue
    if echo "$cand" | grep -q "\"trace_id\": \"$tid\""; then stitched=$cand; break; fi
  done
  [ -n "$stitched" ] ||
    { echo "obs_smoke: no node served the stitched trace for $job/$tid" >&2; exit 1; }
  span_nodes=$(echo "$stitched" | grep -o '"node": "n[abc]"' | sort -u | wc -l)
  if [ "$span_nodes" -ge 2 ] &&
     echo "$stitched" | grep -q '"name": "proxy"' &&
     echo "$stitched" | grep -q '"name": "job"'; then
    stitched_ok=yes
    # The trace CLI verb must render the same stitched tree (trace ID and
    # proxy hop) and export Chrome trace events, again from whichever
    # node resolves this job to our trace.
    cli_ok=""
    for m in 0 1 2; do
      out=$("$tmp/cachedse" trace -addr "http://127.0.0.1:$((pa + m))" -cluster \
        -chrome "$tmp/trace.json" "$job") || continue
      if echo "$out" | grep -q "trace id: $tid" && echo "$out" | grep -q 'proxy @'; then
        cli_ok=yes
        break
      fi
    done
    [ -n "$cli_ok" ] ||
      { echo "obs_smoke: cachedse trace did not render the stitched proxy hop" >&2; exit 1; }
    grep -q '"traceEvents"' "$tmp/trace.json" ||
      { echo "obs_smoke: Chrome trace export is empty" >&2; exit 1; }
    break
  fi
done
# Two owners out of three nodes: at least one ingress crossed a hop.
[ -n "$stitched_ok" ] ||
  { echo "obs_smoke: no ingress produced a multi-node stitched trace" >&2; exit 1; }

for p in "${cpids[@]}"; do kill -TERM "$p" 2>/dev/null || true; done
for p in "${cpids[@]}"; do wait "$p" 2>/dev/null || true; done
cpids=()
echo "obs_smoke: OK — probes, metrics, exemplars, profiler, job trace and cluster stitching all answered"
