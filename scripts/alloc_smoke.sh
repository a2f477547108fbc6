#!/usr/bin/env bash
# alloc_smoke.sh — allocation regression gate for the zero-allocation
# data plane.
#
# Three checks:
#   1. The core package's testing.AllocsPerRun gates: steady-state
#      Explore (sized and streaming sources) must allocate only the
#      Result envelope once the scratch pool is warm.
#   2. A locked allocs/op threshold on BenchmarkTable31/compress, the
#      largest Table 31 workload. The pre-pooling engine allocated
#      ~98,000 objects per exploration there; the pooled engine sits
#      around 25. The engine's scratch lives in a sync.Pool, which a
#      collection mid-run empties: a run that rebuilds it reads ~175. An
#      engine that takes a fresh scratch per exploration, bypassing the
#      pool, reads ~456. The threshold (default 250, override via
#      MAX_ALLOCS) sits between the two, so a pool a collection emptied
#      passes and a bypassed pool fails. The gate reads the minimum over
#      five runs, the figure of a run whose pool survived.
#   3. The bytes one dse.ExploreSpace of the fir mixed stream allocates
#      at GOMAXPROCS 1 (dse.TestExploreSpaceAllocBytes), the figure
#      space-default's heap_peak_mb adds to the live heap. Split L1
#      streams and L2 streams grown by append allocated 20.5 MB; exactly
#      sized ones allocate 7.6 MB, the direct-mapped miss lists included.
#      The test's bound, 11 MiB, sits between the two.
#
# CI runs this as the alloc-smoke job; it is equally runnable locally.
set -euo pipefail
cd "$(dirname "$0")/.."

max_allocs=${MAX_ALLOCS:-250}
runs=5

echo "alloc_smoke: AllocsPerRun gates"
go test ./internal/core -run 'TestAllocsSteadyState' -count=1 -v

echo "alloc_smoke: benchmark threshold (min allocs/op over $runs runs <= $max_allocs)"
out=$(go test -run '^$' -bench 'BenchmarkTable31/compress' -benchtime 3x -benchmem -count "$runs" .)
echo "$out"
allocs=$(echo "$out" | awk '
  $1 ~ /^BenchmarkTable31\/compress/ {
    for (f = 3; f + 1 <= NF; f++) if ($(f + 1) == "allocs/op") {
      if (min == "" || $f + 0 < min + 0) min = $f
      n++
    }
  }
  END { if (n == '"$runs"') print min }')
[ -n "$allocs" ] ||
  { echo "alloc_smoke: want $runs allocs/op figures in benchmark output" >&2; exit 1; }
if [ "$allocs" -gt "$max_allocs" ]; then
  echo "alloc_smoke: FAIL — $allocs allocs/op exceeds threshold $max_allocs" >&2
  exit 1
fi
echo "alloc_smoke: OK — $allocs allocs/op (threshold $max_allocs)"

echo "alloc_smoke: space-mode allocation gate"
go test ./internal/dse -run 'TestExploreSpaceAllocBytes' -count=1 -v
echo "alloc_smoke: OK — space-mode allocation within its bound"
