// Command chaosload drives a (typically fault-injected) cachedse server
// with concurrent exploration load through the retrying pkg/client SDK
// and verifies every answer against a locally computed ground truth.
//
// It is the client half of the chaos smoke test: the server is started
// with `cachedse serve -faults ...`, then chaosload hammers it and exits
// non-zero if any request ultimately fails, any answer deviates from the
// analytical ground truth, or the run sees a smaller-than-expected
// success count. Exit code 0 means: under injected faults, retries hid
// every transient and no wrong answer escaped.
//
// Against a cluster, pass every node in -addrs and requests round-robin
// across members — exercising the any-node-ingress forwarding path — while
// the bit-identical check stays exactly as strict as the single-node one.
//
// Usage:
//
//	chaosload -addr http://127.0.0.1:8344 -n 64 -concurrency 8 -refs 4000
//	chaosload -addrs http://127.0.0.1:8344,http://127.0.0.1:8345 -n 64
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/example/cachedse/internal/core"
	"github.com/example/cachedse/internal/dse"
	"github.com/example/cachedse/internal/trace"
	"github.com/example/cachedse/pkg/client"
)

// percentile reads the q-quantile from a sorted latency slice using the
// nearest-rank method — exact for the small sample counts chaosload runs.
func percentile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / float64(time.Millisecond)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "chaosload:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "http://127.0.0.1:8344", "server base URL")
	addrs := flag.String("addrs", "", "comma-separated node base URLs; requests round-robin across them (overrides -addr)")
	n := flag.Int("n", 64, "number of explorations to issue")
	concurrency := flag.Int("concurrency", 8, "concurrent requests")
	refs := flag.Int("refs", 4000, "synthetic trace length")
	seed := flag.Int64("seed", 11, "synthetic trace seed")
	attempts := flag.Int("attempts", 12, "client retry attempts per request")
	timeout := flag.Duration("timeout", 2*time.Minute, "overall run deadline")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	bases := []string{*addr}
	if *addrs != "" {
		bases = bases[:0]
		for _, a := range strings.Split(*addrs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				bases = append(bases, strings.TrimRight(a, "/"))
			}
		}
		if len(bases) == 0 {
			return fmt.Errorf("-addrs: no usable base URLs")
		}
	}
	retry := client.WithRetry(client.RetryPolicy{
		MaxAttempts: *attempts,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    500 * time.Millisecond,
	})
	clients := make([]*client.Client, len(bases))
	for i, b := range bases {
		clients[i] = client.New(b, retry)
	}
	c := clients[0]

	// Synthetic trace: loopy with a random tail, same recipe as the
	// server's tests so behavior is representative.
	rng := rand.New(rand.NewSource(*seed))
	tr := trace.New(*refs)
	for i := 0; i < *refs; i++ {
		kind := trace.DataRead
		if i%7 == 0 {
			kind = trace.DataWrite
		}
		tr.Append(trace.Ref{Addr: rng.Uint32() % (1 << 10), Kind: kind})
	}
	var din bytes.Buffer
	if err := trace.WriteText(&din, tr); err != nil {
		return err
	}

	info, err := c.UploadTrace(ctx, din.Bytes())
	if err != nil {
		return fmt.Errorf("upload: %w", err)
	}
	fmt.Printf("chaosload: uploaded trace %s (n=%d unique=%d)\n", info.Digest, info.N, info.NUnique)

	// Ground truth computed locally with the same analytical engine the
	// server runs; any divergence is a correctness bug, not noise.
	res, err := core.Explore(ctx, tr, core.Options{})
	if err != nil {
		return fmt.Errorf("local ground truth: %w", err)
	}
	stats := trace.ComputeStats(tr)

	var ok, degraded, failed atomic.Int64
	var firstErr atomic.Value
	latencies := make([]time.Duration, *n)
	sem := make(chan struct{}, *concurrency)
	var wg sync.WaitGroup
	for i := 0; i < *n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			k := 1 + (i*13)%max(stats.MaxMisses, 2)
			t0 := time.Now()
			resp, err := clients[i%len(clients)].Explore(ctx, client.ExploreRequest{Trace: info.Digest, K: &k})
			latencies[i] = time.Since(t0)
			if err != nil {
				failed.Add(1)
				firstErr.CompareAndSwap(nil, fmt.Errorf("explore k=%d: %w", k, err))
				return
			}
			if resp.Degraded {
				degraded.Add(1)
			}
			want, _ := dse.InstanceTable(res, k, stats.MaxMisses, false)
			if len(resp.Instances) != len(want) {
				failed.Add(1)
				firstErr.CompareAndSwap(nil, fmt.Errorf("explore k=%d: %d instances, want %d", k, len(resp.Instances), len(want)))
				return
			}
			for j, ins := range resp.Instances {
				exp := client.Instance{
					Depth:     want[j].Depth,
					Assoc:     want[j].Assoc,
					SizeWords: want[j].SizeWords(),
					Misses:    res.Level(want[j].Depth).Misses(want[j].Assoc),
				}
				if !reflect.DeepEqual(ins, exp) {
					failed.Add(1)
					firstErr.CompareAndSwap(nil, fmt.Errorf("explore k=%d instance %d = %+v, want %+v", k, j, ins, exp))
					return
				}
			}
			ok.Add(1)
		}(i)
	}
	wg.Wait()

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	fmt.Printf("chaosload: %d ok (%d degraded), %d failed of %d across %d node(s); p50=%.1fms p95=%.1fms p99=%.1fms\n",
		ok.Load(), degraded.Load(), failed.Load(), *n, len(bases),
		percentile(latencies, 0.50), percentile(latencies, 0.95), percentile(latencies, 0.99))
	if failed.Load() > 0 {
		return firstErr.Load().(error)
	}
	if ok.Load() != int64(*n) {
		return fmt.Errorf("accounting mismatch: ok=%d n=%d", ok.Load(), *n)
	}
	return nil
}
