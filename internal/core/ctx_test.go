package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/example/cachedse/internal/trace"
)

// bigTrace builds a trace large enough that a full exploration takes
// meaningfully longer than the cancellation latency.
func bigTrace(n int, addrSpace uint32) *trace.Trace {
	rng := rand.New(rand.NewSource(7))
	t := trace.New(n)
	for i := 0; i < n; i++ {
		t.Append(trace.Ref{Addr: rng.Uint32() % addrSpace, Kind: trace.DataRead})
	}
	return t
}

func TestExploreContextPreCanceled(t *testing.T) {
	tr := trace.FromAddrs(trace.DataRead, []uint32{1, 2, 3, 1, 2, 3})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Explore(ctx, tr, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Explore on cancelled ctx: err = %v, want Canceled", err)
	}
	s := trace.Strip(tr)
	if _, err := BuildMRCTContext(ctx, s); !errors.Is(err, context.Canceled) {
		t.Fatalf("BuildMRCTContext on cancelled ctx: err = %v, want Canceled", err)
	}
}

// Cancelling mid-run must abandon the exploration promptly with ctx.Err()
// rather than completing it; this is the worker-stops guarantee the HTTP
// service's job cancellation relies on.
func TestExploreContextCancelMidRun(t *testing.T) {
	t.Run("serial", func(t *testing.T) {
		tr := bigTrace(120_000, 1<<14)
		ctx, cancel := context.WithCancel(context.Background())
		type out struct {
			r   *Result
			err error
		}
		ch := make(chan out, 1)
		go func() {
			r, err := Explore(ctx, tr, Options{})
			ch <- out{r, err}
		}()
		cancel()
		select {
		case o := <-ch:
			if !errors.Is(o.err, context.Canceled) {
				t.Fatalf("err = %v, want Canceled", o.err)
			}
			if o.r != nil {
				t.Fatalf("cancelled run returned a result")
			}
		case <-time.After(30 * time.Second):
			t.Fatal("cancelled exploration did not return")
		}
	})

	// A context that expires partway through the depth-first walk must
	// stop the walk itself, not only the checks on entry.
	t.Run("mid-walk", func(t *testing.T) {
		s := trace.Strip(bigTrace(4_000, 1<<9))
		src := Prelude{Stripped: s, MRCT: BuildMRCT(s)}
		full := &expiringCtx{Context: context.Background(), after: -1}
		if _, err := Explore(full, src, Options{}); err != nil {
			t.Fatal(err)
		}
		calls := full.calls
		if calls < 8 {
			t.Fatalf("the postlude consulted ctx %d times, too few to expire it mid-walk", calls)
		}
		mid := &expiringCtx{Context: context.Background(), after: calls / 2}
		r, err := Explore(mid, src, Options{})
		if !errors.Is(err, context.Canceled) || r != nil {
			t.Fatalf("ctx expired after %d of %d checks: result %v, err %v; want no result and Canceled", calls/2, calls, r, err)
		}
	})
}

// expiringCtx reports Canceled from Err once Err has been called more
// than after times (never when after < 0), and counts the calls. It lets
// a test expire a context at a chosen point of a single-goroutine walk.
type expiringCtx struct {
	context.Context
	after, calls int
}

func (c *expiringCtx) Err() error {
	c.calls++
	if c.after >= 0 && c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// The engine must be safe for concurrent use over shared traces and
// shared prelude structures: the serving layer runs many explorations at
// once. Exercised under -race in CI.
func TestExploreConcurrentUse(t *testing.T) {
	tr := bigTrace(4_000, 1<<9)
	want, err := Explore(context.Background(), tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := trace.Strip(tr)
	m := BuildMRCT(s)

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var got *Result
			var err error
			if g%2 == 0 {
				got, err = Explore(context.Background(), tr, Options{})
			} else {
				got, err = Explore(context.Background(), Prelude{Stripped: s, MRCT: m}, Options{})
			}
			if err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(got.Levels, want.Levels) {
				errs <- errors.New("concurrent exploration diverged from serial result")
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
