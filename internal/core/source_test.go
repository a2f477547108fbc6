package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"github.com/example/cachedse/internal/powerstone"
	"github.com/example/cachedse/internal/trace"
)

// TestStrippedSourceMatchesTrace: a strip handed to Explore answers
// exactly as the trace it was made from, at every worker count and under
// a sample rate.
func TestStrippedSourceMatchesTrace(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"crc", "fir", "qurt"} {
		res, err := powerstone.Get(name).Run()
		if err != nil {
			t.Fatal(err)
		}
		tr := res.Data
		for _, opts := range []Options{
			{Workers: 1},
			{Workers: 2},
			{Workers: 4},
			{SampleRate: 0.1, SampleSeed: 7},
		} {
			want, err := Explore(ctx, tr, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Explore(ctx, trace.Strip(tr), opts)
			if err != nil {
				t.Fatal(err)
			}
			if opts.SampleRate != 0 && (got.Sample == nil || !got.Sample.Exact()) {
				t.Fatalf("%s %+v: strip source's sampled answer is not exact: %+v", name, opts, got.Sample)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %+v: strip source %+v, trace source %+v", name, opts, got, want)
			}
		}
	}
}

// TestNilStrippedSource: a nil strip is a typed error in both modes, not
// a panic.
func TestNilStrippedSource(t *testing.T) {
	for _, opts := range []Options{{}, {SampleRate: 0.5}} {
		_, err := Explore(context.Background(), (*trace.Stripped)(nil), opts)
		if err == nil || !strings.Contains(err.Error(), "nil *trace.Stripped") {
			t.Errorf("%+v: Explore(nil strip) = %v, want the nil *trace.Stripped error", opts, err)
		}
	}
}
