package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/example/cachedse/internal/trace"
	"github.com/example/cachedse/internal/tracegen"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// streamGoldenSeeds are the sample seeds the stream-mode golden pins.
var streamGoldenSeeds = []uint64{1, 3, 5, 7, 9}

// TestStreamSampledGolden pins stream-mode sampled exploration end to
// end: the 400 000-reference Zipf(1.2) trace decoded from its ctz1 image,
// explored at MaxDepth 256 and SampleRate 0.1 under five fixed seeds.
// The golden holds, per seed, the estimate's scalars, a readable summary
// of every level and SHA-256 digests of each rescaled histogram, of the
// raw sampled histograms and of the whole core.Result as JSON, so any
// change to the filter, the engine or the estimator (stretch, occupancy
// weights, binomial deconvolution) that moves a single count shows up
// here, and the summary says which level moved. Regenerate with -update
// only for a deliberate change of answers.
func TestStreamSampledGolden(t *testing.T) {
	var img bytes.Buffer
	tr := tracegen.Zipf(rand.New(rand.NewSource(17)), 0x1000, 40000, 400000, 1.2)
	if err := trace.WriteCTZ1(&img, tr); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, seed := range streamGoldenSeeds {
		dec, err := trace.NewCTZ1BytesDecoder(img.Bytes(), trace.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Explore(context.Background(), dec, Options{MaxDepth: 256, SampleRate: 0.1, SampleSeed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		writeStreamGolden(t, &got, seed, res)
	}

	path := filepath.Join("testdata", "stream_zipf.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create it): %v", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			w := "<missing>"
			if i < len(wl) {
				w = wl[i]
			}
			t.Fatalf("stream-mode result drifted from %s at line %d:\ngot:  %s\nwant: %s", path, i+1, gl[i], w)
		}
	}
	t.Fatalf("%s has %d lines, the run produced %d", path, len(wl), len(gl))
}

// writeStreamGolden renders one seed's result for the golden.
func writeStreamGolden(t *testing.T, w *bytes.Buffer, seed uint64, res *Result) {
	t.Helper()
	est := res.Sample
	if est == nil {
		t.Fatalf("seed %d: sampled result has no estimate", seed)
	}
	fmt.Fprintf(w, "seed %d N %d NUnique %d mode %s kept_refs %d dropped_refs %d kept_unique %d scale %v stretch %v\n",
		seed, res.N, res.NUnique, est.Mode, est.KeptRefs, est.DroppedRefs, est.KeptUnique, est.Scale, est.Stretch)
	for i, l := range res.Levels {
		mass := 0
		for _, c := range l.Hist {
			mass += c
		}
		fmt.Fprintf(w, "  L%d depth %d azero %d len %d mass %d misses", i, l.Depth, l.AZero, len(l.Hist), mass)
		for a := 1; a <= 16; a <<= 1 {
			fmt.Fprintf(w, " %d", l.Misses(a))
		}
		fmt.Fprintf(w, " sha256 %s\n", digestJSON(t, l.Hist))
	}
	fmt.Fprintf(w, "  raw_hist sha256 %s\n", digestJSON(t, est.RawHist))
	fmt.Fprintf(w, "  result sha256 %s\n", digestJSON(t, res))
}

func digestJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
