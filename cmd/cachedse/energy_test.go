package main

import (
	"flag"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/example/cachedse/internal/trace"
	"github.com/example/cachedse/internal/tracegen"
)

var update = flag.Bool("update", false, "rewrite golden files")

// captureStdout runs fn with os.Stdout redirected and returns what it
// wrote.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		out, _ := io.ReadAll(r)
		done <- out
	}()
	ferr := fn()
	os.Stdout = old
	w.Close()
	return string(<-done), ferr
}

// energyFixture is a deterministic mixed workload: a Zipf-skewed hot set,
// then a loop walking three arrays 4096 words apart in lock step, so line
// size, depth and associativity all move the energy optimum.
func energyFixture(t *testing.T) string {
	t.Helper()
	tr := tracegen.Zipf(rand.New(rand.NewSource(5)), 0x400, 512, 6000, 1.2)
	for iter := 0; iter < 30; iter++ {
		for i := uint32(0); i < 64; i++ {
			for _, base := range []uint32{0x10000, 0x11000, 0x12000} {
				tr.Append(trace.Ref{Addr: base + i, Kind: trace.DataRead})
			}
		}
	}
	path := filepath.Join(t.TempDir(), "energy.din")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := trace.WriteText(f, tr); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestEnergyGolden pins the energy verb's output byte for byte on a
// fixed workload at several budgets, capacities and penalties.
// Regenerate intentionally with:
//
//	go test ./cmd/cachedse -run EnergyGolden -update
func TestEnergyGolden(t *testing.T) {
	path := energyFixture(t)
	runs := [][]string{
		{"-k", "200"},
		{"-k", "400", "-cap", "256", "-penalty", "50"},
		{"-k", "1000", "-lines", "1,2,4,8", "-penalty", "20000"},
		{"-k", "300", "-lines", "1", "-cap", "256"},
		{"-k", "50", "-lines", "1,2"},
	}
	var b strings.Builder
	for _, args := range runs {
		out, err := captureStdout(t, func() error { return cmdEnergy(append(args, path)) })
		if err != nil {
			t.Fatalf("energy %v: %v", args, err)
		}
		b.WriteString("$ cachedse energy " + strings.Join(args, " ") + "\n" + out)
	}
	golden := filepath.Join("testdata", "energy.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("energy output drifted from %s.\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}
