package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/example/cachedse/internal/cache"
	"github.com/example/cachedse/internal/trace"
	"github.com/example/cachedse/internal/tracestore"
)

func TestParseInts(t *testing.T) {
	got, err := parseInts("1, 2,4")
	if err != nil || len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 4 {
		t.Fatalf("parseInts = %v, %v", got, err)
	}
	if _, err := parseInts("1,x"); err == nil {
		t.Fatal("bad list accepted")
	}
}

// loadTrace auto-detects binary vs text by magic.
func TestLoadTraceAutodetect(t *testing.T) {
	dir := t.TempDir()
	tr := trace.FromAddrs(trace.DataRead, []uint32{1, 2, 3, 1})

	textPath := filepath.Join(dir, "t.din")
	f, err := os.Create(textPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteText(f, tr); err != nil {
		t.Fatal(err)
	}
	f.Close()

	binPath := filepath.Join(dir, "t.ctr")
	f, err = os.Create(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteBinary(f, tr); err != nil {
		t.Fatal(err)
	}
	f.Close()

	for _, path := range []string{textPath, binPath} {
		got, err := loadTrace(path)
		if err != nil {
			t.Fatalf("loadTrace(%s): %v", path, err)
		}
		if got.Len() != 4 || got.Refs[3].Addr != 1 {
			t.Fatalf("loadTrace(%s) = %+v", path, got.Refs)
		}
	}
	if _, err := loadTrace(filepath.Join(dir, "missing.din")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// The subcommand entry points run end to end against a real trace file.
func TestSubcommandsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	tr := trace.New(0)
	for rep := 0; rep < 20; rep++ {
		for i := uint32(0); i < 24; i++ {
			k := trace.DataRead
			if i%5 == 0 {
				k = trace.DataWrite
			}
			tr.Append(trace.Ref{Addr: i * 3, Kind: k})
		}
	}
	path := filepath.Join(dir, "w.din")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteText(f, tr); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Silence stdout during the run.
	old := os.Stdout
	null, _ := os.Open(os.DevNull)
	devnull, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	os.Stdout = devnull
	defer func() { os.Stdout = old; null.Close(); devnull.Close() }()

	cases := []struct {
		name string
		run  func() error
	}{
		{"stats", func() error { return cmdStats([]string{path}) }},
		{"strip", func() error { return cmdStrip([]string{"-n", "5", path}) }},
		{"explore", func() error { return cmdExplore([]string{"-kpct", "10", "-verify", path}) }},
		{"explore pareto", func() error { return cmdExplore([]string{"-k", "3", "-pareto", path}) }},
		{"explore fifo", func() error {
			return cmdExplore([]string{"-k", "3", "-policy", "fifo", "-max-assoc", "2", path})
		}},
		{"explore space", func() error {
			return cmdExplore([]string{"-levels", "2", "-policy", "lru,plru", "-maxdepth", "8", "-max-assoc", "2", path})
		}},
		{"explore space csv", func() error {
			return cmdExplore([]string{"-policy", "lru,fifo", "-tech", "sram,nvm-hybrid", "-front", "csv", "-maxdepth", "8", path})
		}},
		{"simulate", func() error { return cmdSimulate([]string{"-depth", "8", "-assoc", "2", path}) }},
		{"simulate plru wt", func() error {
			return cmdSimulate([]string{"-depth", "8", "-repl", "plru", "-wt", path})
		}},
		{"verify", func() error { return cmdVerify([]string{"-k", "1000", path, "8:2", "16:1"}) }},
		{"energy", func() error { return cmdEnergy([]string{"-k", "10", path}) }},
		{"dedup", func() error { return cmdDedup([]string{"-o", filepath.Join(dir, "out.din"), path}) }},
		{"profile", func() error { return cmdProfile([]string{"-windows", "8,32", path}) }},
		{"pack", func() error { return cmdPack([]string{"-o", filepath.Join(dir, "w.ctz"), path}) }},
		{"unpack packed", func() error {
			return cmdUnpack([]string{"-o", filepath.Join(dir, "w2.din"), filepath.Join(dir, "w.ctz")})
		}},
		{"stats packed", func() error { return cmdStats([]string{filepath.Join(dir, "w.ctz")}) }},
		{"pack to store", func() error {
			return cmdPack([]string{"-o", os.DevNull, "-store", filepath.Join(dir, "store"), path})
		}},
	}
	for _, c := range cases {
		if err := c.run(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}

	// unpack(pack(t)) reproduced the original din text byte for byte.
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	again, err := os.ReadFile(filepath.Join(dir, "w2.din"))
	if err != nil {
		t.Fatal(err)
	}
	if string(orig) != string(again) {
		t.Errorf("unpack(pack(w.din)) differs from w.din (%d vs %d bytes)", len(orig), len(again))
	}

	// explore/simulate -store resolve the packed trace straight from the
	// store, by full key, bare digest, or unique digest prefix.
	storeDir := filepath.Join(dir, "store")
	st, err := tracestore.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	stored := st.List("trace/")
	if len(stored) != 1 {
		t.Fatalf("store holds %d traces, want 1", len(stored))
	}
	digest := strings.TrimPrefix(stored[0].Key, "trace/")
	for _, arg := range []string{stored[0].Key, digest, digest[:10]} {
		if err := cmdExplore([]string{"-k", "3", "-store", storeDir, arg}); err != nil {
			t.Errorf("explore -store with arg %q: %v", arg, err)
		}
	}
	if err := cmdSimulate([]string{"-depth", "8", "-store", storeDir, digest}); err != nil {
		t.Errorf("simulate -store: %v", err)
	}
	if err := cmdExplore([]string{"-k", "3", "-store", storeDir, "ffff"}); err == nil {
		t.Error("explore -store with an unknown digest succeeded")
	}

	// -sample answers a trace file exactly: the exact run's table under
	// one line that says so. -sample-floor is gone: an unknown flag (exit 2).
	exactOut, err := captureStdout(t, func() error { return cmdExplore([]string{"-k", "3", path}) })
	if err != nil {
		t.Fatal(err)
	}
	sampledOut, err := captureStdout(t, func() error { return cmdExplore([]string{"-k", "3", "-sample", "0.5", path}) })
	if err != nil {
		t.Fatalf("explore -sample 0.5: %v", err)
	}
	if header, table, _ := strings.Cut(sampledOut, "\n"); !strings.Contains(header, "result is exact") || table != exactOut {
		t.Errorf("explore -sample 0.5 printed:\n%s\nwant one exact-result line over the exact table:\n%s", sampledOut, exactOut)
	}
	captureStderr(t, func() { err = cmdExplore([]string{"-k", "3", "-sample-floor", "-1", path}) })
	if !errors.Is(err, errUsage) {
		t.Errorf("explore -sample-floor -1: err = %v, want errUsage", err)
	}

	// Error paths.
	bad := []struct {
		name string
		run  func() error
	}{
		{"stats no file", func() error { return cmdStats(nil) }},
		{"explore no budget", func() error { return cmdExplore([]string{path}) }},
		{"explore bad policy", func() error { return cmdExplore([]string{"-k", "3", "-policy", "mru", path}) }},
		{"explore bad levels", func() error { return cmdExplore([]string{"-k", "3", "-levels", "3", path}) }},
		{"explore bad front", func() error { return cmdExplore([]string{"-k", "3", "-front", "xml", path}) }},
		{"explore bad tech", func() error { return cmdExplore([]string{"-tech", "dram", path}) }},
		{"explore fifo verify", func() error {
			return cmdExplore([]string{"-k", "3", "-policy", "fifo", "-verify", path})
		}},
		{"explore space verify", func() error { return cmdExplore([]string{"-levels", "2", "-verify", path}) }},
		{"explore space sampled", func() error {
			return cmdExplore([]string{"-levels", "2", "-sample", "0.5", path})
		}},
		{"simulate bad repl", func() error { return cmdSimulate([]string{"-repl", "zzz", path}) }},
		{"verify bad instance", func() error { return cmdVerify([]string{"-k", "0", path, "whoops"}) }},
		{"verify violated", func() error { return cmdVerify([]string{"-k", "0", path, "1:1"}) }},
	}
	for _, c := range bad {
		if err := c.run(); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// TestSimulatePolicyNamesMatchExplore: simulate -repl accepts exactly the
// policy names explore -policy accepts.
func TestSimulatePolicyNamesMatchExplore(t *testing.T) {
	tr := trace.New(0)
	for i := uint32(0); i < 64; i++ {
		tr.Append(trace.Ref{Addr: i % 24, Kind: trace.DataRead})
	}
	path := filepath.Join(t.TempDir(), "w.din")
	var buf bytes.Buffer
	if err := trace.WriteText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	devnull, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	os.Stdout = devnull
	defer func() { os.Stdout = old; devnull.Close() }()
	for _, name := range []string{"lru", "FIFO", "random", "rand", "plru", "tree-plru", "mru", "zzz"} {
		simErr := cmdSimulate([]string{"-depth", "8", "-repl", name, path})
		expErr := cmdExplore([]string{"-k", "3", "-policy", name, "-maxdepth", "8", "-max-assoc", "2", path})
		if (simErr == nil) != (expErr == nil) {
			t.Errorf("policy %q: simulate error %v, explore error %v", name, simErr, expErr)
		}
	}
}

// captureStderr runs fn with os.Stderr redirected and returns what it wrote.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stderr
	os.Stderr = w
	defer func() { os.Stderr = old }()
	fn()
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// Flag errors are normalised so main can pick exit codes: -h maps to
// flag.ErrHelp (exit 0), any other parse failure to errUsage (exit 2) —
// after the subcommand's own usage has been printed.
func TestParseFlagsErrorMapping(t *testing.T) {
	mkFS := func() *flag.FlagSet {
		fs := newFlagSet("demo", "demo [-x] TRACE")
		fs.Bool("x", false, "an example flag")
		return fs
	}

	var err error
	out := captureStderr(t, func() { err = parseFlags(mkFS(), []string{"-h"}) })
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: err = %v, want flag.ErrHelp", err)
	}
	if !strings.Contains(out, "usage: cachedse demo [-x] TRACE") || !strings.Contains(out, "an example flag") {
		t.Fatalf("-h printed:\n%s", out)
	}

	out = captureStderr(t, func() { err = parseFlags(mkFS(), []string{"-bogus"}) })
	if !errors.Is(err, errUsage) {
		t.Fatalf("unknown flag: err = %v, want errUsage", err)
	}
	if !strings.Contains(out, "usage: cachedse demo [-x] TRACE") {
		t.Fatalf("unknown flag printed the wrong usage:\n%s", out)
	}

	if err = parseFlags(mkFS(), []string{"-x", "t.din"}); err != nil {
		t.Fatalf("valid flags: %v", err)
	}
}

// Every subcommand must report unknown flags through its own usage text
// (not the global one) and surface errUsage for the exit-2 path.
func TestSubcommandsUnknownFlag(t *testing.T) {
	for name, cmd := range verbs {
		var err error
		out := captureStderr(t, func() { err = cmd([]string{"-definitely-not-a-flag"}) })
		if !errors.Is(err, errUsage) {
			t.Errorf("%s: err = %v, want errUsage", name, err)
		}
		if !strings.Contains(out, "usage: cachedse "+name) {
			t.Errorf("%s: unknown flag printed:\n%s", name, out)
		}
	}
}

// usage names every verb main dispatches on.
func TestUsageListsServe(t *testing.T) {
	out := strings.Fields(captureStderr(t, usage))
	for name := range verbs {
		if !slices.Contains(out, name) {
			t.Errorf("usage() missing %q:\n%s", name, strings.Join(out, " "))
		}
	}
}

// A single non-LRU policy enters design-space mode, and every row of the
// front is the exact simulated miss count of its configuration. On the
// hot/cold trace 0,1,0,2,…,0,200 FIFO is not a stack algorithm: its misses
// keep falling past LRU's A_zero of 2, so the 4-way cell (201 cold + 49)
// must be reported, not clamped to the 2-way count.
func TestExploreFIFOMatchesSimulation(t *testing.T) {
	addrs := make([]uint32, 0, 400)
	for i := uint32(1); i <= 200; i++ {
		addrs = append(addrs, 0, i)
	}
	tr := trace.FromAddrs(trace.DataRead, addrs)
	path := filepath.Join(t.TempDir(), "hotcold.din")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteText(f, tr); err != nil {
		t.Fatal(err)
	}
	f.Close()

	out, err := captureStdout(t, func() error {
		return cmdExplore([]string{"-k", "50", "-policy", "fifo", "-maxdepth", "1", "-max-assoc", "8", path})
	})
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile(`^L1 D=(\d+) A=(\d+) lw=(\d+) fifo sram\s+(\d+)\s`)
	rows, sawA4 := 0, false
	for _, line := range strings.Split(out, "\n") {
		m := row.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		depth, _ := strconv.Atoi(m[1])
		assoc, _ := strconv.Atoi(m[2])
		lw, _ := strconv.Atoi(m[3])
		misses, _ := strconv.Atoi(m[4])
		sim, err := cache.Simulate(cache.Config{Depth: depth, Assoc: assoc, LineWords: lw, Repl: cache.FIFO}, tr)
		if err != nil {
			t.Fatal(err)
		}
		if want := sim.ColdMisses + sim.Misses; misses != want {
			t.Errorf("D=%d A=%d: printed %d misses, simulated %d", depth, assoc, misses, want)
		}
		if assoc == 4 && misses == 250 {
			sawA4 = true
		}
		rows++
	}
	if rows == 0 || !sawA4 {
		t.Fatalf("want FIFO front rows including D=1 A=4 with 250 misses; got:\n%s", out)
	}
}
