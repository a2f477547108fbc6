package experiments

import (
	"strconv"
	"strings"
	"testing"

	"github.com/example/cachedse/internal/cache"
	"github.com/example/cachedse/internal/trace"
)

func TestPolicyTableShape(t *testing.T) {
	s := loadSuite(t)
	tab, err := s.PolicyTable(Data, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 12 || len(tab.Headers) != 5 {
		t.Fatalf("table shape %dx%d", len(tab.Rows), len(tab.Headers))
	}
	// Spot-check one cell against a direct simulation.
	tr := s.Get("crc").Data
	res, err := cache.Simulate(cache.Config{Depth: 32, Assoc: 4, Repl: cache.LRU}, tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[0] == "crc" {
			if row[1] != strconv.Itoa(res.Misses) {
				t.Fatalf("crc LRU cell = %s, want %d", row[1], res.Misses)
			}
			return
		}
	}
	t.Fatal("crc row missing")
}

func TestPolicyTableBadConfig(t *testing.T) {
	s := loadSuite(t)
	if _, err := s.PolicyTable(Data, 3, 1); err == nil {
		t.Fatal("bad depth accepted")
	}
}

func TestEnergyTableBudgetsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("energy sweep in short mode")
	}
	s := loadSuite(t)
	tab, err := s.EnergyTable(Data, 8192, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 12 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	// Each chosen instance must meet its K under simulation.
	for _, row := range tab.Rows {
		name := row[0]
		k, _ := strconv.Atoi(row[1])
		lw, _ := strconv.Atoi(row[2])
		depth, _ := strconv.Atoi(row[3])
		assoc, _ := strconv.Atoi(row[4])
		tr := s.Get(name).Data
		res, err := cache.Simulate(cache.Config{Depth: depth, Assoc: assoc, LineWords: lw}, tr)
		if err != nil {
			t.Fatal(err)
		}
		if res.Misses > k {
			t.Errorf("%s: chosen D=%d A=%d L=%d misses %d > K=%d", name, depth, assoc, lw, res.Misses, k)
		}
	}
}

func TestLoadCompiledSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("compiled suite in short mode")
	}
	cs, err := LoadCompiled()
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Sets) != 12 || cs.Variant != "compiled" {
		t.Fatalf("compiled suite: %d sets, variant %q", len(cs.Sets), cs.Variant)
	}
	// Compiled traces dwarf the hand-assembly ones.
	hs := loadSuite(t)
	for _, ts := range cs.Sets {
		hand := hs.Get(ts.Name)
		if ts.Instr.Len() <= hand.Instr.Len() {
			t.Errorf("%s: compiled instr trace %d <= hand %d", ts.Name, ts.Instr.Len(), hand.Instr.Len())
		}
	}
	// Table titles drop paper numbering on the variant suite.
	tab, err := cs.StatsTable(Data)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(tab.Title, "Table 5") || !strings.Contains(tab.Title, "compiled") {
		t.Fatalf("variant title = %q", tab.Title)
	}
	or, err := cs.Optimal("crc", Data)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(or.Table.Title, "Table 11") {
		t.Fatalf("variant optimal title = %q", or.Table.Title)
	}
	// The exactness guarantee holds on compiled traces too.
	if err := cs.VerifyOptimal("crc", Data, or); err != nil {
		t.Fatal(err)
	}
}

func TestCompilerTable(t *testing.T) {
	if testing.Short() {
		t.Skip("compiler table in short mode")
	}
	s := loadSuite(t)
	tab, err := s.CompilerTable()
	if err != nil {
		t.Fatal(err)
	}
	// Every compiled kernel contributes a hand and a compiled row.
	if len(tab.Rows)%2 != 0 || len(tab.Rows) < 2 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	for i := 0; i < len(tab.Rows); i += 2 {
		if tab.Rows[i][1] != "hand" || tab.Rows[i+1][1] != "compiled" {
			t.Fatalf("row pairing broken at %d: %v", i, tab.Rows[i])
		}
		handN, _ := strconv.Atoi(tab.Rows[i][2])
		compN, _ := strconv.Atoi(tab.Rows[i+1][2])
		if compN <= handN {
			t.Errorf("%s: compiled N %d <= hand N %d", tab.Rows[i][0], compN, handN)
		}
	}
}

func TestDedupTableConsistency(t *testing.T) {
	s := loadSuite(t)
	tab := s.DedupTable(Data)
	for _, row := range tab.Rows {
		n, _ := strconv.Atoi(row[1])
		reduced, _ := strconv.Atoi(row[2])
		if reduced > n {
			t.Errorf("%s: reduced %d > original %d", row[0], reduced, n)
		}
		tr := s.Get(row[0]).Data
		got, removed := trace.Dedup(tr)
		if got.Len() != reduced || removed != n-reduced {
			t.Errorf("%s: table disagrees with Dedup", row[0])
		}
	}
}
