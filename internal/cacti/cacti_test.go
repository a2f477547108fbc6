package cacti

import (
	"testing"
	"testing/quick"

	"github.com/example/cachedse/internal/cache"
)

func mustModel(t *testing.T, cfg cache.Config) Estimate {
	t.Helper()
	e, err := Model(cfg, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestModelRejectsBadConfig(t *testing.T) {
	if _, err := Model(cache.Config{Depth: 3, Assoc: 1}, DefaultParams()); err == nil {
		t.Fatal("bad depth accepted")
	}
	if _, err := Model(cache.Config{Depth: 4, Assoc: 1}, Params{}); err == nil {
		t.Fatal("zero params accepted")
	}
}

func TestTagWidth(t *testing.T) {
	cases := []struct {
		cfg  cache.Config
		want int
	}{
		{cache.Config{Depth: 256, Assoc: 1}, 32 - 8 + 2},
		{cache.Config{Depth: 256, Assoc: 1, LineWords: 4}, 32 - 8 - 2 + 2},
		{cache.Config{Depth: 1, Assoc: 1}, 34},
	}
	for _, c := range cases {
		if got := TagWidth(c.cfg, 32); got != c.want {
			t.Errorf("TagWidth(%v) = %d, want %d", c.cfg, got, c.want)
		}
	}
	// Never below 3 (1 tag bit + 2 status) even for absurd geometries.
	if got := TagWidth(cache.Config{Depth: 1 << 30, Assoc: 1, LineWords: 4}, 32); got != 3 {
		t.Errorf("clamped TagWidth = %d, want 3", got)
	}
}

func TestModelBitAccounting(t *testing.T) {
	e := mustModel(t, cache.Config{Depth: 64, Assoc: 2, LineWords: 4})
	if e.DataBits != 64*2*4*32 {
		t.Errorf("DataBits = %d", e.DataBits)
	}
	wantTag := 64 * 2 * (32 - 6 - 2 + 2)
	if e.TagBits != wantTag {
		t.Errorf("TagBits = %d, want %d", e.TagBits, wantTag)
	}
}

func TestModelMonotoneInDepth(t *testing.T) {
	prev := Estimate{}
	for d := 1; d <= 4096; d *= 2 {
		e := mustModel(t, cache.Config{Depth: d, Assoc: 2})
		if d > 1 {
			if e.AreaUM2 <= prev.AreaUM2 {
				t.Fatalf("area not increasing at depth %d", d)
			}
			if e.AccessNS <= prev.AccessNS {
				t.Fatalf("access time not increasing at depth %d", d)
			}
			if e.LeakageMW <= prev.LeakageMW {
				t.Fatalf("leakage not increasing at depth %d", d)
			}
		}
		prev = e
	}
}

// TestModelMonotoneInAssoc: at a fixed depth, line size and technology,
// every cost the design-space front prices (area, read energy, access
// time, and so the energy of a fixed traffic) rises as the associativity
// grows one way at a time. The space evaluator's A_zero dominance cut
// rests on this: a cell with no fewer misses and more ways is never
// cheaper.
func TestModelMonotoneInAssoc(t *testing.T) {
	for _, tech := range []string{"sram", "nvm-hybrid"} {
		p, err := DefaultParams().ForTechnology(tech)
		if err != nil {
			t.Fatal(err)
		}
		for d := 1; d <= 1<<12; d *= 2 {
			for lw := 1; lw <= 8; lw *= 2 {
				var prev Estimate
				for a := 1; a <= 64; a++ {
					e, err := Model(cache.Config{Depth: d, Assoc: a, LineWords: lw}, p)
					if err != nil {
						t.Fatal(err)
					}
					if a > 1 && (e.AreaUM2 <= prev.AreaUM2 || e.ReadPJ <= prev.ReadPJ || e.AccessNS <= prev.AccessNS ||
						AccessEnergy(e, 1000, 10, 0, 0) <= AccessEnergy(prev, 1000, 10, 0, 0)) {
						t.Fatalf("%s depth %d line %d: assoc %d costs %+v, no more than assoc %d's %+v",
							tech, d, lw, a, e, a-1, prev)
					}
					prev = e
				}
			}
		}
	}
}

func TestModelLineSizeTradeoff(t *testing.T) {
	// Same capacity, larger lines: fewer tag bits total, higher refill
	// energy.
	narrow := mustModel(t, cache.Config{Depth: 256, Assoc: 1, LineWords: 1})
	wide := mustModel(t, cache.Config{Depth: 64, Assoc: 1, LineWords: 4})
	if wide.TagBits >= narrow.TagBits {
		t.Errorf("wide lines should need fewer tag bits: %d vs %d", wide.TagBits, narrow.TagBits)
	}
	if wide.RefillPJ <= narrow.RefillPJ {
		t.Errorf("wide lines should cost more per refill: %v vs %v", wide.RefillPJ, narrow.RefillPJ)
	}
	if wide.DataBits != narrow.DataBits {
		t.Errorf("capacities should match: %d vs %d", wide.DataBits, narrow.DataBits)
	}
}

func TestAccessEnergy(t *testing.T) {
	e := Estimate{ReadPJ: 2, RefillPJ: 10}
	got := AccessEnergy(e, 100, 5, 3, 50)
	want := 100*2.0 + 5*(10.0+50.0) + 3*10.0
	if got != want {
		t.Fatalf("AccessEnergy = %v, want %v", got, want)
	}
}

// Property: all outputs are positive and finite for valid configurations.
func TestQuickModelWellFormed(t *testing.T) {
	f := func(dPow, aRaw, lPow uint8) bool {
		cfg := cache.Config{
			Depth:     1 << (dPow % 13),
			Assoc:     1 + int(aRaw%16),
			LineWords: 1 << (lPow % 4),
		}
		e, err := Model(cfg, DefaultParams())
		if err != nil {
			return false
		}
		return e.AreaUM2 > 0 && e.AccessNS > 0 && e.ReadPJ > 0 &&
			e.RefillPJ > 0 && e.LeakageMW > 0 &&
			e.DataBits > 0 && e.TagBits > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: doubling associativity at fixed depth increases both area and
// read energy (the cost the paper trades against misses).
func TestQuickModelAssocCost(t *testing.T) {
	f := func(dPow, aRaw uint8) bool {
		d := 1 << (dPow % 10)
		a := 1 + int(aRaw%15)
		e1, err1 := Model(cache.Config{Depth: d, Assoc: a}, DefaultParams())
		e2, err2 := Model(cache.Config{Depth: d, Assoc: 2 * a}, DefaultParams())
		if err1 != nil || err2 != nil {
			return false
		}
		return e2.AreaUM2 > e1.AreaUM2 && e2.ReadPJ > e1.ReadPJ
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
