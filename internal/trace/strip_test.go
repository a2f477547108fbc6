package trace

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// The paper's running example (Tables 1–3), duplicated here because the
// shared fixture package paperex imports trace and would form a test import
// cycle. internal/paperex carries the authoritative copy with provenance.
var (
	paperAddrs   = []uint32{0b1011, 0b1100, 0b0110, 0b0011, 0b1011, 0b0100, 0b1100, 0b0011, 0b1011, 0b0110}
	paperUnique  = []uint32{0b1011, 0b1100, 0b0110, 0b0011, 0b0100}
	paperIDs     = []int{1, 2, 3, 4, 1, 5, 2, 4, 1, 3}
	paperZeroOne = []struct{ Zero, One []int }{
		{Zero: []int{2, 3, 5}, One: []int{1, 4}},
		{Zero: []int{2, 5}, One: []int{1, 3, 4}},
		{Zero: []int{1, 4}, One: []int{2, 3, 5}},
		{Zero: []int{3, 4, 5}, One: []int{1, 2}},
	}
)

func paperTrace() *Trace { return FromAddrs(DataRead, paperAddrs) }

func TestStripPaperExample(t *testing.T) {
	s := Strip(paperTrace())
	if s.N() != 10 {
		t.Fatalf("N = %d, want 10", s.N())
	}
	if s.NUnique() != 5 {
		t.Fatalf("N' = %d, want 5", s.NUnique())
	}
	// Table 2: unique references in first-appearance order.
	for id, want := range paperUnique {
		if got := s.Addr(id); got != want {
			t.Errorf("Unique[%d] = %04b, want %04b", id, got, want)
		}
	}
	// Identifier sequence (paper IDs are one-based).
	for i, want := range paperIDs {
		if got := int(s.IDs[i]) + 1; got != want {
			t.Errorf("IDs[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestStripIDLookup(t *testing.T) {
	s := Strip(paperTrace())
	id, ok := s.ID(0b1100)
	if !ok || id != 1 {
		t.Fatalf("ID(1100) = %d, %v; want 1, true", id, ok)
	}
	if _, ok := s.ID(0xFFFF); ok {
		t.Fatal("ID of absent address reported present")
	}
}

// mapStrip numbers the line addresses of t at lineWords words per line in
// first-touch order with a Go map: the reference the strip's own index is
// held to.
func mapStrip(t *Trace, lineWords int) (ids []int32, index map[uint32]int32) {
	index = map[uint32]int32{}
	shift := 0
	for 1<<shift < lineWords {
		shift++
	}
	for _, r := range t.Refs {
		line := r.Addr >> shift
		id, ok := index[line]
		if !ok {
			id = int32(len(index))
			index[line] = id
		}
		ids = append(ids, id)
	}
	return ids, index
}

// The strip index numbers lines exactly as a map does, through StripLines
// at several line sizes and StripReaderInto, while one pooled Stripped is
// reused across traces of very different universes, so the index grows,
// is cleared and keeps its capacity. Stripped.ID finds every line and no
// other address.
func TestStripIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var traces []*Trace
	for _, space := range []uint32{1, 7, 5000, 1 << 31, 300} {
		tr := New(20000)
		for range 20000 {
			tr.Append(Ref{Addr: rng.Uint32() % space * 3, Kind: DataRead})
		}
		traces = append(traces, tr)
	}
	s := &Stripped{}
	for i, tr := range traces {
		for _, lw := range []int{1, 4} {
			var err error
			if s, err = StripLines(tr, lw, s); err != nil {
				t.Fatal(err)
			}
			checkStripIndex(t, fmt.Sprintf("trace %d at %d words", i, lw), s, tr, lw)
		}
		var err error
		if s, err = StripReaderInto(RefReader(NewReader(tr)), s); err != nil {
			t.Fatal(err)
		}
		checkStripIndex(t, fmt.Sprintf("trace %d streamed", i), s, tr, 1)
	}
	if id, ok := (&Stripped{}).ID(0); ok || id != 0 {
		t.Fatalf("zero Stripped: ID(0) = %d, %v; want 0, false", id, ok)
	}
}

func checkStripIndex(t *testing.T, name string, s *Stripped, tr *Trace, lineWords int) {
	t.Helper()
	ids, index := mapStrip(tr, lineWords)
	if !slices.Equal(s.IDs, ids) || s.NUnique() != len(index) {
		t.Fatalf("%s: ids differ from the map strip (N' %d, want %d)", name, s.NUnique(), len(index))
	}
	for line, want := range index {
		if id, ok := s.ID(line); !ok || id != int(want) {
			t.Fatalf("%s: ID(%#x) = %d, %v; want %d", name, line, id, ok, want)
		}
		if _, ok := index[line+1]; !ok {
			if _, ok := s.ID(line + 1); ok {
				t.Fatalf("%s: ID(%#x) found an absent line", name, line+1)
			}
		}
	}
}

func TestStripEmpty(t *testing.T) {
	s := Strip(New(0))
	if s.N() != 0 || s.NUnique() != 0 {
		t.Fatalf("empty strip: N=%d N'=%d", s.N(), s.NUnique())
	}
	if s.AddrBits() != 0 {
		t.Fatalf("AddrBits of empty = %d, want 0", s.AddrBits())
	}
}

func TestStrippedAddrBits(t *testing.T) {
	s := Strip(paperTrace())
	if got := s.AddrBits(); got != 4 {
		t.Fatalf("AddrBits = %d, want 4", got)
	}
}

func TestZeroOneSetsPaperExample(t *testing.T) {
	s := Strip(paperTrace())
	zo := s.ZeroOneSets(0) // default to AddrBits = 4
	if len(zo) != 4 {
		t.Fatalf("got %d bit planes, want 4", len(zo))
	}
	for b, want := range paperZeroOne {
		for _, id := range want.Zero {
			if !zo[b].Zero.Contains(id - 1) {
				t.Errorf("bit %d: Zero missing id %d", b, id)
			}
		}
		for _, id := range want.One {
			if !zo[b].One.Contains(id - 1) {
				t.Errorf("bit %d: One missing id %d", b, id)
			}
		}
		if got := zo[b].Zero.Count() + zo[b].One.Count(); got != 5 {
			t.Errorf("bit %d: |Z|+|O| = %d, want 5", b, got)
		}
	}
}

func TestZeroOneSetsExplicitWidth(t *testing.T) {
	s := Strip(FromAddrs(DataRead, []uint32{0, 1}))
	zo := s.ZeroOneSets(3)
	if len(zo) != 3 {
		t.Fatalf("got %d planes, want 3", len(zo))
	}
	// Bits beyond AddrBits: every id is in Zero.
	if zo[2].Zero.Count() != 2 || zo[2].One.Count() != 0 {
		t.Fatalf("high plane Z=%d O=%d, want 2, 0", zo[2].Zero.Count(), zo[2].One.Count())
	}
}

// Property: stripping preserves the trace — reconstructing addresses from
// IDs yields the original sequence.
func TestQuickStripRoundTrip(t *testing.T) {
	f := func(addrs []uint32) bool {
		tr := FromAddrs(DataRead, addrs)
		s := Strip(tr)
		if s.N() != len(addrs) {
			return false
		}
		for i, id := range s.IDs {
			if s.Addr(int(id)) != addrs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: N' <= N, and N' equals the size of the address set.
func TestQuickStripUniqueCount(t *testing.T) {
	f := func(addrs []uint32) bool {
		s := Strip(FromAddrs(DataRead, addrs))
		set := make(map[uint32]bool)
		for _, a := range addrs {
			set[a] = true
		}
		return s.NUnique() == len(set) && s.NUnique() <= s.N()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: zero/one sets partition the identifier space at every bit.
func TestQuickZeroOnePartition(t *testing.T) {
	f := func(addrs []uint32) bool {
		if len(addrs) == 0 {
			return true
		}
		s := Strip(FromAddrs(DataRead, addrs))
		for _, zo := range s.ZeroOneSets(0) {
			if zo.Zero.Intersects(zo.One) {
				return false
			}
			if zo.Zero.Count()+zo.One.Count() != s.NUnique() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
