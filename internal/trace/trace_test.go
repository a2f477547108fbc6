package trace

import (
	"testing"
)

func TestKindString(t *testing.T) {
	cases := []struct {
		k    Kind
		want string
	}{
		{DataRead, "read"},
		{DataWrite, "write"},
		{Instr, "ifetch"},
		{Kind(7), "Kind(7)"},
	}
	for _, c := range cases {
		if got := c.k.String(); got != c.want {
			t.Errorf("Kind(%d).String() = %q, want %q", c.k, got, c.want)
		}
	}
}

func TestKindValid(t *testing.T) {
	for _, k := range []Kind{DataRead, DataWrite, Instr} {
		if !k.Valid() {
			t.Errorf("Kind %v should be valid", k)
		}
	}
	if Kind(3).Valid() {
		t.Error("Kind(3) should be invalid")
	}
}

func TestFromAddrsAndLen(t *testing.T) {
	tr := FromAddrs(Instr, []uint32{1, 2, 3})
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	for i, r := range tr.Refs {
		if r.Kind != Instr {
			t.Errorf("ref %d kind = %v, want Instr", i, r.Kind)
		}
		if r.Addr != uint32(i+1) {
			t.Errorf("ref %d addr = %d, want %d", i, r.Addr, i+1)
		}
	}
}

func TestFilter(t *testing.T) {
	tr := New(0)
	tr.Append(Ref{Addr: 1, Kind: Instr})
	tr.Append(Ref{Addr: 2, Kind: DataRead})
	tr.Append(Ref{Addr: 3, Kind: DataWrite})
	got := tr.Filter(func(r Ref) bool { return r.Kind != Instr })
	if got.Len() != 2 || got.Refs[0].Addr != 2 || got.Refs[1].Addr != 3 {
		t.Fatalf("Filter result = %+v", got.Refs)
	}
	// Original untouched.
	if tr.Len() != 3 {
		t.Fatal("Filter mutated the original trace")
	}
}

func TestSplit(t *testing.T) {
	tr := New(0)
	tr.Append(Ref{Addr: 0x100, Kind: Instr})
	tr.Append(Ref{Addr: 0x200, Kind: DataRead})
	tr.Append(Ref{Addr: 0x101, Kind: Instr})
	tr.Append(Ref{Addr: 0x201, Kind: DataWrite})
	instr, data := tr.Split()
	if instr.Len() != 2 || data.Len() != 2 {
		t.Fatalf("Split lens = %d, %d, want 2, 2", instr.Len(), data.Len())
	}
	if instr.Refs[0].Addr != 0x100 || instr.Refs[1].Addr != 0x101 {
		t.Errorf("instruction stream order wrong: %+v", instr.Refs)
	}
	if data.Refs[0].Kind != DataRead || data.Refs[1].Kind != DataWrite {
		t.Errorf("data stream kinds wrong: %+v", data.Refs)
	}
}

// TestSplitExactCapacity: Split sizes both streams exactly, so neither
// carries append growth, an empty stream included.
func TestSplitExactCapacity(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		tr := New(0)
		for i := range n {
			kind := Instr
			if i%3 == 0 {
				kind = DataRead
			}
			tr.Append(Ref{Addr: uint32(i), Kind: kind})
		}
		instr, data := tr.Split()
		if instr.Len()+data.Len() != n {
			t.Fatalf("n=%d: Split lens %d + %d", n, instr.Len(), data.Len())
		}
		for name, s := range map[string]*Trace{"instr": instr, "data": data} {
			if cap(s.Refs) != len(s.Refs) {
				t.Errorf("n=%d: %s stream has cap %d, len %d", n, name, cap(s.Refs), len(s.Refs))
			}
		}
	}
}

func TestAddrBits(t *testing.T) {
	cases := []struct {
		addrs []uint32
		want  int
	}{
		{nil, 0},
		{[]uint32{0}, 0},
		{[]uint32{1}, 1},
		{[]uint32{0xF}, 4},
		{[]uint32{0x10}, 5},
		{[]uint32{3, 0x80, 1}, 8},
		{[]uint32{0xFFFFFFFF}, 32},
	}
	for _, c := range cases {
		tr := FromAddrs(DataRead, c.addrs)
		if got := tr.AddrBits(); got != c.want {
			t.Errorf("AddrBits(%v) = %d, want %d", c.addrs, got, c.want)
		}
	}
}

func TestClone(t *testing.T) {
	tr := FromAddrs(DataRead, []uint32{1, 2})
	c := tr.Clone()
	c.Refs[0].Addr = 99
	if tr.Refs[0].Addr != 1 {
		t.Fatal("Clone shares backing storage")
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	s := ComputeStats(New(0))
	if s.N != 0 || s.NUnique != 0 || s.MaxMisses != 0 {
		t.Fatalf("stats of empty trace = %+v", s)
	}
}

func TestComputeStatsSingleAddress(t *testing.T) {
	// Same address over and over: one cold miss, then all hits even on the
	// one-slot cache.
	s := ComputeStats(FromAddrs(DataRead, []uint32{7, 7, 7, 7}))
	if s.N != 4 || s.NUnique != 1 || s.MaxMisses != 0 {
		t.Fatalf("stats = %+v, want N=4 NUnique=1 MaxMisses=0", s)
	}
}

func TestComputeStatsAlternating(t *testing.T) {
	// Alternating addresses: every re-reference misses on the one-slot
	// cache. 6 refs, 2 cold, 4 non-cold misses.
	s := ComputeStats(FromAddrs(DataRead, []uint32{1, 2, 1, 2, 1, 2}))
	if s.N != 6 || s.NUnique != 2 || s.MaxMisses != 4 {
		t.Fatalf("stats = %+v, want N=6 NUnique=2 MaxMisses=4", s)
	}
}

func TestComputeStatsRunsThenRepeat(t *testing.T) {
	// 1 1 2 2 1: cold misses at first 1 and first 2; the final 1 is a
	// non-cold miss; the immediate repeats are hits.
	s := ComputeStats(FromAddrs(DataRead, []uint32{1, 1, 2, 2, 1}))
	if s.MaxMisses != 1 {
		t.Fatalf("MaxMisses = %d, want 1", s.MaxMisses)
	}
	if s.NUnique != 2 {
		t.Fatalf("NUnique = %d, want 2", s.NUnique)
	}
}
