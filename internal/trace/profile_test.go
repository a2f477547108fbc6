package trace

import (
	"testing"
	"testing/quick"
)

func TestWorkingSetBasics(t *testing.T) {
	// 0,1,2,3 repeated: any window of 4 sees exactly 4 distinct.
	tr := FromAddrs(DataRead, []uint32{0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3})
	pts := WorkingSet(tr, []int{4, 2, 12})
	if pts[0].AvgSize != 4 || pts[0].MaxSize != 4 {
		t.Fatalf("window 4: %+v", pts[0])
	}
	if pts[1].AvgSize != 2 || pts[1].MaxSize != 2 {
		t.Fatalf("window 2: %+v", pts[1])
	}
	if pts[2].AvgSize != 4 || pts[2].MaxSize != 4 {
		t.Fatalf("window 12: %+v", pts[2])
	}
}

func TestWorkingSetDegenerate(t *testing.T) {
	pts := WorkingSet(New(0), []int{4})
	if pts[0].AvgSize != 0 || pts[0].MaxSize != 0 {
		t.Fatalf("empty trace: %+v", pts[0])
	}
	pts = WorkingSet(FromAddrs(DataRead, []uint32{1}), []int{0})
	if pts[0].AvgSize != 0 {
		t.Fatalf("zero window: %+v", pts[0])
	}
}

func TestWorkingSetPartialTail(t *testing.T) {
	// 5 refs, window 2: windows {a,b},{c,d},{e} — tail counted.
	tr := FromAddrs(DataRead, []uint32{1, 1, 2, 3, 4})
	pts := WorkingSet(tr, []int{2})
	// sizes: {1}, {2}, {1} -> avg 4/3, max 2
	if pts[0].MaxSize != 2 {
		t.Fatalf("MaxSize = %d", pts[0].MaxSize)
	}
	if pts[0].AvgSize < 1.3 || pts[0].AvgSize > 1.4 {
		t.Fatalf("AvgSize = %v", pts[0].AvgSize)
	}
}

// Property: working set sizes are bounded by window length and by N'.
func TestQuickWorkingSetBounds(t *testing.T) {
	f := func(bs []uint8, wRaw uint8) bool {
		tr := New(0)
		for _, b := range bs {
			tr.Append(Ref{Addr: uint32(b % 16), Kind: DataRead})
		}
		w := int(wRaw)%20 + 1
		pts := WorkingSet(tr, []int{w})
		st := ComputeStats(tr)
		p := pts[0]
		if p.MaxSize > w || p.MaxSize > st.NUnique {
			return false
		}
		return p.AvgSize <= float64(p.MaxSize)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
