package bitset

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	s := New(100)
	if got := s.Count(); got != 0 {
		t.Fatalf("Count() = %d, want 0", got)
	}
	if !s.Empty() {
		t.Fatal("Empty() = false, want true")
	}
	if s.Cap() != 100 {
		t.Fatalf("Cap() = %d, want 100", s.Cap())
	}
}

func TestNewZeroCapacity(t *testing.T) {
	s := New(0)
	if !s.Empty() {
		t.Fatal("zero-capacity set should be empty")
	}
	if s.Contains(0) {
		t.Fatal("zero-capacity set should contain nothing")
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestAddContains(t *testing.T) {
	s := New(130) // spans three words
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		s.Add(i)
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if !s.Contains(i) {
			t.Errorf("Contains(%d) = false after Add", i)
		}
	}
	for _, i := range []int{2, 62, 66, 126, -1, 130, 1000} {
		if s.Contains(i) {
			t.Errorf("Contains(%d) = true, want false", i)
		}
	}
	if got := s.Count(); got != 8 {
		t.Fatalf("Count() = %d, want 8", got)
	}
}

func TestAddIdempotent(t *testing.T) {
	s := New(10)
	s.Add(3)
	s.Add(3)
	if got := s.Count(); got != 1 {
		t.Fatalf("Count() after double Add = %d, want 1", got)
	}
}

func TestAddOutOfRangePanics(t *testing.T) {
	s := New(10)
	for _, i := range []int{-1, 10, 64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%d) did not panic", i)
				}
			}()
			s.Add(i)
		}()
	}
}

func TestRemove(t *testing.T) {
	s := New(70)
	s.Add(5)
	s.Add(65)
	s.Remove(5)
	if s.Contains(5) {
		t.Fatal("Contains(5) = true after Remove")
	}
	if !s.Contains(65) {
		t.Fatal("Remove(5) disturbed element 65")
	}
	s.Remove(6) // removing absent element is a no-op
	if got := s.Count(); got != 1 {
		t.Fatalf("Count() = %d, want 1", got)
	}
}

func TestClear(t *testing.T) {
	s := FromSlice(100, []int{1, 50, 99})
	s.Clear()
	if !s.Empty() {
		t.Fatal("set not empty after Clear")
	}
	if s.Cap() != 100 {
		t.Fatal("Clear changed capacity")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromSlice(10, []int{1, 2})
	b := a.Clone()
	b.Add(3)
	if a.Contains(3) {
		t.Fatal("mutating clone affected original")
	}
	if !b.Contains(1) || !b.Contains(2) {
		t.Fatal("clone missing original elements")
	}
}

func TestCopy(t *testing.T) {
	a := FromSlice(10, []int{1, 2})
	b := FromSlice(10, []int{7})
	b.Copy(a)
	if !b.Equal(a) {
		t.Fatal("Copy did not make sets equal")
	}
}

func TestAndOrAndNot(t *testing.T) {
	a := FromSlice(130, []int{1, 2, 64, 100})
	b := FromSlice(130, []int{2, 3, 64, 129})

	and := New(130)
	and.And(a, b)
	if got, want := and.String(), "{2,64}"; got != want {
		t.Errorf("And = %s, want %s", got, want)
	}

	or := New(130)
	or.Or(a, b)
	if got, want := or.String(), "{1,2,3,64,100,129}"; got != want {
		t.Errorf("Or = %s, want %s", got, want)
	}

	diff := New(130)
	diff.AndNot(a, b)
	if got, want := diff.String(), "{1,100}"; got != want {
		t.Errorf("AndNot = %s, want %s", got, want)
	}
}

func TestAndAliasing(t *testing.T) {
	a := FromSlice(10, []int{1, 2, 3})
	b := FromSlice(10, []int{2, 3, 4})
	a.And(a, b) // destination aliases first operand
	if got, want := a.String(), "{2,3}"; got != want {
		t.Fatalf("aliased And = %s, want %s", got, want)
	}
}

func TestMismatchedCapacityPanics(t *testing.T) {
	a := New(10)
	b := New(20)
	defer func() {
		if recover() == nil {
			t.Fatal("And on mismatched capacities did not panic")
		}
	}()
	a.And(a, b)
}

func TestIntersectCount(t *testing.T) {
	a := FromSlice(200, []int{0, 10, 64, 128, 199})
	b := FromSlice(200, []int{10, 64, 199, 5})
	if got := a.IntersectCount(b); got != 3 {
		t.Fatalf("IntersectCount = %d, want 3", got)
	}
	if got := a.IntersectCount(New(200)); got != 0 {
		t.Fatalf("IntersectCount with empty = %d, want 0", got)
	}
}

func TestIntersectCountAtLeast(t *testing.T) {
	a := FromSlice(200, []int{0, 10, 64, 128, 199})
	b := FromSlice(200, []int{10, 64, 199, 5})
	cases := []struct {
		k    int
		want bool
	}{
		{0, true}, {-1, true}, {1, true}, {2, true}, {3, true}, {4, false}, {100, false},
	}
	for _, c := range cases {
		if got := a.IntersectCountAtLeast(b, c.k); got != c.want {
			t.Errorf("IntersectCountAtLeast(k=%d) = %v, want %v", c.k, got, c.want)
		}
	}
}

func TestIntersects(t *testing.T) {
	a := FromSlice(100, []int{1, 99})
	b := FromSlice(100, []int{99})
	c := FromSlice(100, []int{2, 50})
	if !a.Intersects(b) {
		t.Error("a.Intersects(b) = false, want true")
	}
	if a.Intersects(c) {
		t.Error("a.Intersects(c) = true, want false")
	}
}

func TestEqual(t *testing.T) {
	a := FromSlice(100, []int{1, 2, 3})
	b := FromSlice(100, []int{1, 2, 3})
	c := FromSlice(100, []int{1, 2})
	d := FromSlice(101, []int{1, 2, 3})
	if !a.Equal(b) {
		t.Error("identical sets not Equal")
	}
	if a.Equal(c) {
		t.Error("different sets Equal")
	}
	if a.Equal(d) {
		t.Error("sets with different capacities Equal")
	}
}

func TestSubsetOf(t *testing.T) {
	a := FromSlice(100, []int{1, 2})
	b := FromSlice(100, []int{1, 2, 3})
	if !a.SubsetOf(b) {
		t.Error("a.SubsetOf(b) = false, want true")
	}
	if b.SubsetOf(a) {
		t.Error("b.SubsetOf(a) = true, want false")
	}
	if !New(100).SubsetOf(a) {
		t.Error("empty set is not a subset")
	}
}

func TestForEachOrderAndStop(t *testing.T) {
	s := FromSlice(200, []int{5, 70, 140, 190})
	var seen []int
	s.ForEach(func(i int) bool { seen = append(seen, i); return true })
	want := []int{5, 70, 140, 190}
	if len(seen) != len(want) {
		t.Fatalf("ForEach visited %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("ForEach visited %v, want %v", seen, want)
		}
	}
	// Early stop.
	count := 0
	s.ForEach(func(i int) bool { count++; return count < 2 })
	if count != 2 {
		t.Fatalf("ForEach early stop visited %d, want 2", count)
	}
}

func TestElems(t *testing.T) {
	s := FromSlice(100, []int{42, 7, 99})
	got := s.Elems()
	want := []int{7, 42, 99}
	if len(got) != len(want) {
		t.Fatalf("Elems = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Elems = %v, want %v", got, want)
		}
	}
}

func TestNext(t *testing.T) {
	s := FromSlice(200, []int{5, 70, 199})
	cases := []struct{ from, want int }{
		{-5, 5}, {0, 5}, {5, 5}, {6, 70}, {70, 70}, {71, 199}, {199, 199}, {200, -1}, {500, -1},
	}
	for _, c := range cases {
		if got := s.Next(c.from); got != c.want {
			t.Errorf("Next(%d) = %d, want %d", c.from, got, c.want)
		}
	}
	if got := New(64).Next(0); got != -1 {
		t.Errorf("Next on empty set = %d, want -1", got)
	}
}

func TestString(t *testing.T) {
	if got := New(10).String(); got != "{}" {
		t.Errorf("empty String = %q, want {}", got)
	}
	if got := FromSlice(10, []int{3, 1}).String(); got != "{1,3}" {
		t.Errorf("String = %q, want {1,3}", got)
	}
}

// Property: IntersectCount(a,b) == Count(And(a,b)) for random sets.
func TestQuickIntersectCountMatchesAnd(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		const n = 256
		a, b := New(n), New(n)
		for _, x := range xs {
			a.Add(int(x))
		}
		for _, y := range ys {
			b.Add(int(y))
		}
		and := New(n)
		and.And(a, b)
		return a.IntersectCount(b) == and.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: IntersectCountAtLeast(a,b,k) == (IntersectCount(a,b) >= k).
func TestQuickIntersectCountAtLeast(t *testing.T) {
	f := func(xs, ys []uint8, k uint8) bool {
		const n = 256
		a, b := New(n), New(n)
		for _, x := range xs {
			a.Add(int(x))
		}
		for _, y := range ys {
			b.Add(int(y))
		}
		return a.IntersectCountAtLeast(b, int(k)) == (a.IntersectCount(b) >= int(k))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// rank returns s ranked.
func rank(s *Set) *Rank {
	var r Rank
	r.Reset(s)
	return &r
}

// fromRuns returns the set of capacity n holding the flattened [lo, hi)
// runs.
func fromRuns(n int, runs []int32) *Set {
	s := New(n)
	for i := 0; i+1 < len(runs); i += 2 {
		for v := runs[i]; v < runs[i+1]; v++ {
			s.Add(int(v))
		}
	}
	return s
}

func TestIntersectCountRuns(t *testing.T) {
	s := FromSlice(200, []int{0, 10, 63, 64, 127, 128, 199})
	cases := []struct {
		runs []int32
		want int
	}{
		{nil, 0},
		{[]int32{10, 11}, 1},
		{[]int32{1, 10}, 0},
		{[]int32{0, 200}, 7},
		{[]int32{0, 64}, 3},   // one whole word
		{[]int32{63, 65}, 2},  // across a word boundary
		{[]int32{64, 128}, 2}, // starts and ends on word boundaries
		{[]int32{5, 11, 60, 130}, 5},
		{[]int32{128, 200}, 2}, // ends at the last id of the last word
		{[]int32{199, 200}, 1},
	}
	for _, c := range cases {
		if got := rank(s).IntersectCountRuns(c.runs); got != c.want {
			t.Errorf("IntersectCountRuns(%v) = %d, want %d", c.runs, got, c.want)
		}
	}
	full := New(256)
	for i := range 256 {
		full.Add(i)
	}
	if got := rank(full).IntersectCountRuns([]int32{0, 64, 192, 256}); got != 128 {
		t.Errorf("run ending at the last bit of the last word: %d, want 128", got)
	}
}

func TestIntersectCountRunsOutOfRangePanics(t *testing.T) {
	s := New(64)
	defer func() {
		if recover() == nil {
			t.Fatal("IntersectCountRuns with a run past the last word did not panic")
		}
	}()
	rank(s).IntersectCountRuns([]int32{60, 129})
}

// Property: the run kernel agrees with IntersectCount against the set
// built from the same runs. The runs come from random boundaries, so
// they start and end on word boundaries as well as inside words, and the
// last may end at the universe's last id.
func TestQuickIntersectCountRunsMatchesDense(t *testing.T) {
	f := func(xs []uint8, cuts []uint16, words, tail uint8) bool {
		// tail 0 makes the universe's last id the last bit of a word.
		size := (int(words)%4+1)*64 - int(tail)%64
		a := New(size)
		for _, x := range xs {
			a.Add(int(x) % size)
		}
		// The runs are the pairs of distinct, ascending cut points in
		// [0, size]; every fourth cut snaps to a word boundary.
		var edges []int32
		for _, c := range cuts {
			v := int(c) % (size + 1)
			if c&3 == 0 {
				v = v / 64 * 64
			}
			edges = append(edges, int32(v))
		}
		slices.Sort(edges)
		edges = slices.Compact(edges)
		if len(edges)%2 == 1 {
			if edges[len(edges)-1] < int32(size) {
				edges = append(edges, int32(size))
			} else {
				edges = edges[1:]
			}
		}
		return rank(a).IntersectCountRuns(edges) == a.IntersectCount(fromRuns(size, edges))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickInclusionExclusion(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		const n = 256
		a, b := New(n), New(n)
		for _, x := range xs {
			a.Add(int(x))
		}
		for _, y := range ys {
			b.Add(int(y))
		}
		or := New(n)
		or.Or(a, b)
		return or.Count() == a.Count()+b.Count()-a.IntersectCount(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Elems round-trips through FromSlice.
func TestQuickElemsRoundTrip(t *testing.T) {
	f := func(xs []uint8) bool {
		const n = 256
		s := New(n)
		for _, x := range xs {
			s.Add(int(x))
		}
		return FromSlice(n, s.Elems()).Equal(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Next enumerates exactly the elements.
func TestQuickNextEnumerates(t *testing.T) {
	f := func(xs []uint8) bool {
		const n = 256
		s := New(n)
		for _, x := range xs {
			s.Add(int(x))
		}
		var viaNext []int
		for i := s.Next(0); i != -1; i = s.Next(i + 1) {
			viaNext = append(viaNext, i)
		}
		elems := s.Elems()
		if len(viaNext) != len(elems) {
			return false
		}
		for i := range elems {
			if viaNext[i] != elems[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkIntersectCount(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 4096
	x, y := New(n), New(n)
	for i := 0; i < n/4; i++ {
		x.Add(rng.Intn(n))
		y.Add(rng.Intn(n))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.IntersectCount(y)
	}
}

func BenchmarkIntersectCountAtLeast(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 4096
	x, y := New(n), New(n)
	for i := 0; i < n/4; i++ {
		x.Add(rng.Intn(n))
		y.Add(rng.Intn(n))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.IntersectCountAtLeast(y, 8)
	}
}
