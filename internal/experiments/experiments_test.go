package experiments

import (
	"strings"
	"testing"

	"github.com/example/cachedse/internal/trace"
)

func loadSuite(t *testing.T) *Suite {
	t.Helper()
	s, err := Load()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestLoadAllTwelve(t *testing.T) {
	s := loadSuite(t)
	if len(s.Sets) != 12 {
		t.Fatalf("suite has %d trace sets, want 12", len(s.Sets))
	}
	for _, ts := range s.Sets {
		if ts.Instr.Len() == 0 || ts.Data.Len() == 0 {
			t.Errorf("%s: empty stream (I=%d D=%d)", ts.Name, ts.Instr.Len(), ts.Data.Len())
		}
	}
	if s.Get("crc") == nil || s.Get("nosuch") != nil {
		t.Error("Get lookup broken")
	}
}

func TestStreamSelection(t *testing.T) {
	s := loadSuite(t)
	ts := s.Get("crc")
	if ts.Stream(Data) != ts.Data || ts.Stream(Instruction) != ts.Instr {
		t.Fatal("Stream selection wrong")
	}
	if Data.String() != "data" || Instruction.String() != "instruction" {
		t.Fatal("Stream names wrong")
	}
}

func TestStatsTables(t *testing.T) {
	s := loadSuite(t)
	for _, stream := range []Stream{Data, Instruction} {
		tab, err := s.StatsTable(stream)
		if err != nil {
			t.Fatalf("%v: %v", stream, err)
		}
		if len(tab.Rows) != 12 {
			t.Fatalf("%v stats table has %d rows, want 12", stream, len(tab.Rows))
		}
		if !strings.Contains(tab.Title, "Table") {
			t.Errorf("missing table number in title %q", tab.Title)
		}
	}
}

func TestBudgets(t *testing.T) {
	tr := trace.FromAddrs(trace.DataRead, []uint32{1, 2, 1, 2, 1, 2, 1, 2})
	// MaxMisses = 6.
	got := Budgets(tr)
	want := []int{0, 0, 0, 1} // 5%,10%,15%,20% of 6, floored
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Budgets = %v, want %v", got, want)
		}
	}
}

func TestOptimalTableShape(t *testing.T) {
	s := loadSuite(t)
	or, err := s.Optimal("crc", Data)
	if err != nil {
		t.Fatal(err)
	}
	if len(or.Table.Headers) != 5 {
		t.Fatalf("headers = %v", or.Table.Headers)
	}
	if len(or.Table.Rows) != len(or.Result.Levels) {
		t.Fatalf("%d rows for %d levels", len(or.Table.Rows), len(or.Result.Levels))
	}
	// Depths double down the rows.
	if or.Result.Levels[0].Depth != 1 {
		t.Fatal("first level is not depth 1")
	}
	for i := 1; i < len(or.Result.Levels); i++ {
		if or.Result.Levels[i].Depth != 2*or.Result.Levels[i-1].Depth {
			t.Fatal("depths do not double")
		}
	}
	if !strings.Contains(or.Table.Title, "Table 11") { // crc is 5th alphabetically: 7+4
		t.Errorf("crc data table title = %q, want Table 11", or.Table.Title)
	}
}

func TestOptimalUnknownBenchmark(t *testing.T) {
	s := loadSuite(t)
	if _, err := s.Optimal("nosuch", Data); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestTableNumbering(t *testing.T) {
	s := loadSuite(t)
	// Alphabetical: adpcm bcnt blit compress crc des engine fir g3fax
	// pocsag qurt ucbqsort -> data tables 7..18, instruction 19..30.
	cases := []struct {
		name   string
		stream Stream
		want   int
	}{
		{"adpcm", Data, 7},
		{"ucbqsort", Data, 18},
		{"adpcm", Instruction, 19},
		{"ucbqsort", Instruction, 30},
		{"crc", Instruction, 23},
	}
	for _, c := range cases {
		if got := s.tableNumber(c.name, c.stream); got != c.want {
			t.Errorf("tableNumber(%s, %v) = %d, want %d", c.name, c.stream, got, c.want)
		}
	}
}

// The headline guarantee across the full suite: every emitted instance
// meets its budget under simulation, and the analytical count is exact.
// Verifying all 12x2 grids is the repository's most important integration
// test.
func TestVerifyAllOptimalTables(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite verification in short mode")
	}
	s := loadSuite(t)
	for _, ts := range s.Sets {
		for _, stream := range []Stream{Data, Instruction} {
			or, err := s.Optimal(ts.Name, stream)
			if err != nil {
				t.Fatalf("%s/%v: %v", ts.Name, stream, err)
			}
			if err := s.VerifyOptimal(ts.Name, stream, or); err != nil {
				t.Errorf("%v", err)
			}
		}
	}
}

// Monotonicity visible throughout Tables 7-30: associativity never
// increases with the budget, and the A@5% column dominates.
func TestOptimalTablesMonotone(t *testing.T) {
	s := loadSuite(t)
	for _, ts := range s.Sets {
		or, err := s.Optimal(ts.Name, Data)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range or.Result.Levels {
			prev := -1
			for _, k := range or.Budgets {
				a := l.MinAssoc(k)
				if prev >= 0 && a > prev {
					t.Fatalf("%s D=%d: associativity increases with budget", ts.Name, l.Depth)
				}
				prev = a
			}
		}
	}
}

func TestRuntimeTables(t *testing.T) {
	s := loadSuite(t)
	tab, timings, err := s.Runtime(Data)
	if err != nil {
		t.Fatal(err)
	}
	if len(timings) != 12 || len(tab.Rows) != 12 {
		t.Fatalf("timings %d rows %d, want 12", len(timings), len(tab.Rows))
	}
	for _, tm := range timings {
		if tm.Seconds < 0 || tm.N == 0 || tm.NUnique == 0 {
			t.Errorf("bad timing %+v", tm)
		}
	}
}

func TestFigure4Fit(t *testing.T) {
	s := loadSuite(t)
	_, dTimes, err := s.Runtime(Data)
	if err != nil {
		t.Fatal(err)
	}
	_, iTimes, err := s.Runtime(Instruction)
	if err != nil {
		t.Fatal(err)
	}
	fit, scatter, err := Figure4(append(dTimes, iTimes...))
	if err != nil {
		t.Fatal(err)
	}
	if fit.N != 24 {
		t.Fatalf("fit over %d points, want 24", fit.N)
	}
	if scatter == "" {
		t.Fatal("empty scatter plot")
	}
	// The slope should be positive: more work, more time. R2 is checked
	// loosely here (timing noise on a busy machine); the bench harness
	// reports the actual value.
	if fit.Slope <= 0 {
		t.Fatalf("fit slope %v, want positive", fit.Slope)
	}
}

func TestControlledScalingIsLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("timing study in short mode")
	}
	// Each point keeps its fastest of three studies: under a parallel
	// go test ./..., other packages' tests steal the CPU for stretches
	// longer than one point's best-of-3, and a stolen stretch inflates
	// one point, not all three studies' copies of it.
	timings, err := ControlledScaling(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(timings) != 12 {
		t.Fatalf("%d points, want 12", len(timings))
	}
	for range 2 {
		again, err := ControlledScaling(1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range timings {
			timings[i].Seconds = min(timings[i].Seconds, again[i].Seconds)
		}
	}
	fit, _, err := Figure4(timings)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Slope <= 0 {
		t.Fatalf("slope %v, want positive", fit.Slope)
	}
	// Homogeneous workloads should make the linearity unmistakable even
	// on a noisy machine.
	if fit.R2 < 0.8 {
		t.Fatalf("controlled scaling R^2 = %.3f, want >= 0.8 (time not linear in N*N')", fit.R2)
	}
}

func TestFigure4ErrorOnTooFewPoints(t *testing.T) {
	if _, _, err := Figure4([]Timing{{N: 1, NUnique: 1}}); err == nil {
		t.Fatal("single timing accepted")
	}
}
