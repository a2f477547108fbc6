package obs

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestTraceparentRoundtrip(t *testing.T) {
	sc := SpanContext{TraceID: NewTraceID(), SpanID: 0x0123456789abcdef}
	hdr := sc.Traceparent()
	if len(hdr) != 55 {
		t.Fatalf("traceparent length = %d, want 55 (%q)", len(hdr), hdr)
	}
	if !strings.HasPrefix(hdr, "00-") || !strings.HasSuffix(hdr, "-01") {
		t.Fatalf("traceparent framing wrong: %q", hdr)
	}
	got, ok := ParseTraceparent(hdr)
	if !ok {
		t.Fatalf("ParseTraceparent rejected own output %q", hdr)
	}
	if got != sc {
		t.Fatalf("roundtrip mismatch: got %+v want %+v", got, sc)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	valid := SpanContext{TraceID: NewTraceID(), SpanID: 42}.Traceparent()
	bad := []string{
		"",
		"garbage",
		valid[:54],                          // truncated
		valid + "0",                         // too long
		"01" + valid[2:],                    // unknown version
		strings.Replace(valid, "-", "_", 1), // wrong separator
		"00-" + strings.Repeat("0", 32) + valid[35:], // all-zero trace ID
		strings.Replace(valid, valid[3:5], "zz", 1),  // non-hex trace ID
	}
	for _, s := range bad {
		if _, ok := ParseTraceparent(s); ok {
			t.Errorf("ParseTraceparent(%q) accepted, want reject", s)
		}
	}
}

func TestParseTraceIDRoundtrip(t *testing.T) {
	id := NewTraceID()
	got, ok := ParseTraceID(id.String())
	if !ok || got != id {
		t.Fatalf("ParseTraceID(%q) = %v, %v", id.String(), got, ok)
	}
	if _, ok := ParseTraceID(strings.Repeat("0", 32)); ok {
		t.Fatal("ParseTraceID accepted the all-zero trace ID")
	}
	if _, ok := ParseTraceID("short"); ok {
		t.Fatal("ParseTraceID accepted a short string")
	}
}

func TestRemoteParentLinking(t *testing.T) {
	// A span started with no local parent but a remote span context must
	// parent itself under the remote span and the recorder must adopt the
	// remote trace ID (seeded via SetTraceID, as the server middleware
	// does on honouring a traceparent).
	remote := SpanContext{TraceID: NewTraceID(), SpanID: 0xfeed000001}
	rec := NewRecorder(0)
	rec.SetTraceID(remote.TraceID)
	ctx := WithRecorder(context.Background(), rec)
	ctx = WithSpanContext(ctx, remote)

	sctx, sp := StartSpan(ctx, "job")
	_, child := StartSpan(sctx, "phase")
	child.End()
	sp.End()

	tr := rec.Export()
	if tr.TraceID != remote.TraceID.String() {
		t.Fatalf("exported trace ID = %q, want remote %q", tr.TraceID, remote.TraceID)
	}
	byName := map[string]SpanRecord{}
	for _, s := range tr.Spans {
		byName[s.Name] = s
	}
	if got := byName["job"].Parent; got != remote.SpanID {
		t.Fatalf("root span parent = %x, want remote span %x", got, remote.SpanID)
	}
	if got := byName["phase"].Parent; got != byName["job"].ID {
		t.Fatalf("child parent = %x, want local root %x", got, byName["job"].ID)
	}
}

func TestPropagate(t *testing.T) {
	// No recorder, no remote context: nothing to propagate.
	if sc := Propagate(context.Background()); sc.Valid() {
		t.Fatalf("Propagate(empty ctx) = %+v, want invalid", sc)
	}
	// Recorder installed: its trace ID wins; open span becomes parent.
	rec := NewRecorder(0)
	ctx := WithRecorder(context.Background(), rec)
	sctx, sp := StartSpan(ctx, "op")
	sc := Propagate(sctx)
	if sc.TraceID != rec.TraceID() {
		t.Fatalf("Propagate trace = %v, want recorder's %v", sc.TraceID, rec.TraceID())
	}
	if sc.SpanID != sp.ID() {
		t.Fatalf("Propagate span = %x, want current span %x", sc.SpanID, sp.ID())
	}
	sp.End()
}

func TestSpanIDsMonotoneAndBased(t *testing.T) {
	rec := NewRecorder(0)
	ctx := WithRecorder(context.Background(), rec)
	var prev uint64
	for i := 0; i < 10; i++ {
		_, sp := StartSpan(ctx, "s")
		id := sp.ID()
		sp.End()
		if id == 0 {
			t.Fatal("span ID 0 (the no-parent sentinel) was allocated")
		}
		if id <= prev {
			t.Fatalf("span IDs not monotone: %x after %x", id, prev)
		}
		if prev != 0 && id&^0xFFFFFF != prev&^0xFFFFFF {
			t.Fatalf("span IDs changed base mid-recorder: %x vs %x", id, prev)
		}
		prev = id
	}
	// Two recorders must not share a base (whp).
	other := NewRecorder(0)
	_, sp := StartSpan(WithRecorder(context.Background(), other), "s")
	if sp.ID()&^0xFFFFFF == prev&^0xFFFFFF {
		t.Fatalf("two recorders drew the same ID base %x", prev&^0xFFFFFF)
	}
	sp.End()
}

func TestRecorderDropCounting(t *testing.T) {
	before := DroppedTotal()
	rec := NewRecorder(2)
	ctx := WithRecorder(context.Background(), rec)
	for i := 0; i < 5; i++ {
		_, sp := StartSpan(ctx, "s")
		sp.End()
	}
	if got := rec.Dropped(); got != 3 {
		t.Fatalf("Dropped() = %d, want 3", got)
	}
	tr := rec.Export()
	if tr.Dropped != 3 {
		t.Fatalf("Export().Dropped = %d, want 3", tr.Dropped)
	}
	if got := DroppedTotal() - before; got != 3 {
		t.Fatalf("DroppedTotal delta = %d, want 3", got)
	}
}

func TestMergeAndNodes(t *testing.T) {
	tid := NewTraceID().String()
	a := Trace{TraceID: tid, Dropped: 1, Spans: []SpanRecord{
		{ID: 1, Name: "proxy", Node: "node-a", Start: time.Unix(0, 10)},
	}}
	b := Trace{TraceID: tid, Dropped: 2, Spans: []SpanRecord{
		{ID: 2, Parent: 1, Name: "job", Node: "node-b", Start: time.Unix(0, 20)},
		{ID: 1, Name: "proxy-dup", Node: "node-a", Start: time.Unix(0, 10)}, // dup ID: dropped
	}}
	m := Merge(a, b)
	if m.TraceID != tid {
		t.Fatalf("merged trace ID = %q, want %q", m.TraceID, tid)
	}
	if len(m.Spans) != 2 {
		t.Fatalf("merged spans = %d, want 2 (dup ID deduped)", len(m.Spans))
	}
	if m.Dropped != 3 {
		t.Fatalf("merged Dropped = %d, want 3", m.Dropped)
	}
	if got := m.Nodes(); len(got) != 2 || got[0] != "node-a" || got[1] != "node-b" {
		t.Fatalf("Nodes() = %v, want [node-a node-b]", got)
	}
	// The merged tree stitches across fragments: job under proxy.
	tree := m.Tree()
	if len(tree) != 1 || tree[0].Name != "proxy" || len(tree[0].Children) != 1 || tree[0].Children[0].Name != "job" {
		t.Fatalf("merged tree did not stitch: %+v", tree)
	}
}

func TestFragmentStoreBounds(t *testing.T) {
	fs := NewFragmentStore(2)
	ids := []string{NewTraceID().String(), NewTraceID().String(), NewTraceID().String()}
	for i, id := range ids {
		fs.Add(Trace{TraceID: id, Spans: []SpanRecord{{ID: uint64(i + 1), Name: "s"}}})
	}
	if fs.Len() != 2 {
		t.Fatalf("Len = %d after 3 adds with bound 2", fs.Len())
	}
	if _, ok := fs.Get(ids[0]); ok {
		t.Fatal("oldest trace survived eviction")
	}
	if _, ok := fs.Get(ids[2]); !ok {
		t.Fatal("newest trace missing")
	}
	// Re-adding the same span ID is a no-op; a new one appends.
	fs.Add(Trace{TraceID: ids[2], Spans: []SpanRecord{{ID: 3, Name: "s"}, {ID: 4, Name: "t"}}})
	got, _ := fs.Get(ids[2])
	if len(got.Spans) != 2 {
		t.Fatalf("fragment spans = %d, want 2 (dedup by ID)", len(got.Spans))
	}
	// Empty trace IDs are ignored.
	fs.Add(Trace{Spans: []SpanRecord{{ID: 9}}})
	if fs.Len() != 2 {
		t.Fatal("empty-ID trace was stored")
	}
}

func TestFragmentStoreSpanOverflow(t *testing.T) {
	fs := NewFragmentStore(1)
	fs.maxSpans = 3
	id := NewTraceID().String()
	tr := Trace{TraceID: id}
	for i := 1; i <= 5; i++ {
		tr.Spans = append(tr.Spans, SpanRecord{ID: uint64(i), Name: fmt.Sprintf("s%d", i)})
	}
	fs.Add(tr)
	got, _ := fs.Get(id)
	if len(got.Spans) != 3 {
		t.Fatalf("fragment spans = %d, want bound 3", len(got.Spans))
	}
	if got.Dropped != 2 {
		t.Fatalf("fragment Dropped = %d, want 2", got.Dropped)
	}
}

func TestSlowTailWindows(t *testing.T) {
	now := time.Unix(1000, 0)
	st := NewSlowTail(2, time.Minute)
	st.now = func() time.Time { return now }

	mk := func(durNS int64) Trace {
		return Trace{TraceID: NewTraceID().String(), Spans: []SpanRecord{
			{ID: 1, Name: "job", Start: now, DurationNS: durNS},
		}}
	}
	st.Offer("j1", mk(100))
	st.Offer("j2", mk(300))
	st.Offer("j3", mk(200)) // evicts j1 (fastest)
	snap := st.Snapshot()
	if len(snap) != 2 || snap[0].Job != "j2" || snap[1].Job != "j3" {
		t.Fatalf("snapshot = %+v, want [j2 j3] slowest-first", snap)
	}

	// Next window: current keepers roll to prev, remain visible.
	now = now.Add(90 * time.Second)
	st.Offer("j4", mk(50))
	snap = st.Snapshot()
	if len(snap) != 3 || snap[0].Job != "j4" {
		t.Fatalf("after roll snapshot = %+v, want j4 then prev window", snap)
	}

	// A long idle gap staleness-drops both windows.
	now = now.Add(10 * time.Minute)
	st.Offer("j5", mk(70))
	snap = st.Snapshot()
	if len(snap) != 1 || snap[0].Job != "j5" {
		t.Fatalf("after idle gap snapshot = %+v, want just j5", snap)
	}

	// Traces without spans are ignored.
	st.Offer("empty", Trace{TraceID: "t"})
	if len(st.Snapshot()) != 1 {
		t.Fatal("empty trace entered the slow tail")
	}
}

func TestSlowTailRootDetection(t *testing.T) {
	st := NewSlowTail(4, time.Minute)
	// Root is the earliest span whose parent is not in the trace — here
	// span 5 (parent 99 is remote/absent), not span 6 which starts later.
	tr := Trace{TraceID: NewTraceID().String(), Spans: []SpanRecord{
		{ID: 6, Parent: 5, Name: "phase", Start: time.Unix(0, 50), DurationNS: 10},
		{ID: 5, Parent: 99, Name: "job", Start: time.Unix(0, 40), DurationNS: 60},
	}}
	st.Offer("j", tr)
	snap := st.Snapshot()
	if len(snap) != 1 || snap[0].Root != "job" || snap[0].DurationNS != 60 {
		t.Fatalf("snapshot = %+v, want root=job dur=60", snap)
	}
}

func TestSetNodeStampsRecords(t *testing.T) {
	rec := NewRecorder(0)
	rec.SetNode("node-7")
	ctx := WithRecorder(context.Background(), rec)
	_, sp := StartSpan(ctx, "s")
	sp.End()
	tr := rec.Export()
	if len(tr.Spans) != 1 || tr.Spans[0].Node != "node-7" {
		t.Fatalf("span node = %+v, want node-7", tr.Spans)
	}
}

// FuzzTraceparent drives ParseTraceparent with arbitrary header values.
// It must never panic, and an accepted header must name a trace and
// re-render to a header that parses back to the same context.
func FuzzTraceparent(f *testing.F) {
	for _, s := range []string{
		"00-deadbeefcafe00010203040506070809-0000000000000000-01",
		"00-0123456789ABCDEF0123456789abcdef-0123456789abcdef-00",
		"00-00000000000000000000000000000000-0000000000000001-01",
		"01-deadbeefcafe00010203040506070809-0000000000000000-01",
		"00-deadbeefcafe0001020304050607080g-0000000000000000-01",
		"00-deadbeefcafe00010203040506070809-000000000000000-01",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sc, ok := ParseTraceparent(s)
		if !ok {
			return
		}
		if !sc.Valid() {
			t.Fatalf("accepted %q with a zero trace ID", s)
		}
		hdr := sc.Traceparent()
		again, ok := ParseTraceparent(hdr)
		if !ok || again != sc {
			t.Fatalf("%q parsed to %+v, re-rendered as %q, which parsed to %+v (ok=%v)", s, sc, hdr, again, ok)
		}
	})
}
