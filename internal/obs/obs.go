// Package obs is the repository's dependency-free observability layer:
// spans (start/end, attributes, parent/child nesting), a bounded
// in-process span recorder, and a slog-based structured logger that
// propagates request and job identifiers through context.Context.
//
// The design goal is zero cost when nobody is looking: starting a span
// on a context that carries no Recorder is a single context lookup
// returning a nil *Span, and every method on a nil *Span is a no-op.
// The engine's hot loops therefore stay untouched — phase hooks sit at
// row-set and phase granularity, and the per-call overhead is one nil
// check (see BenchmarkObsNoopSpan).
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ctxKey discriminates the package's context values.
type ctxKey int

const (
	recorderKey ctxKey = iota
	spanKey
	requestIDKey
	jobIDKey
	remoteCtxKey
)

// Attr is one span attribute. Values should be small JSON-encodable
// scalars (string, int, float64, bool).
type Attr struct {
	Key   string
	Value any
}

// SpanRecord is one finished span as held by the Recorder and emitted to
// JSON. Parent is 0 for root spans; in a stitched cluster trace Parent
// may name a span recorded on another node (the forwarding hop). Node is
// the cluster member that recorded the span ("" single-node).
type SpanRecord struct {
	ID         uint64         `json:"id"`
	Parent     uint64         `json:"parent,omitempty"`
	Name       string         `json:"name"`
	Node       string         `json:"node,omitempty"`
	Start      time.Time      `json:"start"`
	DurationNS int64          `json:"duration_ns"`
	Attrs      map[string]any `json:"attrs,omitempty"`
}

// Recorder collects finished spans up to a fixed bound. It is safe for
// concurrent use; once the bound is reached further spans are counted in
// Dropped instead of stored, so a runaway producer cannot grow memory
// without limit.
type Recorder struct {
	max    int
	idBase uint64 // random high 40 bits; low 24 count spans
	nextID atomic.Uint64

	mu      sync.Mutex
	traceID TraceID
	node    string
	spans   []SpanRecord
	dropped int
}

// DefaultMaxSpans bounds a Recorder built with NewRecorder(0). A job's
// span tree is a handful of phases plus one aggregate span per cache
// level, so 4096 leaves generous headroom for store ops and retries.
const DefaultMaxSpans = 4096

// NewRecorder returns a Recorder holding at most max spans (max <= 0
// uses DefaultMaxSpans). The recorder mints a fresh 128-bit trace ID;
// use SetTraceID to join an existing distributed trace instead.
func NewRecorder(max int) *Recorder {
	if max <= 0 {
		max = DefaultMaxSpans
	}
	return &Recorder{max: max, idBase: newIDBase(), traceID: NewTraceID()}
}

// SetTraceID joins the recorder to an existing trace (an honoured
// inbound traceparent). Call before the first span starts.
func (r *Recorder) SetTraceID(t TraceID) {
	if t.IsZero() {
		return
	}
	r.mu.Lock()
	r.traceID = t
	r.mu.Unlock()
}

// TraceID returns the trace the recorder's spans belong to.
func (r *Recorder) TraceID() TraceID {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.traceID
}

// SetNode names the cluster member recording into this recorder; every
// span record is stamped with it.
func (r *Recorder) SetNode(node string) {
	r.mu.Lock()
	r.node = node
	r.mu.Unlock()
}

// newSpanID allocates the next span ID: the recorder's random base plus
// a sequential counter, so IDs are monotone in allocation order within
// the recorder and unique across recorders with high probability.
func (r *Recorder) newSpanID() uint64 {
	return r.idBase | (r.nextID.Add(1) & 0xFFFFFF)
}

func (r *Recorder) record(rec SpanRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= r.max {
		r.dropped++
		droppedTotal.Add(1)
		return
	}
	rec.Node = r.node
	r.spans = append(r.spans, rec)
}

// Dropped returns how many spans the recorder's bound has discarded.
func (r *Recorder) Dropped() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Export returns a copy of the recorded spans (in end order) plus the
// dropped count. Safe to call while spans are still being recorded.
func (r *Recorder) Export() Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := Trace{TraceID: r.traceID.String(), Spans: make([]SpanRecord, len(r.spans)), Dropped: r.dropped}
	copy(t.Spans, r.spans)
	return t
}

// Len returns the number of spans recorded so far.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Span is one in-flight timed operation. A nil *Span is valid and every
// method on it is a no-op — callers never need to branch on whether
// tracing is enabled.
type Span struct {
	rec    *Recorder
	id     uint64
	parent uint64
	name   string
	start  time.Time

	mu    sync.Mutex
	attrs []Attr
	ended bool
	dur   time.Duration
}

// WithRecorder returns ctx carrying rec; spans started under the
// returned context are recorded into it.
func WithRecorder(ctx context.Context, rec *Recorder) context.Context {
	return context.WithValue(ctx, recorderKey, rec)
}

// RecorderFrom returns the Recorder carried by ctx, or nil.
func RecorderFrom(ctx context.Context) *Recorder {
	r, _ := ctx.Value(recorderKey).(*Recorder)
	return r
}

// StartSpan begins a span named name as a child of ctx's current span.
// When ctx carries no Recorder it returns (ctx, nil) — the nil span's
// methods all no-op, so instrumented code needs no enabled-checks. The
// returned context carries the new span as current, parenting any spans
// started beneath it. A root span (no local parent) under a context that
// carries a remote SpanContext parents to the remote span instead, which
// is what stitches one node's fragment beneath the forwarding hop of
// another node in a cluster-wide trace.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if RecorderFrom(ctx) == nil {
		return ctx, nil
	}
	return StartSpanAt(ctx, name, time.Now())
}

// StartSpanAt is StartSpan with an explicit start instant. A stage that
// begins where its predecessor ended passes that instant, so back-to-back
// stages tile their parent's wall time with no untracked gaps.
func StartSpanAt(ctx context.Context, name string, start time.Time) (context.Context, *Span) {
	rec := RecorderFrom(ctx)
	if rec == nil {
		return ctx, nil
	}
	sp := &Span{
		rec:   rec,
		id:    rec.newSpanID(),
		name:  name,
		start: start,
	}
	if parent, _ := ctx.Value(spanKey).(*Span); parent != nil {
		sp.parent = parent.id
	} else if sc := SpanContextFrom(ctx); sc.Valid() && sc.SpanID != 0 {
		sp.parent = sc.SpanID
	}
	return context.WithValue(ctx, spanKey, sp), sp
}

// CurrentSpan returns ctx's current span, or nil — useful for attaching
// attributes to an enclosing span (e.g. the job root) from deeper code.
func CurrentSpan(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey).(*Span)
	return sp
}

// SetAttr records one attribute on the span. No-op on a nil or ended
// span.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// End finishes the span and hands it to the recorder. Ending twice
// records once; End on a nil span is a no-op.
func (s *Span) End() {
	if s != nil {
		s.EndAt(time.Now())
	}
}

// EndAt is End with an explicit end instant: the instant the next
// back-to-back stage starts at (see StartSpanAt).
func (s *Span) EndAt(end time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.dur = end.Sub(s.start)
	rec := SpanRecord{
		ID:         s.id,
		Parent:     s.parent,
		Name:       s.name,
		Start:      s.start,
		DurationNS: s.dur.Nanoseconds(),
		Attrs:      attrMap(s.attrs),
	}
	s.mu.Unlock()
	s.rec.record(rec)
}

// ID returns the span's globally-unique identifier (0 for a nil span) —
// the parent an outbound traceparent names.
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Start returns the span's start time (zero for a nil span).
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// Duration returns the span's duration (zero before End).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dur
}

// Child records an already-measured operation as a completed child span
// of s. It exists for aggregate telemetry — e.g. the per-level postlude
// durations the DFS accumulates across interleaved visits — where the
// child never existed as one contiguous wall-clock interval. start may
// be the parent's start; dur is the accumulated time.
func (s *Span) Child(name string, start time.Time, dur time.Duration, attrs ...Attr) {
	if s == nil {
		return
	}
	s.rec.record(SpanRecord{
		ID:         s.rec.newSpanID(),
		Parent:     s.id,
		Name:       name,
		Start:      start,
		DurationNS: dur.Nanoseconds(),
		Attrs:      attrMap(attrs),
	})
}

func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value
	}
	return m
}

// Trace is an exported set of span records, the JSON payload of the
// trace endpoint and of `explore -trace-json`. A stitched cluster trace
// merges the per-node fragments of one TraceID.
type Trace struct {
	TraceID string       `json:"trace_id,omitempty"`
	Spans   []SpanRecord `json:"spans"`
	Dropped int          `json:"dropped,omitempty"`
}

// Merge combines per-node fragments of one distributed trace into a
// single Trace: spans concatenated with duplicates (same span gathered
// twice) removed, dropped counts summed, the first non-empty trace ID
// kept. Tree() over the result stitches the cluster-wide tree via the
// cross-node parent links.
func Merge(fragments ...Trace) Trace {
	var out Trace
	seen := make(map[uint64]bool)
	for _, f := range fragments {
		if out.TraceID == "" {
			out.TraceID = f.TraceID
		}
		out.Dropped += f.Dropped
		for _, s := range f.Spans {
			if seen[s.ID] {
				continue
			}
			seen[s.ID] = true
			out.Spans = append(out.Spans, s)
		}
	}
	return out
}

// Nodes returns the distinct node names appearing in the trace, sorted;
// single-node spans record "" and are not counted.
func (t Trace) Nodes() []string {
	set := make(map[string]bool)
	for _, s := range t.Spans {
		if s.Node != "" {
			set[s.Node] = true
		}
	}
	nodes := make([]string, 0, len(set))
	for n := range set {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	return nodes
}

// Node is one span with its children resolved, for nested rendering.
type Node struct {
	SpanRecord
	Children []*Node `json:"children,omitempty"`
}

// Tree assembles the flat records into root-first nested form. Children
// sort by start time (ties by ID, which is allocation order). Spans
// whose parent was dropped by the recorder bound surface as roots rather
// than vanishing.
func (t Trace) Tree() []*Node {
	nodes := make(map[uint64]*Node, len(t.Spans))
	for _, s := range t.Spans {
		nodes[s.ID] = &Node{SpanRecord: s}
	}
	var roots []*Node
	for _, s := range t.Spans {
		n := nodes[s.ID]
		if p, ok := nodes[s.Parent]; ok && s.Parent != s.ID {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	var sortNodes func(ns []*Node)
	sortNodes = func(ns []*Node) {
		sort.Slice(ns, func(i, j int) bool {
			if !ns[i].Start.Equal(ns[j].Start) {
				return ns[i].Start.Before(ns[j].Start)
			}
			return ns[i].ID < ns[j].ID
		})
		for _, n := range ns {
			sortNodes(n.Children)
		}
	}
	sortNodes(roots)
	return roots
}

// Phase is one top-level timing segment of a Summary.
type Phase struct {
	Name       string `json:"name"`
	DurationNS int64  `json:"duration_ns"`
}

// Summary condenses a span tree into the job-fetch breakdown: the root
// span's wall time and attributes (N, N', dedup hit rate, ...) plus one
// Phase per direct child, in start order. Nil when the trace holds no
// spans.
type Summary struct {
	Name       string         `json:"name"`
	WallNS     int64          `json:"wall_ns"`
	Phases     []Phase        `json:"phases,omitempty"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	SpanCount  int            `json:"span_count"`
	Dropped    int            `json:"dropped,omitempty"`
	PhaseSumNS int64          `json:"phase_sum_ns"`
}

// Summary derives the condensed breakdown from the trace. The first
// root (earliest start) anchors it.
func (t Trace) Summary() *Summary {
	roots := t.Tree()
	if len(roots) == 0 {
		return nil
	}
	root := roots[0]
	s := &Summary{
		Name:      root.Name,
		WallNS:    root.DurationNS,
		Attrs:     root.Attrs,
		SpanCount: len(t.Spans),
		Dropped:   t.Dropped,
	}
	for _, c := range root.Children {
		s.Phases = append(s.Phases, Phase{Name: c.Name, DurationNS: c.DurationNS})
		s.PhaseSumNS += c.DurationNS
	}
	return s
}

// NewID returns a short random identifier (8 bytes, hex) for request
// correlation. It falls back to a process-local counter if the system
// randomness source fails.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("id-%d", fallbackID.Add(1))
	}
	return hex.EncodeToString(b[:])
}

var fallbackID atomic.Uint64
