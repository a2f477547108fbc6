package server

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// A minimal, dependency-free metrics layer rendering the Prometheus text
// exposition format. The service registers request counters, per-endpoint
// latency histograms, job-queue gauges and result-cache counters; anything
// that scrapes Prometheus endpoints can consume /metrics directly. The
// registry also renders OpenMetrics (negotiated via Accept), where
// histogram buckets carry trace-ID exemplars — the link from "p99 is
// slow" to one concrete slow trace.

// Counter is a monotonically increasing counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// exemplar links one bucket's latest observation to the trace that
// produced it, in the OpenMetrics sense.
type exemplar struct {
	traceID string
	value   float64
	ts      time.Time
}

// Histogram accumulates observations into cumulative le-buckets. Each
// bucket remembers the exemplar of its most recent traced observation.
type Histogram struct {
	mu        sync.Mutex
	bounds    []float64
	counts    []int64 // len(bounds)+1; the last bucket is +Inf
	exemplars []exemplar
	sum       float64
	count     int64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	h.ObserveWithExemplar(v, "")
}

// ObserveWithExemplar records one observation and, when traceID is
// non-empty, pins it as the landing bucket's exemplar. Last-write-wins
// per bucket: the scrape sees the freshest trace at each latency scale.
func (h *Histogram) ObserveWithExemplar(v float64, traceID string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count++
	h.sum += v
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	if traceID != "" {
		if h.exemplars == nil {
			h.exemplars = make([]exemplar, len(h.bounds)+1)
		}
		h.exemplars[i] = exemplar{traceID: traceID, value: v, ts: time.Now()}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// DefBuckets are the default latency buckets in seconds.
var DefBuckets = []float64{.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

const (
	kindCounter = "counter"
	kindGauge   = "gauge"
	kindHist    = "histogram"
)

// family is one metric name: a help string, a kind, and one series per
// label combination.
type family struct {
	name, help, kind string
	bounds           []float64 // histograms only
	labelNames       []string

	mu     sync.Mutex
	order  []string
	series map[string]any // labels key -> *Counter | *Histogram | func() float64
}

func (f *family) get(labelValues []string, make func() any) any {
	if len(labelValues) != len(f.labelNames) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d", f.name, len(f.labelNames), len(labelValues)))
	}
	key := labelsKey(f.labelNames, labelValues)
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.series[key]
	if !ok {
		m = make()
		f.series[key] = m
		f.order = append(f.order, key)
	}
	return m
}

func labelsKey(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(v string) string { return labelEscaper.Replace(v) }

// Registry holds metric families in registration order and renders them.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func (r *Registry) family(name, help, kind string, bounds []float64, labelNames []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		bounds: bounds, labelNames: labelNames,
		series: make(map[string]any),
	}
	r.fams = append(r.fams, f)
	r.byName[name] = f
	return f
}

// Counter registers (or returns) an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, kindCounter, nil, nil)
	return f.get(nil, func() any { return new(Counter) }).(*Counter)
}

// CounterVec is a counter family keyed by label values.
type CounterVec struct{ f *family }

// CounterVec registers a labelled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.family(name, help, kindCounter, nil, labelNames)}
}

// With returns the counter for the given label values, creating it on
// first use.
func (cv *CounterVec) With(labelValues ...string) *Counter {
	return cv.f.get(labelValues, func() any { return new(Counter) }).(*Counter)
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time (for counts maintained elsewhere, e.g. inside the result cache).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.family(name, help, kindCounter, nil, nil)
	f.get(nil, func() any { return fn })
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.family(name, help, kindGauge, nil, nil)
	f.get(nil, func() any { return fn })
}

// HistogramVec is a histogram family keyed by label values.
type HistogramVec struct{ f *family }

// HistogramVec registers a labelled histogram family with the given
// bucket upper bounds (nil uses DefBuckets).
func (r *Registry) HistogramVec(name, help string, bounds []float64, labelNames ...string) *HistogramVec {
	if bounds == nil {
		bounds = DefBuckets
	}
	return &HistogramVec{f: r.family(name, help, kindHist, bounds, labelNames)}
}

// With returns the histogram for the given label values, creating it on
// first use.
func (hv *HistogramVec) With(labelValues ...string) *Histogram {
	return hv.f.get(labelValues, func() any {
		return &Histogram{bounds: hv.f.bounds, counts: make([]int64, len(hv.f.bounds)+1)}
	}).(*Histogram)
}

// WritePrometheus renders every registered family in the classic text
// exposition format, families in registration order, series in creation
// order. Exemplars are omitted — they are invalid in the classic format.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.write(w, false)
}

// WriteOpenMetrics renders the registry in the OpenMetrics text format:
// the same families, histogram buckets annotated with their trace-ID
// exemplars ("# {trace_id=...} value timestamp"), terminated by # EOF.
func (r *Registry) WriteOpenMetrics(w io.Writer) {
	r.write(w, true)
	fmt.Fprint(w, "# EOF\n")
}

func (r *Registry) write(w io.Writer, openMetrics bool) {
	r.mu.Lock()
	fams := make([]*family, len(r.fams))
	copy(fams, r.fams)
	r.mu.Unlock()
	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		f.mu.Lock()
		for _, key := range f.order {
			writeSeries(w, f, key, f.series[key], openMetrics)
		}
		f.mu.Unlock()
	}
}

func writeSeries(w io.Writer, f *family, key string, m any, openMetrics bool) {
	suffix := ""
	if key != "" {
		suffix = "{" + key + "}"
	}
	switch v := m.(type) {
	case *Counter:
		fmt.Fprintf(w, "%s%s %d\n", f.name, suffix, v.Value())
	case func() float64:
		fmt.Fprintf(w, "%s%s %g\n", f.name, suffix, v())
	case *Histogram:
		v.mu.Lock()
		cum := int64(0)
		for i, bound := range v.bounds {
			cum += v.counts[i]
			fmt.Fprintf(w, "%s_bucket%s %d", f.name, histSuffix(key, fmt.Sprintf("%g", bound)), cum)
			writeExemplar(w, v, i, openMetrics)
		}
		cum += v.counts[len(v.bounds)]
		fmt.Fprintf(w, "%s_bucket%s %d", f.name, histSuffix(key, "+Inf"), cum)
		writeExemplar(w, v, len(v.bounds), openMetrics)
		fmt.Fprintf(w, "%s_sum%s %g\n", f.name, suffix, v.sum)
		fmt.Fprintf(w, "%s_count%s %d\n", f.name, suffix, v.count)
		v.mu.Unlock()
	}
}

// writeExemplar finishes one bucket line: in OpenMetrics mode the
// bucket's exemplar rides the line; otherwise just the newline.
func writeExemplar(w io.Writer, h *Histogram, i int, openMetrics bool) {
	if openMetrics && i < len(h.exemplars) && h.exemplars[i].traceID != "" {
		e := h.exemplars[i]
		fmt.Fprintf(w, " # {trace_id=\"%s\"} %g %d.%03d", escapeLabel(e.traceID),
			e.value, e.ts.Unix(), e.ts.Nanosecond()/1e6)
	}
	fmt.Fprint(w, "\n")
}

func histSuffix(key, le string) string {
	if key == "" {
		return `{le="` + le + `"}`
	}
	return "{" + key + `,le="` + le + `"}`
}
