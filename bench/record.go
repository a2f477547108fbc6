package main

import (
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit. The names and units
// match BENCHMARK.json; the package test holds the two together.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them, from its untraced passes.
var endToEnd = []metricDef{
	{"setup_s", "s"},       // median of the run's set-ups
	{"pass_s", "s"},        // median seconds of one pass (HTTP: one round)
	{"op_gmean_ms", "ms"},  // typical latency of one answer
	{"heap_peak_mb", "MB"}, // largest heap one answer (HTTP: one phase) needs
}

// perLayer are the metrics of single layers, reported by traced runs.
// A layer a workload does not exercise reads zero.
var perLayer = []metricDef{
	{"trace.decode_s", "s"},
	{"trace.strip_s", "s"},
	{"core.mrct_s", "s"},
	{"core.dedup_hit_rate", "ratio"},
	{"core.distinct_sets", "count"},
	{"core.postlude_s", "s"},
	{"core.nnu", "count"},
	{"core.ns_per_nnu", "ns"},
	{"sampling.filter_s", "s"},
	{"sampling.kept_refs", "count"},
	{"sampling.kept_unique", "count"},
	{"sampling.effective_rate", "ratio"},
	{"sampling.mae", "miss-ratio"},
	{"core.sampled_rest_s", "s"},
	{"onepass.sweep_fifo_s", "s"},
	{"onepass.sweep_plru_s", "s"},
	{"dse.lru_explore_s", "s"},
	{"dse.l1_pairs_s", "s"},
	{"dse.l2_filter_s", "s"},
	{"dse.candidates", "count"},
	{"dse.evaluated", "count"},
	{"dse.pruned_dominated", "count"},
	{"dse.pruned_threshold", "count"},
	{"dse.front_points", "count"},
	{"tracestore.put_s", "s"},
	{"tracestore.get_s", "s"},
	{"server.queue_wait_ms", "ms"},
	{"server.lookup_ms", "ms"},
	{"server.prelude_ms", "ms"},
	{"server.postlude_ms", "ms"},
	{"server.emit_ms", "ms"},
	{"server.space_ms", "ms"},
	{"server.outside_job_ms", "ms"},
	{"server.result_hit_rate", "ratio"},
	{"cluster.hop_ms", "ms"},
	{"cluster.proxied", "count"},
	{"http.upload_p50_ms", "ms"},
	{"http.cold_p50_ms", "ms"},
	{"http.cold_p95_ms", "ms"},
	{"http.warm_p50_ms", "ms"},
	{"http.cached_p50_ms", "ms"},
	{"http.cached_p99_ms", "ms"},
	{"http.space_p50_ms", "ms"},
	{"http.forward_p50_ms", "ms"},
	{"obs.recorder_overhead_pct", "%"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.layer_coverage", "ratio"},
}

// httpTails are the class latency percentiles reported beside each
// class's median. A 10 s traced run's untraced rounds hold 96 cold and
// 1 920 cached samples, 5 and 19 of them beyond these percentiles.
var httpTails = map[string]struct {
	q    float64
	name string
}{
	"cold":   {0.95, "http.cold_p95_ms"},
	"cached": {0.99, "http.cached_p99_ms"},
}

// record is everything one workload run measured.
type record struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Trace      bool           `json:"trace"`
	Host       host           `json:"host"`
	Passes     map[string]int `json:"passes"`
	Attempted  int            `json:"attempted"`
	Failed     int            `json:"failed"`
	WrongCells int            `json:"wrong_cells"`
	ErrorRate  float64        `json:"error_rate"`
	Correct    bool           `json:"correct"`
	// Probe is the probe's time over the run, as measured. Speed is
	// probeRef over its median: every time in Metrics is the
	// measured time times Speed, and Raw keeps the end-to-end times as
	// measured.
	Probe   summary            `json:"probe"`
	Speed   float64            `json:"speed"`
	Metrics map[string]summary `json:"metrics"`
	Raw     map[string]summary `json:"raw"`
}

func newRecord(w *workload, cfg config, setups, probes []float64, rss, heap float64, byMode map[passMode][]passResult) *record {
	rec := &record{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Host: hostShape(), Passes: map[string]int{}, Metrics: map[string]summary{},
	}
	for mode, passes := range byMode {
		rec.Passes[mode.String()] = len(passes)
		for _, p := range passes {
			rec.Attempted += len(p.answers)
			rec.Failed += p.errored + p.wrong
			rec.WrongCells += p.wrongCells
		}
	}
	if rec.Attempted > 0 {
		rec.ErrorRate = float64(rec.Failed) / float64(rec.Attempted)
	}
	rec.Correct = rec.Attempted > 0 && rec.Failed == 0 && rec.WrongCells == 0

	m := rec.Metrics
	plains := byMode[plain]
	var passSecs []float64
	var total float64
	answers := 0
	bySlot := map[string][]float64{}
	classes := map[string][]float64{}
	for _, p := range plains {
		passSecs = append(passSecs, p.elapsed.Seconds())
		total += p.elapsed.Seconds()
		answers += len(p.answers)
		for k, v := range p.answers {
			bySlot[k] = append(bySlot[k], v)
		}
		for c, xs := range p.classes {
			classes[c] = append(classes[c], xs...)
		}
	}
	// op_gmean_ms is the geometric mean over a pass's answers of each
	// answer's median across passes; its quartiles and minimum are those
	// of the answers' medians. A single answer varies by ±20 % from pass
	// to pass on a shared host, so any one of them, the median answer
	// included, moves by that much from run to run; the mean over every
	// answer does not, and the geometric mean weighs a 5 ms answer's
	// change as much as a 1 s answer's.
	var slotMedians []float64
	for _, xs := range bySlot {
		slotMedians = append(slotMedians, median(xs))
	}
	m["setup_s"] = summarize(setups, "s")
	m["pass_s"] = summarize(passSecs, "s")
	if total > 0 {
		m["requests_per_s"] = summary{Value: float64(answers) / total, Unit: "1/s", N: answers}
	}
	op := summarize(slotMedians, "ms")
	op.Value = geomean(slotMedians)
	m["op_gmean_ms"] = op
	m["heap_peak_mb"] = summary{Value: heap, Unit: "MB"}
	// The resident peak moves with when the collector runs (suite-exact:
	// 78–157 MB for one seed), so it is recorded but bounds nothing.
	m["rss_peak_mb"] = summary{Value: rss, Unit: "MB"}
	for c, xs := range classes {
		m["http."+c+"_p50_ms"] = summarize(xs, "ms")
		if tail, ok := httpTails[c]; ok {
			s := append([]float64(nil), xs...)
			sort.Float64s(s)
			m[tail.name] = summary{Value: quantile(s, tail.q), Unit: "ms", N: len(s)}
		}
	}

	if cfg.trace {
		addLayerMetrics(m, byMode)
	}

	rec.Probe = summarize(probes, "ms")
	rec.Speed = ms(probeRef) / rec.Probe.Value
	rec.Raw = map[string]summary{}
	for _, d := range endToEnd {
		if m[d.name].Unit != "MB" {
			rec.Raw[d.name] = m[d.name]
		}
	}
	for name, s := range m {
		switch s.Unit {
		case "s", "ms", "ns":
			m[name] = s.scaled(rec.Speed)
		case "1/s":
			m[name] = s.scaled(1 / rec.Speed)
		}
	}
	return rec
}

// addLayerMetrics adds the per-layer metrics of a traced run: the median
// over traced passes of each gauge, and the overheads.
func addLayerMetrics(m map[string]summary, byMode map[passMode][]passResult) {
	gauges := map[string][]float64{}
	for _, p := range byMode[traced] {
		for k, v := range p.gauges {
			gauges[k] = append(gauges[k], v)
		}
	}
	units := map[string]string{}
	for _, d := range perLayer {
		units[d.name] = d.unit
	}
	for k, xs := range gauges {
		unit := units[k]
		if unit == "" && strings.HasSuffix(k, "_s") {
			unit = "s"
		}
		m[k] = summarize(xs, unit)
	}
	if nnu := m["core.nnu"].Value; nnu > 0 {
		m["core.ns_per_nnu"] = summary{Value: m["pass_s"].Value * 1e9 / nnu, Unit: "ns"}
	}
	if fwd, ok := m["http.forward_p50_ms"]; ok {
		m["cluster.hop_ms"] = summary{Value: fwd.Value - m["http.cached_p50_ms"].Value, Unit: "ms"}
	}
	m["bench.trace_overhead_pct"] = overhead(byMode[plain], byMode[traced])
	if recs := byMode[recorded]; len(recs) > 0 {
		m["obs.recorder_overhead_pct"] = overhead(byMode[plain], recs)
	}
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			m[d.name] = summary{Unit: d.unit}
		}
	}
}

// overhead compares passes pairwise, cycle by cycle: the percentage by
// which each pass of b took longer than the plain pass of its cycle.
func overhead(a, b []passResult) summary {
	var pct []float64
	for i := 0; i < min(len(a), len(b)); i++ {
		if base := a[i].elapsed.Seconds(); base > 0 {
			pct = append(pct, 100*(b[i].elapsed.Seconds()/base-1))
		}
	}
	return summarize(pct, "%")
}

// result is the run's final output line: correctness, answer counts and
// the declared metrics of the run's kind.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *record) result(traced bool) result {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := result{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		out.Metrics[d.name] = metricValue{Value: r.Metrics[d.name].Value, Unit: d.unit}
	}
	return out
}
