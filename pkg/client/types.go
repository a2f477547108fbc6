package client

import "time"

// TraceInfo describes one stored trace, as returned by upload/get/list.
type TraceInfo struct {
	Digest    string    `json:"digest"`
	N         int       `json:"n"`
	NUnique   int       `json:"n_unique"`
	MaxMisses int       `json:"max_misses"`
	AddrBits  int       `json:"addr_bits"`
	Kind      string    `json:"kind"`
	Uploaded  time.Time `json:"uploaded"`
}

// TracePage is one page of GET /v1/traces. A non-empty NextCursor means
// more traces follow; pass it as ListTraces' Cursor to continue.
type TracePage struct {
	Traces     []TraceInfo `json:"traces"`
	NextCursor string      `json:"next_cursor,omitempty"`
}

// ListOptions filters and pages GET /v1/traces.
type ListOptions struct {
	Limit  int    // page size; 0 uses the server default
	Cursor string // resume after this digest (from TracePage.NextCursor)
	Kind   string // "instr", "data" or "mixed"; empty lists all
}

// Instance is one emitted (depth, assoc) cache configuration.
type Instance struct {
	Depth     int `json:"depth"`
	Assoc     int `json:"assoc"`
	SizeWords int `json:"size_words"`
	Misses    int `json:"misses"`
	// MissesSE/MissesLo/MissesHi are v1 interval fields for an estimated
	// miss count: its standard error and bounds at
	// SampleInfo.Confidence. This server answers every request exactly
	// and no longer sets them; they stay for wire compatibility.
	MissesSE float64 `json:"misses_se,omitempty"`
	MissesLo int     `json:"misses_lo,omitempty"`
	MissesHi int     `json:"misses_hi,omitempty"`
}

// ExploreRequest asks for the set of cache instances meeting a miss
// budget. Exactly one of K / KPct must be set (K counts misses, KPct is
// a percentage of the trace's maximum) — unless Space is present, which
// switches the request to a design-space exploration and makes the
// budget optional.
type ExploreRequest struct {
	Trace    string   `json:"trace"`
	K        *int     `json:"k,omitempty"`
	KPct     *float64 `json:"kpct,omitempty"`
	MaxDepth int      `json:"max_depth,omitempty"`
	Pareto   bool     `json:"pareto,omitempty"`
	// Parallel is a v1 field that once asked for a multi-worker postlude.
	// This server still accepts it for v1 compatibility, but it has no
	// effect: every exploration runs the one depth-first postlude and
	// answers the same either way.
	Parallel bool `json:"parallel,omitempty"`
	Verify   bool `json:"verify,omitempty"`
	// SampleRate is a v1 field that once asked for a spatially sampled,
	// approximate exploration at that rate (0 < rate <= 1). This server
	// still validates it — rates outside the range fail with
	// ErrInvalidSampleRate, and combining it with Verify is rejected — but
	// answers exactly, with a Sample summary marked Exact.
	SampleRate float64 `json:"sample_rate,omitempty"`
	// Space, when present, asks for a design-space exploration: the
	// response carries the Pareto front of the space (Pareto/Prune/Space
	// fields) instead of a budget-K instance list. Unknown policy names
	// fail with ErrInvalidPolicy, any other shape problem with
	// ErrInvalidSpace; combining with SampleRate or Verify is rejected.
	Space *Space `json:"space,omitempty"`
}

// SpaceLevel describes one cache level's exploration axes in a design
// space. Every field is optional; zeros take the server defaults.
type SpaceLevel struct {
	MaxDepth int `json:"max_depth,omitempty"`
	MaxAssoc int `json:"max_assoc,omitempty"`
	// LineWords lists line sizes in words (powers of two).
	LineWords []int `json:"line_words,omitempty"`
	// Policies lists replacement policies: "lru", "fifo", "random", "plru".
	Policies []string `json:"policies,omitempty"`
	// Technologies lists storage technologies: "sram", "nvm-hybrid".
	Technologies []string `json:"technologies,omitempty"`
}

// Space is a declarative cache design space: a topology ("unified",
// "split" or "split+l2") plus the axes of each level in it. The zero
// value explores the paper's model — one unified LRU SRAM level.
type Space struct {
	Topology string      `json:"topology,omitempty"`
	L1       *SpaceLevel `json:"l1,omitempty"`
	// L2 is meaningful only under the "split+l2" topology.
	L2 *SpaceLevel `json:"l2,omitempty"`
}

// ParetoLevel is one concrete cache level of a Pareto point.
type ParetoLevel struct {
	Level      string `json:"level"`
	Depth      int    `json:"depth"`
	Assoc      int    `json:"assoc"`
	LineWords  int    `json:"line_words"`
	SizeWords  int    `json:"size_words"`
	Policy     string `json:"policy"`
	Technology string `json:"technology"`
}

// ParetoPoint is one point of an explored space's Pareto front: a full
// hierarchy configuration and its three objectives.
type ParetoPoint struct {
	Levels   []ParetoLevel `json:"levels"`
	Misses   int           `json:"misses"`
	EnergyPJ float64       `json:"energy_pj"`
	AreaUM2  float64       `json:"area_um2"`
}

// PruneInfo reports how much of a space's candidate grid the server's
// analytical cuts skipped without evaluating.
type PruneInfo struct {
	Candidates      int     `json:"candidates"`
	Evaluated       int     `json:"evaluated"`
	PrunedDominated int     `json:"pruned_dominated"`
	PrunedThreshold int     `json:"pruned_threshold"`
	Rate            float64 `json:"rate"`
}

// SampleInfo summarises the sampling estimate of a request that carried a
// sample rate: the rates used, the measured kept/dropped reference
// totals, and the confidence level of the v1 per-instance intervals.
type SampleInfo struct {
	Mode          string  `json:"mode"`
	RequestedRate float64 `json:"requested_rate"`
	EffectiveRate float64 `json:"effective_rate"`
	Confidence    float64 `json:"confidence"`
	KeptRefs      int64   `json:"kept_refs"`
	DroppedRefs   int64   `json:"dropped_refs"`
	// Exact marks an answer that is the exact engine's; this server sets
	// it on every sampled answer (effective rate 1, nothing dropped).
	Exact bool `json:"exact,omitempty"`
}

// ExploreResponse is the exploration's answer. Degraded marks an answer
// served from cached results while the server was saturated — exact, but
// any requested verification was skipped. Sample is present iff the
// request carried a sample rate.
type ExploreResponse struct {
	Trace     string      `json:"trace"`
	K         int         `json:"k"`
	MaxMisses int         `json:"max_misses"`
	Instances []Instance  `json:"instances"`
	Table     string      `json:"table"`
	Cached    bool        `json:"cached"`
	Verified  bool        `json:"verified,omitempty"`
	Degraded  bool        `json:"degraded,omitempty"`
	Sample    *SampleInfo `json:"sample,omitempty"`
	// Space echoes the canonical key of the explored design space; Pareto
	// and Prune carry its front and pruning tally. All three are present
	// iff the request carried a Space block.
	Space  string        `json:"space,omitempty"`
	Pareto []ParetoPoint `json:"pareto,omitempty"`
	Prune  *PruneInfo    `json:"prune,omitempty"`
}

// SimulateRequest runs one concrete cache configuration over a trace.
type SimulateRequest struct {
	Trace        string `json:"trace"`
	Depth        int    `json:"depth"`
	Assoc        int    `json:"assoc,omitempty"`
	LineWords    int    `json:"line_words,omitempty"`
	Repl         string `json:"repl,omitempty"`
	WriteThrough bool   `json:"write_through,omitempty"`
}

// SimulateResponse reports the simulation's hit/miss accounting.
type SimulateResponse struct {
	Trace      string  `json:"trace"`
	Config     string  `json:"config"`
	Accesses   int     `json:"accesses"`
	Hits       int     `json:"hits"`
	ColdMisses int     `json:"cold_misses"`
	Misses     int     `json:"misses"`
	Writebacks int     `json:"writebacks"`
	MissRate   float64 `json:"miss_rate"`
	Cached     bool    `json:"cached"`
	Degraded   bool    `json:"degraded,omitempty"`
}

// VerifyRequest cross-checks analytical instances against simulation.
type VerifyRequest struct {
	Trace     string           `json:"trace"`
	K         int              `json:"k"`
	Instances []VerifyInstance `json:"instances"`
}

// VerifyInstance names one (depth, assoc) pair to verify.
type VerifyInstance struct {
	Depth int `json:"depth"`
	Assoc int `json:"assoc"`
}

// VerifyResponse reports whether every instance met the budget.
type VerifyResponse struct {
	Trace  string `json:"trace"`
	K      int    `json:"k"`
	OK     bool   `json:"ok"`
	Reason string `json:"reason,omitempty"`
}

// ClusterNode is one member of the cluster topology, as the queried
// node sees it: Self marks the answering node, Healthy its passive
// health verdict on the peer (always true for itself).
type ClusterNode struct {
	ID      string `json:"id"`
	URL     string `json:"url"`
	Self    bool   `json:"self"`
	Healthy bool   `json:"healthy"`
}

// ClusterInfo is GET /v1/cluster: the static membership and replication
// factor. A single-node server answers with no nodes and replicas 1.
type ClusterInfo struct {
	Self     string        `json:"self"`
	Replicas int           `json:"replicas"`
	Nodes    []ClusterNode `json:"nodes"`
}

// JobStatus mirrors the server's job snapshot.
type JobStatus struct {
	ID       string     `json:"id"`
	Kind     string     `json:"kind"`
	State    string     `json:"state"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	Error    string     `json:"error,omitempty"`
	Result   any        `json:"result,omitempty"`
	// TraceID names the distributed trace the job's spans belong to; pass
	// it to exemplar-linked dashboards or join it against /v1/debug/slow.
	TraceID string `json:"trace_id,omitempty"`
}

// TraceNode is one span in a job's trace tree, as served by
// GET /v1/jobs/{id}/trace. Node names the cluster member that recorded
// the span (empty on a single-node server).
type TraceNode struct {
	Name       string         `json:"name"`
	Node       string         `json:"node,omitempty"`
	Start      time.Time      `json:"start"`
	DurationNS int64          `json:"duration_ns"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []TraceNode    `json:"children,omitempty"`
}

// JobTraceResponse is a job's recorded span tree. With cluster stitching
// requested, Nodes lists every cluster member that contributed spans and
// the tree crosses node boundaries at forwarding hops.
type JobTraceResponse struct {
	Job     string      `json:"job"`
	State   string      `json:"state"`
	TraceID string      `json:"trace_id,omitempty"`
	Nodes   []string    `json:"nodes,omitempty"`
	Spans   []TraceNode `json:"spans"`
	Dropped int         `json:"dropped"`
}

// Terminal reports whether the job has reached a final state.
func (j JobStatus) Terminal() bool {
	switch j.State {
	case "done", "failed", "canceled":
		return true
	}
	return false
}
