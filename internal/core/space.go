package core

import (
	"fmt"
	"sort"
	"strings"
)

// This file defines the declarative design-space model: a Space names the
// axes a designer wants explored (per-level depth, associativity, line
// size, replacement policy, storage technology, and the hierarchy
// topology); the evaluator in internal/dse walks it and emits a Front of
// Pareto-optimal Points over (misses, energy, area). The core package owns
// the vocabulary so the engine, the service wire format and the CLI all
// speak the same types.

// Policy names a replacement policy on the exploration axis. The zero
// value is LRU — the paper's fixed policy and the only one the analytical
// postlude models directly; the others are evaluated by the one-pass
// estimator in internal/onepass.
type Policy uint8

const (
	PolicyLRU Policy = iota
	PolicyFIFO
	PolicyRandom
	PolicyPLRU
)

// String returns the canonical lower-case policy name used on the wire
// and in CLI flags.
func (p Policy) String() string {
	switch p {
	case PolicyLRU:
		return "lru"
	case PolicyFIFO:
		return "fifo"
	case PolicyRandom:
		return "random"
	case PolicyPLRU:
		return "plru"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// ParsePolicy maps a policy name (case-insensitive) to its Policy value.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "lru":
		return PolicyLRU, nil
	case "fifo":
		return PolicyFIFO, nil
	case "random", "rand":
		return PolicyRandom, nil
	case "plru", "tree-plru":
		return PolicyPLRU, nil
	}
	return 0, fmt.Errorf("core: unknown replacement policy %q (want lru, fifo, random or plru)", s)
}

// Technology names the storage technology of a cache level. It selects
// the cacti parameter scaling, not the miss behaviour: misses depend only
// on geometry and policy.
type Technology uint8

const (
	// TechSRAM is conventional SRAM — the calibration point of the cost
	// model.
	TechSRAM Technology = iota
	// TechNVMHybrid is a hybrid NVM data array with an SRAM tag path:
	// denser and lower-leakage than SRAM, with costlier writes.
	TechNVMHybrid
)

// String returns the canonical technology name.
func (t Technology) String() string {
	switch t {
	case TechSRAM:
		return "sram"
	case TechNVMHybrid:
		return "nvm-hybrid"
	}
	return fmt.Sprintf("technology(%d)", uint8(t))
}

// ParseTechnology maps a technology name to its Technology value.
func ParseTechnology(s string) (Technology, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "sram":
		return TechSRAM, nil
	case "nvm-hybrid", "nvm", "hybrid":
		return TechNVMHybrid, nil
	}
	return 0, fmt.Errorf("core: unknown technology %q (want sram or nvm-hybrid)", s)
}

// Topology names the hierarchy shape of a Space.
type Topology uint8

const (
	// TopoUnified is a single cache serving the whole reference stream —
	// the paper's model.
	TopoUnified Topology = iota
	// TopoSplit is separate L1 instruction and data caches, no L2.
	TopoSplit
	// TopoSplitL2 is split L1I/L1D backed by a shared unified L2.
	TopoSplitL2
)

// String returns the canonical topology name.
func (t Topology) String() string {
	switch t {
	case TopoUnified:
		return "unified"
	case TopoSplit:
		return "split"
	case TopoSplitL2:
		return "split+l2"
	}
	return fmt.Sprintf("topology(%d)", uint8(t))
}

// ParseTopology maps a topology name to its Topology value.
func ParseTopology(s string) (Topology, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "unified":
		return TopoUnified, nil
	case "split":
		return TopoSplit, nil
	case "split+l2", "split-l2", "splitl2":
		return TopoSplitL2, nil
	}
	return 0, fmt.Errorf("core: unknown topology %q (want unified, split or split+l2)", s)
}

// LevelSpace describes the axes explored for one cache level. The depth
// axis is every power of two from 1 to MaxDepth and the associativity
// axis 1..MaxAssoc, matching the analytical engine's native grid.
type LevelSpace struct {
	// MaxDepth caps the explored depths (power of two). Zero uses the
	// default for the level's position in the hierarchy.
	MaxDepth int
	// MaxAssoc caps the associativity axis. Zero means DefaultMaxAssoc.
	MaxAssoc int
	// LineWords lists the line sizes (in words, powers of two) to explore.
	// Empty means one-word lines, the paper's model.
	LineWords []int
	// Policies lists the replacement policies to explore. Empty means LRU
	// only.
	Policies []Policy
	// Technologies lists the storage technologies to cost. Empty means
	// SRAM only.
	Technologies []Technology
}

// DefaultMaxAssoc bounds the associativity axis when a LevelSpace leaves
// MaxAssoc zero. Eight ways covers every embedded design point the paper
// considers.
const DefaultMaxAssoc = 8

const (
	defaultL1MaxDepth = 64
	defaultL2MaxDepth = 512
)

// normalized returns the level space with defaults filled in; last marks
// the level's hierarchy position (it only picks the MaxDepth default).
func (ls LevelSpace) normalized(last bool) LevelSpace {
	if ls.MaxDepth == 0 {
		if last {
			ls.MaxDepth = defaultL2MaxDepth
		} else {
			ls.MaxDepth = defaultL1MaxDepth
		}
	}
	if ls.MaxAssoc == 0 {
		ls.MaxAssoc = DefaultMaxAssoc
	}
	if len(ls.LineWords) == 0 {
		ls.LineWords = []int{1}
	}
	if len(ls.Policies) == 0 {
		ls.Policies = []Policy{PolicyLRU}
	}
	if len(ls.Technologies) == 0 {
		ls.Technologies = []Technology{TechSRAM}
	}
	return ls
}

// validate checks the level space axes; name labels errors.
func (ls LevelSpace) validate(name string) error {
	if ls.MaxDepth < 1 || ls.MaxDepth&(ls.MaxDepth-1) != 0 {
		return fmt.Errorf("core: %s MaxDepth %d is not a power of two >= 1", name, ls.MaxDepth)
	}
	if ls.MaxAssoc < 1 {
		return fmt.Errorf("core: %s MaxAssoc %d < 1", name, ls.MaxAssoc)
	}
	for _, lw := range ls.LineWords {
		if lw < 1 || lw&(lw-1) != 0 {
			return fmt.Errorf("core: %s line size %d words is not a power of two >= 1", name, lw)
		}
	}
	for _, p := range ls.Policies {
		if p > PolicyPLRU {
			return fmt.Errorf("core: %s has invalid policy %d", name, p)
		}
	}
	for _, t := range ls.Technologies {
		if t > TechNVMHybrid {
			return fmt.Errorf("core: %s has invalid technology %d", name, t)
		}
	}
	return nil
}

// key renders the level space canonically for cache keys.
func (ls LevelSpace) key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "d=%d,a=%d,l=", ls.MaxDepth, ls.MaxAssoc)
	for i, lw := range ls.LineWords {
		if i > 0 {
			b.WriteByte('+')
		}
		fmt.Fprintf(&b, "%d", lw)
	}
	b.WriteString(",p=")
	for i, p := range ls.Policies {
		if i > 0 {
			b.WriteByte('+')
		}
		b.WriteString(p.String())
	}
	b.WriteString(",t=")
	for i, t := range ls.Technologies {
		if i > 0 {
			b.WriteByte('+')
		}
		b.WriteString(t.String())
	}
	return b.String()
}

// Space is a declarative cache design space: the topology plus the axes
// of each level present in it. L2 is ignored unless the topology includes
// a second level. The zero Space normalizes to the paper's model — one
// unified LRU SRAM level.
type Space struct {
	Topology Topology
	// L1 describes the first-level axes. Under a split topology the same
	// axes apply to both the instruction and the data cache — the
	// evaluator pairs their candidates freely, so distinct I/D shapes
	// still emerge on the front.
	L1 LevelSpace
	// L2 describes the shared second level (TopoSplitL2 only).
	L2 LevelSpace
}

// DefaultSpace is the space explored when a caller asks for a design-space
// run without naming axes: split L1I/L1D with a shared L2, three
// deterministic policies, SRAM cost model.
func DefaultSpace() Space {
	return Space{
		Topology: TopoSplitL2,
		L1: LevelSpace{
			Policies: []Policy{PolicyLRU, PolicyFIFO, PolicyPLRU},
		},
		L2: LevelSpace{
			Policies: []Policy{PolicyLRU, PolicyFIFO, PolicyPLRU},
		},
	}
}

// Normalized returns the space with every axis defaulted.
func (s Space) Normalized() Space {
	s.L1 = s.L1.normalized(false)
	if s.Topology == TopoSplitL2 {
		s.L2 = s.L2.normalized(true)
	} else {
		s.L2 = LevelSpace{}
	}
	return s
}

// Validate checks the normalized space. Callers should normalize first;
// Validate normalizes internally so a zero Space is valid.
func (s Space) Validate() error {
	if s.Topology > TopoSplitL2 {
		return fmt.Errorf("core: invalid topology %d", s.Topology)
	}
	n := s.Normalized()
	if err := n.L1.validate("L1"); err != nil {
		return err
	}
	if s.Topology == TopoSplitL2 {
		if err := n.L2.validate("L2"); err != nil {
			return err
		}
	}
	return nil
}

// Key renders the normalized space as a canonical string, for result
// memoisation and logs.
func (s Space) Key() string {
	n := s.Normalized()
	k := n.Topology.String() + "|" + n.L1.key()
	if n.Topology == TopoSplitL2 {
		k += "|" + n.L2.key()
	}
	return k
}

// LevelConfig is one concrete cache level chosen from a Space.
type LevelConfig struct {
	// Level names the slot: "L1" (unified), "L1I"/"L1D" (split), "L2".
	Level      string
	Depth      int
	Assoc      int
	LineWords  int
	Policy     Policy
	Technology Technology
}

// SizeWords returns the level's capacity in words.
func (c LevelConfig) SizeWords() int { return c.Depth * c.Assoc * c.LineWords }

// String renders the level compactly, e.g. "L1I D=64 A=2 lw=1 lru sram".
func (c LevelConfig) String() string {
	return fmt.Sprintf("%s D=%d A=%d lw=%d %s %s",
		c.Level, c.Depth, c.Assoc, c.LineWords, c.Policy, c.Technology)
}

// Point is one evaluated hierarchy: its per-level configuration and the
// three objectives of the design space. Misses counts total trips to main
// memory (cold plus non-cold misses of the last level, both streams under
// a split topology); EnergyPJ the modelled access energy of the whole
// hierarchy including the miss penalty; AreaUM2 the summed cacti area.
type Point struct {
	Levels   []LevelConfig
	Misses   int
	EnergyPJ float64
	AreaUM2  float64
}

// Key renders the point's configuration canonically — the tie-break order
// of the front.
func (p Point) Key() string {
	parts := make([]string, len(p.Levels))
	for i, l := range p.Levels {
		parts[i] = l.String()
	}
	return strings.Join(parts, "; ")
}

// Dominates reports whether p is at least as good as q on every objective
// and strictly better on at least one.
func (p Point) Dominates(q Point) bool {
	if p.Misses > q.Misses || p.EnergyPJ > q.EnergyPJ || p.AreaUM2 > q.AreaUM2 {
		return false
	}
	return p.Misses < q.Misses || p.EnergyPJ < q.EnergyPJ || p.AreaUM2 < q.AreaUM2
}

// ties reports whether p and q are exactly equal on all three objectives.
func (p Point) ties(q Point) bool {
	return p.Misses == q.Misses && p.EnergyPJ == q.EnergyPJ && p.AreaUM2 == q.AreaUM2
}

// PruneStats counts per-level candidate evaluations: how many (depth,
// assoc, policy, line) cells the space contains, how many were actually
// miss-evaluated, and how many the analytical cuts skipped. Technology is
// excluded — it shares the miss evaluation, so counting it would inflate
// the prune rate without skipping any work.
type PruneStats struct {
	// Candidates is the number of candidate cells enumerated.
	Candidates int
	// Evaluated is the number whose miss count was computed.
	Evaluated int
	// PrunedDominated counts cells skipped because they are analytically
	// dominated: associativities past A_zero (LRU, in the same level's
	// policy set, reaches zero non-cold misses at no greater cost) and LRU
	// plateau associativities (same misses as a cheaper neighbour).
	PrunedDominated int
	// PrunedThreshold counts non-LRU cells skipped by the α-threshold:
	// associativities past the point where the LRU profile shows the
	// level within eps of its compulsory floor. Like the A_zero cut it
	// applies only to levels whose policy set includes LRU.
	PrunedThreshold int
}

// Pruned returns the total number of skipped candidate cells.
func (s PruneStats) Pruned() int { return s.PrunedDominated + s.PrunedThreshold }

// Rate returns the fraction of candidates pruned, in [0, 1].
func (s PruneStats) Rate() float64 {
	if s.Candidates == 0 {
		return 0
	}
	return float64(s.Pruned()) / float64(s.Candidates)
}

// Add folds another tally into s.
func (s *PruneStats) Add(o PruneStats) {
	s.Candidates += o.Candidates
	s.Evaluated += o.Evaluated
	s.PrunedDominated += o.PrunedDominated
	s.PrunedThreshold += o.PrunedThreshold
}

// Front is a Pareto front over Points: a mutually non-dominated set with
// a deterministic order. Exact objective ties keep only the point with
// the lexically smallest Key, so the front is bit-stable regardless of
// insertion order.
type Front struct {
	pts []Point
	// Stats tallies the candidate pruning of the exploration that built
	// the front.
	Stats PruneStats
}

// Add offers a point to the front. It returns false if an existing point
// dominates (or exactly ties with a smaller key than) the candidate;
// otherwise the candidate enters and every point it dominates leaves.
func (f *Front) Add(p Point) bool {
	for _, q := range f.pts {
		if q.Dominates(p) {
			return false
		}
		if q.ties(p) && q.Key() <= p.Key() {
			return false
		}
	}
	kept := f.pts[:0]
	for _, q := range f.pts {
		if p.Dominates(q) || (p.ties(q) && p.Key() < q.Key()) {
			continue
		}
		kept = append(kept, q)
	}
	f.pts = append(kept, p)
	return true
}

// Points returns the front sorted by (misses, energy, area, key). The
// returned slice is the front's own storage; callers must not mutate it.
func (f *Front) Points() []Point {
	sort.Slice(f.pts, func(i, j int) bool {
		a, b := f.pts[i], f.pts[j]
		if a.Misses != b.Misses {
			return a.Misses < b.Misses
		}
		if a.EnergyPJ != b.EnergyPJ {
			return a.EnergyPJ < b.EnergyPJ
		}
		if a.AreaUM2 != b.AreaUM2 {
			return a.AreaUM2 < b.AreaUM2
		}
		return a.Key() < b.Key()
	})
	return f.pts
}

// Len returns the number of points on the front.
func (f *Front) Len() int { return len(f.pts) }

// DefaultAlphaEps is the α-threshold slack: the associativity axis is
// cut once all but this fraction of the achievable miss improvement is
// realized.
const DefaultAlphaEps = 0.05

// AlphaThreshold computes the associativity threshold α* of an LRU level
// profile over the axis 1..maxAssoc, ending at A_zero when that comes
// first: AlphaThresholdMisses over the profile's miss counts. eps <= 0
// uses DefaultAlphaEps.
func AlphaThreshold(l *LevelResult, maxAssoc int, eps float64) int {
	last := l.AZero
	if maxAssoc >= 1 && maxAssoc < last {
		last = maxAssoc
	}
	miss := make([]int, last+1)
	for a := 1; a <= last; a++ {
		miss[a] = l.Misses(a)
	}
	return AlphaThresholdMisses(miss, eps)
}

// AlphaThresholdMisses computes the associativity threshold α* of an LRU
// miss profile, missByAssoc[a] being the non-cold misses of an a-way
// cache over the axis 1..len-1 (index 0 unused): the smallest
// associativity that realizes at least (1-eps) of the improvement the
// axis can deliver, i.e. the first a with
//
//	misses(a) - floor <= eps * (misses(1) - floor)
//
// where floor is the miss count at the end of the axis. Bender et al.
// (arXiv:2304.04954) show a set-associative LRU cache behaves like a
// fully-associative one beyond a modest threshold — additional ways past
// it buy negligible improvement. On an exact profile the threshold is
// exact, so associativities past it are pruned for the approximating
// policies (FIFO/Random/PLRU track LRU's diminishing returns there) —
// but only beside an LRU candidate that stands for them on the front;
// the cut is approximate, not a dominance proof. The result never passes
// A_zero, the first associativity with no misses. eps <= 0 uses
// DefaultAlphaEps.
func AlphaThresholdMisses(missByAssoc []int, eps float64) int {
	if eps <= 0 {
		eps = DefaultAlphaEps
	}
	last := len(missByAssoc) - 1
	if last < 1 {
		return 1
	}
	m1, floor := missByAssoc[1], missByAssoc[last]
	if m1 <= floor {
		return 1
	}
	budget := floor + int(eps*float64(m1-floor))
	for a := 1; a < last; a++ {
		if missByAssoc[a] <= budget {
			return a
		}
	}
	return last
}
