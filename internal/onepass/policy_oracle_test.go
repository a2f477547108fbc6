package onepass

import (
	"fmt"
	"math/rand"

	"github.com/example/cachedse/internal/trace"
)

// assocState is one replica: the set array of a (depth, assoc) cache,
// flattened way-major.
type assocState struct {
	assoc int
	tags  []uint32
	valid []bool
	// stamp is lastUse for LRU, arrival for FIFO; unused otherwise.
	stamp []int
	// plru holds the per-set tree bits, plruStride (the next power of two
	// above assoc — the implicit heap's node count) per set.
	plru       []bool
	plruStride int
	rng        *rand.Rand
}

// policySweepOracle is the direct replica sweep: one map probe per
// reference for cold classification, and per associativity a full tag
// scan on every probe and a victim search on every miss. It is the
// dense-id kernel's test oracle and the baseline of BenchmarkPolicySweep.
func policySweepOracle(t *trace.Trace, depth, maxAssoc, lineWords int, p ReplPolicy) (*AssocSweep, error) {
	if depth < 1 || depth&(depth-1) != 0 {
		return nil, fmt.Errorf("onepass: depth %d is not a power of two >= 1", depth)
	}
	if maxAssoc < 1 {
		return nil, fmt.Errorf("onepass: max associativity %d < 1", maxAssoc)
	}
	if lineWords == 0 {
		lineWords = 1
	}
	if lineWords < 1 || lineWords&(lineWords-1) != 0 {
		return nil, fmt.Errorf("onepass: line size %d words is not a power of two >= 1", lineWords)
	}
	if p > ReplPLRU {
		return nil, fmt.Errorf("onepass: invalid policy %d", p)
	}

	var lineShift, depthBits uint
	for ls := lineWords; ls > 1; ls >>= 1 {
		lineShift++
	}
	for d := depth; d > 1; d >>= 1 {
		depthBits++
	}
	idxMask := uint32(depth - 1)

	states := make([]*assocState, maxAssoc+1)
	for a := 1; a <= maxAssoc; a++ {
		st := &assocState{
			assoc: a,
			tags:  make([]uint32, depth*a),
			valid: make([]bool, depth*a),
		}
		switch p {
		case ReplLRU, ReplFIFO:
			st.stamp = make([]int, depth*a)
		case ReplRandom:
			st.rng = rand.New(rand.NewSource(randSeed))
		case ReplPLRU:
			st.plruStride = 1
			for st.plruStride < a {
				st.plruStride <<= 1
			}
			st.plru = make([]bool, depth*st.plruStride)
		}
		states[a] = st
	}

	out := &AssocSweep{
		Depth:       depth,
		LineWords:   lineWords,
		Policy:      p,
		MissByAssoc: make([]int, maxAssoc+1),
	}
	seen := make(map[uint32]bool, 1024)
	clock := 0
	for _, r := range t.Refs {
		clock++
		out.Accesses++
		lineAddr := r.Addr >> lineShift
		idx := int(lineAddr & idxMask)
		tag := lineAddr >> depthBits
		cold := !seen[lineAddr]
		if cold {
			out.Cold++
			seen[lineAddr] = true
		}
		for a := 1; a <= maxAssoc; a++ {
			if states[a].access(idx, tag, clock, p) {
				continue // hit
			}
			if !cold {
				out.MissByAssoc[a]++
			}
		}
	}
	return out, nil
}

// access probes one replica's set for tag, updating replacement state,
// and reports a hit. On a miss it fills an invalid way or evicts per
// policy — the same sequence as cache.Access with write-allocate.
func (st *assocState) access(idx int, tag uint32, clock int, p ReplPolicy) bool {
	base := idx * st.assoc
	for w := 0; w < st.assoc; w++ {
		if st.valid[base+w] && st.tags[base+w] == tag {
			switch p {
			case ReplLRU:
				st.stamp[base+w] = clock
			case ReplPLRU:
				plruTouch(st.plruSet(idx), st.assoc, w)
			}
			return true
		}
	}
	victim := -1
	for w := 0; w < st.assoc; w++ {
		if !st.valid[base+w] {
			victim = w
			break
		}
	}
	if victim < 0 {
		switch p {
		case ReplLRU, ReplFIFO:
			victim = 0
			best := st.stamp[base]
			for w := 1; w < st.assoc; w++ {
				if st.stamp[base+w] < best {
					victim, best = w, st.stamp[base+w]
				}
			}
		case ReplRandom:
			victim = st.rng.Intn(st.assoc)
		case ReplPLRU:
			victim = plruVictim(st.plruSet(idx), st.assoc)
		}
	}
	st.tags[base+victim] = tag
	st.valid[base+victim] = true
	if p == ReplLRU || p == ReplFIFO {
		st.stamp[base+victim] = clock
	}
	if p == ReplPLRU {
		plruTouch(st.plruSet(idx), st.assoc, victim)
	}
	return false
}

// plruSet returns set idx's tree bits.
func (st *assocState) plruSet(idx int) []bool {
	base := idx * st.plruStride
	return st.plru[base : base+st.plruStride]
}

// plruTouch and plruVictim mirror internal/cache's midpoint-bisection
// PLRU tree bit for bit (node i's children are 2i+1/2i+2; bits[node]
// true means the next victim lies right).

func plruTouch(bits []bool, n, w int) {
	node, lo, hi := 0, 0, n
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if w < mid {
			bits[node] = true
			node = 2*node + 1
			hi = mid
		} else {
			bits[node] = false
			node = 2*node + 2
			lo = mid
		}
	}
}

func plruVictim(bits []bool, n int) int {
	node, lo, hi := 0, 0, n
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if bits[node] {
			node = 2*node + 2
			lo = mid
		} else {
			node = 2*node + 1
			hi = mid
		}
	}
	return lo
}
