package core

import (
	"github.com/example/cachedse/internal/bitset"
	"github.com/example/cachedse/internal/trace"
)

// BCATNode is a node of the materialised Binary Cache Allocation Tree.
// Following Algorithm 1, a node holds a *pair* of reference sets (Zero,
// One): the two cache rows obtained by splitting the parent row on the next
// index bit. The root pair splits the full unique-reference set on bit B0
// and thus describes the two rows of a depth-2 cache; a pair at tree depth
// l describes two rows of a depth-2^(l+1) cache.
type BCATNode struct {
	Zero, One *bitset.Set
	// Left is the pair splitting Zero on the next bit (nil when |Zero| < 2,
	// the paper's stop criterion); Right likewise splits One.
	Left, Right *BCATNode
}

// BCAT is the materialised tree plus bookkeeping.
type BCAT struct {
	// Root is nil when the trace has fewer than two unique references (no
	// split is possible or needed).
	Root *BCATNode
	// Levels is the number of index-bit levels the tree can describe: row
	// sets exist for depths 2^1 .. 2^Levels.
	Levels int
	// NUnique is N', the universe size of every set in the tree.
	NUnique int
}

// BuildBCAT constructs the tree of Algorithm 1 from a stripped trace.
// levels limits the tree to the given number of index bits; levels <= 0
// uses the trace's significant address bits. The production postlude never
// materialises the tree (it walks it depth-first, §2.4); BuildBCAT serves
// Figure 3's rendering and the tests' Algorithm 3 oracle.
func BuildBCAT(s *trace.Stripped, levels int) *BCAT {
	if levels <= 0 {
		levels = s.AddrBits()
	}
	t := &BCAT{Levels: levels, NUnique: s.NUnique()}
	if s.NUnique() < 2 || levels == 0 {
		// Degenerate: with fewer than two unique references every row set
		// is trivially conflict-free; the tree has nothing to say.
		if levels > 0 && s.NUnique() >= 1 {
			zo := s.ZeroOneSets(1)
			t.Root = &BCATNode{Zero: zo[0].Zero, One: zo[0].One}
		}
		return t
	}
	zo := s.ZeroOneSets(levels)
	t.Root = &BCATNode{Zero: zo[0].Zero, One: zo[0].One}
	buildTree(t.Root, 1, zo)
	return t
}

// buildTree is the recursive body of Algorithm 1: split each child set of
// cardinality >= 2 on the next index bit.
func buildTree(n *BCATNode, l int, zo []trace.ZeroOne) {
	if l >= len(zo) {
		return
	}
	nu := n.Zero.Cap()
	if n.Zero.Count() >= 2 {
		left := &BCATNode{Zero: bitset.New(nu), One: bitset.New(nu)}
		left.Zero.And(n.Zero, zo[l].Zero)
		left.One.And(n.Zero, zo[l].One)
		n.Left = left
		buildTree(left, l+1, zo)
	}
	if n.One.Count() >= 2 {
		right := &BCATNode{Zero: bitset.New(nu), One: bitset.New(nu)}
		right.Zero.And(n.One, zo[l].Zero)
		right.One.And(n.One, zo[l].One)
		n.Right = right
		buildTree(right, l+1, zo)
	}
}

// LevelSets returns the row sets the tree records for a cache of depth 2^l
// (l >= 1), left to right, exactly as Figure 3 draws them: for each pair
// node at tree depth l-1 its Zero set then its One set. Rows whose parent
// set had cardinality < 2 are pruned by Algorithm 1 and are not returned;
// they can never conflict, so they contribute no misses at any deeper
// level.
func (t *BCAT) LevelSets(l int) []*bitset.Set {
	if t.Root == nil || l < 1 || l > t.Levels {
		return nil
	}
	var out []*bitset.Set
	var walk func(n *BCATNode, depth int)
	walk = func(n *BCATNode, depth int) {
		if n == nil {
			return
		}
		if depth == l-1 {
			out = append(out, n.Zero, n.One)
			return
		}
		walk(n.Left, depth+1)
		walk(n.Right, depth+1)
	}
	walk(t.Root, 0)
	return out
}

// NodeCount returns the number of pair nodes in the tree, for space
// accounting in the materialised-vs-DFS ablation.
func (t *BCAT) NodeCount() int {
	var count func(n *BCATNode) int
	count = func(n *BCATNode) int {
		if n == nil {
			return 0
		}
		return 1 + count(n.Left) + count(n.Right)
	}
	return count(t.Root)
}
