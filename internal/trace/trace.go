// Package trace represents memory reference traces and the prelude-phase
// transformations the paper applies to them: stripping a trace of N
// references down to its N' unique references (Table 2) and deriving the
// per-address-bit zero/one sets (Table 3) that seed the BCAT construction.
//
// Addresses are word (block) addresses: the byte-offset bits within a cache
// line are assumed to be stripped at capture time, matching the paper's
// fixed-line-size model (§2.1).
package trace

import "fmt"

// Kind classifies a memory reference. The paper's experiments keep
// instruction and data streams separate; Kind lets a mixed capture be
// filtered into the two streams.
type Kind uint8

const (
	// DataRead is a data load reference.
	DataRead Kind = iota
	// DataWrite is a data store reference.
	DataWrite
	// Instr is an instruction fetch reference.
	Instr
)

// String returns the conventional Dinero-style label for the kind.
func (k Kind) String() string {
	switch k {
	case DataRead:
		return "read"
	case DataWrite:
		return "write"
	case Instr:
		return "ifetch"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Valid reports whether k is one of the defined kinds.
func (k Kind) Valid() bool { return k <= Instr }

// Ref is a single memory reference: a word address plus its kind.
type Ref struct {
	Addr uint32
	Kind Kind
}

// Trace is an ordered sequence of memory references.
type Trace struct {
	Refs []Ref
}

// New returns an empty trace with capacity for n references.
func New(n int) *Trace {
	return &Trace{Refs: make([]Ref, 0, n)}
}

// FromAddrs builds a trace of the given kind from raw addresses. It is the
// common constructor in tests and for the paper's running example.
func FromAddrs(kind Kind, addrs []uint32) *Trace {
	t := New(len(addrs))
	for _, a := range addrs {
		t.Append(Ref{Addr: a, Kind: kind})
	}
	return t
}

// Append adds a reference to the end of the trace.
func (t *Trace) Append(r Ref) { t.Refs = append(t.Refs, r) }

// Len returns N, the total number of references.
func (t *Trace) Len() int { return len(t.Refs) }

// Filter returns a new trace holding only references matching keep.
func (t *Trace) Filter(keep func(Ref) bool) *Trace {
	out := New(0)
	for _, r := range t.Refs {
		if keep(r) {
			out.Append(r)
		}
	}
	return out
}

// Split separates a mixed trace into its instruction and data streams, the
// form the paper's processor simulator emits ("instrumented to output
// separate instruction and data memory reference traces", §3). It counts
// the instruction fetches first, so each stream is allocated once at its
// exact size.
func (t *Trace) Split() (instr, data *Trace) {
	ni := 0
	for _, r := range t.Refs {
		if r.Kind == Instr {
			ni++
		}
	}
	instr, data = New(ni), New(len(t.Refs)-ni)
	for _, r := range t.Refs {
		if r.Kind == Instr {
			instr.Append(r)
		} else {
			data.Append(r)
		}
	}
	return instr, data
}

// AddrBits returns the number of significant address bits: the smallest b
// such that every address fits in b bits. An empty trace has zero bits. The
// BCAT can consume at most AddrBits index-bit levels.
func (t *Trace) AddrBits() int {
	var max uint32
	for _, r := range t.Refs {
		if r.Addr > max {
			max = r.Addr
		}
	}
	bits := 0
	for max != 0 {
		bits++
		max >>= 1
	}
	return bits
}

// Clone returns a deep copy of the trace.
func (t *Trace) Clone() *Trace {
	c := &Trace{Refs: make([]Ref, len(t.Refs))}
	copy(c.Refs, t.Refs)
	return c
}
