// Package powerstone provides the 12 benchmark kernels of the paper's
// evaluation (§3) — adpcm, bcnt, blit, compress, crc, des, engine, fir,
// g3fax, pocsag, qurt and ucbqsort — written in the assembly of the
// repository's MIPS-like VM, together with a runner that executes them with
// tracing enabled and captures the separate instruction and data reference
// streams.
//
// The original PowerStone sources are Motorola-proprietary C programs; this
// package substitutes kernels of the same name implementing the same class
// of algorithm (see DESIGN.md §2 for the substitution argument). Every
// kernel carries a pure-Go reference implementation; Run verifies the VM's
// output words against it, so the traces are known to come from a
// functionally correct execution.
package powerstone

import (
	"fmt"
	"sort"

	"github.com/example/cachedse/internal/asm"
	"github.com/example/cachedse/internal/trace"
	"github.com/example/cachedse/internal/vm"
)

// Benchmark is one kernel of the suite.
type Benchmark struct {
	// Name matches the PowerStone benchmark it stands in for.
	Name string
	// Description summarises the algorithm, in the paper's words where it
	// gives them.
	Description string
	// Source returns the assembly program.
	Source func() string
	// Reference computes the expected output words in pure Go.
	Reference func() []uint32
	// MemWords sizes the VM data memory.
	MemWords int
	// MaxSteps bounds execution.
	MaxSteps uint64
}

// Result is a traced benchmark execution.
type Result struct {
	Name  string
	Out   []uint32
	Steps uint64
	// Instr and Data are the separate reference streams. Instruction
	// addresses are plain PCs (the collector offset is removed), data
	// addresses are data-memory word addresses.
	Instr *trace.Trace
	Data  *trace.Trace
}

// Run assembles, executes and traces the benchmark, verifying its output
// against the Go reference.
func (b *Benchmark) Run() (*Result, error) {
	prog, err := asm.Assemble(b.Source())
	if err != nil {
		return nil, fmt.Errorf("powerstone: %s: %v", b.Name, err)
	}
	cpu := prog.NewCPU(b.MemWords)
	col := &vm.Collector{Trace: trace.New(0), IBase: 0}
	cpu.Tracer = col
	if err := cpu.Run(b.MaxSteps); err != nil {
		return nil, fmt.Errorf("powerstone: %s: %v", b.Name, err)
	}
	want := b.Reference()
	if len(cpu.Out) != len(want) {
		return nil, fmt.Errorf("powerstone: %s: %d output words, reference has %d (out=%v)",
			b.Name, len(cpu.Out), len(want), cpu.Out)
	}
	for i := range want {
		if cpu.Out[i] != want[i] {
			return nil, fmt.Errorf("powerstone: %s: output[%d] = %#x, reference %#x",
				b.Name, i, cpu.Out[i], want[i])
		}
	}
	instr, data := col.Trace.Split()
	return &Result{
		Name:  b.Name,
		Out:   cpu.Out,
		Steps: cpu.Steps(),
		Instr: instr,
		Data:  data,
	}, nil
}

var registry = map[string]*Benchmark{}

func register(b *Benchmark) {
	if _, dup := registry[b.Name]; dup {
		panic("powerstone: duplicate benchmark " + b.Name)
	}
	registry[b.Name] = b
}

// Names returns the benchmark names in the paper's (alphabetical) order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Get returns the benchmark with the given name, or nil.
func Get(name string) *Benchmark { return registry[name] }

// lcg is the shared pseudo-random generator: kernels that synthesise their
// own input data implement exactly this sequence in assembly, and the Go
// references mirror it, so both sides see identical inputs.
//
//	x' = x*1664525 + 1013904223 (mod 2^32)
type lcg uint32

func (l *lcg) next() uint32 {
	*l = lcg(uint32(*l)*1664525 + 1013904223)
	return uint32(*l)
}
