package main

import (
	"fmt"
	"math/rand"

	"github.com/example/cachedse/internal/core"
	"github.com/example/cachedse/internal/minicbench"
	"github.com/example/cachedse/internal/powerstone"
	"github.com/example/cachedse/internal/trace"
	"github.com/example/cachedse/internal/tracegen"
)

// named is one input trace, named "<kernel>.<instr|data>" after the
// PowerStone kernel that produced it.
type named struct {
	name string
	tr   *trace.Trace
}

// powerstoneStreams runs the 12 hand-assembled PowerStone kernels on the
// VM: the paper's 24 reference streams.
func powerstoneStreams() ([]named, error) {
	var out []named
	for _, name := range powerstone.Names() {
		res, err := powerstone.Get(name).Run()
		if err != nil {
			return nil, fmt.Errorf("running %s: %w", name, err)
		}
		out = append(out, named{name + ".instr", res.Instr}, named{name + ".data", res.Data})
	}
	return out, nil
}

// compiledStreams runs the same 12 kernels compiled by minic: traces at
// roughly the paper's N scale.
func compiledStreams() ([]named, error) {
	var out []named
	for _, name := range powerstone.Names() {
		k := minicbench.Get(name)
		if k == nil {
			return nil, fmt.Errorf("no compiled kernel %q", name)
		}
		res, err := k.Run()
		if err != nil {
			return nil, fmt.Errorf("running compiled %s: %w", name, err)
		}
		out = append(out, named{name + ".instr", res.Instr}, named{name + ".data", res.Data})
	}
	return out, nil
}

// zipfMaxDepth caps the Zipf workload's explored depths, as the sampling
// crosscheck does.
const zipfMaxDepth = 256

// zipfTrace is the sampling crosscheck trace: 400 000 Zipf(1.2) draws
// over 40 000 addresses, 20 508 of them touched. It is the only input
// whose N' is large enough for spatial sampling to mean anything.
func zipfTrace() *trace.Trace {
	return tracegen.Zipf(rand.New(rand.NewSource(17)), 0x1000, 40000, 400000, 1.2)
}

// spaceKernels are the kernels whose mixed streams feed space-default.
var spaceKernels = []string{"crc", "qurt", "fir"}

// spaceTraces interleaves each space kernel's instruction and data
// streams proportionally, the mixed trace the split topologies need.
func spaceTraces(suite []named) ([]named, error) {
	byName := map[string]*trace.Trace{}
	for _, s := range suite {
		byName[s.name] = s.tr
	}
	var out []named
	for _, k := range spaceKernels {
		instr, data := byName[k+".instr"], byName[k+".data"]
		if instr == nil || data == nil {
			return nil, fmt.Errorf("no streams for kernel %q", k)
		}
		tr := trace.New(instr.Len() + data.Len())
		for i, d := 0, 0; i < instr.Len() || d < data.Len(); {
			if d < data.Len() && (i >= instr.Len() || d*instr.Len() <= i*data.Len()) {
				tr.Append(data.Refs[d])
				d++
			} else {
				tr.Append(instr.Refs[i])
				i++
			}
		}
		out = append(out, named{k, tr})
	}
	return out, nil
}

// httpSpace is the design space of the HTTP workload's space class.
func httpSpace() core.Space {
	return core.Space{
		Topology: core.TopoUnified,
		L1: core.LevelSpace{
			MaxDepth: 64,
			MaxAssoc: 4,
			Policies: []core.Policy{core.PolicyLRU, core.PolicyFIFO, core.PolicyPLRU},
		},
	}
}
