// Package minicbench provides PowerStone kernels written in minic and
// compiled to the VM — the paper's actual methodology ("We first compiled
// and executed the benchmark applications...", §3). Each kernel computes
// bit-for-bit the same result as its hand-assembly counterpart in
// internal/powerstone, so the pair isolates a pure compiler effect: same
// algorithm, same inputs, different code shape — and therefore different
// instruction and data reference streams for the explorer to size caches
// against.
package minicbench

import (
	"fmt"

	"github.com/example/cachedse/internal/asm"
	"github.com/example/cachedse/internal/minic"
	"github.com/example/cachedse/internal/trace"
	"github.com/example/cachedse/internal/vm"
)

// Kernel is one compiled benchmark.
type Kernel struct {
	Name string
	// Source is the minic program text.
	Source string
	// MemWords sizes the data memory; MaxSteps bounds execution.
	MemWords int
	MaxSteps uint64
}

// Result mirrors powerstone.Result for compiled kernels.
type Result struct {
	Name  string
	Out   []uint32
	Instr *trace.Trace
	Data  *trace.Trace
}

// Run compiles (unoptimised) and executes the kernel with tracing.
func (k *Kernel) Run() (*Result, error) {
	return k.runCompiled(minic.Compile)
}

// RunOptimized compiles with minic's -O1 (constant folding + push/pop
// peephole) and executes with tracing.
func (k *Kernel) RunOptimized() (*Result, error) {
	return k.runCompiled(minic.CompileOptimized)
}

func (k *Kernel) runCompiled(compile func(string) (string, error)) (*Result, error) {
	asmSrc, err := compile(k.Source)
	if err != nil {
		return nil, fmt.Errorf("minicbench: %s: %v", k.Name, err)
	}
	prog, err := asm.Assemble(asmSrc)
	if err != nil {
		return nil, fmt.Errorf("minicbench: %s: %v", k.Name, err)
	}
	cpu := prog.NewCPU(k.MemWords)
	col := &vm.Collector{Trace: trace.New(0), IBase: 0}
	cpu.Tracer = col
	if err := cpu.Run(k.MaxSteps); err != nil {
		return nil, fmt.Errorf("minicbench: %s: %v", k.Name, err)
	}
	instr, data := col.Trace.Split()
	return &Result{Name: k.Name, Out: cpu.Out, Instr: instr, Data: data}, nil
}

// The shared LCG of the suite, in minic. Logical right shifts are built
// from arithmetic shift + mask (minic's >> is C-int arithmetic shift).
const lcgSrc = `
int lcg_state;
func lcg() {
    lcg_state = lcg_state * 1664525 + 1013904223;
    return lcg_state;
}
func lsr8(x)  { return (x >> 8)  & 0xFFFFFF; }
func lsr1(x)  { return (x >> 1)  & 0x7FFFFFFF; }
`

// Fir mirrors internal/powerstone's fir kernel: 32 taps (k*37)%64 - 31,
// 512 LCG samples, >>6 fixed point, wrapping output checksum.
var Fir = &Kernel{
	Name:     "fir",
	MemWords: 1 << 16,
	MaxSteps: 20_000_000,
	Source: lcgSrc + `
int taps[32];
int sig[512];
func main() {
    int k = 0;
    while (k < 32) {
        taps[k] = (k * 37) % 64 - 31;
        k = k + 1;
    }
    lcg_state = 31415;
    int i = 0;
    while (i < 512) {
        sig[i] = (lcg() & 0xFFFF) - 0x8000;
        i = i + 1;
    }
    int sum = 0;
    int n = 31;
    while (n < 512) {
        int acc = 0;
        k = 0;
        while (k < 32) {
            acc = acc + taps[k] * sig[n - k];
            k = k + 1;
        }
        sum = sum + (acc >> 6);
        n = n + 1;
    }
    out(sum);
}`,
}

// Crc mirrors the crc kernel: reflected CRC-32 table, 256-byte LCG
// message, four passes, complemented result.
var Crc = &Kernel{
	Name:     "crc",
	MemWords: 1 << 16,
	MaxSteps: 20_000_000,
	Source: lcgSrc + `
int table[256];
int msg[256];
func main() {
    int i = 0;
    while (i < 256) {
        int c = i;
        int j = 0;
        while (j < 8) {
            int bit = c & 1;
            c = lsr1(c);
            if (bit) { c = c ^ 0xEDB88320; }
            j = j + 1;
        }
        table[i] = c;
        i = i + 1;
    }
    lcg_state = 12345;
    i = 0;
    while (i < 256) {
        msg[i] = lcg() & 0xFF;
        i = i + 1;
    }
    int crc = -1;
    int pass = 0;
    while (pass < 4) {
        i = 0;
        while (i < 256) {
            crc = lsr8(crc) ^ table[(crc ^ msg[i]) & 0xFF];
            i = i + 1;
        }
        pass = pass + 1;
    }
    out(crc ^ -1);
}`,
}

// Qsort mirrors ucbqsort's inputs and checksum with a recursive
// formulation — recursion is exactly the code shape the iterative
// hand-assembly version avoids, so the two traces differ maximally while
// agreeing on the answer.
var Qsort = &Kernel{
	Name:     "ucbqsort",
	MemWords: 1 << 16,
	MaxSteps: 20_000_000,
	Source: lcgSrc + `
int arr[256];
func partition(lo, hi) {
    int pivot = arr[hi];
    int i = lo - 1;
    int j = lo;
    while (j < hi) {
        if (arr[j] <= pivot) {
            i = i + 1;
            int tmp = arr[i];
            arr[i] = arr[j];
            arr[j] = tmp;
        }
        j = j + 1;
    }
    i = i + 1;
    int tmp2 = arr[i];
    arr[i] = arr[hi];
    arr[hi] = tmp2;
    return i;
}
func qsort(lo, hi) {
    if (lo >= hi) { return 0; }
    int p = partition(lo, hi);
    qsort(lo, p - 1);
    qsort(p + 1, hi);
    return 0;
}
func main() {
    lcg_state = 7777;
    int i = 0;
    while (i < 256) {
        arr[i] = lsr1(lcg());
        i = i + 1;
    }
    qsort(0, 255);
    int sum = 0;
    i = 0;
    while (i < 256) {
        sum = sum + arr[i] * (i + 1);
        i = i + 1;
    }
    out(sum);
}`,
}

// Kernels lists the compiled suite.
var Kernels = []*Kernel{Fir, Crc, Qsort}

// Get returns the named kernel, or nil.
func Get(name string) *Kernel {
	for _, k := range Kernels {
		if k.Name == name {
			return k
		}
	}
	return nil
}
