package main

import (
	"fmt"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// probeRef is the probe's time on the host the README's numbers come
// from, in a calm period. A run reports its times scaled by probeRef over
// the run's median probe: seconds on that host.
const probeRef = 15 * time.Millisecond

// probe is a fixed workload of the benchmark's own, timed between passes
// to measure how fast the host is right now. On a shared VM the same
// binary runs 10–70 % slower for minutes at a time; the probe slows with
// it, so dividing by the probe leaves the program's own speed. It mixes
// what the engine stresses: dependent loads over 32 MB (memory latency),
// inserts into a 2 MB open-addressing table (caches and hashing) and a
// sort (branches). Its memory is mapped outside the Go heap, so the
// collector and heap_peak_mb never see it, and it allocates nothing.
type probe struct {
	mem   []byte
	chase []uint32 // one full-period cycle over 8 Mi entries
	table []uint32 // 512 Ki slots
	keys  []uint32 // 256 Ki pseudo-random words
	buf   []uint32 // 64 Ki words to sort
	sink  uint32
}

const (
	probeChaseBits = 23
	probeTableBits = 19
	probeKeys      = 1 << 18
	probeSort      = 1 << 16
	probeSteps     = 60000
)

func newProbe() (*probe, error) {
	words := 1<<probeChaseBits + 1<<probeTableBits + probeKeys + probeSort
	mem, err := syscall.Mmap(-1, 0, 4*words, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping probe memory: %w", err)
	}
	all := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), words)
	p := &probe{mem: mem}
	p.chase, all = all[:1<<probeChaseBits], all[1<<probeChaseBits:]
	p.table, all = all[:1<<probeTableBits], all[1<<probeTableBits:]
	p.keys, p.buf = all[:probeKeys], all[probeKeys:]
	// An LCG with a ≡ 1 (mod 4) and odd c has full period modulo 2^k, so
	// following chase from any entry visits all of them.
	for i := range p.chase {
		p.chase[i] = (1103515245*uint32(i) + 12345) & (1<<probeChaseBits - 1)
	}
	x := uint32(2463534242)
	for i := range p.keys {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		p.keys[i] = x
	}
	return p, nil
}

// run times one round of the probe.
func (p *probe) run() time.Duration {
	t0 := time.Now()
	at := uint32(0)
	for i := 0; i < probeSteps; i++ {
		at = p.chase[at]
	}
	clear(p.table)
	const mask = 1<<probeTableBits - 1
	for _, k := range p.keys {
		h := (k * 2654435761) >> (32 - probeTableBits)
		for p.table[h] != 0 && p.table[h] != k|1 {
			h = (h + 1) & mask
		}
		p.table[h] = k | 1
	}
	copy(p.buf, p.keys)
	slices.Sort(p.buf)
	p.sink += at + p.buf[0]
	return time.Since(t0)
}

func (p *probe) close() error { return syscall.Munmap(p.mem) }

// probeEvery is the least time between two probes a pass asks for. The
// host's speed changes within a 5 s compiled-stream pass; probing between
// answers samples every workload at about the same rate, whatever the
// length of its passes.
const probeEvery = 250 * time.Millisecond

// sampler times the probe and keeps every time it measured, ms.
type sampler struct {
	p     *probe
	last  time.Time
	times []float64
}

// run times the probe now.
func (s *sampler) run() {
	s.times = append(s.times, ms(s.p.run()))
	s.last = time.Now()
}

// tick times the probe when probeEvery has passed since it last ran.
// Passes call it between answers, off their clock. A nil sampler does
// nothing.
func (s *sampler) tick() {
	if s != nil && time.Since(s.last) >= probeEvery {
		s.run()
	}
}
