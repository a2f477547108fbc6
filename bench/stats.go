package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

// summary describes a set of samples: the median with its quartiles,
// minimum and count. Every timing the benchmark records carries one.
type summary struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	P25   float64 `json:"p25,omitempty"`
	P75   float64 `json:"p75,omitempty"`
	Min   float64 `json:"min,omitempty"`
	N     int     `json:"n,omitempty"`
}

// summarize returns the median of xs with its quartiles, minimum and
// count. An empty slice summarizes to zero.
func summarize(xs []float64, unit string) summary {
	if len(xs) == 0 {
		return summary{Unit: unit}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{
		Value: quantile(s, 0.5),
		Unit:  unit,
		P25:   quantile(s, 0.25),
		P75:   quantile(s, 0.75),
		Min:   s[0],
		N:     len(s),
	}
}

// scaled multiplies every value of s by f.
func (s summary) scaled(f float64) summary {
	s.Value *= f
	s.P25 *= f
	s.P75 *= f
	s.Min *= f
	return s
}

// quantile interpolates linearly between the closest ranks of an
// ascending slice (the "type 7" estimator).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// geomean is the geometric mean of xs, which must be positive.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// host is the machine shape a record was measured on.
type host struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu,omitempty"`
}

// hostShape reads the commit the binary was built from (when the build
// saw a git checkout), the toolchain and the scheduler width. The CPU
// model is filled in by the set command only: a single workload run
// reads no file outside its checkout.
func hostShape() host {
	h := host{
		Commit:     "unknown",
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			h.Commit = rev + dirty
		}
	}
	return h
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or the
// architecture where the file is unavailable.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}

// heapMeter measures the heap an answer needs from a cold start: the live
// heap after two collections just before it (the second empties the
// sync.Pool victim caches, so no earlier answer's scratch is reused), plus
// every byte it allocates. The answer runs on one P: sync.Pool keeps a
// private slot per P, so on two a goroutine that migrates misses its own
// scratch and allocates again (space-default's fir input: 144–213 MB on
// two Ps, 124 MB on one, every time). Unlike the resident set, which moves
// with when the collector runs, the result repeats from run to run and
// does not depend on the order of answers. A nil meter measures nothing.
type heapMeter struct {
	live, total, peak uint64
	procs             int
}

func (h *heapMeter) start() {
	if h == nil {
		return
	}
	runtime.GC()
	runtime.GC()
	h.procs = runtime.GOMAXPROCS(1)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h.live, h.total = ms.HeapAlloc, ms.TotalAlloc
}

func (h *heapMeter) stop() {
	if h == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.GOMAXPROCS(h.procs)
	h.peak = max(h.peak, h.live+ms.TotalAlloc-h.total)
}

func (h *heapMeter) peakMB() float64 { return float64(h.peak) / 1e6 }

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) * 1024 / 1e6, nil // Linux reports KiB
}
