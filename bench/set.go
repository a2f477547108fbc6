package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// A set runs every workload once per seed, each run in its own process,
// and aggregates each metric over the seeds. Workloads interleave within
// a seed so slow drift of the host spreads over all of them.

// setFile is a set's JSON output, the input of compare.
type setFile struct {
	Host      host                    `json:"host"`
	Time      string                  `json:"time"`
	Seconds   int                     `json:"seconds"`
	Seeds     []int64                 `json:"seeds"`
	Trace     bool                    `json:"trace"`
	Workloads map[string]*setWorkload `json:"workloads"`
}

// setWorkload is one workload's runs in a set. A workload that could not
// be measured carries the reason in Skipped instead of metrics.
type setWorkload struct {
	Skipped    string               `json:"skipped,omitempty"`
	WrongCells int                  `json:"wrong_cells"`
	ErrorRate  float64              `json:"error_rate"`
	Metrics    map[string]setMetric `json:"metrics,omitempty"`
	Runs       []*record            `json:"runs,omitempty"`
}

// setMetric summarizes one metric over a set's runs, keeping each run's
// value for compare.
type setMetric struct {
	summary
	Values []float64 `json:"values"`
}

func runSet(args []string, workdir string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("set", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seedList := fs.String("seeds", "1,2,3,4,5,6,7,8,9,10", "comma-separated seeds, one run of each workload per seed")
	seconds := fs.Int("seconds", 10, "--seconds of every run")
	traceRuns := fs.Bool("trace", false, "run traced (per-layer metrics) instead of untraced")
	out := fs.String("out", "", "write the set as JSON to this file")
	history := fs.String("history", filepath.Join("bench", "history.jsonl"), "append a one-line summary of the set here; empty skips it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var seeds []int64
	for _, s := range strings.Split(*seedList, ",") {
		n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			fmt.Fprintf(stderr, "bench set: bad seed %q\n", s)
			return 2
		}
		seeds = append(seeds, n)
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench set: %v\n", err)
		return 1
	}
	h := hostShape()
	h.CPU = cpuModel()
	set := &setFile{
		Host: h, Time: time.Now().UTC().Format(time.RFC3339), Seconds: *seconds,
		Seeds: seeds, Trace: *traceRuns, Workloads: map[string]*setWorkload{},
	}
	for _, w := range workloads {
		set.Workloads[w.name] = &setWorkload{}
	}
	recPath := filepath.Join(workdir, "set-record.json")
	for _, seed := range seeds {
		for _, w := range workloads {
			sw := set.Workloads[w.name]
			if sw.Skipped != "" {
				continue
			}
			traceArg := "0"
			if *traceRuns {
				traceArg = "1"
			}
			cmd := exec.Command(self, "-workdir", workdir, "-record", recPath, "--workload", w.name,
				"--seed", strconv.FormatInt(seed, 10), "--seconds", strconv.Itoa(*seconds), "--trace", traceArg)
			var errBuf bytes.Buffer
			cmd.Stdout = io.Discard
			cmd.Stderr = io.MultiWriter(stderr, &errBuf)
			fmt.Fprintf(stderr, "bench set: %s seed %d\n", w.name, seed)
			if err := cmd.Run(); err != nil {
				sw.Skipped = fmt.Sprintf("seed %d: %v: %s", seed, err, lastLine(errBuf.String()))
				continue
			}
			data, err := os.ReadFile(recPath)
			if err != nil {
				sw.Skipped = fmt.Sprintf("seed %d: %v", seed, err)
				continue
			}
			var rec record
			if err := json.Unmarshal(data, &rec); err != nil {
				sw.Skipped = fmt.Sprintf("seed %d: decoding record: %v", seed, err)
				continue
			}
			rec.Host.CPU = h.CPU
			sw.Runs = append(sw.Runs, &rec)
		}
	}
	os.Remove(recPath)
	for _, sw := range set.Workloads {
		sw.aggregate()
	}
	if *out != "" {
		if err := writeJSON(*out, set); err != nil {
			fmt.Fprintf(stderr, "bench set: %v\n", err)
			return 1
		}
	}
	if *history != "" {
		if err := appendHistory(*history, set); err != nil {
			fmt.Fprintf(stderr, "bench set: %v\n", err)
			return 1
		}
	}
	printSet(stdout, set)
	for _, sw := range set.Workloads {
		if sw.Skipped != "" || sw.WrongCells > 0 || sw.ErrorRate > 0 {
			return 1
		}
	}
	return 0
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}

// aggregate summarizes every metric over the workload's runs. A skipped
// workload keeps its reason and drops partial runs.
func (sw *setWorkload) aggregate() {
	if sw.Skipped != "" {
		sw.Runs = nil
		return
	}
	values := map[string][]float64{}
	units := map[string]string{}
	failed, attempted := 0, 0
	for _, r := range sw.Runs {
		sw.WrongCells += r.WrongCells
		failed += r.Failed
		attempted += r.Attempted
		for name, s := range r.Metrics {
			values[name] = append(values[name], s.Value)
			units[name] = s.Unit
		}
	}
	if attempted > 0 {
		sw.ErrorRate = float64(failed) / float64(attempted)
	}
	sw.Metrics = map[string]setMetric{}
	for name, xs := range values {
		sw.Metrics[name] = setMetric{summary: summarize(xs, units[name]), Values: xs}
	}
}

// historyLine is one set in bench/history.jsonl: the host shape and,
// per workload, either each metric's median or why it was skipped.
type historyLine struct {
	host
	Time      string                     `json:"time"`
	Seconds   int                        `json:"seconds"`
	Seeds     []int64                    `json:"seeds"`
	Trace     bool                       `json:"trace"`
	Workloads map[string]historyWorkload `json:"workloads"`
}

type historyWorkload struct {
	Skipped    string             `json:"skipped,omitempty"`
	WrongCells int                `json:"wrong_cells"`
	ErrorRate  float64            `json:"error_rate"`
	Medians    map[string]float64 `json:"medians,omitempty"`
}

func appendHistory(path string, set *setFile) error {
	line := historyLine{host: set.Host, Time: set.Time, Seconds: set.Seconds, Seeds: set.Seeds,
		Trace: set.Trace, Workloads: map[string]historyWorkload{}}
	for name, sw := range set.Workloads {
		hw := historyWorkload{Skipped: sw.Skipped, WrongCells: sw.WrongCells, ErrorRate: sw.ErrorRate}
		if sw.Skipped == "" {
			hw.Medians = map[string]float64{}
			for m, s := range sw.Metrics {
				hw.Medians[m] = s.Value
			}
		}
		line.Workloads[name] = hw
	}
	data, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("encoding history line: %w", err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("opening history: %w", err)
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("appending history: %w", err)
	}
	return f.Close()
}

// printSet prints each workload's end-to-end metrics: median [p25, p75].
func printSet(w io.Writer, set *setFile) {
	fmt.Fprintf(w, "commit %s, %s, GOMAXPROCS %d, nproc %d, %s; %d seeds, %d s runs\n",
		set.Host.Commit, set.Host.Go, set.Host.GOMAXPROCS, set.Host.NProc, set.Host.CPU, len(set.Seeds), set.Seconds)
	for _, wl := range workloads {
		sw := set.Workloads[wl.name]
		if sw.Skipped != "" {
			fmt.Fprintf(w, "%-16s skipped: %s\n", wl.name, sw.Skipped)
			continue
		}
		fmt.Fprintf(w, "%-16s wrong_cells %d, error_rate %g\n", wl.name, sw.WrongCells, sw.ErrorRate)
		defs := endToEnd
		if set.Trace {
			defs = perLayer
		}
		for _, d := range defs {
			s := sw.Metrics[d.name]
			if set.Trace && s.Value == 0 && s.P25 == 0 && s.P75 == 0 {
				continue // a layer this workload does not exercise
			}
			fmt.Fprintf(w, "  %-26s %12.6g %-10s [%.6g, %.6g]\n", d.name, s.Value, d.unit, s.P25, s.P75)
		}
	}
}
