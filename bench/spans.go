package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark around the call. Layer spans partition a traced pass; the
// others (a request, an answer-producing call that layer spans replay)
// give context and are excluded from layer coverage.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Pass    int    `json:"pass"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	Layer   bool   `json:"layer"`
}

// spans keeps a traced run's spans in memory until the run writes them
// out at exit. The HTTP workload's two clients record concurrently.
type spans struct {
	mu   sync.Mutex
	t0   time.Time
	pass int
	recs []span
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// setPass tags the spans recorded from now on with pass i.
func (s *spans) setPass(i int) {
	s.mu.Lock()
	s.pass = i
	s.mu.Unlock()
}

// add records a finished span and returns its ID (IDs start at 1).
func (s *spans) add(name string, parent int, start time.Time, dur time.Duration, layer bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := len(s.recs) + 1
	s.recs = append(s.recs, span{
		ID: id, Parent: parent, Pass: s.pass, Name: name,
		StartNS: start.Sub(s.t0).Nanoseconds(), DurNS: dur.Nanoseconds(), Layer: layer,
	})
	return id
}

// layer times fn as a layer span and returns its duration.
func (s *spans) layer(name string, fn func() error) (time.Duration, error) {
	return s.time(name, true, fn)
}

// side times fn as a span outside the pass's layers: a measurement taken
// beside the work the pass answers.
func (s *spans) side(name string, fn func() error) (time.Duration, error) {
	return s.time(name, false, fn)
}

func (s *spans) time(name string, layer bool, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	d := time.Since(start)
	s.add(name, 0, start, d, layer)
	return d, err
}

// passTotals sums span durations by name for one pass, in seconds, and
// returns the total of its layer spans.
func (s *spans) passTotals(pass int) (byName map[string]float64, layers float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	byName = map[string]float64{}
	for _, r := range s.recs {
		if r.Pass != pass {
			continue
		}
		sec := float64(r.DurNS) / 1e9
		byName[r.Name] += sec
		if r.Layer {
			layers += sec
		}
	}
	return byName, layers
}

// write stores every span as JSON.
func (s *spans) write(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := json.Marshal(s.recs)
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
