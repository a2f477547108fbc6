package client

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
)

// TestDegradedHeaderSurfaced: a 200 carrying X-Degraded: true sets the
// Degraded flag even when the JSON body omits it — the header is the
// wire contract for proxied degraded reads.
func TestDegradedHeaderSurfaced(t *testing.T) {
	c, _ := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Degraded", "true")
		json.NewEncoder(w).Encode(map[string]any{"trace": "abc", "k": 5})
	}))
	k := 5
	resp, err := c.Explore(context.Background(), ExploreRequest{Trace: "abc", K: &k})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded {
		t.Fatal("X-Degraded header not surfaced on ExploreResponse")
	}
	sim, err := c.Simulate(context.Background(), SimulateRequest{Trace: "abc", Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !sim.Degraded {
		t.Fatal("X-Degraded header not surfaced on SimulateResponse")
	}
}

// TestDegradedAbsentStaysFalse: without the header, the body's own flag
// (absent here) is the answer.
func TestDegradedAbsentStaysFalse(t *testing.T) {
	c, _ := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"trace": "abc", "k": 5})
	}))
	k := 5
	resp, err := c.Explore(context.Background(), ExploreRequest{Trace: "abc", K: &k})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Degraded {
		t.Fatal("Degraded set without header or body flag")
	}
}
