package server

import (
	"bytes"
	"fmt"
	"net/http"
	"testing"

	"github.com/example/cachedse/internal/dse"
	"github.com/example/cachedse/internal/trace"
	"github.com/example/cachedse/pkg/client"
)

// TestExploreSpaceEndpoint covers the design-space explore path end to
// end: the first request computes the front, an identical request is a
// cache hit on the memoized front, and the pruning tally partitions the
// candidate grid.
func TestExploreSpaceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := testTrace(2000, 1<<10)
	var din bytes.Buffer
	if err := trace.WriteText(&din, tr); err != nil {
		t.Fatal(err)
	}
	info, _ := uploadTrace(t, ts, din.Bytes())

	body := []byte(fmt.Sprintf(
		`{"trace":%q,"space":{"topology":"split+l2","l1":{"max_depth":16,"max_assoc":4,"policies":["lru","fifo","plru"]},"l2":{"max_depth":64,"max_assoc":4}}}`,
		info.Digest))
	var resp struct {
		K      int    `json:"k"`
		Cached bool   `json:"cached"`
		Space  string `json:"space"`
		Pareto []struct {
			Levels []struct {
				Level  string `json:"level"`
				Policy string `json:"policy"`
			} `json:"levels"`
			Misses int `json:"misses"`
		} `json:"pareto"`
		Prune *struct {
			Candidates      int `json:"candidates"`
			Evaluated       int `json:"evaluated"`
			PrunedDominated int `json:"pruned_dominated"`
			PrunedThreshold int `json:"pruned_threshold"`
		} `json:"prune"`
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/explore", body, &resp); code != http.StatusOK {
		t.Fatalf("explore space: code %d", code)
	}
	if resp.Cached {
		t.Error("first space exploration claims cached")
	}
	if resp.K != 0 {
		t.Errorf("k = %d without a budget, want 0", resp.K)
	}
	if resp.Space == "" || len(resp.Pareto) == 0 {
		t.Fatalf("space answer missing front: space=%q points=%d", resp.Space, len(resp.Pareto))
	}
	for _, p := range resp.Pareto {
		if len(p.Levels) != 3 {
			t.Fatalf("split+l2 point has %d levels", len(p.Levels))
		}
		if p.Levels[0].Level != "L1I" || p.Levels[1].Level != "L1D" || p.Levels[2].Level != "L2" {
			t.Fatalf("level slots = %v", p.Levels)
		}
	}
	pr := resp.Prune
	if pr == nil || pr.Candidates == 0 ||
		pr.Evaluated+pr.PrunedDominated+pr.PrunedThreshold != pr.Candidates {
		t.Fatalf("prune tally does not partition the grid: %+v", pr)
	}

	var again struct {
		Cached bool `json:"cached"`
		Pareto []struct {
			Misses int `json:"misses"`
		} `json:"pareto"`
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/explore", body, &again); code != http.StatusOK {
		t.Fatalf("repeat explore space: code %d", code)
	}
	if !again.Cached {
		t.Error("identical space exploration was not served from the memo")
	}
	if len(again.Pareto) != len(resp.Pareto) {
		t.Errorf("cached front has %d points, first had %d", len(again.Pareto), len(resp.Pareto))
	}

	// Sampling and verify contradict the exact space evaluator.
	for _, bad := range []string{
		fmt.Sprintf(`{"trace":%q,"space":{},"sample_rate":0.5}`, info.Digest),
		fmt.Sprintf(`{"trace":%q,"space":{},"verify":true}`, info.Digest),
	} {
		var env errorEnvelope
		if code := doJSON(t, "POST", ts.URL+"/v1/explore", []byte(bad), &env); code != http.StatusBadRequest {
			t.Errorf("request %s: code %d, want 400", bad, code)
		} else if env.Error.Code != client.ErrBadRequest {
			t.Errorf("request %s: code %q, want %q", bad, env.Error.Code, client.ErrBadRequest)
		}
	}
}

// policyNames are replacement-policy spellings, accepted and not, that
// simulate's "repl" and a space's "policies" must treat alike.
var policyNames = []string{
	"", "lru", "LRU", " fifo ", "random", "rand", "plru", "tree-plru", "Tree-PLRU",
	"mru", "lfu", "zzz", "lru,fifo",
}

// TestSimulatePolicyNamesMatchSpace: simulate accepts exactly the policy
// names a design space accepts, and simulates the policy the space would.
// A rejected name keeps each verb's code: bad_request for simulate,
// invalid_policy for a space.
func TestSimulatePolicyNamesMatchSpace(t *testing.T) {
	const d = "0123456789abcdef0123456789abcdef"
	for _, name := range policyNames {
		sim, simErr := parseSimulate([]byte(fmt.Sprintf(`{"trace":%q,"depth":8,"repl":%q}`, d, name)), nil)
		sp, spErr := parseExplore([]byte(fmt.Sprintf(`{"trace":%q,"space":{"l1":{"policies":[%q]}}}`, d, name)), nil)
		switch {
		case (simErr == nil) != (spErr == nil):
			t.Errorf("policy %q: simulate error %v, space error %v", name, simErr, spErr)
		case simErr != nil:
			if simErr.code != client.ErrBadRequest || spErr.code != client.ErrInvalidPolicy {
				t.Errorf("policy %q: codes %s and %s, want bad_request and invalid_policy", name, simErr.code, spErr.code)
			}
		default:
			want := dse.ReplOf(sp.(*spaceQuery).space.L1.Policies[0])
			if got := sim.(*simulateRequest).cfg.Repl; got != want {
				t.Errorf("policy %q: simulate runs %v, the space %v", name, got, want)
			}
		}
	}
}
