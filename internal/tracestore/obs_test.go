package tracestore

import (
	"context"
	"strings"
	"testing"

	"github.com/example/cachedse/internal/obs"
)

// collectNames runs fn under a fresh recorder and returns the recorded
// span names in end order.
func collectNames(t *testing.T, fn func(ctx context.Context)) []string {
	t.Helper()
	rec := obs.NewRecorder(0)
	fn(obs.WithRecorder(context.Background(), rec))
	tr := rec.Export()
	names := make([]string, len(tr.Spans))
	for i, s := range tr.Spans {
		names[i] = s.Name
	}
	return names
}

func TestStoreContextOpsRecordSpans(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	names := collectNames(t, func(ctx context.Context) {
		if _, err := st.PutContext(ctx, "k1", strings.NewReader("payload")); err != nil {
			t.Fatal(err)
		}
		data, err := st.GetContext(ctx, "k1")
		if err != nil || string(data) != "payload" {
			t.Fatalf("get: %q, %v", data, err)
		}
	})
	got := strings.Join(names, " ")
	// store.verify is recorded as a child of store.get and ends first.
	want := "store.put store.verify store.get"
	if got != want {
		t.Fatalf("span names = %q, want %q", got, want)
	}
}

func TestStoreGetContextVerifyIsChild(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(0)
	ctx := obs.WithRecorder(context.Background(), rec)
	if _, err := st.PutContext(ctx, "k", strings.NewReader("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.GetContext(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	roots := rec.Export().Tree()
	var get *obs.Node
	for _, r := range roots {
		if r.Name == "store.get" {
			get = r
		}
	}
	if get == nil {
		t.Fatalf("no store.get root in %+v", roots)
	}
	if len(get.Children) != 1 || get.Children[0].Name != "store.verify" {
		t.Fatalf("store.get children = %+v, want one store.verify", get.Children)
	}
	if ok, _ := get.Children[0].Attrs["ok"].(bool); !ok {
		t.Fatalf("verify child attrs = %v, want ok=true", get.Children[0].Attrs)
	}
}

func TestStoreContextOpsNoopWithoutRecorder(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := st.PutContext(ctx, "k", strings.NewReader("v")); err != nil {
		t.Fatal(err)
	}
	if data, err := st.GetContext(ctx, "k"); err != nil || string(data) != "v" {
		t.Fatalf("get without recorder: %q, %v", data, err)
	}
}
