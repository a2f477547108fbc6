package tracestore

import (
	"errors"
	"fmt"
	"os"
	"testing"
)

// TestFallbackRepairsMiss: a read of an absent key consults the
// fallback, serves its bytes, re-persists them, and counts one repair.
func TestFallbackRepairsMiss(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var asked []string
	s.SetFallback(func(key string) ([]byte, error) {
		asked = append(asked, key)
		return []byte("replica copy"), nil
	})
	got, err := s.Get("trace/abc")
	if err != nil || string(got) != "replica copy" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if len(asked) != 1 || asked[0] != "trace/abc" {
		t.Fatalf("fallback asked for %v", asked)
	}
	if s.Repairs() != 1 {
		t.Fatalf("Repairs = %d, want 1", s.Repairs())
	}
	// The repair re-persisted: a local (no-fallback) read now succeeds.
	if got, err := s.GetLocal("trace/abc"); err != nil || string(got) != "replica copy" {
		t.Fatalf("GetLocal after repair = %q, %v", got, err)
	}
}

// TestFallbackRepairsCorrupt: a verification failure triggers the same
// repair path and heals the damaged object on disk.
func TestFallbackRepairsCorrupt(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := mustPut(t, s, "trace/abc", "good bytes")
	if err := os.WriteFile(s.objectPath(e.Object), []byte("bad bytes!"), 0o644); err != nil {
		t.Fatal(err)
	}
	s.SetFallback(func(key string) ([]byte, error) {
		return []byte("good bytes"), nil
	})
	if got, err := s.Get("trace/abc"); err != nil || string(got) != "good bytes" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if s.Repairs() != 1 {
		t.Fatalf("Repairs = %d, want 1", s.Repairs())
	}
	s.SetFallback(nil)
	if got, err := s.Get("trace/abc"); err != nil || string(got) != "good bytes" {
		t.Fatalf("Get after heal = %q, %v (object not re-persisted)", got, err)
	}
}

// TestFallbackFailurePreservesCause: when the fallback cannot help, the
// caller sees the original local error, not the fallback's.
func TestFallbackFailurePreservesCause(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.SetFallback(func(key string) ([]byte, error) {
		return nil, fmt.Errorf("peer down")
	})
	if _, err := s.Get("trace/missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	e := mustPut(t, s, "trace/abc", "good bytes")
	if err := os.WriteFile(s.objectPath(e.Object), []byte("bad bytes!"), 0o644); err != nil {
		t.Fatal(err)
	}
	var ce *CorruptObjectError
	if _, err := s.Get("trace/abc"); !errors.As(err, &ce) {
		t.Fatalf("err = %v, want CorruptObjectError", err)
	}
	if s.Repairs() != 0 {
		t.Fatalf("Repairs = %d, want 0", s.Repairs())
	}
}

// TestGetLocalBypassesFallback: GetLocal is the replica-serving read and
// must never recurse into the fallback.
func TestGetLocalBypassesFallback(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.SetFallback(func(key string) ([]byte, error) {
		t.Fatalf("fallback consulted by GetLocal(%q)", key)
		return nil, nil
	})
	if _, err := s.GetLocal("trace/missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}
