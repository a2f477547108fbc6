// Package tracestore is a crash-safe, content-addressed on-disk store for
// traces and exploration results. Objects live under objects/<digest>,
// where the digest is computed over the object's bytes while they stream
// through Put — the same bytes are never stored twice, no matter how many
// logical keys point at them. A small manifest maps logical keys (a trace
// digest, a result-cache key) to objects and carries per-object reference
// counts; keys are deleted individually, and an object is unlinked only
// when its last key goes. Writes spool into tmp/ and reach their final
// name by atomic rename — spools and the manifest are fsynced before the
// rename (and the parent directory after), so the rename publishes
// durable bytes, not page cache — and Open repairs whatever a crash left
// behind (orphaned temp files, objects no key references, keys whose
// object vanished) — so a kill -9 at any point loses at most the entry
// being written, never the store. Should a filesystem renege anyway and
// leave the manifest unparsable, Open sets it aside and boots the store
// empty rather than refusing to start.
package tracestore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/example/cachedse/internal/faultinject"
	"github.com/example/cachedse/internal/obs"
)

// Entry describes one logical key in the store.
type Entry struct {
	// Key is the caller's logical name for the object.
	Key string `json:"key"`
	// Object is the content digest the key resolves to.
	Object string `json:"object"`
	// Size is the object's byte length.
	Size int64 `json:"size"`
	// Created is when the key was first written.
	Created time.Time `json:"created"`
}

// ErrNotFound reports a key the store does not hold.
var ErrNotFound = errors.New("tracestore: key not found")

// CorruptObjectError reports an object whose bytes no longer match their
// digest (bit rot, truncation, a stray write). Get returns it instead of
// the damaged bytes; the caller decides whether to delete and recompute.
type CorruptObjectError struct {
	Key    string
	Object string
	Reason string
}

func (e *CorruptObjectError) Error() string {
	return fmt.Sprintf("tracestore: object %s (key %q) corrupt: %s", e.Object, e.Key, e.Reason)
}

// Fallback fetches a key's bytes from somewhere else — in a cluster, the
// other owner replica — when the local store misses the key or fails its
// digest verification. A successful fetch is re-persisted under the key
// (read-repair) and served; a failed fetch surfaces the original local
// error, so a store without working replicas behaves exactly as before.
type Fallback func(key string) ([]byte, error)

// Store is the on-disk store. All methods are safe for concurrent use.
type Store struct {
	dir string

	fallback atomic.Pointer[Fallback]
	repairs  atomic.Int64

	mu      sync.Mutex
	entries map[string]Entry // key -> entry
	refs    map[string]int   // object digest -> number of keys
	tmpSeq  int
}

// SetFallback installs (or, with nil, removes) the read-repair fetch
// hook consulted by Get on a miss or a corrupt object.
func (s *Store) SetFallback(f Fallback) {
	if f == nil {
		s.fallback.Store(nil)
		return
	}
	s.fallback.Store(&f)
}

// Repairs returns how many reads have been healed through the fallback.
func (s *Store) Repairs() int64 { return s.repairs.Load() }

// repairFrom consults the fallback after a local miss or verification
// failure. On a successful fetch the bytes are re-persisted under key —
// repointing a corrupt entry at fresh content, or recreating a missing
// one — and returned; otherwise the original local error stands.
func (s *Store) repairFrom(key string, cause error) ([]byte, error) {
	fp := s.fallback.Load()
	if fp == nil {
		return nil, cause
	}
	data, err := (*fp)(key)
	if err != nil {
		return nil, cause
	}
	s.repairs.Add(1)
	// A corrupt object blocks the re-persist below: Put dedups on the
	// object path existing, and the damaged file sits at exactly that
	// path. Unlink it first so the repaired bytes actually land on disk.
	var ce *CorruptObjectError
	if errors.As(cause, &ce) {
		s.mu.Lock()
		_ = os.Remove(s.objectPath(ce.Object))
		s.mu.Unlock()
	}
	// The bytes are good even if re-persisting them fails; serve them and
	// let a later read retry the repair.
	_, _ = s.Put(key, bytes.NewReader(data))
	return data, nil
}

const (
	objectsDir   = "objects"
	tmpDir       = "tmp"
	manifestName = "manifest.json"
)

// manifest is the serialized index. Refcounts are not stored — they are
// recomputed from the entries on load, which makes the manifest impossible
// to corrupt into an inconsistent refcount state.
type manifest struct {
	Version int              `json:"version"`
	Entries map[string]Entry `json:"entries"`
}

// Open loads (or initialises) the store rooted at dir and repairs any
// leftovers from an interrupted run: temp files are removed, manifest
// entries whose object is missing are dropped, and objects no entry
// references are unlinked.
func Open(dir string) (*Store, error) {
	for _, d := range []string{dir, filepath.Join(dir, objectsDir), filepath.Join(dir, tmpDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("tracestore: %w", err)
		}
	}
	s := &Store{
		dir:     dir,
		entries: make(map[string]Entry),
		refs:    make(map[string]int),
	}
	keepOrphans := false
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	switch {
	case errors.Is(err, os.ErrNotExist):
		// Fresh store.
	case err != nil:
		return nil, fmt.Errorf("tracestore: reading manifest: %w", err)
	default:
		var m manifest
		if err := json.Unmarshal(data, &m); err != nil {
			// A torn manifest (a filesystem that reneged on the rename
			// durability) must not brick the store: set it aside for
			// forensics and boot empty. With no entries every object
			// would look unreferenced, so repair keeps them this boot —
			// losing the index is recoverable, GC'ing the data is not.
			_ = os.Rename(filepath.Join(dir, manifestName),
				filepath.Join(dir, manifestName+".corrupt"))
			keepOrphans = true
		} else {
			for key, e := range m.Entries {
				e.Key = key
				s.entries[key] = e
				s.refs[e.Object]++
			}
		}
	}
	if err := s.repair(keepOrphans); err != nil {
		return nil, err
	}
	return s, nil
}

// repair reconciles the directory tree with the manifest after a crash.
// keepOrphans suppresses the unreferenced-object sweep for the boot after
// a corrupt manifest, when "unreferenced" just means the index was lost.
func (s *Store) repair(keepOrphans bool) error {
	// 1. Temp spool files are by definition incomplete: remove them.
	tmps, err := os.ReadDir(filepath.Join(s.dir, tmpDir))
	if err != nil {
		return fmt.Errorf("tracestore: scanning tmp: %w", err)
	}
	for _, de := range tmps {
		_ = os.Remove(filepath.Join(s.dir, tmpDir, de.Name()))
	}
	// 2. Entries whose object vanished cannot be served: drop them.
	dropped := false
	for key, e := range s.entries {
		if _, err := os.Stat(s.objectPath(e.Object)); err != nil {
			delete(s.entries, key)
			if s.refs[e.Object]--; s.refs[e.Object] <= 0 {
				delete(s.refs, e.Object)
			}
			dropped = true
		}
	}
	// 3. Objects no entry references (a crash between the object rename
	// and the manifest rename) are garbage: unlink them.
	if !keepOrphans {
		objs, err := os.ReadDir(filepath.Join(s.dir, objectsDir))
		if err != nil {
			return fmt.Errorf("tracestore: scanning objects: %w", err)
		}
		for _, de := range objs {
			if s.refs[de.Name()] == 0 {
				_ = os.Remove(filepath.Join(s.dir, objectsDir, de.Name()))
			}
		}
	}
	if dropped {
		return s.saveManifestLocked()
	}
	return nil
}

func (s *Store) objectPath(digest string) string {
	return filepath.Join(s.dir, objectsDir, digest)
}

// digestOf is the store's content address: SHA-256 truncated to 128 bits,
// hex — the same shape the service uses for trace digests.
func digestOf(h []byte) string { return hex.EncodeToString(h[:16]) }

// Put streams r into the store under key, returning the entry. The bytes
// are hashed as they spool; if an identical object already exists the
// spool is discarded and the key simply references the existing object.
// Re-putting an existing key atomically repoints it.
func (s *Store) Put(key string, r io.Reader) (Entry, error) {
	if key == "" {
		return Entry{}, errors.New("tracestore: empty key")
	}
	if err := faultinject.Hit("tracestore.put"); err != nil {
		return Entry{}, fmt.Errorf("tracestore: %w", err)
	}
	s.mu.Lock()
	s.tmpSeq++
	spool := filepath.Join(s.dir, tmpDir, fmt.Sprintf("put-%d-%d", os.Getpid(), s.tmpSeq))
	s.mu.Unlock()

	f, err := os.Create(spool)
	if err != nil {
		return Entry{}, fmt.Errorf("tracestore: %w", err)
	}
	h := sha256.New()
	size, err := io.Copy(io.MultiWriter(f, h), r)
	if err == nil {
		err = faultinject.Hit("tracestore.fsync")
	}
	if err == nil {
		// The rename below must publish durable bytes: without the fsync
		// a power loss after the rename can leave a fully-named object
		// holding zeroed pages.
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(spool)
		return Entry{}, fmt.Errorf("tracestore: spooling %q: %w", key, err)
	}
	digest := digestOf(h.Sum(nil))

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := os.Stat(s.objectPath(digest)); err == nil {
		// Deduplicated: the bytes are already durable.
		_ = os.Remove(spool)
	} else {
		err := faultinject.Hit("tracestore.rename")
		if err == nil {
			err = os.Rename(spool, s.objectPath(digest))
		}
		if err != nil {
			_ = os.Remove(spool)
			return Entry{}, fmt.Errorf("tracestore: publishing object: %w", err)
		}
		if err := syncDir(filepath.Join(s.dir, objectsDir)); err != nil {
			return Entry{}, fmt.Errorf("tracestore: publishing object: %w", err)
		}
	}
	e := Entry{Key: key, Object: digest, Size: size, Created: time.Now().UTC()}
	old, existed := s.entries[key]
	s.entries[key] = e
	s.refs[digest]++
	if existed {
		s.releaseLocked(old.Object)
	}
	if err := s.saveManifestLocked(); err != nil {
		return Entry{}, err
	}
	return e, nil
}

// releaseLocked drops one reference to an object, unlinking it at zero.
func (s *Store) releaseLocked(digest string) {
	if s.refs[digest]--; s.refs[digest] <= 0 {
		delete(s.refs, digest)
		_ = os.Remove(s.objectPath(digest))
	}
}

// Get returns the object bytes for key, verifying the content digest
// before handing anything back: a damaged object yields a
// *CorruptObjectError, never silently wrong bytes. With a Fallback
// installed, a miss or a corrupt object is repaired from it first.
func (s *Store) Get(key string) ([]byte, error) {
	return s.getSpan(key, nil)
}

// GetLocal is Get without the read-repair fallback: strictly what this
// node holds. It is what a replica serves to its peers — a peer-to-peer
// fetch must never recurse into another fetch.
func (s *Store) GetLocal(key string) ([]byte, error) {
	return s.getVerified(key, nil)
}

// getSpan is Get with an optional parent span; when one is given the
// digest verification is recorded beneath it as a "store.verify" child.
func (s *Store) getSpan(key string, span *obs.Span) ([]byte, error) {
	data, err := s.getVerified(key, span)
	if err != nil {
		return s.repairFrom(key, err)
	}
	return data, nil
}

func (s *Store) getVerified(key string, span *obs.Span) ([]byte, error) {
	s.mu.Lock()
	e, ok := s.entries[key]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	if err := faultinject.Hit("tracestore.get"); err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	data, err := os.ReadFile(s.objectPath(e.Object))
	if err != nil {
		return nil, &CorruptObjectError{Key: key, Object: e.Object, Reason: err.Error()}
	}
	vstart := time.Now()
	sum := sha256.Sum256(data)
	got := digestOf(sum[:])
	span.Child("store.verify", vstart, time.Since(vstart),
		obs.Attr{Key: "bytes", Value: len(data)},
		obs.Attr{Key: "ok", Value: got == e.Object})
	if got != e.Object {
		return nil, &CorruptObjectError{
			Key: key, Object: e.Object,
			Reason: fmt.Sprintf("content hashes to %s", got),
		}
	}
	return data, nil
}

// Stat returns the entry for key without touching the object bytes.
func (s *Store) Stat(key string) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	return e, ok
}

// Delete removes key, unlinking its object if this was the last reference.
// Deleting an absent key reports false without error.
func (s *Store) Delete(key string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		return false, nil
	}
	delete(s.entries, key)
	s.releaseLocked(e.Object)
	return true, s.saveManifestLocked()
}

// List returns the entries whose key starts with prefix (the empty prefix
// lists everything), oldest first — the order a warm-start wants, so the
// newest entries land last (and therefore most-recently-used) in an LRU.
func (s *Store) List(prefix string) []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Entry, 0, len(s.entries))
	for key, e := range s.entries {
		if strings.HasPrefix(key, prefix) {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Created.Equal(out[j].Created) {
			return out[i].Created.Before(out[j].Created)
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Len returns the number of keys.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Objects returns the number of distinct stored objects (<= Len when keys
// share content).
func (s *Store) Objects() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.refs)
}

// saveManifestLocked writes the manifest atomically (temp + rename).
// Callers hold s.mu.
func (s *Store) saveManifestLocked() error {
	if err := faultinject.Hit("tracestore.manifest"); err != nil {
		return fmt.Errorf("tracestore: writing manifest: %w", err)
	}
	m := manifest{Version: 1, Entries: s.entries}
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return fmt.Errorf("tracestore: encoding manifest: %w", err)
	}
	s.tmpSeq++
	tmp := filepath.Join(s.dir, tmpDir, fmt.Sprintf("manifest-%d-%d", os.Getpid(), s.tmpSeq))
	if err := writeFileSync(tmp, data); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("tracestore: writing manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, manifestName)); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("tracestore: publishing manifest: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return fmt.Errorf("tracestore: publishing manifest: %w", err)
	}
	return nil
}

// writeFileSync writes data to path and fsyncs it before returning, so a
// following rename publishes durable bytes rather than page cache.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory, making a rename into it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
