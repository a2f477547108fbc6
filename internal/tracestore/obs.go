package tracestore

import (
	"context"
	"io"

	"github.com/example/cachedse/internal/obs"
)

// Context-carrying variants of the store operations. Each records one
// span ("store.put", "store.get") into the recorder carried by ctx;
// GetContext additionally records the digest verification as a
// "store.verify" child. With no recorder on ctx they
// cost one context lookup over the plain methods.

// PutContext is Put, recorded as a "store.put" span.
func (s *Store) PutContext(ctx context.Context, key string, r io.Reader) (Entry, error) {
	_, span := obs.StartSpan(ctx, "store.put")
	e, err := s.Put(key, r)
	if span != nil {
		span.SetAttr("key", key)
		span.SetAttr("bytes", e.Size)
		if err != nil {
			span.SetAttr("error", err.Error())
		}
		span.End()
	}
	return e, err
}

// GetContext is Get, recorded as a "store.get" span with a "store.verify"
// child covering the content-digest check.
func (s *Store) GetContext(ctx context.Context, key string) ([]byte, error) {
	_, span := obs.StartSpan(ctx, "store.get")
	data, err := s.getSpan(key, span)
	if span != nil {
		span.SetAttr("key", key)
		span.SetAttr("bytes", len(data))
		if err != nil {
			span.SetAttr("error", err.Error())
		}
		span.End()
	}
	return data, err
}
