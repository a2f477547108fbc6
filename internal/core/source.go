package core

import (
	"context"
	"fmt"

	"github.com/example/cachedse/internal/faultinject"
	"github.com/example/cachedse/internal/obs"
	"github.com/example/cachedse/internal/trace"
)

// Source is the input to Explore. Four shapes are accepted:
//
//	*trace.Trace     — an in-memory trace; it is stripped, then explored as
//	                   a *trace.Stripped
//	*trace.Stripped  — a strip (at any line size); the conflict table is
//	                   built over it
//	Prelude          — pre-built strip + conflict table, for reuse across
//	                   repeated explorations of the same trace
//	trace.RefReader  — a reference stream; the prelude consumes it without
//	                   materialising a *trace.Trace (ctz1 files flow from
//	                   disk holding one decoder block at a time)
//
// It is deliberately `any` rather than a method interface: *trace.Trace
// lives below core in the import graph and cannot implement a core-defined
// interface, and a sealed type switch keeps the accepted set explicit.
type Source any

// Prelude bundles the outputs of the engine's first phase — the stripped
// trace and its conflict table — so callers exploring the same trace under
// several Options can pay for strip + MRCT construction once.
type Prelude struct {
	Stripped *trace.Stripped
	MRCT     *MRCT
}

// resolveSource normalises a Source into the (stripped, MRCT) pair the
// postlude consumes, running whatever part of the prelude the shape still
// needs against sc's pooled buffers (a Prelude source bypasses sc — its
// structures are caller-owned and outlive the scratch).
func resolveSource(ctx context.Context, src Source, sc *Scratch) (*trace.Stripped, *MRCT, error) {
	var strip func() (*trace.Stripped, error)
	switch v := src.(type) {
	case *trace.Trace:
		if v == nil {
			return nil, nil, fmt.Errorf("core: Explore given a nil *trace.Trace")
		}
		strip = func() (*trace.Stripped, error) { return trace.StripLines(v, 1, &sc.stripped) }
	case *trace.Stripped:
		if v == nil {
			return nil, nil, fmt.Errorf("core: Explore given a nil *trace.Stripped")
		}
		m, err := buildPreludeMRCT(ctx, v, sc)
		return v, m, err
	case Prelude:
		if v.Stripped == nil || v.MRCT == nil {
			return nil, nil, fmt.Errorf("core: Prelude needs both Stripped and MRCT (got %v, %v)", v.Stripped != nil, v.MRCT != nil)
		}
		return v.Stripped, v.MRCT, nil
	case trace.RefReader:
		if v == nil {
			return nil, nil, fmt.Errorf("core: Explore given a nil trace.RefReader")
		}
		strip = func() (*trace.Stripped, error) { return trace.StripReaderInto(v, &sc.stripped) }
	case nil:
		return nil, nil, fmt.Errorf("core: Explore given a nil Source")
	default:
		return nil, nil, fmt.Errorf("core: unsupported Source type %T (want *trace.Trace, *trace.Stripped, core.Prelude, or trace.RefReader)", src)
	}
	// A trace or a stream is stripped at one-word lines into sc's pooled
	// strip, and the strip explored.
	s, err := stripWithSpan(ctx, strip)
	if err != nil {
		return nil, nil, err
	}
	return resolveSource(ctx, s, sc)
}

// BuildPrelude runs the prelude over a reference stream into structures
// the caller owns, valid indefinitely, as BuildMRCTContext's table is. It
// records a "prelude" span around Explore's strip and MRCT passes, with
// their spans and failpoints. A fresh bytes-mode *trace.CTZ1Decoder is
// decoded and stripped on every core, so a stored ctz1 image becomes a
// Prelude with no *trace.Trace in between.
func BuildPrelude(ctx context.Context, r trace.RefReader) (Prelude, error) {
	ctx, span := obs.StartSpan(ctx, "prelude")
	defer span.End()
	s, err := stripWithSpan(ctx, func() (*trace.Stripped, error) {
		return trace.StripReaderInto(r, nil)
	})
	if err != nil {
		return Prelude{}, err
	}
	m, err := BuildMRCTContext(ctx, s)
	if err != nil {
		return Prelude{}, err
	}
	span.SetAttr("n", s.N())
	span.SetAttr("n_unique", s.NUnique())
	return Prelude{Stripped: s, MRCT: m}, nil
}

// stripWithSpan runs one strip pass inside a "strip" span when ctx
// carries a recorder. The pass is a phase boundary and carries the
// core.strip failpoint, as the MRCT build carries core.mrct, so the chaos
// suite can fail an exploration between phases.
func stripWithSpan(ctx context.Context, strip func() (*trace.Stripped, error)) (*trace.Stripped, error) {
	if err := faultinject.Hit("core.strip"); err != nil {
		return nil, err
	}
	_, span := obs.StartSpan(ctx, "strip")
	s, err := strip()
	if err != nil {
		span.End()
		return nil, err
	}
	if span != nil {
		span.SetAttr("n", s.N())
		span.SetAttr("n_unique", s.NUnique())
		if blocks, workers := s.Decoded(); workers > 0 {
			span.SetAttr("blocks", blocks)
			span.SetAttr("workers", workers)
		}
		span.End()
	}
	return s, nil
}

// buildPreludeMRCT finishes the prelude from a strip: the conflict table
// is the pooled one, valid until sc is reused.
func buildPreludeMRCT(ctx context.Context, s *trace.Stripped, sc *Scratch) (*MRCT, error) {
	if err := buildMRCT(ctx, s, sc, &sc.mrct); err != nil {
		return nil, err
	}
	return &sc.mrct, nil
}
