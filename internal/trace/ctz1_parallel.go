package trace

import (
	"encoding/binary"
	"io"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// A bytes-mode ctz1 image is in memory whole, and its blocks are
// independently decodable and checksummed, so a decode that starts from
// a fresh decoder need not go block by block. It frames the image once —
// each block's payload bounds, stored checksum and reference offset, the
// last read from the block's leading count — and checks the trailer's
// total. Then up to GOMAXPROCS goroutines verify and parse contiguous
// ranges of blocks straight into the destination: the references of a
// Trace (decodeParallel) or the identifiers of a Stripped (stripCTZ1).
//
// This is a fast path for images that decode. On any failure — damaged
// framing, a checksum, a block that does not parse, MaxRefs, the trailer
// — it reports false without touching the decoder, and the caller
// decodes serially through Next, which returns the error a streaming
// decode returns. Every input thus yields the same references or the
// same error as the serial decoder.

// ctz1Frame is one block of a framed image.
type ctz1Frame struct {
	start, end int    // the payload, count included, is data[start:end]
	body       int    // payload offset past the count
	sum        uint64 // stored checksum
	off, n     int    // the block's references are [off, off+n) of the trace
}

// minPartRefs is the fewest references a parallel decode gives one
// goroutine, so a goroutine's start and, for a strip, its share of the
// merge are paid for by its share of the parse. Tests decode with a
// smaller minimum to split small images.
const minPartRefs = 32 << 10

// A frame costs 48 bytes, so an image packed at a few references per
// block (pack -block 1 is allowed) would spend more on its frames than
// its decoded references take. Once framing has seen framedBlocks blocks
// averaging fewer than minRefs/refsPerFrame references each, it refuses
// the image, which then decodes serially: the frames cost at most
// 48·refsPerFrame/minPartRefs bytes (0.19) a reference. Tests that split
// small images into parts of one reference frame every image.
const (
	framedBlocks = 64
	refsPerFrame = 128
)

// partCount is the number of goroutines a parallel decode of n
// references in the given number of blocks runs on: one per core, each
// given at least minRefs references.
func partCount(n, blocks, minRefs int) int {
	return max(1, min(runtime.GOMAXPROCS(0), blocks, n/minRefs))
}

// partFrames returns the frames of part j of k: the blocks whose first
// reference falls in [j·n/k, (j+1)·n/k) of a trace of n references.
func partFrames(frames []ctz1Frame, n, k, j int) []ctz1Frame {
	first := func(ref int) int {
		return sort.Search(len(frames), func(i int) bool { return frames[i].off >= ref })
	}
	return frames[first(j*n/k):first((j+1)*n/k)]
}

// frame appends one ctz1Frame per block of a fresh bytes-mode decoder's
// image to frames, without verifying any block. It returns the frames,
// the trace length and the image offset past the trailer; ok is false
// when the decoder is not fresh or in bytes mode, or when the framing
// shows a failure the serial decode would report: a truncation, an
// implausible payload length or count, more than MaxRefs references, a
// trailer that disagrees, or a trace too long for int32 identifiers. A
// count larger than its payload is refused too: every reference takes
// at least one payload byte, so such a block cannot parse, and the
// refusal bounds the destination by the image's size. ok is false, too,
// for an image of blocks too small to frame for parts of at least
// minRefs references (see refsPerFrame).
func (d *CTZ1Decoder) frame(frames []ctz1Frame, minRefs int) (_ []ctz1Frame, n, end int, ok bool) {
	if d.data == nil || d.idx != -1 || d.err != nil {
		return frames, 0, 0, false
	}
	data, off := d.data, d.off
	for {
		plen, w := binary.Uvarint(data[off:])
		if w <= 0 {
			return frames, 0, 0, false
		}
		off += w
		if plen == 0 {
			declared, w := binary.Uvarint(data[off:])
			if w <= 0 || declared != uint64(n) || checkIDs(n) != nil {
				return frames, 0, 0, false
			}
			return frames, n, off + w, true
		}
		rest := uint64(len(data) - off)
		if plen > CTZ1MaxBlock*(binary.MaxVarintLen64+1) || rest < 8 || plen > rest-8 {
			return frames, 0, 0, false
		}
		payload := data[off : off+int(plen)]
		nrefs, body, ok := blockCount(payload)
		if !ok || nrefs > plen || d.lim.MaxRefs > 0 && nrefs > uint64(d.lim.MaxRefs-n) {
			return frames, 0, 0, false
		}
		frames = append(frames, ctz1Frame{
			start: off, end: off + int(plen), body: len(payload) - len(body),
			sum: binary.LittleEndian.Uint64(data[off+int(plen):]),
			off: n, n: int(nrefs),
		})
		n += int(nrefs)
		off += int(plen) + 8
		if len(frames) >= framedBlocks && n < len(frames)*(minRefs/refsPerFrame) {
			return frames, 0, 0, false
		}
	}
}

// parseFrame verifies one framed block of data and parses it into
// block, whose length is the block's count.
func parseFrame(data []byte, f ctz1Frame, block []Ref) bool {
	p := data[f.start:f.end]
	return xxh64(p) == f.sum && parsePayload(p[f.body:], -1, block) == nil
}

// drained leaves d as a serial decode leaves it after the last
// reference of an image of the given blocks and references, whose
// trailer ends at end: the next Next returns io.EOF.
func (d *CTZ1Decoder) drained(blocks, n, end int) {
	d.off, d.idx, d.total = end, blocks, uint64(n)
	d.block, d.pos, d.done, d.err = nil, 0, true, io.EOF
}

// decodeParallel decodes a fresh bytes-mode decoder's image into one
// exactly-sized trace, on partCount goroutines of at least minRefs
// references, or reports false with d untouched (see the top of this
// file).
func (d *CTZ1Decoder) decodeParallel(minRefs int) (*Trace, bool) {
	frames, n, end, ok := d.frame(nil, minRefs)
	if !ok {
		return nil, false
	}
	refs := make([]Ref, n)
	k := partCount(n, len(frames), minRefs)
	if !inParts(k, func(j int) bool {
		for _, f := range partFrames(frames, n, k, j) {
			if !parseFrame(d.data, f, refs[f.off:f.off+f.n]) {
				return false
			}
		}
		return true
	}) {
		return nil, false
	}
	d.drained(len(frames), n, end)
	return &Trace{Refs: refs}, true
}

// stripPart is one goroutine's share of a parallel strip, pooled in the
// Stripped it strips into.
type stripPart struct {
	// local numbers the part's addresses in the order the part first
	// touches them; its IDs are unused. Part 0 numbers into the strip
	// itself instead.
	local Stripped
	// block is the part's parse scratch, one block long.
	block []Ref
	// remap maps a local identifier to its global one.
	remap []int32
}

// stripCTZ1 strips a fresh bytes-mode decoder's image into s, which
// reset has emptied, on partCount goroutines of at least minRefs
// references, or reports false with d untouched (see the top of this
// file). It numbers in three steps:
//
//  1. In parallel, every part parses its blocks and numbers each
//     address in its range-local first-touch order, writing the local
//     identifier into its span of IDs. Part 0 numbers through s's own
//     index, so its identifiers are already global.
//  2. Serially, the parts' unique lists are merged in range order
//     through s's index. An address's first touch lies in the first part
//     that holds it, where the part's list places it in first-touch
//     order among that part's newcomers, so taking the lists in range
//     order assigns the global identifiers in global first-touch order,
//     the order the serial strip assigns.
//  3. In parallel, every part past the first maps its span of IDs from
//     local to global identifiers.
func (s *Stripped) stripCTZ1(d *CTZ1Decoder, minRefs int) bool {
	frames, n, end, ok := d.frame(s.frames[:0], minRefs)
	s.frames = frames
	if !ok {
		return false
	}
	s.IDs = slices.Grow(s.IDs, n)[:n]
	k := partCount(n, len(frames), minRefs)
	parts := s.stripParts(k)
	if !inParts(k, func(j int) bool {
		p, num := &parts[j], s
		if j > 0 {
			num, _, _ = p.local.reset(1, 0)
		}
		for _, f := range partFrames(frames, n, k, j) {
			p.block = slices.Grow(p.block[:0], f.n)[:f.n]
			if !parseFrame(d.data, f, p.block) {
				return false
			}
			ids := s.IDs[f.off : f.off+f.n]
			for i, r := range p.block {
				ids[i] = num.id(r.Addr)
			}
		}
		return true
	}) {
		return false
	}
	if k > 1 {
		for j := 1; j < k; j++ {
			p := &parts[j]
			p.remap = p.remap[:0]
			for _, line := range p.local.Unique {
				p.remap = append(p.remap, s.id(line))
			}
		}
		inParts(k-1, func(j int) bool {
			remap := parts[j+1].remap
			for _, f := range partFrames(frames, n, k, j+1) {
				ids := s.IDs[f.off : f.off+f.n]
				for i, id := range ids {
					ids[i] = remap[id]
				}
			}
			return true
		})
	}
	d.drained(len(frames), n, end)
	s.blocks, s.workers = len(frames), k
	return true
}

// stripParts returns k pooled parts.
func (s *Stripped) stripParts(k int) []stripPart {
	for len(s.parts) < k {
		s.parts = append(s.parts, stripPart{})
	}
	return s.parts[:k]
}

// inParts runs part(j) for every j < k, on the calling goroutine when k
// is 1 and each on its own goroutine otherwise, and reports whether
// every part returned true. It returns once every part has returned; a
// part's panic is raised again on the calling goroutine.
func inParts(k int, part func(j int) bool) bool {
	if k == 1 {
		return part(0)
	}
	var (
		wg     sync.WaitGroup
		failed atomic.Bool
		mu     sync.Mutex
		caught any
	)
	for j := range k {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					caught = r
					mu.Unlock()
				}
			}()
			if !part(j) {
				failed.Store(true)
			}
		}()
	}
	wg.Wait()
	if caught != nil {
		panic(caught)
	}
	return !failed.Load()
}
