package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// The ctz1 codec is the compact, checksummed binary trace format backing
// the persistent store. A file is a self-describing header followed by
// independent blocks of references and a terminator:
//
//	header:     magic "CTZ1" | version uvarint | blockCap uvarint
//	block:      payloadLen uvarint (> 0) | payload | xxh64(payload) LE64
//	terminator: 0x00 | totalRefs uvarint
//
// Each block payload packs up to blockCap references:
//
//	nrefs uvarint
//	nruns uvarint, then nruns × (kind byte | runLen uvarint)
//	per-kind address streams, kinds in ascending order; each address is
//	one uvarint u = zigzag(delta)<<2 | slot, where slot selects one of
//	the last four addresses of the SAME kind within the block (0 = most
//	recent) and delta is relative to that address. The context ring
//	starts zeroed at every block boundary.
//
// Splitting addresses into per-kind streams keeps the deltas small even
// when instruction and data references interleave (sequential PCs stay
// +1 no matter how many loads run between them), and the four-slot
// context absorbs the other classic embedded pattern — a loop body
// walking two or three arrays at once, where the nearest useful base is
// two or three data references back, not the immediately preceding one.
// Together they get loop-dominated traces down to ~1 byte per reference,
// against ~7 for the din text form. Blocks are independently decodable:
// the context state resets at each block boundary, so a single corrupt
// block is detected by its checksum without trusting anything that
// follows, and a reader can stream references without ever materializing
// the whole trace.

var ctz1Magic = [4]byte{'C', 'T', 'Z', '1'}

const (
	ctz1Version = 1
	// CTZ1DefaultBlock is the default number of references per block: big
	// enough to amortise the 13-or-so bytes of per-block framing to noise,
	// small enough that the decoder's scratch stays cache-resident.
	CTZ1DefaultBlock = 4096
	// CTZ1MaxBlock bounds blockCap (and therefore every allocation a
	// decoder makes on the say-so of an untrusted header).
	CTZ1MaxBlock = 1 << 20
	// ctz1Slots is the per-kind address-context depth (a power of two;
	// the slot index rides in the low bits of each address uvarint).
	ctz1Slots = 4
)

// abs64 returns |v| (v is a 33-bit delta here, so no overflow edge).
func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// CorruptError is the typed error for a ctz1 stream that is structurally
// damaged: a checksum mismatch, a truncation, or a malformed block. It
// plays the role LimitError plays for resource bounds — callers can map it
// to a distinct failure class (a store flags the object as corrupt instead
// of reporting a bad request).
type CorruptError struct {
	// Block is the zero-based index of the damaged block, or -1 when the
	// damage is in the header or terminator.
	Block int
	// Reason describes the damage.
	Reason string
}

func (e *CorruptError) Error() string {
	if e.Block < 0 {
		return fmt.Sprintf("trace: corrupt ctz1 stream: %s", e.Reason)
	}
	return fmt.Sprintf("trace: corrupt ctz1 block %d: %s", e.Block, e.Reason)
}

func corruptf(block int, format string, args ...any) error {
	return &CorruptError{Block: block, Reason: fmt.Sprintf(format, args...)}
}

// zigzag maps a signed delta to an unsigned varint-friendly value.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// CTZ1Encoder streams references into the ctz1 format one at a time,
// buffering at most one block. It is the write half of the codec's
// streaming contract: callers Append references as they are produced (from
// a VM run, an upload, another decoder) and never build an intermediate
// slice.
type CTZ1Encoder struct {
	w        *bufio.Writer
	blockCap int
	refs     []Ref // current block, len < blockCap between calls
	total    uint64
	scratch  []byte
	closed   bool
	err      error
}

// NewCTZ1Encoder writes the header and returns an encoder. blockCap <= 0
// uses CTZ1DefaultBlock; it is clamped to the format's maximum.
func NewCTZ1Encoder(w io.Writer, blockCap int) (*CTZ1Encoder, error) {
	if blockCap <= 0 {
		blockCap = CTZ1DefaultBlock
	}
	if blockCap > CTZ1MaxBlock {
		blockCap = CTZ1MaxBlock
	}
	e := &CTZ1Encoder{w: bufio.NewWriter(w), blockCap: blockCap}
	var hdr []byte
	hdr = append(hdr, ctz1Magic[:]...)
	hdr = binary.AppendUvarint(hdr, ctz1Version)
	hdr = binary.AppendUvarint(hdr, uint64(blockCap))
	if _, err := e.w.Write(hdr); err != nil {
		return nil, err
	}
	return e, nil
}

// Append adds one reference, flushing a block when it fills.
func (e *CTZ1Encoder) Append(r Ref) error {
	if e.err != nil {
		return e.err
	}
	if e.closed {
		return fmt.Errorf("trace: append to closed ctz1 encoder")
	}
	if !r.Kind.Valid() {
		return fmt.Errorf("trace: cannot encode invalid kind %d", r.Kind)
	}
	e.refs = append(e.refs, r)
	e.total++
	if len(e.refs) >= e.blockCap {
		e.err = e.flushBlock()
	}
	return e.err
}

// flushBlock encodes the buffered references as one block.
func (e *CTZ1Encoder) flushBlock() error {
	if len(e.refs) == 0 {
		return nil
	}
	p := e.scratch[:0]
	p = binary.AppendUvarint(p, uint64(len(e.refs)))
	// Kind runs.
	runs := 0
	for i := 0; i < len(e.refs); {
		j := i + 1
		for j < len(e.refs) && e.refs[j].Kind == e.refs[i].Kind {
			j++
		}
		runs++
		i = j
	}
	p = binary.AppendUvarint(p, uint64(runs))
	for i := 0; i < len(e.refs); {
		j := i + 1
		for j < len(e.refs) && e.refs[j].Kind == e.refs[i].Kind {
			j++
		}
		p = append(p, byte(e.refs[i].Kind))
		p = binary.AppendUvarint(p, uint64(j-i))
		i = j
	}
	// Per-kind address streams, kinds ascending, each against its own
	// four-slot context of recent addresses.
	for k := DataRead; k <= Instr; k++ {
		var recent [ctz1Slots]int64
		head := 0
		for _, r := range e.refs {
			if r.Kind != k {
				continue
			}
			addr := int64(r.Addr)
			bestSlot, bestDelta := 0, addr-recent[(head-1)&(ctz1Slots-1)]
			for s := 1; s < ctz1Slots; s++ {
				d := addr - recent[(head-1-s)&(ctz1Slots-1)]
				if abs64(d) < abs64(bestDelta) {
					bestSlot, bestDelta = s, d
				}
			}
			p = binary.AppendUvarint(p, zigzag(bestDelta)<<2|uint64(bestSlot))
			recent[head&(ctz1Slots-1)] = addr
			head++
		}
	}
	e.scratch = p // keep the grown buffer for the next block
	var frame [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(frame[:], uint64(len(p)))
	if _, err := e.w.Write(frame[:n]); err != nil {
		return err
	}
	if _, err := e.w.Write(p); err != nil {
		return err
	}
	var sum [8]byte
	binary.LittleEndian.PutUint64(sum[:], xxh64(p))
	if _, err := e.w.Write(sum[:]); err != nil {
		return err
	}
	e.refs = e.refs[:0]
	return nil
}

// Close flushes the final partial block and writes the terminator. The
// encoder is unusable afterwards.
func (e *CTZ1Encoder) Close() error {
	if e.err != nil {
		return e.err
	}
	if e.closed {
		return nil
	}
	e.closed = true
	if err := e.flushBlock(); err != nil {
		e.err = err
		return err
	}
	var tail []byte
	tail = append(tail, 0) // payloadLen 0 = terminator
	tail = binary.AppendUvarint(tail, e.total)
	if _, err := e.w.Write(tail); err != nil {
		e.err = err
		return err
	}
	return e.w.Flush()
}

// WriteCTZ1 encodes a whole trace with the default block size.
func WriteCTZ1(w io.Writer, t *Trace) error {
	enc, err := NewCTZ1Encoder(w, 0)
	if err != nil {
		return err
	}
	for _, r := range t.Refs {
		if err := enc.Append(r); err != nil {
			return err
		}
	}
	return enc.Close()
}

// CTZ1Decoder streams references out of a ctz1 stream block by block,
// verifying each block's checksum before yielding anything from it. It
// implements RefReader, so it plugs straight into the streaming prelude
// (StripReaderInto) without a *Trace in between.
type CTZ1Decoder struct {
	br  *bufio.Reader
	lim Limits
	// data/off are the bytes-mode source: when data is non-nil the decoder
	// reads framing out of it directly and slices block payloads zero-copy.
	// br is nil then.
	data    []byte
	off     int
	block   []Ref // decoded current block
	pos     int
	idx     int // block index, for errors
	payload []byte
	total   uint64
	done    bool
	err     error
}

// NewCTZ1Decoder validates the header and returns a streaming decoder.
// Limits are enforced during the stream: MaxRefs trips a *LimitError as
// soon as the count is exceeded (MaxBytes is the caller's concern — wrap r
// before handing it in, as ReadCTZ1Limits does).
func NewCTZ1Decoder(r io.Reader, lim Limits) (*CTZ1Decoder, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	d := &CTZ1Decoder{br: br, lim: lim, idx: -1}
	if err := d.readHeader(); err != nil {
		return nil, err
	}
	return d, nil
}

// NewCTZ1BytesDecoder is NewCTZ1Decoder over an in-memory ctz1 image.
// Block payloads are sliced straight out of data with no copying, so
// decoding a stored trace touches its bytes and the decoder's fixed
// scratch, nothing else. The caller must not modify data until the
// decoder is drained or abandoned.
// MaxBytes is enforced up front against len(data); MaxRefs during the
// stream, as in the reader form.
func NewCTZ1BytesDecoder(data []byte, lim Limits) (*CTZ1Decoder, error) {
	if lim.MaxBytes > 0 && int64(len(data)) > lim.MaxBytes {
		return nil, &LimitError{What: "bytes", Limit: lim.MaxBytes}
	}
	d := &CTZ1Decoder{data: data, lim: lim, idx: -1}
	if err := d.readHeader(); err != nil {
		return nil, err
	}
	return d, nil
}

// readHeader validates the magic, version and block-size header fields.
func (d *CTZ1Decoder) readHeader() error {
	magic, err := d.readN(4)
	if err != nil || string(magic) != string(ctz1Magic[:]) {
		if err != nil {
			return corruptf(-1, "reading magic: %v", err)
		}
		return corruptf(-1, "bad magic %q", magic)
	}
	version, err := d.readUvarint()
	if err != nil {
		return corruptf(-1, "reading version: %v", err)
	}
	if version != ctz1Version {
		return corruptf(-1, "unsupported version %d", version)
	}
	blockCap, err := d.readUvarint()
	if err != nil {
		return corruptf(-1, "reading block size: %v", err)
	}
	if blockCap == 0 || blockCap > CTZ1MaxBlock {
		return corruptf(-1, "implausible block size %d", blockCap)
	}
	return nil
}

// readUvarint reads one uvarint from the active source.
func (d *CTZ1Decoder) readUvarint() (uint64, error) {
	if d.data != nil {
		v, n := binary.Uvarint(d.data[d.off:])
		if n <= 0 {
			return 0, io.ErrUnexpectedEOF
		}
		d.off += n
		return v, nil
	}
	return binary.ReadUvarint(d.br)
}

// readN returns the next n bytes: a zero-copy slice of the data image in
// bytes mode, a read into scratch (valid until the next readN) otherwise.
func (d *CTZ1Decoder) readN(n int) ([]byte, error) {
	if d.data != nil {
		if len(d.data)-d.off < n {
			return nil, io.ErrUnexpectedEOF
		}
		b := d.data[d.off : d.off+n]
		d.off += n
		return b, nil
	}
	if cap(d.payload) < n {
		d.payload = make([]byte, n)
	}
	d.payload = d.payload[:n]
	if _, err := io.ReadFull(d.br, d.payload); err != nil {
		return nil, err
	}
	return d.payload, nil
}

// Next returns the next reference, io.EOF after the last one, or a typed
// error (*CorruptError, *LimitError) on damaged or oversized input.
func (d *CTZ1Decoder) Next() (Ref, error) {
	if d.err != nil {
		return Ref{}, d.err
	}
	for d.pos >= len(d.block) {
		if d.done {
			d.err = io.EOF
			return Ref{}, io.EOF
		}
		if err := d.readBlock(); err != nil {
			d.err = err
			return Ref{}, err
		}
	}
	r := d.block[d.pos]
	d.pos++
	return r, nil
}

// readBlock reads and verifies the next block (or the terminator, setting
// done).
func (d *CTZ1Decoder) readBlock() error {
	d.idx++
	payloadLen, err := d.readUvarint()
	if err != nil {
		return d.truncated(err, "reading block length")
	}
	if payloadLen == 0 {
		// Terminator: the declared total must match what was streamed.
		declared, err := d.readUvarint()
		if err != nil {
			return d.truncated(err, "reading trailer")
		}
		if declared != d.total {
			return corruptf(-1, "trailer declares %d references, stream held %d", declared, d.total)
		}
		d.done = true
		d.block, d.pos = nil, 0
		return nil
	}
	// A block of n references needs at least ~n bytes of payload; a
	// payload claiming more than the worst case per ref is a lie.
	if payloadLen > CTZ1MaxBlock*(binary.MaxVarintLen64+1) {
		return corruptf(d.idx, "implausible payload length %d", payloadLen)
	}
	var want uint64
	if d.data != nil {
		// Bytes mode: the payload is a zero-copy window into the image.
		if uint64(len(d.data)-d.off) < payloadLen {
			return d.truncated(io.ErrUnexpectedEOF, "reading payload")
		}
		d.payload = d.data[d.off : d.off+int(payloadLen)]
		d.off += int(payloadLen)
		sum, err := d.readN(8)
		if err != nil {
			return d.truncated(err, "reading checksum")
		}
		want = binary.LittleEndian.Uint64(sum)
	} else {
		if cap(d.payload) < int(payloadLen) {
			d.payload = make([]byte, payloadLen)
		}
		d.payload = d.payload[:payloadLen]
		if _, err := io.ReadFull(d.br, d.payload); err != nil {
			return d.truncated(err, "reading payload")
		}
		var sum [8]byte
		if _, err := io.ReadFull(d.br, sum[:]); err != nil {
			return d.truncated(err, "reading checksum")
		}
		want = binary.LittleEndian.Uint64(sum[:])
	}
	if got := xxh64(d.payload); got != want {
		return corruptf(d.idx, "checksum mismatch: computed %016x, stored %016x", got, want)
	}
	return d.parseBlock()
}

// truncated wraps a read failure: an underlying resource-limit error (from
// a Limits-wrapped reader) passes through typed, an EOF mid-structure is
// corruption.
func (d *CTZ1Decoder) truncated(err error, what string) error {
	if _, ok := err.(*LimitError); ok {
		return err
	}
	return corruptf(d.idx, "%s: truncated stream (%v)", what, err)
}

// parseBlock decodes the verified payload into d.block.
func (d *CTZ1Decoder) parseBlock() error {
	nrefs, p, ok := blockCount(d.payload)
	if !ok {
		return corruptf(d.idx, "bad reference count")
	}
	if d.lim.MaxRefs > 0 && nrefs > uint64(d.lim.MaxRefs)-d.total {
		// Subtraction, not addition: d.total <= MaxRefs is invariant, so
		// this cannot wrap the way `d.total+nrefs` could.
		return &LimitError{What: "references", Limit: int64(d.lim.MaxRefs)}
	}
	if cap(d.block) < int(nrefs) {
		d.block = make([]Ref, nrefs)
	}
	d.block = d.block[:nrefs]
	d.pos = 0
	if err := parsePayload(p, d.idx, d.block); err != nil {
		return err
	}
	d.total += nrefs
	return nil
}

// blockCount reads a block payload's leading reference count, returning
// it and the rest of the payload; ok is false for a count the format
// forbids.
func blockCount(payload []byte) (nrefs uint64, rest []byte, ok bool) {
	nrefs, rest, err := ctz1Uvarint(payload)
	return nrefs, rest, err == nil && nrefs > 0 && nrefs <= CTZ1MaxBlock
}

// parsePayload decodes the payload p of block idx, read past its
// reference count, into block, whose length is that count. It is the
// one block parser: the streaming decoder fills its current block with
// it, and the parallel bytes-mode decode (ctz1_parallel.go) fills
// each block's share of the destination.
func parsePayload(p []byte, idx int, block []Ref) error {
	nrefs := uint64(len(block))
	// Kind runs fill the Kind column.
	nruns, p, err := ctz1Uvarint(p)
	if err != nil || nruns == 0 || nruns > nrefs {
		return corruptf(idx, "bad run count")
	}
	at := uint64(0)
	var present [Instr + 1]bool
	for i := uint64(0); i < nruns; i++ {
		if len(p) == 0 {
			return corruptf(idx, "run %d: payload exhausted", i)
		}
		kind := Kind(p[0])
		p = p[1:]
		if !kind.Valid() {
			return corruptf(idx, "run %d: invalid kind %d", i, kind)
		}
		var runLen uint64
		runLen, p, err = ctz1Uvarint(p)
		// Compare by subtraction (at <= nrefs holds across iterations):
		// `at+runLen > nrefs` would wrap for a crafted runLen near 2^64,
		// and the checksum is unkeyed so crafted blocks do arrive here.
		if err != nil || runLen == 0 || runLen > nrefs-at {
			return corruptf(idx, "run %d: bad length", i)
		}
		for j := uint64(0); j < runLen; j++ {
			block[at+j].Kind = kind
		}
		present[kind] = true
		at += runLen
	}
	if at != nrefs {
		return corruptf(idx, "runs cover %d of %d references", at, nrefs)
	}
	// Per-kind address streams fill the Addr column, replaying the
	// encoder's four-slot context. A kind no run names has an empty
	// stream, so its pass is skipped.
	for k := DataRead; k <= Instr; k++ {
		if !present[k] {
			continue
		}
		var recent [ctz1Slots]int64
		head := 0
		for i := range block {
			if block[i].Kind != k {
				continue
			}
			var u uint64
			u, p, err = ctz1Uvarint(p)
			if err != nil {
				return corruptf(idx, "address stream of kind %d exhausted", k)
			}
			slot := int(u & (ctz1Slots - 1))
			addr := recent[(head-1-slot)&(ctz1Slots-1)] + unzigzag(u>>2)
			if addr < 0 || addr > int64(^uint32(0)) {
				return corruptf(idx, "address %d out of 32-bit range", addr)
			}
			block[i].Addr = uint32(addr)
			recent[head&(ctz1Slots-1)] = addr
			head++
		}
	}
	if len(p) != 0 {
		return corruptf(idx, "%d trailing payload bytes", len(p))
	}
	return nil
}

// ctz1Uvarint reads one uvarint off the front of p.
func ctz1Uvarint(p []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, p, io.ErrUnexpectedEOF
	}
	return v, p[n:], nil
}

// ReadCTZ1 decodes a whole ctz1 stream into a trace.
func ReadCTZ1(r io.Reader) (*Trace, error) {
	return ReadCTZ1Limits(r, Limits{})
}

// ReadCTZ1Limits is ReadCTZ1 with resource limits enforced during the
// streamed decode.
func ReadCTZ1Limits(r io.Reader, lim Limits) (*Trace, error) {
	d, err := NewCTZ1Decoder(lim.limit(r), lim)
	if err != nil {
		return nil, err
	}
	return readAll(d)
}

// readAll drains a RefReader into a trace.
func readAll(rr RefReader) (*Trace, error) {
	t := New(0)
	for {
		r, err := rr.Next()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		t.Append(r)
	}
}
