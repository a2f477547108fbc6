package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The text codec follows the classic Dinero "din" format: one reference per
// line, "<label> <hex-address>", where label 0 is a data read, 1 a data
// write and 2 an instruction fetch. Blank lines and lines starting with '#'
// are ignored. This keeps traces interoperable with the trace-driven
// simulators the paper cites as the traditional approach.

// dinLabel maps Kind to the din label digit.
func dinLabel(k Kind) int {
	switch k {
	case DataRead:
		return 0
	case DataWrite:
		return 1
	case Instr:
		return 2
	}
	return -1
}

// kindFromLabel maps a din label digit to Kind.
func kindFromLabel(l int) (Kind, bool) {
	switch l {
	case 0:
		return DataRead, true
	case 1:
		return DataWrite, true
	case 2:
		return Instr, true
	}
	return 0, false
}

// WriteText writes the trace in din text format.
func WriteText(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	for _, r := range t.Refs {
		l := dinLabel(r.Kind)
		if l < 0 {
			return fmt.Errorf("trace: cannot encode invalid kind %d", r.Kind)
		}
		if _, err := fmt.Fprintf(bw, "%d %x\n", l, r.Addr); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Limits bounds decoder resource usage when parsing untrusted input (the
// HTTP service feeds the codecs raw uploads). The zero value imposes no
// limits, matching the historical behaviour of ReadText/ReadBinary.
type Limits struct {
	// MaxRefs caps the number of decoded references; 0 means unlimited.
	MaxRefs int
	// MaxBytes caps the bytes consumed from the input; 0 means unlimited.
	MaxBytes int64
}

// LimitError is the typed error returned when an input exceeds a Limits
// bound, letting servers map it to "payload too large" rather than "bad
// request".
type LimitError struct {
	// What names the exhausted resource: "references" or "bytes".
	What string
	// Limit is the configured bound.
	Limit int64
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("trace: input exceeds %s limit %d", e.What, e.Limit)
}

// limit applies the byte limit around r. The reader hands out at most
// MaxBytes+1 bytes so that an input of exactly MaxBytes still terminates
// with the underlying EOF; only genuinely oversized inputs trip the error.
func (lim Limits) limit(r io.Reader) io.Reader {
	if lim.MaxBytes <= 0 {
		return r
	}
	return &limitedReader{r: r, n: lim.MaxBytes + 1, max: lim.MaxBytes}
}

type limitedReader struct {
	r   io.Reader
	n   int64
	max int64
}

func (l *limitedReader) Read(p []byte) (int, error) {
	if l.n <= 0 {
		return 0, &LimitError{What: "bytes", Limit: l.max}
	}
	if int64(len(p)) > l.n {
		p = p[:l.n]
	}
	n, err := l.r.Read(p)
	l.n -= int64(n)
	return n, err
}

// ReadText parses a din text trace.
func ReadText(r io.Reader) (*Trace, error) {
	return ReadTextLimits(r, Limits{})
}

// ReadTextLimits is ReadText with resource limits enforced during the
// parse: the decoder returns a *LimitError instead of allocating
// unboundedly on hostile input.
func ReadTextLimits(r io.Reader, lim Limits) (*Trace, error) {
	rd := lim.limit(r)
	return readText(rd, lim.MaxRefs)
}

func readText(r io.Reader, maxRefs int) (*Trace, error) {
	t := New(0)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	// A failing reader (the byte limit here, or an HTTP body cap upstream)
	// cuts the input mid-line, and the scanner hands the truncated fragment
	// out before reporting the failure. A parse error on such a fragment is
	// really the read error firing, so the read error wins: callers see
	// *LimitError / *http.MaxBytesError, not a confusing syntax error.
	oversize := func(err error) error {
		if rerr := sc.Err(); rerr != nil {
			return rerr
		}
		return err
	}
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, oversize(fmt.Errorf("trace: line %d: want \"<label> <hexaddr>\", got %q", lineno, line))
		}
		label, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, oversize(fmt.Errorf("trace: line %d: bad label %q: %v", lineno, fields[0], err))
		}
		kind, ok := kindFromLabel(label)
		if !ok {
			return nil, oversize(fmt.Errorf("trace: line %d: unknown label %d", lineno, label))
		}
		addr, err := strconv.ParseUint(fields[1], 16, 32)
		if err != nil {
			return nil, oversize(fmt.Errorf("trace: line %d: bad address %q: %v", lineno, fields[1], err))
		}
		if maxRefs > 0 && t.Len() >= maxRefs {
			return nil, &LimitError{What: "references", Limit: int64(maxRefs)}
		}
		t.Append(Ref{Addr: uint32(addr), Kind: kind})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

// The binary codec is a compact delta/varint encoding for large synthetic
// traces: magic, count, then per reference a byte holding the kind plus a
// zig-zag varint of the address delta from the previous reference of any
// kind. Loop-dominated embedded traces compress to roughly a byte and a
// half per reference.

var binMagic = [4]byte{'C', 'T', 'R', '1'}

// WriteBinary writes the trace in the compact binary format.
func WriteBinary(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binMagic[:]); err != nil {
		return err
	}
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(t.Len()))
	if _, err := bw.Write(hdr[:n]); err != nil {
		return err
	}
	prev := int64(0)
	var buf [binary.MaxVarintLen64 + 1]byte
	for _, r := range t.Refs {
		if !r.Kind.Valid() {
			return fmt.Errorf("trace: cannot encode invalid kind %d", r.Kind)
		}
		buf[0] = byte(r.Kind)
		delta := int64(r.Addr) - prev
		prev = int64(r.Addr)
		n := binary.PutVarint(buf[1:], delta)
		if _, err := bw.Write(buf[:1+n]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary parses a trace written by WriteBinary.
func ReadBinary(r io.Reader) (*Trace, error) {
	return ReadBinaryLimits(r, Limits{})
}

// ReadBinaryLimits is ReadBinary with resource limits. The declared
// reference count is validated against MaxRefs before anything is
// allocated, and the pre-allocation is clamped regardless so a lying
// header cannot force a huge up-front allocation.
func ReadBinaryLimits(r io.Reader, lim Limits) (*Trace, error) {
	rd := lim.limit(r)
	return readBinary(bufio.NewReader(rd), lim)
}

func readBinary(br *bufio.Reader, lim Limits) (*Trace, error) {
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if magic != binMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic[:])
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading count: %w", err)
	}
	const maxRefs = 1 << 30
	if count > maxRefs {
		return nil, fmt.Errorf("trace: implausible reference count %d", count)
	}
	if lim.MaxRefs > 0 && count > uint64(lim.MaxRefs) {
		return nil, &LimitError{What: "references", Limit: int64(lim.MaxRefs)}
	}
	// The header is untrusted: never pre-allocate more than a modest
	// chunk on its say-so; Append grows as actual data arrives.
	prealloc := int(count)
	if prealloc > 1<<20 {
		prealloc = 1 << 20
	}
	t := New(prealloc)
	prev := int64(0)
	for i := uint64(0); i < count; i++ {
		kb, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("trace: reading kind of ref %d: %w", i, err)
		}
		kind := Kind(kb)
		if !kind.Valid() {
			return nil, fmt.Errorf("trace: ref %d: invalid kind %d", i, kb)
		}
		delta, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: reading delta of ref %d: %w", i, err)
		}
		prev += delta
		if prev < 0 || prev > int64(^uint32(0)) {
			return nil, fmt.Errorf("trace: ref %d: address %d out of 32-bit range", i, prev)
		}
		t.Append(Ref{Addr: uint32(prev), Kind: kind})
	}
	return t, nil
}

// Decode parses a trace from r in any supported format — din text, the
// .ctr varint codec, or the checksummed ctz1 block format — auto-detecting
// the binary codecs by magic, under the given limits. Unlike the file-path
// loaders it never seeks, so it works on streams (HTTP request bodies,
// pipes) and never buffers the input twice.
func Decode(r io.Reader, lim Limits) (*Trace, error) {
	rd := lim.limit(r)
	br := bufio.NewReader(rd)
	magic, err := br.Peek(len(binMagic))
	if err == nil {
		switch [4]byte(magic) {
		case binMagic:
			return readBinary(br, lim)
		case ctz1Magic:
			d, err := NewCTZ1Decoder(br, lim)
			if err != nil {
				return nil, err
			}
			return readAll(d)
		}
	}
	// Anything else — including inputs shorter than the magic — is text.
	return readText(br, lim.MaxRefs)
}

// DecodeBytes is Decode over an in-memory image. A ctz1 image is decoded
// in parallel into one exactly-sized trace by the zero-copy bytes
// decoder (see decodeParallel), and serially through it when the image
// fails anywhere, so the error is the streaming decoder's. The other
// formats wrap the slice in a reader and take the streaming path.
func DecodeBytes(data []byte, lim Limits) (*Trace, error) {
	if len(data) >= len(ctz1Magic) && [4]byte(data[:4]) == ctz1Magic {
		d, err := NewCTZ1BytesDecoder(data, lim)
		if err != nil {
			return nil, err
		}
		if t, ok := d.decodeParallel(minPartRefs); ok {
			return t, nil
		}
		return readAll(d)
	}
	return Decode(bytes.NewReader(data), lim)
}
