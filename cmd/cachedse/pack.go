package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"

	"github.com/example/cachedse/internal/server"
	"github.com/example/cachedse/internal/trace"
	"github.com/example/cachedse/internal/tracestore"
)

// cmdPack converts a trace (din text or ctr binary, auto-detected) to the
// compact ctz1 binary format, reporting the compression achieved. With
// -store the packed trace is also registered in a tracestore under
// trace/<digest of the input file>, where serve -store and
// explore/simulate -store can find it.
func cmdPack(args []string) error {
	fs := newFlagSet("pack", "pack [-o OUT] [-block N] [-store DIR] TRACE")
	out := fs.String("o", "", "output file (default: TRACE.ctz, \"-\" for stdout)")
	block := fs.Int("block", trace.CTZ1DefaultBlock, "references per checksummed block")
	storeDir := fs.String("store", "", "also register the packed trace in this tracestore directory")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("pack needs exactly one trace file")
	}
	if *block < 1 || *block > trace.CTZ1MaxBlock {
		return fmt.Errorf("-block must be in 1..%d, got %d", trace.CTZ1MaxBlock, *block)
	}
	in := fs.Arg(0)
	tr, err := loadTrace(in)
	if err != nil {
		return err
	}

	var packed bytes.Buffer
	enc, err := trace.NewCTZ1Encoder(&packed, *block)
	if err != nil {
		return err
	}
	for _, r := range tr.Refs {
		if err := enc.Append(r); err != nil {
			return err
		}
	}
	if err := enc.Close(); err != nil {
		return err
	}

	dest := *out
	if dest == "" {
		dest = in + ".ctz"
	}
	if dest == "-" {
		if _, err := os.Stdout.Write(packed.Bytes()); err != nil {
			return err
		}
	} else if err := os.WriteFile(dest, packed.Bytes(), 0o644); err != nil {
		return err
	}
	if *storeDir != "" {
		st, err := tracestore.Open(*storeDir)
		if err != nil {
			return err
		}
		// Key by the service's content digest (over the reference stream,
		// not the encoding), so `serve -store` over the same directory
		// serves this trace under the digest uploads would get.
		digest := server.TraceDigest(tr)
		if _, err := st.Put("trace/"+digest, bytes.NewReader(packed.Bytes())); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "cachedse: stored as trace/%s\n", digest)
	}
	if fi, err := os.Stat(in); err == nil && fi.Size() > 0 {
		fmt.Fprintf(os.Stderr, "cachedse: packed %d refs: %d -> %d bytes (%.1f%%)\n",
			tr.Len(), fi.Size(), packed.Len(), 100*float64(packed.Len())/float64(fi.Size()))
	}
	return nil
}

// cmdUnpack converts a trace back to din text (or, with -binary, to the
// ctr varint format). The input may be any supported format; unpack(pack(t))
// reproduces the original text byte for byte.
func cmdUnpack(args []string) error {
	fs := newFlagSet("unpack", "unpack [-o OUT] [-binary] TRACE")
	out := fs.String("o", "", "output file (default: stdout)")
	binOut := fs.Bool("binary", false, "emit ctr binary instead of din text")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("unpack needs exactly one trace file")
	}
	tr, err := loadTrace(fs.Arg(0))
	if err != nil {
		return err
	}

	var w io.Writer = os.Stdout
	if *out != "" && *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriter(w)
	if *binOut {
		err = trace.WriteBinary(bw, tr)
	} else {
		err = trace.WriteText(bw, tr)
	}
	if err != nil {
		return err
	}
	return bw.Flush()
}

// resolveTrace loads the positional trace argument either from the
// filesystem (the default) or, with -store, from a tracestore directory
// where the argument names a stored trace: the full "trace/<digest>" key,
// the bare digest, or a unique digest prefix.
func resolveTrace(storeDir, arg string) (*trace.Trace, error) {
	if storeDir == "" {
		return loadTrace(arg)
	}
	st, err := tracestore.Open(storeDir)
	if err != nil {
		return nil, err
	}
	key := arg
	if _, ok := st.Stat(key); !ok {
		key = "trace/" + arg
	}
	if _, ok := st.Stat(key); !ok {
		var matches []string
		for _, e := range st.List("trace/") {
			if len(e.Key) >= len("trace/"+arg) && e.Key[:len("trace/"+arg)] == "trace/"+arg {
				matches = append(matches, e.Key)
			}
		}
		switch len(matches) {
		case 1:
			key = matches[0]
		case 0:
			return nil, fmt.Errorf("no trace %q in store %s", arg, storeDir)
		default:
			return nil, fmt.Errorf("trace prefix %q is ambiguous in store %s (%d matches)", arg, storeDir, len(matches))
		}
	}
	data, err := st.Get(key)
	if err != nil {
		return nil, err
	}
	return trace.DecodeBytes(data, trace.Limits{})
}
