package markov

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// The snapshot wire format: every section of a distributed model — the
// envelope, the frozen-model payloads, the popularity ranking — is a
// flat sequence of big-endian fields written with WireWriter and read
// back with WireReader. Integers are fixed-width, strings carry a
// uint32 length, blobs a uint64 length, and an arena travels as a blob
// holding its image verbatim. There are no maps and no type
// descriptors, so one value always encodes to the same bytes.

// WireWriter appends big-endian fields to a byte slice. The zero value
// is ready to use.
type WireWriter struct {
	buf []byte
}

// NewWireWriter returns a writer that appends after prefix (for
// example a magic string).
func NewWireWriter(prefix []byte) *WireWriter { return &WireWriter{buf: prefix} }

// Uint32 appends v.
func (w *WireWriter) Uint32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }

// Uint64 appends v.
func (w *WireWriter) Uint64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }

// Int64 appends v in two's complement.
func (w *WireWriter) Int64(v int64) { w.Uint64(uint64(v)) }

// Float64 appends v's IEEE 754 bits.
func (w *WireWriter) Float64(v float64) { w.Uint64(math.Float64bits(v)) }

// String appends a uint32 length and s.
func (w *WireWriter) String(s string) {
	w.Uint32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Blob appends a uint64 length and b.
func (w *WireWriter) Blob(b []byte) {
	w.Uint64(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// Arena appends the arena's image verbatim as a blob.
func (w *WireWriter) Arena(a *Arena) { w.Blob(a.Bytes()) }

// Bytes returns everything written so far.
func (w *WireWriter) Bytes() []byte { return w.buf }

// WriteTo writes everything written so far to dst.
func (w *WireWriter) WriteTo(dst io.Writer) (int64, error) {
	n, err := dst.Write(w.buf)
	return int64(n), err
}

// WireReader reads the fields a WireWriter wrote. It is bounded: no
// read goes past the input, and no length or count may claim more
// than the remaining bytes, so a corrupt field cannot cause a panic or
// a large allocation. The first failure sticks — later reads return
// zero values — and is reported by Err and Close, so decoders read
// every field and check once.
type WireReader struct {
	buf []byte
	err error
}

// NewWireReader reads fields from data. Blob results alias data.
func NewWireReader(data []byte) *WireReader { return &WireReader{buf: data} }

// Fail records a formatted failure unless one is already recorded.
// Decoders use it for semantic checks on values they read.
func (r *WireReader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
		r.buf = nil
	}
}

// Err reports the first failure, if any.
func (r *WireReader) Err() error { return r.err }

// Close reports the first failure, or an error if input remains
// unread: every byte of a section must belong to a field.
func (r *WireReader) Close() error {
	if r.err == nil && len(r.buf) > 0 {
		r.Fail("markov: wire: %d trailing bytes", len(r.buf))
	}
	return r.err
}

func (r *WireReader) take(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)) {
		r.Fail("markov: wire: %d-byte field overruns the %d bytes left", n, len(r.buf))
		return nil
	}
	b := r.buf[:n:n]
	r.buf = r.buf[n:]
	return b
}

// fixed reads an n-byte field, or n zero bytes after a failure.
func (r *WireReader) fixed(n uint64) []byte {
	if b := r.take(n); b != nil {
		return b
	}
	return make([]byte, n)
}

// Uint32 reads a uint32.
func (r *WireReader) Uint32() uint32 { return binary.BigEndian.Uint32(r.fixed(4)) }

// Uint64 reads a uint64.
func (r *WireReader) Uint64() uint64 { return binary.BigEndian.Uint64(r.fixed(8)) }

// Int64 reads an int64.
func (r *WireReader) Int64() int64 { return int64(r.Uint64()) }

// Float64 reads a float64.
func (r *WireReader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// String reads a length-prefixed string.
func (r *WireReader) String() string { return string(r.take(uint64(r.Uint32()))) }

// Blob reads a length-prefixed byte slice aliasing the input.
func (r *WireReader) Blob() []byte { return r.take(r.Uint64()) }

// Count reads a uint32 element count and checks that that many
// elements of at least minSize bytes each fit in the remaining input,
// so a loop over the count is bounded by the input size.
func (r *WireReader) Count(minSize int) int {
	n := r.Uint32()
	if r.err == nil && uint64(n)*uint64(minSize) > uint64(len(r.buf)) {
		r.Fail("markov: wire: %d elements cannot fit in the %d bytes left", n, len(r.buf))
		return 0
	}
	return int(n)
}

// Arena reads an arena blob into a private aligned copy (the decoded
// model never aliases the input) and validates it with ArenaFromBytes.
func (r *WireReader) Arena() *Arena {
	b := r.Blob()
	if r.err != nil {
		return nil
	}
	buf := alignedBuf(len(b))
	copy(buf, b)
	a, err := ArenaFromBytes(buf)
	if err != nil {
		r.Fail("%w", err)
		return nil
	}
	return a
}
