package markov

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestEncodeDecode: every field type reads back exactly as written, in
// order, and the reader ends with nothing left over.
func TestEncodeDecode(t *testing.T) {
	w := NewWireWriter([]byte("HDR"))
	w.Uint32(0xDEADBEEF)
	w.Uint64(1 << 60)
	w.Int64(-7)
	w.Float64(0.125)
	w.Float64(math.Inf(-1))
	w.String("")
	w.String("/a/b.html")
	w.Blob([]byte{0, 1, 2})
	data := w.Bytes()
	if !bytes.HasPrefix(data, []byte("HDR")) {
		t.Fatalf("prefix lost: %q", data[:3])
	}

	r := NewWireReader(data[3:])
	if v := r.Uint32(); v != 0xDEADBEEF {
		t.Errorf("Uint32 = %#x", v)
	}
	if v := r.Uint64(); v != 1<<60 {
		t.Errorf("Uint64 = %d", v)
	}
	if v := r.Int64(); v != -7 {
		t.Errorf("Int64 = %d", v)
	}
	if v := r.Float64(); v != 0.125 {
		t.Errorf("Float64 = %v", v)
	}
	if v := r.Float64(); !math.IsInf(v, -1) {
		t.Errorf("Float64 = %v", v)
	}
	if v := r.String(); v != "" {
		t.Errorf("empty String = %q", v)
	}
	if v := r.String(); v != "/a/b.html" {
		t.Errorf("String = %q", v)
	}
	if v := r.Blob(); !bytes.Equal(v, []byte{0, 1, 2}) {
		t.Errorf("Blob = %v", v)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeError: short fields, lengths and counts larger than the
// input, and unread trailing bytes all fail; the first failure sticks
// and later reads return zero values.
func TestDecodeError(t *testing.T) {
	if r := NewWireReader([]byte("junk")); r.Uint64() != 0 || r.Err() == nil {
		t.Error("8-byte read from 4 bytes succeeded")
	}

	w := NewWireWriter(nil)
	w.Uint32(1 << 30) // a string length far past the input
	w.String("x")
	r := NewWireReader(w.Bytes())
	if s := r.String(); s != "" || r.Err() == nil {
		t.Errorf("overlong string read %q, err %v", s, r.Err())
	}
	if v := r.Uint32(); v != 0 {
		t.Errorf("read after a failure returned %d", v)
	}

	w = NewWireWriter(nil)
	w.Uint32(1000) // 1000 elements of >= 8 bytes in 8 bytes
	w.Uint64(0)
	r = NewWireReader(w.Bytes())
	if n := r.Count(8); n != 0 || r.Err() == nil {
		t.Errorf("implausible count accepted: %d", n)
	}

	r = NewWireReader([]byte{0, 0, 0, 1, 9})
	r.Uint32()
	if err := r.Close(); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing byte: err = %v", err)
	}
}

// TestArenaWireRoundTrip: an arena travels as its image verbatim and
// arrives in a private copy, so the decoded model never aliases the
// buffer it was read from.
func TestArenaWireRoundTrip(t *testing.T) {
	a := randomArenaTree(rand.New(rand.NewSource(99)), 600, 0).Freeze()
	var w WireWriter
	w.Uint32(7) // misalign the blob
	w.Arena(a)
	data := w.Bytes()

	r := NewWireReader(data)
	r.Uint32()
	b := r.Arena()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("wire round trip changed the arena image")
	}
	for i := range data {
		data[i] = 0
	}
	if b.NodeCount() != a.NodeCount() || b.URLOf(1) != a.URLOf(1) {
		t.Fatal("decoded arena aliases the wire buffer")
	}
}
