package markov

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestFrozenTreeSnapshotRoundTrip: encoding a frozen tree and decoding
// it through the kind registry must reproduce identical predictions —
// the invariant the snapshot-distribution channel rests on.
func TestFrozenTreeSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := randomArenaTree(rng, 600, 0)
	f := NewFrozenTree(tr.Freeze(), "PPM-test", 0.1, 5)

	var w bytes.Buffer
	if err := f.EncodeFrozen(&w); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFrozenModel(f.FrozenKind(), w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != "PPM-test" {
		t.Errorf("decoded name = %q", got.Name())
	}
	for i := 0; i < 500; i++ {
		ctx := make([]string, rng.Intn(6))
		for j := range ctx {
			ctx[j] = url(rng.Intn(40))
		}
		if want, have := f.Predict(ctx), got.Predict(ctx); !reflect.DeepEqual(want, have) {
			t.Fatalf("ctx %v: decoded model predicts %+v, original %+v", ctx, have, want)
		}
	}
	// The arena image itself must revive bit-identical.
	if !bytes.Equal(f.Arena().Bytes(), got.(*FrozenTree).Arena().Bytes()) {
		t.Fatal("round trip changed the arena image")
	}
}

// TestDecodeFrozenModelUnknownKind: a kind the process has not linked a
// decoder for must error with the registered kinds listed, not panic.
func TestDecodeFrozenModelUnknownKind(t *testing.T) {
	_, err := DecodeFrozenModel("nonexistent/kind", nil)
	if err == nil {
		t.Fatal("unknown kind accepted")
	}
	if !strings.Contains(err.Error(), FrozenTreeKind) {
		t.Errorf("error %v does not list registered kinds", err)
	}
}

// TestDecodeFrozenModelRejectsCorrupt: truncations, trailing bytes, and
// well-formed fields carrying a corrupted arena must all error (never
// panic).
func TestDecodeFrozenModelRejectsCorrupt(t *testing.T) {
	tr := NewTree()
	tr.Insert([]string{"/a", "/b"}, 0, 1)
	f := NewFrozenTree(tr.Freeze(), "t", 0, 0)
	var w bytes.Buffer
	if err := f.EncodeFrozen(&w); err != nil {
		t.Fatal(err)
	}
	valid := w.Bytes()

	for cut := 0; cut < len(valid); cut++ {
		if _, err := DecodeFrozenModel(FrozenTreeKind, valid[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := DecodeFrozenModel(FrozenTreeKind, append(valid[:len(valid):len(valid)], 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}

	var bad WireWriter
	bad.String("t")
	bad.Float64(0)
	bad.Uint32(0)
	bad.Blob([]byte("pbppmAR2 not really an arena"))
	if _, err := DecodeFrozenModel(FrozenTreeKind, bad.Bytes()); err == nil {
		t.Fatal("corrupt embedded arena accepted")
	}
}

// TestEncodeDecodeEmptyTree: a model trained on nothing still has a
// wire form (the pseudo-root alone), and it revives predicting nothing.
func TestEncodeDecodeEmptyTree(t *testing.T) {
	f := NewFrozenTree(NewTree().Freeze(), "empty", 0.25, 0)
	var w bytes.Buffer
	if err := f.EncodeFrozen(&w); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFrozenModel(FrozenTreeKind, w.Bytes())
	if err != nil {
		t.Fatalf("decoding the empty tree: %v", err)
	}
	if got.NodeCount() != 0 || len(got.Predict([]string{"/a"})) != 0 {
		t.Errorf("empty tree revived with %d nodes", got.NodeCount())
	}
}

// TestEncodeStartsWithMagic: a frozen tree's wire form carries its arena
// as a verbatim image, and that image starts with the v2 arena magic
// whose byte-order mark a decoder checks before trusting the layout.
func TestEncodeStartsWithMagic(t *testing.T) {
	tr := NewTree()
	tr.Insert([]string{"a"}, 0, 1)
	a := tr.Freeze()
	if !bytes.HasPrefix(a.Bytes(), []byte(arenaMagic)) {
		t.Errorf("arena image does not start with the v2 magic: % x", a.Bytes()[:12])
	}

	var w bytes.Buffer
	if err := NewFrozenTree(a, "t", 0, 0).EncodeFrozen(&w); err != nil {
		t.Fatal(err)
	}
	r := NewWireReader(w.Bytes())
	name := r.String()
	r.Float64()
	r.Uint32()
	blob := r.Blob()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if name != "t" {
		t.Errorf("decoded name = %q, want %q", name, "t")
	}
	if !bytes.HasPrefix(blob, []byte(arenaMagic)) {
		t.Errorf("encoded arena blob does not start with the v2 magic: % x", blob[:12])
	}
}

// TestDecodeTruncatedV2: a truncated v2 arena image wrapped in
// otherwise well-formed frozen-tree fields (so the wire lengths agree)
// must still be rejected by the arena validation.
func TestDecodeTruncatedV2(t *testing.T) {
	tr := NewTree()
	tr.Insert([]string{"a", "b", "c"}, 0, 2)
	raw := tr.Freeze().Bytes()
	for _, cut := range []int{len(arenaMagic) + 1, len(raw) / 2, len(raw) - 1} {
		var e WireWriter
		e.String("t")
		e.Float64(0)
		e.Uint32(0)
		e.Blob(raw[:cut])
		if _, err := DecodeFrozenModel(FrozenTreeKind, e.Bytes()); err == nil {
			t.Errorf("decoding a frozen tree whose arena is cut to %d/%d bytes succeeded", cut, len(raw))
		}
	}
}
