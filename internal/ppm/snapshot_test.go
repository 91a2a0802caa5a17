package ppm

import (
	"bytes"
	"reflect"
	"testing"

	"pbppm/internal/markov"
)

// TestModelEncodeDecode: both frozen forms of a PPM model — the
// blended one and the plain height-capped one — revive through the
// snapshot codec registry with their name, size and predictions intact.
func TestModelEncodeDecode(t *testing.T) {
	for _, cfg := range []Config{{Height: 3, Threshold: 0.3}, {BlendOrders: true, Threshold: 0.1}} {
		m := New(cfg)
		for i := 0; i < 4; i++ {
			m.TrainSequence([]string{"a", "b", "c"})
			m.TrainSequence([]string{"b", "d"})
		}
		f := m.Freeze().(markov.FrozenEncoder)
		var buf bytes.Buffer
		if err := f.EncodeFrozen(&buf); err != nil {
			t.Fatalf("%s: encode: %v", m.Name(), err)
		}
		got, err := markov.DecodeFrozenModel(f.FrozenKind(), buf.Bytes())
		if err != nil {
			t.Fatalf("%s: decode: %v", m.Name(), err)
		}
		if got.Name() != m.Name() || got.NodeCount() != m.NodeCount() {
			t.Errorf("decoded model: %s, %d nodes; want %s, %d", got.Name(), got.NodeCount(), m.Name(), m.NodeCount())
		}
		for _, ctx := range [][]string{{"a"}, {"a", "b"}, {"x", "b"}, {"c", "b", "d"}} {
			if want, have := m.Predict(ctx), got.Predict(ctx); !reflect.DeepEqual(want, have) {
				t.Errorf("%s ctx %v: decoded predicts %+v, live %+v", m.Name(), ctx, have, want)
			}
		}
	}
}

// TestDecodeModelError: junk and every truncation of a valid blended
// payload are rejected.
func TestDecodeModelError(t *testing.T) {
	if _, err := markov.DecodeFrozenModel(FrozenBlendedKind, []byte("x")); err == nil {
		t.Error("junk accepted")
	}
	m := New(Config{BlendOrders: true})
	m.TrainSequence([]string{"a", "b"})
	var buf bytes.Buffer
	if err := m.Freeze().(markov.FrozenEncoder).EncodeFrozen(&buf); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < buf.Len(); cut++ {
		if _, err := markov.DecodeFrozenModel(FrozenBlendedKind, buf.Bytes()[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}
