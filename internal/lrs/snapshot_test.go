package lrs

import (
	"bytes"
	"reflect"
	"testing"

	"pbppm/internal/markov"
)

// TestModelEncodeDecode: the frozen LRS model (the repeating-only tree;
// the full suffix trie is training state and does not travel) revives
// through the snapshot codec registry with its size and predictions.
func TestModelEncodeDecode(t *testing.T) {
	m := New(Config{})
	for i := 0; i < 3; i++ {
		m.TrainSequence([]string{"a", "b", "c"})
	}
	m.TrainSequence([]string{"x", "once"})

	f := m.Freeze().(markov.FrozenEncoder)
	var buf bytes.Buffer
	if err := f.EncodeFrozen(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := markov.DecodeFrozenModel(f.FrozenKind(), buf.Bytes())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Name() != m.Name() || got.NodeCount() != m.NodeCount() {
		t.Errorf("decoded %s with %d nodes, want %s with %d", got.Name(), got.NodeCount(), m.Name(), m.NodeCount())
	}
	for _, ctx := range [][]string{{"a"}, {"a", "b"}, {"x"}} {
		if want, have := m.Predict(ctx), got.Predict(ctx); !reflect.DeepEqual(want, have) {
			t.Errorf("ctx %v: decoded predicts %+v, live %+v", ctx, have, want)
		}
	}
}
