package core

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"pbppm/internal/markov"
	"pbppm/internal/popularity"
)

// TestFrozenSnapshotRoundTrip: the frozen PB-PPM model — arena plus
// rule-3 links — must revive through the kind registry with identical
// predictions and the freeze-time node count intact. This is the model
// image the snapshot-distribution channel ships between processes.
func TestFrozenSnapshotRoundTrip(t *testing.T) {
	// The paper's Figure 1 shape: the second max-grade URL lands deep in
	// the open branch and earns a rule-3 link under the heading URL.
	grades := popularity.FixedGrades{"A": 3, "A2": 3, "B": 2, "B2": 2, "C": 1, "C2": 1}
	m := New(grades, Config{Heights: [4]int{1, 2, 3, 4}})
	for i := 0; i < 6; i++ {
		m.TrainSequence([]string{"A", "B", "C", "A2", "B2", "C2"})
		m.TrainSequence([]string{"A", "B", "C2"})
	}
	f := m.Freeze().(*Frozen)

	var w bytes.Buffer
	if err := f.EncodeFrozen(&w); err != nil {
		t.Fatal(err)
	}
	got, err := markov.DecodeFrozenModel(f.FrozenKind(), w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	gf, ok := got.(*Frozen)
	if !ok {
		t.Fatalf("decoded model is %T, want *core.Frozen", got)
	}
	if gf.Name() != f.Name() || gf.NodeCount() != f.NodeCount() {
		t.Errorf("decoded identity = (%q, %d), want (%q, %d)",
			gf.Name(), gf.NodeCount(), f.Name(), f.NodeCount())
	}
	if len(f.links) == 0 {
		t.Fatal("fixture produced no rule-3 links; the round trip is not exercising them")
	}
	if !reflect.DeepEqual(gf.links, f.links) {
		t.Errorf("links diverged:\n got %+v\nwant %+v", gf.links, f.links)
	}
	ctxs := [][]string{
		{"A"}, {"A", "B"}, {"A", "B", "C"}, {"A2"}, {"A2", "B2"}, {"/x"}, {},
	}
	for _, ctx := range ctxs {
		if want, have := f.Predict(ctx), got.Predict(ctx); !reflect.DeepEqual(want, have) {
			t.Fatalf("ctx %v: decoded predicts %+v, original %+v", ctx, have, want)
		}
	}
}

// TestFrozenSnapshotRejectsCorrupt: truncations of the encoded form
// must error, never panic or yield a half-built model.
func TestFrozenSnapshotRejectsCorrupt(t *testing.T) {
	m := New(popularity.FixedGrades{"/a": 3}, Config{})
	m.TrainSequence([]string{"/a", "/b"})
	f := m.Freeze().(*Frozen)
	var w bytes.Buffer
	if err := f.EncodeFrozen(&w); err != nil {
		t.Fatal(err)
	}
	valid := w.Bytes()
	for cut := 0; cut < len(valid); cut += 5 {
		if _, err := markov.DecodeFrozenModel(FrozenKind, valid[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestModelEncodeDecode: the link table is written in heading order,
// so one frozen model always encodes to the same bytes, and a decoded
// model re-encodes to exactly the bytes it came from.
func TestModelEncodeDecode(t *testing.T) {
	grades := popularity.FixedGrades{}
	var heads []string
	for i := 0; i < 12; i++ {
		h := fmt.Sprintf("/h%02d", i)
		grades[h] = 3
		heads = append(heads, h)
	}
	m := New(grades, Config{})
	for i, h := range heads {
		// Each popular heading URL recurs deep in a branch headed by
		// another, which earns it a rule-3 link.
		m.TrainSequence([]string{heads[(i+1)%len(heads)], "/mid", h, "/leaf"})
		m.TrainSequence([]string{h, "/leaf"})
	}
	f := m.Freeze().(*Frozen)
	if len(f.links) < 2 {
		t.Fatalf("fixture produced %d link headings; ordering is not exercised", len(f.links))
	}

	var first bytes.Buffer
	if err := f.EncodeFrozen(&first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		var again bytes.Buffer
		if err := f.EncodeFrozen(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), again.Bytes()) {
			t.Fatalf("encoding %d differs from the first", i+1)
		}
	}

	got, err := markov.DecodeFrozenModel(FrozenKind, first.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var re bytes.Buffer
	if err := got.(markov.FrozenEncoder).EncodeFrozen(&re); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), re.Bytes()) {
		t.Fatal("decoded model re-encodes to different bytes")
	}
}

// TestDecodeModelErrors: well-formed fields with invalid values — a
// negative node count, link headings out of order, an empty link list,
// a NaN link probability — are rejected.
func TestDecodeModelErrors(t *testing.T) {
	arena := markov.NewTree().Freeze()
	type link struct {
		head  string
		preds []markov.Prediction
	}
	image := func(nodeCount int64, links ...link) []byte {
		var w markov.WireWriter
		w.String("PB-PPM")
		w.Float64(0.25)
		w.Int64(nodeCount)
		w.Uint32(uint32(len(links)))
		for _, l := range links {
			w.String(l.head)
			w.Uint32(uint32(len(l.preds)))
			for _, p := range l.preds {
				w.String(p.URL)
				w.Float64(p.Probability)
				w.Uint32(uint32(p.Order))
			}
		}
		w.Arena(arena)
		return w.Bytes()
	}
	ok := []markov.Prediction{{URL: "/x", Probability: 0.5, Order: 1}}
	if _, err := markov.DecodeFrozenModel(FrozenKind, image(3, link{"/a", ok}, link{"/b", ok})); err != nil {
		t.Fatalf("valid image rejected: %v", err)
	}
	cases := map[string][]byte{
		"junk":             []byte("junk"),
		"negative nodes":   image(-1),
		"headings swapped": image(3, link{"/b", ok}, link{"/a", ok}),
		"duplicate head":   image(3, link{"/a", ok}, link{"/a", ok}),
		"empty link list":  image(3, link{"/a", nil}),
		"NaN probability":  image(3, link{"/a", []markov.Prediction{{URL: "/x", Probability: math.NaN(), Order: 1}}}),
		"empty link URL":   image(3, link{"/a", []markov.Prediction{{Probability: 0.5, Order: 1}}}),
	}
	for name, data := range cases {
		if _, err := markov.DecodeFrozenModel(FrozenKind, data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
