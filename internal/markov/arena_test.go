package markov

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// randomArenaTree builds a tree from a Zipf-ish random workload, the
// same shape the compact-layout equivalence test uses.
func randomArenaTree(rng *rand.Rand, seqs, maxDepth int) *Tree {
	urls := make([]string, 40)
	for i := range urls {
		urls[i] = url(i)
	}
	tr := NewTree()
	for i := 0; i < seqs; i++ {
		s := make([]string, rng.Intn(7)+1)
		for j := range s {
			s[j] = urls[rng.Intn(rng.Intn(len(urls))+1)]
		}
		tr.Insert(s, maxDepth, int64(rng.Intn(3)+1))
	}
	return tr
}

// TestFreezeEquivalence is the golden suite of the arena change: a
// frozen tree must reproduce the pointer tree's longest match and
// predictions bit for bit, across random contexts and every threshold
// the models use. This is what lets the maintenance loop publish the
// arena in place of the tree without moving any headline metric.
func TestFreezeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 5; round++ {
		tr := randomArenaTree(rng, 800, round%3)
		a := tr.Freeze()

		if got, want := a.NodeCount(), tr.NodeCount(); got != want {
			t.Fatalf("round %d: arena NodeCount = %d, tree %d", round, got, want)
		}

		ctxURLs := make([]string, 0, 41)
		ctxURLs = append(ctxURLs, "/not-in-training")
		for i := 0; i < 40; i++ {
			ctxURLs = append(ctxURLs, url(i))
		}
		var buf []Prediction
		for i := 0; i < 2000; i++ {
			ctx := make([]string, rng.Intn(6))
			for j := range ctx {
				ctx[j] = ctxURLs[rng.Intn(len(ctxURLs))]
			}
			threshold := []float64{0, 0.1, 0.25, 0.6}[i%4]

			tn, torder := tr.LongestMatch(ctx)
			an, aorder, aok := a.LongestMatch(ctx)
			if (tn == nil) == aok || (aok && torder != aorder) {
				t.Fatalf("round %d ctx %v: tree order %d (nil=%v), arena order %d (ok=%v)",
					round, ctx, torder, tn == nil, aorder, aok)
			}

			want := tr.CandidatesFrom(tn, threshold, torder)
			got := a.PredictInto(ctx, threshold, nil)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d ctx %v thr %v:\n got %+v\nwant %+v", round, ctx, threshold, got, want)
			}
			// The buffered path must agree with the allocating path.
			buf = a.PredictInto(ctx, threshold, buf)
			if len(buf) > 0 && !reflect.DeepEqual([]Prediction(buf), want) {
				t.Fatalf("round %d ctx %v thr %v: buffered path diverged", round, ctx, threshold)
			}

			if an2, ok2 := a.Match(ctx); ok2 {
				if mn := tr.Match(ctx); mn == nil || mn.Count != a.Count(an2) {
					t.Fatalf("round %d ctx %v: arena Match disagrees with tree", round, ctx)
				}
			} else if mn := tr.Match(ctx); mn != nil {
				t.Fatalf("round %d ctx %v: tree matches, arena does not", round, ctx)
			}
			_ = an
		}
	}
}

// TestFreezeStatsEquivalence checks that the arena reproduces the
// pointer tree's structural statistics (everything except the byte
// estimate, which legitimately shrinks).
func TestFreezeStatsEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 4; round++ {
		tr := randomArenaTree(rng, 500, round%3)
		ts, as := tr.Stats(), tr.Freeze().Stats()
		as.Bytes, ts.Bytes = 0, 0
		if !reflect.DeepEqual(as, ts) {
			t.Fatalf("round %d stats diverged:\n tree  %+v\n arena %+v", round, ts, as)
		}
	}
}

// TestFreezeCanonicalLayout: two trees with the same logical content —
// built in different insertion orders, and one assembled via Merge —
// must freeze to byte-identical images. The canonical layout is what
// makes the arena round-trip byte-exact and snapshot diffs meaningful.
func TestFreezeCanonicalLayout(t *testing.T) {
	seqs := [][]string{
		{"/a", "/b", "/c"},
		{"/a", "/b"},
		{"/z", "/a"},
		{"/m", "/n", "/a", "/b"},
	}
	build := func(order []int) *Tree {
		tr := NewTree()
		for _, i := range order {
			tr.Insert(seqs[i], 0, 1)
		}
		return tr
	}
	fwd := build([]int{0, 1, 2, 3}).Freeze()
	rev := build([]int{3, 2, 1, 0}).Freeze()
	if !bytes.Equal(fwd.Bytes(), rev.Bytes()) {
		t.Fatal("insertion order leaked into the frozen image")
	}
	half1, half2 := build([]int{0, 1}), build([]int{2, 3})
	half1.Merge(half2)
	if !bytes.Equal(fwd.Bytes(), half1.Freeze().Bytes()) {
		t.Fatal("merge-built tree froze to a different image")
	}
}

// TestArenaBytesReattach: ArenaFromBytes over a copied image must
// accept it and serve identical predictions — the relocatability
// guarantee (the image can cross a file or shared mapping).
func TestArenaBytesReattach(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomArenaTree(rng, 400, 0).Freeze()
	img := make([]byte, len(a.Bytes()))
	copy(img, a.Bytes())
	b, err := ArenaFromBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	ctx := []string{url(1), url(2)}
	if !reflect.DeepEqual(a.PredictInto(ctx, 0, nil), b.PredictInto(ctx, 0, nil)) {
		t.Fatal("reattached arena predicts differently")
	}
	// Deliberately misaligned view: the loader must copy, not crash.
	mis := make([]byte, len(img)+1)
	copy(mis[1:], img)
	c, err := ArenaFromBytes(mis[1:])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.PredictInto(ctx, 0, nil), c.PredictInto(ctx, 0, nil)) {
		t.Fatal("misaligned reattach predicts differently")
	}
}

// corruptingEdit describes one targeted corruption that the validator
// must reject with an error (never a panic).
type corruptingEdit struct {
	name string
	edit func(img []byte, a *Arena)
}

// TestArenaFromBytesRejectsCorrupt drives the validator with targeted
// corruptions of every section plus exhaustive truncations. A corrupt
// snapshot must never panic the loader — it is the crash-safety story
// for reviving images from disk.
func TestArenaFromBytesRejectsCorrupt(t *testing.T) {
	tr := NewTree()
	tr.Insert([]string{"/a", "/b"}, 0, 2)
	tr.Insert([]string{"/b", "/c"}, 0, 1)
	a := tr.Freeze()
	valid := a.Bytes()

	hdr := len(arenaMagic)
	edits := []corruptingEdit{
		{"bad magic", func(img []byte, _ *Arena) { img[0] = 'X' }},
		{"corrupt byte-order mark", func(img []byte, _ *Arena) {
			for i := 0; i < 8; i++ {
				img[hdr+i] = 0
			}
		}},
		{"zero nodes", func(img []byte, _ *Arena) {
			for i := 0; i < 8; i++ {
				img[hdr+8+i] = 0
			}
		}},
		{"huge nodes", func(img []byte, _ *Arena) {
			for i := 0; i < 8; i++ {
				img[hdr+8+i] = 0xFF
			}
		}},
		{"huge syms", func(img []byte, _ *Arena) {
			for i := 0; i < 8; i++ {
				img[hdr+16+i] = 0xFF
			}
		}},
		{"huge urlbytes", func(img []byte, _ *Arena) {
			for i := 0; i < 8; i++ {
				img[hdr+24+i] = 0xFF
			}
		}},
		{"root child block not at 1", func(img []byte, a *Arena) {
			off := childOffByteOffset(a, 0)
			img[off] = 2
		}},
		{"child block before parent", func(img []byte, a *Arena) {
			off := childOffByteOffset(a, 1)
			img[off] = 0
		}},
		{"root symbol nonzero", func(img []byte, a *Arena) {
			off := symByteOffset(a, 0)
			img[off] = 1
		}},
		{"symbol out of range", func(img []byte, a *Arena) {
			off := symByteOffset(a, 1)
			img[off] = 0xEE
		}},
		{"negative count", func(img []byte, a *Arena) {
			off := countByteOffset(a, 1)
			img[off+7] = 0x80
		}},
	}
	for _, e := range edits {
		img := make([]byte, len(valid))
		copy(img, valid)
		e.edit(img, a)
		if _, err := ArenaFromBytes(img); err == nil {
			t.Errorf("%s: corrupt image accepted", e.name)
		}
	}

	for cut := 0; cut < len(valid); cut++ {
		if _, err := ArenaFromBytes(valid[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}

	// Single-byte flips must never panic; whether they error depends on
	// which field they hit (a count flip yields a different valid image).
	for i := 0; i < len(valid); i++ {
		img := make([]byte, len(valid))
		copy(img, valid)
		img[i] ^= 0xFF
		_, _ = ArenaFromBytes(img)
	}
}

// Byte offsets of individual fields inside an arena image, derived from
// the same layout function the implementation uses.
func countByteOffset(a *Arena, node int) int {
	countsOff, _, _, _, _, _ := arenaLayout(uint64(len(a.counts)), uint64(a.SymbolCount()), uint64(len(a.symBytes)))
	return int(countsOff) + node*8
}

func symByteOffset(a *Arena, node int) int {
	_, symsOff, _, _, _, _ := arenaLayout(uint64(len(a.counts)), uint64(a.SymbolCount()), uint64(len(a.symBytes)))
	return int(symsOff) + node*4
}

func childOffByteOffset(a *Arena, node int) int {
	_, _, childOffOff, _, _, _ := arenaLayout(uint64(len(a.counts)), uint64(a.SymbolCount()), uint64(len(a.symBytes)))
	return int(childOffOff) + node*4
}

// TestFrozenTreeZeroAlloc is the tentpole's acceptance criterion at
// unit level: with a warm buffer, the frozen serving path performs zero
// heap allocations per prediction.
func TestFrozenTreeZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := randomArenaTree(rng, 800, 0)
	f := NewFrozenTree(tr.Freeze(), "test", 0.1, 0)

	ctxs := make([][]string, 64)
	for i := range ctxs {
		ctx := make([]string, rng.Intn(5)+1)
		for j := range ctx {
			ctx[j] = url(rng.Intn(40))
		}
		ctxs[i] = ctx
	}
	var buf []Prediction
	for _, ctx := range ctxs {
		buf = f.PredictInto(ctx, buf)
	}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		buf = f.PredictInto(ctxs[i%len(ctxs)], buf)
		i++
	})
	if allocs != 0 {
		t.Fatalf("frozen PredictInto allocates %v per op, want 0", allocs)
	}
}

// TestLongestMatchDeepContext exercises the spill path: a context with
// more live suffix matches than the stack array holds must still return
// the longest match (it may allocate — correctness over thrift there).
func TestLongestMatchDeepContext(t *testing.T) {
	depth := arenaMaxStackMatches + 36
	seq := make([]string, depth)
	for i := range seq {
		seq[i] = "/loop"
	}
	tr := NewTree()
	tr.Insert(seq, 0, 1)
	a := tr.Freeze()
	_, order, ok := a.LongestMatch(seq)
	if !ok || order != depth {
		t.Fatalf("deep LongestMatch = order %d ok %v, want order %d", order, ok, depth)
	}
}

// TestFrozenTreeClampsHeight mirrors the height-capped models: a
// clampHeight-H frozen tree must only consider the trailing H-1 URLs.
func TestFrozenTreeClampsHeight(t *testing.T) {
	tr := NewTree()
	tr.Insert([]string{"/a", "/b", "/c"}, 3, 1)
	f := NewFrozenTree(tr.Freeze(), "3-test", 0, 3)
	got := f.Predict([]string{"/x", "/a", "/b"})
	if len(got) != 1 || got[0].URL != "/c" {
		t.Fatalf("clamped predict = %+v, want /c", got)
	}
}

// TestFrozenTreeTrainPanics pins the immutability contract.
func TestFrozenTreeTrainPanics(t *testing.T) {
	tr := NewTree()
	tr.Insert([]string{"/a"}, 0, 1)
	f := NewFrozenTree(tr.Freeze(), "test", 0, 0)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("TrainSequence on a frozen model did not panic")
		} else if !strings.Contains(r.(string), "frozen") {
			t.Fatalf("unexpected panic %v", r)
		}
	}()
	f.TrainSequence([]string{"/a"})
}

// byteSwapArenaImage rewrites a valid arena image as a machine of the
// opposite endianness would have written it: every fixed-width field —
// the four header words, the int64 counts, and the uint32 sections —
// is byte-reversed in place. Magic and URL bytes are endian-neutral.
func byteSwapArenaImage(img []byte, a *Arena) {
	numNodes := uint64(len(a.counts))
	numSyms := uint64(a.SymbolCount())
	countsOff, symsOff, childOffOff, symOffOff, symBytesOff, _ :=
		arenaLayout(numNodes, numSyms, uint64(len(a.symBytes)))
	swap := func(off, width, n uint64) {
		for i := uint64(0); i < n; i++ {
			f := img[off+i*width : off+(i+1)*width]
			for l, r := 0, int(width)-1; l < r; l, r = l+1, r-1 {
				f[l], f[r] = f[r], f[l]
			}
		}
	}
	swap(uint64(len(arenaMagic)), 8, 4) // BOM + 3 dims
	swap(countsOff, 8, numNodes)
	swap(symsOff, 4, numNodes)
	swap(childOffOff, 4, numNodes+1)
	swap(symOffOff, 4, numSyms+1)
	_ = symBytesOff // URL bytes carry no endianness
}

// TestArenaFromBytesRejectsForeignEndianness pins the cross-machine
// hardening: an image written on an opposite-endian machine — which
// under the old host-endian header would have been misread through
// byte-swapped offsets — is refused with an explicit byte-order error.
func TestArenaFromBytesRejectsForeignEndianness(t *testing.T) {
	tr := NewTree()
	tr.Insert([]string{"/a", "/b"}, 0, 2)
	tr.Insert([]string{"/b", "/c"}, 0, 1)
	a := tr.Freeze()

	img := make([]byte, len(a.Bytes()))
	copy(img, a.Bytes())
	byteSwapArenaImage(img, a)

	_, err := ArenaFromBytes(img)
	if err == nil {
		t.Fatal("byte-swapped arena image accepted")
	}
	if !strings.Contains(err.Error(), "byte order") {
		t.Fatalf("byte-swapped image rejected without a byte-order diagnosis: %v", err)
	}

	// Round-trip sanity: the unswapped image still attaches.
	if _, err := ArenaFromBytes(a.Bytes()); err != nil {
		t.Fatalf("valid image rejected: %v", err)
	}
}
