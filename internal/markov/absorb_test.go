package markov

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// drawSeqs draws n sessions of 1..maxLen URLs from a fixed alphabet
// (a prefix and a size), repeats included.
func drawSeqs(rng *rand.Rand, n, maxLen int, prefix string, alphabet int) [][]string {
	out := make([][]string, n)
	for i := range out {
		s := make([]string, rng.Intn(maxLen)+1)
		for j := range s {
			s[j] = fmt.Sprintf("%s%d", prefix, rng.Intn(alphabet))
		}
		out[i] = s
	}
	return out
}

func suffixTree(seqs [][]string) *Tree {
	t := NewTree()
	for _, s := range seqs {
		for i := range s {
			t.Insert(s[i:], 4, 1)
		}
	}
	return t
}

// checkChildren fails unless every node's children are keyed by their
// own symbols and every small child slice is strictly sorted, the
// invariants childBySym's binary search relies on.
func checkChildren(t *testing.T, tr *Tree) {
	t.Helper()
	var walk func(n *Node)
	walk = func(n *Node) {
		for sym, c := range n.big {
			if sym != c.sym {
				t.Fatalf("map child keyed %d has symbol %d", sym, c.sym)
			}
			walk(c)
		}
		for i, cr := range n.small {
			if cr.sym != cr.node.sym {
				t.Fatalf("slice child keyed %d has symbol %d", cr.sym, cr.node.sym)
			}
			if i > 0 && n.small[i-1].sym >= cr.sym {
				t.Fatalf("slice children out of order: %d before %d", n.small[i-1].sym, cr.sym)
			}
			walk(cr.node)
		}
	}
	walk(tr.Root)
	tr.Walk(func(path []string, n *Node) {
		if tr.Match(path) != n {
			t.Fatalf("path %v does not resolve to its node", path)
		}
	})
}

// TestAbsorbMatchesMerge: absorbing a tree yields exactly the tree that
// merging it does, leaves the source empty, and keeps every child list
// searchable — for disjoint URL sets, overlapping ones whose symbol ids
// diverge (with hub nodes promoted to maps), trees sharing one symbol
// table, and an empty destination.
func TestAbsorbMatchesMerge(t *testing.T) {
	cases := []struct {
		name string
		// build returns a fresh destination and source; it is called
		// twice so Merge and Absorb each get their own pair.
		build func() (dst, src *Tree)
	}{
		{"disjoint", func() (*Tree, *Tree) {
			rng := rand.New(rand.NewSource(1))
			src := drawSeqs(rng, 80, 6, "b", 40)
			// A hub whose moved subtree holds a promoted child map.
			for i := 0; i < 2*promoteFanout; i++ {
				src = append(src, []string{"bhub", fmt.Sprintf("b%d", i)})
			}
			return suffixTree(drawSeqs(rng, 80, 6, "a", 40)), suffixTree(src)
		}},
		{"overlapping", func() (*Tree, *Tree) {
			rng := rand.New(rand.NewSource(2))
			dst := suffixTree(drawSeqs(rng, 120, 6, "u", 60))
			// Intern a disjoint block first so the source's ids for the
			// shared URLs differ from the destination's.
			src := suffixTree(append(drawSeqs(rng, 20, 3, "v", 30), drawSeqs(rng, 120, 6, "u", 60)...))
			return dst, src
		}},
		{"shared-symtab", func() (*Tree, *Tree) {
			rng := rand.New(rand.NewSource(3))
			dst := suffixTree(drawSeqs(rng, 60, 5, "u", 30))
			src := dst.CopyIf(func(_, c *Node) bool { return c.Count >= 2 })
			for _, s := range drawSeqs(rng, 60, 5, "w", 30) {
				src.Insert(s, 4, 1)
			}
			return dst, src
		}},
		{"empty-destination", func() (*Tree, *Tree) {
			rng := rand.New(rand.NewSource(4))
			return NewTree(), suffixTree(drawSeqs(rng, 80, 6, "u", 50))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, other := tc.build()
			want.Merge(other)
			got, src := tc.build()
			srcNodes := src.NodeCount()
			got.Absorb(src)

			if got.String() != want.String() {
				t.Fatalf("Absorb tree differs from Merge tree:\n%s\nwant:\n%s", got.String(), want.String())
			}
			if got.Root.Count != want.Root.Count {
				t.Errorf("root count = %d, want %d", got.Root.Count, want.Root.Count)
			}
			if !bytes.Equal(got.Freeze().Bytes(), want.Freeze().Bytes()) {
				t.Error("Absorb and Merge trees freeze to different arenas")
			}
			if srcNodes == 0 || src.NodeCount() != 0 || src.Root.Count != 0 || src.SymbolCount() != 0 {
				t.Errorf("source after Absorb: %d nodes (had %d), root count %d, %d symbols; want empty",
					src.NodeCount(), srcNodes, src.Root.Count, src.SymbolCount())
			}
			checkChildren(t, got)

			// The absorbed tree keeps training correctly.
			got.Insert(seq("u1", "new"), 0, 1)
			want.Insert(seq("u1", "new"), 0, 1)
			if got.String() != want.String() {
				t.Error("trees diverge when trained after Absorb")
			}
		})
	}
}

// TestAbsorbSelfPanics: a tree absorbing itself is a programming error.
func TestAbsorbSelfPanics(t *testing.T) {
	tr := NewTree()
	tr.Insert(seq("a"), 0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic absorbing a tree into itself")
		}
	}()
	tr.Absorb(tr)
}

// TestInsertSuffixesMatchesInsertLoop: InsertSuffixes builds the same
// tree as inserting each suffix in turn, bounded or not, for sessions
// with repeated URLs and sessions longer than its interning scratch.
func TestInsertSuffixesMatchesInsertLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	seqs := append(drawSeqs(rng, 200, 8, "u", 12), drawSeqs(rng, 5, 80, "u", 40)...)
	seqs = append(seqs, nil)
	for _, maxDepth := range []int{0, 1, 3} {
		want, got := NewTree(), NewTree()
		for _, s := range seqs {
			for i := range s {
				want.Insert(s[i:], maxDepth, 2)
			}
			got.InsertSuffixes(s, maxDepth, 2)
		}
		if got.String() != want.String() || got.Root.Count != want.Root.Count {
			t.Errorf("maxDepth %d: InsertSuffixes tree differs from the Insert loop", maxDepth)
		}
		if got.SymbolCount() != want.SymbolCount() {
			t.Errorf("maxDepth %d: %d symbols, want %d", maxDepth, got.SymbolCount(), want.SymbolCount())
		}
	}
}

func TestInsertSuffixesZeroWeightPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on zero weight")
		}
	}()
	NewTree().InsertSuffixes(seq("a"), 0, 0)
}
