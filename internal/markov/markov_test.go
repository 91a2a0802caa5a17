package markov

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func seq(urls ...string) []string { return urls }

func TestInsertAndMatch(t *testing.T) {
	tr := NewTree()
	tr.Insert(seq("a", "b", "c"), 0, 1)
	tr.Insert(seq("a", "b"), 0, 1)
	tr.Insert(seq("a", "x"), 0, 1)

	if n := tr.Match(seq("a")); n == nil || n.Count != 3 {
		t.Fatalf("Match(a) = %+v, want count 3", n)
	}
	if n := tr.Match(seq("a", "b")); n == nil || n.Count != 2 {
		t.Fatalf("Match(a,b) = %+v, want count 2", n)
	}
	if n := tr.Match(seq("a", "b", "c")); n == nil || n.Count != 1 {
		t.Fatalf("Match(a,b,c) = %+v", n)
	}
	if n := tr.Match(seq("z")); n != nil {
		t.Errorf("Match(z) = %+v, want nil", n)
	}
	if n := tr.Match(nil); n != nil {
		t.Errorf("Match(empty) = %+v, want nil", n)
	}
	if tr.Root.Count != 3 {
		t.Errorf("pseudo-root count = %d, want 3", tr.Root.Count)
	}
}

func TestInsertMaxDepth(t *testing.T) {
	tr := NewTree()
	tr.Insert(seq("a", "b", "c", "d"), 2, 1)
	if tr.Match(seq("a", "b")) == nil {
		t.Error("depth-2 path missing")
	}
	if tr.Match(seq("a", "b", "c")) != nil {
		t.Error("depth-3 node present despite maxDepth 2")
	}
	if got := tr.NodeCount(); got != 2 {
		t.Errorf("NodeCount = %d, want 2", got)
	}
}

func TestInsertWeight(t *testing.T) {
	tr := NewTree()
	tr.Insert(seq("a", "b"), 0, 5)
	if n := tr.Match(seq("a", "b")); n.Count != 5 {
		t.Errorf("weighted count = %d, want 5", n.Count)
	}
}

func TestInsertZeroWeightPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Insert(weight=0) did not panic")
		}
	}()
	NewTree().Insert(seq("a"), 0, 0)
}

func TestInsertEmptySequence(t *testing.T) {
	tr := NewTree()
	tr.Insert(nil, 0, 1)
	if tr.NodeCount() != 0 || tr.Root.Count != 0 {
		t.Errorf("empty insert changed tree: %d nodes", tr.NodeCount())
	}
}

func TestTreeChildAndURLOf(t *testing.T) {
	tr := NewTree()
	tr.Insert(seq("a", "b"), 0, 1)
	a := tr.Child(tr.Root, "a")
	if a == nil || tr.URLOf(a) != "a" {
		t.Fatalf("Child(root, a) = %+v", a)
	}
	if b := tr.Child(a, "b"); b == nil || tr.URLOf(b) != "b" {
		t.Fatalf("Child(a, b) = %+v", b)
	}
	if tr.Child(a, "never-seen") != nil {
		t.Error("Child on unseen URL != nil")
	}
	// Child on an unseen URL must not grow the symbol table.
	if got := tr.SymbolCount(); got != 2 {
		t.Errorf("SymbolCount = %d, want 2", got)
	}
	c := tr.EnsureChild(a, "c")
	if c == nil || c.Count != 0 || tr.URLOf(c) != "c" {
		t.Fatalf("EnsureChild = %+v", c)
	}
	if tr.EnsureChild(a, "c") != c {
		t.Error("EnsureChild not idempotent")
	}
}

func TestEachChild(t *testing.T) {
	tr := NewTree()
	tr.Insert(seq("a", "b"), 0, 1)
	tr.Insert(seq("a", "c"), 0, 1)
	seen := map[string]int64{}
	tr.EachChild(tr.Match(seq("a")), func(url string, c *Node) bool {
		seen[url] = c.Count
		return true
	})
	if len(seen) != 2 || seen["b"] != 1 || seen["c"] != 1 {
		t.Errorf("EachChild saw %v", seen)
	}
	// Early stop.
	visits := 0
	tr.Match(seq("a")).EachChild(func(c *Node) bool {
		visits++
		return false
	})
	if visits != 1 {
		t.Errorf("EachChild ignored stop: %d visits", visits)
	}
}

// TestHybridPromotion drives one parent across the slice→map promotion
// boundary and checks that lookups, counts, ordering, and pruning keep
// working in the promoted representation.
func TestHybridPromotion(t *testing.T) {
	tr := NewTree()
	const kids = 3 * promoteFanout
	for i := 0; i < kids; i++ {
		tr.Insert(seq("hub", url(i)), 0, int64(i+1))
	}
	hub := tr.Match(seq("hub"))
	if hub.Fanout() != kids {
		t.Fatalf("Fanout = %d, want %d", hub.Fanout(), kids)
	}
	for i := 0; i < kids; i++ {
		n := tr.Match(seq("hub", url(i)))
		if n == nil || n.Count != int64(i+1) {
			t.Fatalf("child %d = %+v", i, n)
		}
	}
	if got := tr.NodeCount(); got != kids+1 {
		t.Errorf("NodeCount = %d, want %d", got, kids+1)
	}
	// Walk must stay URL-sorted across the promotion.
	var prev string
	walked := 0
	tr.Walk(func(path []string, n *Node) {
		if len(path) != 2 {
			return
		}
		if u := path[1]; u < prev {
			t.Fatalf("walk order broken: %q after %q", u, prev)
		} else {
			prev = u
		}
		walked++
	})
	if walked != kids {
		t.Errorf("walked %d children, want %d", walked, kids)
	}
	// Prune from the promoted map.
	removed := tr.Prune(func(parent, child *Node) bool {
		return parent == hub && child.Count <= int64(promoteFanout)
	})
	if removed != promoteFanout {
		t.Errorf("removed = %d, want %d", removed, promoteFanout)
	}
	if hub.Fanout() != kids-promoteFanout {
		t.Errorf("fanout after prune = %d", hub.Fanout())
	}
	if tr.Match(seq("hub", url(0))) != nil {
		t.Error("pruned child still reachable")
	}
	if tr.Match(seq("hub", url(kids-1))) == nil {
		t.Error("surviving child lost")
	}
}

func url(i int) string {
	return "/page-" + string(rune('a'+i/26)) + string(rune('a'+i%26))
}

func TestLongestMatch(t *testing.T) {
	tr := NewTree()
	tr.Insert(seq("a", "b", "c"), 0, 1)
	tr.Insert(seq("b", "c"), 0, 1)
	tr.Insert(seq("c"), 0, 1)

	n, order := tr.LongestMatch(seq("a", "b", "c"))
	if n == nil || order != 3 || tr.URLOf(n) != "c" {
		t.Fatalf("LongestMatch(a,b,c) = %+v order %d, want full match", n, order)
	}
	n, order = tr.LongestMatch(seq("z", "b", "c"))
	if n == nil || order != 2 {
		t.Fatalf("LongestMatch(z,b,c) order = %d, want 2", order)
	}
	n, order = tr.LongestMatch(seq("z", "y", "c"))
	if n == nil || order != 1 {
		t.Fatalf("LongestMatch(z,y,c) order = %d, want 1", order)
	}
	n, order = tr.LongestMatch(seq("q"))
	if n != nil || order != 0 {
		t.Fatalf("LongestMatch(q) = %+v, want no match", n)
	}
}

func TestLongestMatchPartialDeepSuffix(t *testing.T) {
	// A suffix can start matching and die mid-way; a shorter suffix
	// must still win. a->b exists but a->b->x does not; b->x does not;
	// x does.
	tr := NewTree()
	tr.Insert(seq("a", "b"), 0, 1)
	tr.Insert(seq("x"), 0, 1)
	n, order := tr.LongestMatch(seq("a", "b", "x"))
	if n == nil || order != 1 || tr.URLOf(n) != "x" {
		t.Fatalf("LongestMatch(a,b,x) = %v order %d, want x at order 1", n, order)
	}
	// An unseen URL kills every match running through it.
	n, order = tr.LongestMatch(seq("a", "unseen", "a", "b"))
	if n == nil || order != 2 || tr.URLOf(n) != "b" {
		t.Fatalf("LongestMatch(a,?,a,b) = %v order %d, want a->b", n, order)
	}
	if n, _ := tr.LongestMatch(nil); n != nil {
		t.Error("LongestMatch(nil) != nil")
	}
}

// TestLongestMatchAgainstRescan cross-checks the single-pass walk
// against the definitional per-suffix rescan on random trees/contexts.
func TestLongestMatchAgainstRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	urls := []string{"a", "b", "c", "d", "e", "zz"}
	tr := NewTree()
	for i := 0; i < 400; i++ {
		s := make([]string, rng.Intn(5)+1)
		for j := range s {
			s[j] = urls[rng.Intn(len(urls))]
		}
		tr.Insert(s, 0, 1)
	}
	rescan := func(ctx []string) (*Node, int) {
		for i := 0; i < len(ctx); i++ {
			if n := tr.Match(ctx[i:]); n != nil {
				return n, len(ctx) - i
			}
		}
		return nil, 0
	}
	ctxURLs := append([]string{"unseen"}, urls...)
	for i := 0; i < 1000; i++ {
		ctx := make([]string, rng.Intn(7))
		for j := range ctx {
			ctx[j] = ctxURLs[rng.Intn(len(ctxURLs))]
		}
		wantN, wantOrder := rescan(ctx)
		gotN, gotOrder := tr.LongestMatch(ctx)
		if gotN != wantN || gotOrder != wantOrder {
			t.Fatalf("ctx %v: got (%v, %d), rescan (%v, %d)", ctx, gotN, gotOrder, wantN, wantOrder)
		}
	}
}

func TestPredictFrom(t *testing.T) {
	tr := NewTree()
	for i := 0; i < 6; i++ {
		tr.Insert(seq("a", "b"), 0, 1)
	}
	for i := 0; i < 3; i++ {
		tr.Insert(seq("a", "c"), 0, 1)
	}
	tr.Insert(seq("a", "d"), 0, 1)

	n := tr.Match(seq("a"))
	ps := tr.PredictFrom(n, 0.25, 1)
	if len(ps) != 2 {
		t.Fatalf("predictions = %+v, want 2 (b: 0.6, c: 0.3)", ps)
	}
	if ps[0].URL != "b" || ps[0].Probability != 0.6 || ps[0].Order != 1 {
		t.Errorf("first prediction = %+v", ps[0])
	}
	if ps[1].URL != "c" || ps[1].Probability != 0.3 {
		t.Errorf("second prediction = %+v", ps[1])
	}
	// d (0.1) is below threshold and must not be marked used.
	if tr.Match(seq("a", "d")).Used() {
		t.Error("below-threshold child marked used")
	}
	if !tr.Match(seq("a", "b")).Used() {
		t.Error("predicted child not marked used")
	}
	if tr.PredictFrom(nil, 0.25, 1) != nil {
		t.Error("PredictFrom(nil) != nil")
	}
}

func TestCandidatesFromNeverMarks(t *testing.T) {
	tr := NewTree()
	tr.Insert(seq("a", "b"), 0, 3)
	n := tr.Match(seq("a"))
	ps := tr.CandidatesFrom(n, 0, 1)
	if len(ps) != 1 || ps[0].URL != "b" {
		t.Fatalf("candidates = %+v", ps)
	}
	if tr.Match(seq("a", "b")).Used() {
		t.Error("CandidatesFrom marked a node despite recording being on")
	}
	tr.MarkPredicted(tr.Match(seq("a", "b")))
	if !tr.Match(seq("a", "b")).Used() {
		t.Error("MarkPredicted did not mark with recording on")
	}
	tr.ResetUsage()
	tr.SetUsageRecording(false)
	tr.MarkPredicted(tr.Match(seq("a", "b")))
	if tr.Match(seq("a", "b")).Used() {
		t.Error("MarkPredicted wrote through a detached recording gate")
	}
}

func TestPredictDeterministicTieBreak(t *testing.T) {
	tr := NewTree()
	tr.Insert(seq("a", "z"), 0, 1)
	tr.Insert(seq("a", "b"), 0, 1)
	ps := tr.PredictFrom(tr.Match(seq("a")), 0.1, 1)
	if len(ps) != 2 || ps[0].URL != "b" || ps[1].URL != "z" {
		t.Errorf("tie break order = %+v, want b then z", ps)
	}
}

func TestNodeAndLeafCount(t *testing.T) {
	tr := NewTree()
	if tr.NodeCount() != 0 || tr.LeafCount() != 0 {
		t.Error("empty tree counts not zero")
	}
	tr.Insert(seq("a", "b", "c"), 0, 1)
	tr.Insert(seq("a", "d"), 0, 1)
	tr.Insert(seq("x"), 0, 1)
	if got := tr.NodeCount(); got != 5 {
		t.Errorf("NodeCount = %d, want 5", got)
	}
	if got := tr.LeafCount(); got != 3 {
		t.Errorf("LeafCount = %d, want 3", got)
	}
}

func TestUtilization(t *testing.T) {
	tr := NewTree()
	tr.Insert(seq("a", "b", "c"), 0, 1)
	tr.Insert(seq("a", "d"), 0, 1)
	tr.Insert(seq("x", "y"), 0, 1)
	if got := tr.Utilization(); got != 0 {
		t.Errorf("fresh tree utilization = %v, want 0", got)
	}
	// Touch the leaf of a->b->c.
	tr.Match(seq("a", "b", "c")).MarkUsed()
	if got := tr.Utilization(); got < 0.33 || got > 0.34 {
		t.Errorf("utilization = %v, want 1/3", got)
	}
	tr.Match(seq("a", "d")).MarkUsed()
	tr.Match(seq("x", "y")).MarkUsed()
	if got := tr.Utilization(); got != 1 {
		t.Errorf("utilization = %v, want 1", got)
	}
	tr.ResetUsage()
	if got := tr.Utilization(); got != 0 {
		t.Errorf("utilization after reset = %v, want 0", got)
	}
	if NewTree().Utilization() != 0 {
		t.Error("empty tree utilization not 0")
	}
}

func TestMarkPath(t *testing.T) {
	tr := NewTree()
	tr.Insert(seq("a", "b", "c"), 0, 1)
	tr.MarkPath(seq("a", "b"))
	if !tr.Match(seq("a")).Used() || !tr.Match(seq("a", "b")).Used() {
		t.Error("MarkPath did not mark prefix nodes")
	}
	if tr.Match(seq("a", "b", "c")).Used() {
		t.Error("MarkPath marked beyond the path")
	}
	tr.MarkPath(seq("nope", "x")) // must not panic
}

func TestPrune(t *testing.T) {
	tr := NewTree()
	for i := 0; i < 10; i++ {
		tr.Insert(seq("a", "b"), 0, 1)
	}
	tr.Insert(seq("a", "rare", "deep"), 0, 1)
	removed := tr.Prune(func(parent, child *Node) bool {
		// "rare" has count 1 of parent "a"'s 11 accesses (~9%).
		return parent != tr.Root && float64(child.Count)/float64(parent.Count) < 0.1
	})
	if removed != 2 {
		t.Errorf("removed = %d, want 2 (rare and its subtree)", removed)
	}
	if tr.Match(seq("a", "rare")) != nil {
		t.Error("pruned node still present")
	}
	if tr.Match(seq("a", "b")) == nil {
		t.Error("surviving node removed")
	}
}

func TestWalkAndString(t *testing.T) {
	tr := NewTree()
	tr.Insert(seq("b", "x"), 0, 1)
	tr.Insert(seq("a"), 0, 2)
	var visits []string
	tr.Walk(func(path []string, n *Node) {
		visits = append(visits, strings.Join(path, ">"))
	})
	want := []string{"a", "b", "b>x"}
	if len(visits) != len(want) {
		t.Fatalf("visits = %v", visits)
	}
	for i := range want {
		if visits[i] != want[i] {
			t.Errorf("visit %d = %s, want %s", i, visits[i], want[i])
		}
	}
	str := tr.String()
	if !strings.Contains(str, "a/2") || !strings.Contains(str, "  x/1") {
		t.Errorf("String() = %q", str)
	}
}

// Property: NodeCount equals the number of distinct prefixes of all
// inserted (depth-capped) sequences.
func TestNodeCountMatchesPrefixSetProperty(t *testing.T) {
	f := func(raw [][]byte, depthSeed uint8) bool {
		tr := NewTree()
		maxDepth := int(depthSeed%5) + 1
		prefixes := make(map[string]bool)
		for _, bs := range raw {
			var s []string
			for _, b := range bs {
				s = append(s, string(rune('a'+int(b)%6)))
			}
			if len(s) > 8 {
				s = s[:8]
			}
			tr.Insert(s, maxDepth, 1)
			for i := 1; i <= len(s) && i <= maxDepth; i++ {
				prefixes[strings.Join(s[:i], "\x00")] = true
			}
		}
		return tr.NodeCount() == len(prefixes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: after any random insert mix, every node's count is at least
// the sum of its children's counts (conservation of flow).
func TestCountConservationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := NewTree()
	urls := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < 500; i++ {
		n := rng.Intn(6) + 1
		s := make([]string, n)
		for j := range s {
			s[j] = urls[rng.Intn(len(urls))]
		}
		tr.Insert(s, rng.Intn(4), 1) // mix of unbounded (0) and capped
	}
	ok := true
	var check func(n *Node)
	check = func(n *Node) {
		var sum int64
		n.EachChild(func(c *Node) bool {
			sum += c.Count
			check(c)
			return true
		})
		if n.Count < sum {
			ok = false
		}
	}
	check(tr.Root)
	if !ok {
		t.Error("count conservation violated")
	}
}

// Property: probabilities emitted with threshold 0 sum to at most 1 and
// each lies in (0, 1].
func TestPredictionProbabilityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := NewTree()
	urls := []string{"a", "b", "c", "d"}
	for i := 0; i < 300; i++ {
		s := []string{"root", urls[rng.Intn(4)]}
		tr.Insert(s, 0, 1)
	}
	n := tr.Match(seq("root"))
	ps := tr.PredictFrom(n, 0, 1)
	var sum float64
	for _, p := range ps {
		if p.Probability <= 0 || p.Probability > 1 {
			t.Fatalf("probability %v out of range", p.Probability)
		}
		sum += p.Probability
	}
	if sum > 1+1e-9 {
		t.Errorf("probabilities sum to %v > 1", sum)
	}
}

func TestMerge(t *testing.T) {
	a := NewTree()
	a.Insert(seq("x", "y"), 0, 3)
	a.Insert(seq("z"), 0, 1)
	b := NewTree()
	// Interleave an extra URL first so b's symbol ids diverge from a's
	// and the merge exercises the remap path with conflicting ids.
	b.Insert(seq("q"), 0, 5)
	b.Insert(seq("x", "y"), 0, 2)
	b.Insert(seq("x", "w"), 0, 1)

	a.Merge(b)
	if n := a.Match(seq("x", "y")); n.Count != 5 {
		t.Errorf("merged count = %d, want 5", n.Count)
	}
	if n := a.Match(seq("x")); n.Count != 6 {
		t.Errorf("x count = %d, want 6", n.Count)
	}
	if a.Match(seq("x", "w")) == nil || a.Match(seq("q")) == nil {
		t.Error("merged-in branches missing")
	}
	if n := a.Match(seq("q")); a.URLOf(n) != "q" {
		t.Errorf("remapped URL = %q, want q", a.URLOf(n))
	}
	if a.Root.Count != 12 {
		t.Errorf("root count = %d, want 12", a.Root.Count)
	}
	// The source tree is untouched.
	if b.Match(seq("x", "y")).Count != 2 || b.NodeCount() != 4 {
		t.Error("merge mutated the source")
	}
}

func TestMergeSharedSymbols(t *testing.T) {
	a := NewTree()
	a.Insert(seq("x", "y"), 0, 3)
	b := a.CopyIf(func(parent, child *Node) bool { return true })
	b.Insert(seq("x", "w"), 0, 2)
	a.Merge(b)
	if n := a.Match(seq("x")); n.Count != 8 {
		t.Errorf("x count = %d, want 8 (3 + copied 3 + 2)", n.Count)
	}
	if a.Match(seq("x", "w")) == nil {
		t.Error("shared-symtab merge lost a branch")
	}
}

func TestMergePreservesConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	urls := []string{"a", "b", "c", "d"}
	a, b := NewTree(), NewTree()
	for i := 0; i < 300; i++ {
		s := make([]string, rng.Intn(5)+1)
		for j := range s {
			s[j] = urls[rng.Intn(len(urls))]
		}
		if i%2 == 0 {
			a.Insert(s, 0, 1)
		} else {
			b.Insert(s, 0, 1)
		}
	}
	a.Merge(b)
	var check func(n *Node)
	check = func(n *Node) {
		var sum int64
		n.EachChild(func(c *Node) bool {
			sum += c.Count
			check(c)
			return true
		})
		if n.Count < sum {
			t.Fatalf("conservation violated at count %d < children %d", n.Count, sum)
		}
	}
	check(a.Root)
}

func TestCopyIf(t *testing.T) {
	tr := NewTree()
	tr.Insert(seq("a", "b"), 0, 3)
	tr.Insert(seq("a", "rare"), 0, 1)
	tr.Insert(seq("solo"), 0, 1)
	cp := tr.CopyIf(func(parent, child *Node) bool { return child.Count >= 2 })
	if cp.Match(seq("a")) == nil || cp.Match(seq("a", "b")) == nil {
		t.Error("kept branch missing from copy")
	}
	if cp.Match(seq("a", "rare")) != nil || cp.Match(seq("solo")) != nil {
		t.Error("rejected branch present in copy")
	}
	if cp.Root.Count != tr.Root.Count {
		t.Errorf("root count = %d, want %d", cp.Root.Count, tr.Root.Count)
	}
	// The copy is independent at the node level: new inserts into the
	// source do not appear in the copy.
	tr.Insert(seq("a", "b", "new"), 0, 5)
	if cp.Match(seq("a", "b", "new")) != nil {
		t.Error("copy shares nodes with source")
	}
}
