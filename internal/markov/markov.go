// Package markov provides the Markov prediction-tree substrate shared by
// the three PPM prefetching models in the paper (standard PPM, LRS-PPM,
// and popularity-based PPM): counted trie nodes, longest-suffix context
// matching, threshold-based prediction, pruning, usage marking for the
// path-utilization metric, and the Predictor interface the simulator
// drives.
//
// Storage layout. URLs are interned into a per-tree symbol table, so a
// node stores a 4-byte symbol instead of a string and each distinct URL
// is kept once per tree. Children use a hybrid representation: a slice
// of (symbol, pointer) pairs sorted by symbol while fan-out is small,
// promoted to a map above promoteFanout. Together these replace the old
// unconditional map[string]*Node per node, cutting real memory well
// below what the paper's node-count space metric suggests.
package markov

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// promoteFanout is the child count above which a node's sorted child
// slice is promoted to a map. Web prediction trees are heavy-tailed:
// almost all nodes stay below this and pay 16 bytes per child; the few
// hub nodes (site front pages, the pseudo-root) get O(1) lookup.
const promoteFanout = 16

// symtab interns URLs to dense uint32 symbols. Symbol 0 is reserved for
// the pseudo-root and never assigned to a URL.
type symtab struct {
	ids  map[string]uint32
	urls []string
}

func newSymtab() *symtab {
	return &symtab{ids: make(map[string]uint32), urls: []string{""}}
}

// intern returns the symbol for url, assigning the next free one on
// first sight.
func (s *symtab) intern(url string) uint32 {
	if id, ok := s.ids[url]; ok {
		return id
	}
	id := uint32(len(s.urls))
	s.urls = append(s.urls, url)
	s.ids[url] = id
	return id
}

// lookup returns the symbol for url without interning.
func (s *symtab) lookup(url string) (uint32, bool) {
	id, ok := s.ids[url]
	return id, ok
}

// clone returns an independent copy of the symbol table. The strings
// themselves are shared (immutable in Go); only the slice and map
// containers are fresh, so interning into the clone never mutates the
// original.
func (s *symtab) clone() *symtab {
	ids := make(map[string]uint32, len(s.ids))
	for url, id := range s.ids {
		ids[url] = id
	}
	urls := make([]string, len(s.urls))
	copy(urls, s.urls)
	return &symtab{ids: ids, urls: urls}
}

// childRef is one entry of the small (slice) child representation.
type childRef struct {
	sym  uint32
	node *Node
}

// Node is one URL occurrence context in a prediction tree. Count is the
// number of training accesses that reached this node along its path.
// The node does not store its URL; the owning Tree's symbol table
// resolves it (see Tree.URLOf).
type Node struct {
	Count int64

	// small holds up to promoteFanout children sorted by symbol; big
	// replaces it once fan-out exceeds that. At most one is non-nil.
	small []childRef
	big   map[uint32]*Node

	sym uint32

	// used records that a prediction-phase lookup reached this node or
	// predicted it; the path-utilization metric (Figure 2, right) counts
	// leaves with used set. It is atomic so concurrent Predict calls on
	// a shared tree never race on the mark.
	used atomic.Bool
}

// childBySym returns the child with the given symbol, or nil.
func (n *Node) childBySym(sym uint32) *Node {
	if n.big != nil {
		return n.big[sym]
	}
	s := n.small
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid].sym < sym {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s) && s[lo].sym == sym {
		return s[lo].node
	}
	return nil
}

// ensureChildSym returns the child with the given symbol, creating it
// with zero count if absent and promoting the representation when the
// slice outgrows promoteFanout.
func (n *Node) ensureChildSym(sym uint32) *Node {
	if n.big != nil {
		if c := n.big[sym]; c != nil {
			return c
		}
		c := &Node{sym: sym}
		n.big[sym] = c
		return c
	}
	s := n.small
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid].sym < sym {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s) && s[lo].sym == sym {
		return s[lo].node
	}
	c := &Node{sym: sym}
	if len(s) >= promoteFanout {
		n.big = make(map[uint32]*Node, len(s)+1)
		for _, cr := range s {
			n.big[cr.sym] = cr.node
		}
		n.big[sym] = c
		n.small = nil
		return c
	}
	n.small = append(n.small, childRef{})
	copy(n.small[lo+1:], n.small[lo:])
	n.small[lo] = childRef{sym: sym, node: c}
	return c
}

// removeChildSym detaches the child with the given symbol, if present.
func (n *Node) removeChildSym(sym uint32) {
	if n.big != nil {
		delete(n.big, sym)
		return
	}
	for i, cr := range n.small {
		if cr.sym == sym {
			n.small = append(n.small[:i], n.small[i+1:]...)
			return
		}
	}
}

// EachChild visits the node's children until fn returns false. The
// visiting order is unspecified; callers that need determinism sort by
// URL, as Walk does.
func (n *Node) EachChild(fn func(c *Node) bool) {
	if n.big != nil {
		for _, c := range n.big {
			if !fn(c) {
				return
			}
		}
		return
	}
	for _, cr := range n.small {
		if !fn(cr.node) {
			return
		}
	}
}

// Fanout reports the number of children.
func (n *Node) Fanout() int {
	if n.big != nil {
		return len(n.big)
	}
	return len(n.small)
}

// MarkUsed flags the node as touched by a prediction. It is safe to
// call from concurrent predictions.
func (n *Node) MarkUsed() { n.used.Store(true) }

// Used reports whether the node has been touched by a prediction.
func (n *Node) Used() bool { return n.used.Load() }

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return n.Fanout() == 0 }

// Prediction is one prefetch candidate.
type Prediction struct {
	// URL is the predicted next document.
	URL string
	// Probability is the model's estimate that URL is accessed next,
	// conditioned on the matched context.
	Probability float64
	// Order is the length of the context that produced the prediction
	// (1 = only the current URL matched).
	Order int
}

// BufferedPredictor is implemented by predictors that can write their
// candidates into a caller-supplied scratch buffer — the explicit
// buffer-ownership contract of the serving path:
//
//   - buf's previous contents are discarded (the model writes from
//     buf[:0]); the returned slice reuses buf's backing storage when
//     capacity allows and is freshly grown otherwise.
//   - The returned slice never aliases model-internal storage, so the
//     caller may mutate or reuse it freely; only the URL strings are
//     (immutable) views shared with the model.
//   - The model does not retain the buffer: ownership stays with the
//     caller across the call.
//
// All four models implement it; arena-frozen models additionally
// guarantee zero allocations per call once the buffer is warm. Callers
// holding only a Predictor use the PredictInto helper.
type BufferedPredictor interface {
	Predictor
	// PredictInto is Predict writing into buf per the contract above.
	PredictInto(context []string, buf []Prediction) []Prediction
}

// Freezer is implemented by models that can freeze their trained state
// into an immutable, GC-free serving snapshot (see Arena). The frozen
// predictor yields bit-identical predictions to the live model, cannot
// be trained, and is safe for unsynchronized concurrent use.
type Freezer interface {
	Freeze() Predictor
}

// PredictInto routes a prediction through p's buffered path when it has
// one, and falls back to copying Predict's result into buf otherwise —
// so callers get the buffer-ownership contract from any Predictor.
func PredictInto(p Predictor, context []string, buf []Prediction) []Prediction {
	if bp, ok := p.(BufferedPredictor); ok {
		return bp.PredictInto(context, buf)
	}
	return append(buf[:0], p.Predict(context)...)
}

// Predictor is the interface the trace-driven simulator drives. All
// three models implement it.
type Predictor interface {
	// Name identifies the model in reports ("PPM", "LRS-PPM", "PB-PPM").
	Name() string
	// TrainSequence folds one session's URL sequence into the model.
	// Training mutates the model and must not run concurrently with
	// other methods.
	TrainSequence(seq []string)
	// Predict returns prefetch candidates given the session context so
	// far (oldest first; the last element is the current click). Once
	// training has ceased, Predict is safe for concurrent use: with
	// usage recording enabled it writes only atomic usage marks, and
	// with recording detached (see UsageRecorder) it performs no writes
	// at all.
	Predict(context []string) []Prediction
	// NodeCount reports the model's storage requirement in URL nodes,
	// the paper's space metric.
	NodeCount() int
}

// UtilizationReporter is implemented by models that can report the
// fraction of stored root-to-leaf paths actually used by predictions.
type UtilizationReporter interface {
	Utilization() float64
	ResetUsage()
}

// UsageRecorder is implemented by models whose prediction-time usage
// recording can be detached. Publishing paths (the HTTP server, the
// maintenance loop) disable recording so that Predict on a shared,
// published model performs no writes at all; the simulator and
// diagnostics keep it enabled (the default) to compute the paper's
// path-utilization metric.
type UsageRecorder interface {
	// SetUsageRecording enables or disables prediction-time usage marks.
	SetUsageRecording(on bool)
	// UsageRecording reports whether usage marks are being recorded.
	UsageRecording() bool
}

// Tree is a counted prediction trie under a pseudo-root. The pseudo-root
// itself carries the number of branch insertions and is excluded from
// node counts.
type Tree struct {
	Root *Node

	syms *symtab

	// recording gates prediction-time usage marking (MarkPath,
	// PredictFrom). NewTree enables it; serving paths detach it so
	// predictions on published trees are genuinely read-only.
	recording atomic.Bool
}

// NewTree returns an empty tree with usage recording enabled.
func NewTree() *Tree {
	t := &Tree{Root: &Node{}, syms: newSymtab()}
	t.recording.Store(true)
	return t
}

// SetUsageRecording enables or disables prediction-time usage marking.
func (t *Tree) SetUsageRecording(on bool) { t.recording.Store(on) }

// UsageRecording reports whether prediction-time usage marking is on.
func (t *Tree) UsageRecording() bool { return t.recording.Load() }

// URLOf resolves a node's URL through the tree's symbol table. The
// pseudo-root resolves to the empty string.
func (t *Tree) URLOf(n *Node) string { return t.syms.urls[n.sym] }

// SymbolCount reports the number of distinct URLs interned by the tree.
func (t *Tree) SymbolCount() int { return len(t.syms.urls) - 1 }

// Child returns n's child for url, or nil. URLs never seen by the tree
// resolve to nil without mutating the symbol table.
func (t *Tree) Child(n *Node, url string) *Node {
	sym, ok := t.syms.lookup(url)
	if !ok {
		return nil
	}
	return n.childBySym(sym)
}

// EnsureChild returns n's child for url, creating it with zero count if
// absent. n must belong to t: the child is keyed by t's symbol for url.
func (t *Tree) EnsureChild(n *Node, url string) *Node {
	return n.ensureChildSym(t.syms.intern(url))
}

// EachChild visits n's children with their URLs until fn returns false.
// Visiting order is unspecified.
func (t *Tree) EachChild(n *Node, fn func(url string, c *Node) bool) {
	n.EachChild(func(c *Node) bool { return fn(t.syms.urls[c.sym], c) })
}

// Insert adds seq as a branch from the pseudo-root, incrementing counts
// by weight along the path. maxDepth > 0 truncates the branch to that
// many nodes; maxDepth <= 0 means unbounded. weight must be positive.
func (t *Tree) Insert(seq []string, maxDepth int, weight int64) {
	if weight <= 0 {
		panic(fmt.Sprintf("markov: non-positive insert weight %d", weight))
	}
	if len(seq) == 0 {
		return
	}
	t.Root.Count += weight
	n := t.Root
	for i, u := range seq {
		if maxDepth > 0 && i >= maxDepth {
			break
		}
		n = n.ensureChildSym(t.syms.intern(u))
		n.Count += weight
	}
}

// InsertSuffixes inserts every suffix of seq as a branch, exactly as
// Insert(seq[i:], maxDepth, weight) for each i in order would, but
// interns each URL of seq once instead of once per suffix that holds it.
func (t *Tree) InsertSuffixes(seq []string, maxDepth int, weight int64) {
	if weight <= 0 {
		panic(fmt.Sprintf("markov: non-positive insert weight %d", weight))
	}
	var scratch [32]uint32
	syms := scratch[:0]
	for _, u := range seq {
		syms = append(syms, t.syms.intern(u))
	}
	for i := range syms {
		branch := syms[i:]
		if maxDepth > 0 && len(branch) > maxDepth {
			branch = branch[:maxDepth]
		}
		t.Root.Count += weight
		n := t.Root
		for _, sym := range branch {
			n = n.ensureChildSym(sym)
			n.Count += weight
		}
	}
}

// Match walks the exact path seq from the pseudo-root and returns the
// final node, or nil if the path is absent.
func (t *Tree) Match(seq []string) *Node {
	n := t.Root
	for _, u := range seq {
		sym, ok := t.syms.lookup(u)
		if !ok {
			return nil
		}
		n = n.childBySym(sym)
		if n == nil {
			return nil
		}
	}
	if n == t.Root {
		return nil
	}
	return n
}

// liveMatch is one still-surviving suffix match during LongestMatch:
// the context position it started at and the node it has reached.
type liveMatch struct {
	start int
	n     *Node
}

// LongestMatch finds the deepest node matching the longest suffix of
// ctx and returns it with the matched order (suffix length). It returns
// (nil, 0) when no suffix of ctx, not even the final URL alone, is in
// the tree.
//
// The implementation advances every candidate suffix in a single pass
// over ctx instead of re-walking from the root per suffix (which costs
// O(len(ctx)²) node hops): at each position all live matches step to
// the child for the current symbol or die, and a new match rooted at
// this position joins. The earliest surviving start is the longest
// suffix. Like Arena.LongestMatch it keeps the live set on the stack
// for contexts of up to arenaMaxStackMatches URLs.
func (t *Tree) LongestMatch(ctx []string) (*Node, int) {
	if len(ctx) == 0 {
		return nil, 0
	}
	var stack [arenaMaxStackMatches]liveMatch
	live := stack[:0]
	for i, u := range ctx {
		sym, known := t.syms.lookup(u)
		if !known {
			// An unseen URL kills every match running through it.
			live = live[:0]
			continue
		}
		k := 0
		for _, lv := range live {
			if c := lv.n.childBySym(sym); c != nil {
				live[k] = liveMatch{start: lv.start, n: c}
				k++
			}
		}
		live = live[:k]
		if c := t.Root.childBySym(sym); c != nil {
			live = append(live, liveMatch{start: i, n: c})
		}
	}
	if len(live) == 0 {
		return nil, 0
	}
	// live is ordered by ascending start (new matches join at the back),
	// so the first survivor is the longest suffix.
	return live[0].n, len(ctx) - live[0].start
}

// PredictFrom returns the children of n whose conditional probability
// (child count over n's count) is at least threshold, ordered by
// descending probability with URL tie-break for determinism. order is
// recorded on each prediction. When usage recording is enabled the
// predicted children are marked used (atomically, so concurrent callers
// never race); with recording detached the candidates are computed
// without any writes.
func (t *Tree) PredictFrom(n *Node, threshold float64, order int) []Prediction {
	return t.predictAt(n, threshold, order, t.recording.Load(), nil)
}

// PredictFromInto is PredictFrom writing into buf per the
// BufferedPredictor contract: buf's previous contents are discarded and
// the result reuses its backing storage when capacity allows.
func (t *Tree) PredictFromInto(n *Node, threshold float64, order int, buf []Prediction) []Prediction {
	return t.predictAt(n, threshold, order, t.recording.Load(), buf)
}

// CandidatesFrom is PredictFrom without any usage marking, regardless
// of the recording gate. Callers that post-filter the candidate set
// (blended prediction) use it and then mark only the survivors via
// MarkPredicted, so the utilization metric counts genuine predictions
// only.
func (t *Tree) CandidatesFrom(n *Node, threshold float64, order int) []Prediction {
	return t.predictAt(n, threshold, order, false, nil)
}

// MarkPredicted marks one node as used by a prediction, honoring the
// usage-recording gate.
func (t *Tree) MarkPredicted(n *Node) {
	if t.recording.Load() {
		n.MarkUsed()
	}
}

func (t *Tree) predictAt(n *Node, threshold float64, order int, mark bool, buf []Prediction) []Prediction {
	buf = buf[:0]
	if n == nil || n.Count == 0 {
		return buf
	}
	n.EachChild(func(c *Node) bool {
		p := float64(c.Count) / float64(n.Count)
		if p >= threshold {
			if mark {
				c.MarkUsed()
			}
			buf = append(buf, Prediction{URL: t.syms.urls[c.sym], Probability: p, Order: order})
		}
		return true
	})
	SortPredictions(buf)
	return buf
}

// SortPredictions orders predictions by the pinned deterministic total
// order: descending probability, then ascending URL. Every prediction
// path — serial, sharded, delta-merged, and arena-frozen — emits this
// order, so hint sets never depend on map iteration or merge order.
//
// Insertion sort, deliberately: candidate lists are short (a handful of
// children clear the probability threshold) and sort.Slice allocates
// its closure and reflect header, which would break the zero-allocation
// guarantee of the frozen serving path.
func SortPredictions(ps []Prediction) {
	for i := 1; i < len(ps); i++ {
		p := ps[i]
		j := i - 1
		for j >= 0 && predictionLess(p, ps[j]) {
			ps[j+1] = ps[j]
			j--
		}
		ps[j+1] = p
	}
}

// predictionLess is the pinned prediction order: probability
// descending, URL ascending.
func predictionLess(a, b Prediction) bool {
	if a.Probability != b.Probability {
		return a.Probability > b.Probability
	}
	return a.URL < b.URL
}

// NodeCount returns the number of URL nodes in the tree, excluding the
// pseudo-root. This is the paper's space metric.
func (t *Tree) NodeCount() int {
	return countNodes(t.Root) - 1
}

func countNodes(n *Node) int {
	total := 1
	n.EachChild(func(c *Node) bool {
		total += countNodes(c)
		return true
	})
	return total
}

// LeafCount returns the number of leaves (root-to-leaf paths).
func (t *Tree) LeafCount() int {
	if t.Root.IsLeaf() {
		return 0
	}
	return countLeaves(t.Root)
}

func countLeaves(n *Node) int {
	if n.IsLeaf() {
		return 1
	}
	total := 0
	n.EachChild(func(c *Node) bool {
		total += countLeaves(c)
		return true
	})
	return total
}

// Utilization returns the fraction of root-to-leaf paths whose ending
// leaf was used by a prediction — matched as (part of) a lookup context
// or emitted as a prefetch candidate. This follows the paper's §3.3
// definition ("we define a path as a URL sequence from the root to an
// ending leaf; if this path has been used, we mark it useful"): under
// longest-suffix matching, duplicated sub-branches rooted mid-sequence
// are skipped in favor of the longer match, so their full paths stay
// unused. An empty tree reports zero.
func (t *Tree) Utilization() float64 {
	if t.Root.IsLeaf() {
		return 0
	}
	leaves, used := 0, 0
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.IsLeaf() {
			leaves++
			if n.used.Load() {
				used++
			}
			return
		}
		n.EachChild(func(c *Node) bool {
			walk(c)
			return true
		})
	}
	t.Root.EachChild(func(c *Node) bool {
		walk(c)
		return true
	})
	if leaves == 0 {
		return 0
	}
	return float64(used) / float64(leaves)
}

// ResetUsage clears all usage marks.
func (t *Tree) ResetUsage() {
	var walk func(n *Node)
	walk = func(n *Node) {
		n.used.Store(false)
		n.EachChild(func(c *Node) bool {
			walk(c)
			return true
		})
	}
	walk(t.Root)
}

// MarkPath marks every node along the exact path seq as used. Unknown
// paths are ignored, as is the whole call when usage recording is
// detached. Prediction code calls this for the matched context so that
// interior usage is visible in diagnostics.
func (t *Tree) MarkPath(seq []string) {
	if !t.recording.Load() {
		return
	}
	n := t.Root
	for _, u := range seq {
		sym, ok := t.syms.lookup(u)
		if !ok {
			return
		}
		n = n.childBySym(sym)
		if n == nil {
			return
		}
		n.MarkUsed()
	}
}

// Prune removes every non-root node (and its subtree) for which remove
// returns true, and returns the number of nodes removed. remove is
// called with the node's parent (possibly the pseudo-root) and the node.
func (t *Tree) Prune(remove func(parent, child *Node) bool) int {
	removed := 0
	var walk func(n *Node)
	walk = func(n *Node) {
		var doomed []uint32
		n.EachChild(func(c *Node) bool {
			if remove(n, c) {
				removed += countNodes(c)
				doomed = append(doomed, c.sym)
			} else {
				walk(c)
			}
			return true
		})
		for _, sym := range doomed {
			n.removeChildSym(sym)
		}
	}
	walk(t.Root)
	return removed
}

// sortedChildren returns n's children ordered by URL.
func (t *Tree) sortedChildren(n *Node) []*Node {
	out := make([]*Node, 0, n.Fanout())
	n.EachChild(func(c *Node) bool {
		out = append(out, c)
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		return t.syms.urls[out[i].sym] < t.syms.urls[out[j].sym]
	})
	return out
}

// Walk visits every node in depth-first order with its path from the
// pseudo-root. Visiting order over siblings is sorted by URL so walks
// are deterministic.
func (t *Tree) Walk(fn func(path []string, n *Node)) {
	var walk func(prefix []string, n *Node)
	walk = func(prefix []string, n *Node) {
		for _, c := range t.sortedChildren(n) {
			path := append(prefix[:len(prefix):len(prefix)], t.syms.urls[c.sym])
			fn(path, c)
			walk(path, c)
		}
	}
	walk(nil, t.Root)
}

// String renders the tree in a compact indented format for debugging
// and golden tests: one "url/count" per line, two spaces per depth.
func (t *Tree) String() string {
	var sb strings.Builder
	t.Walk(func(path []string, n *Node) {
		sb.WriteString(strings.Repeat("  ", len(path)-1))
		fmt.Fprintf(&sb, "%s/%d\n", path[len(path)-1], n.Count)
	})
	return sb.String()
}

// Merge folds other's counts into t, node by node — the cooperative
// scenario of the paper's related work where service proxies aggregate
// prediction state from multiple home servers. other is not modified:
// Merge absorbs a clone of it. Usage marks are not merged (they are
// prediction-phase scratch).
func (t *Tree) Merge(other *Tree) { t.Absorb(other.Clone()) }

// Absorb folds other into t and consumes it — the fold step of
// TrainAllParallel and of a delta merge, whose shard is discarded
// afterwards. Subtrees t lacks are moved, not copied: they are
// relabelled to t's symbols and attached. Only nodes present in both
// trees add counts. other is left empty. Moved nodes keep their usage
// marks; Merge, which absorbs a clone, carries none.
func (t *Tree) Absorb(other *Tree) {
	if other == t {
		panic("markov: a tree cannot absorb itself")
	}
	t.Root.Count += other.Root.Count
	if t.Root.Fanout() == 0 && t.SymbolCount() == 0 {
		// Nothing to relabel against: adopt other's nodes and symbols.
		t.Root.small, t.Root.big, t.syms = other.Root.small, other.Root.big, other.syms
		other.Root, other.syms = &Node{}, newSymtab()
		return
	}
	// remap translates other's symbols to t's, filled lazily (0 marks
	// not-yet-seen, safe because symbol 0 is reserved for the
	// pseudo-root and never keys a child). A shared symbol table needs
	// no translation.
	var remap []uint32
	if t.syms != other.syms {
		remap = make([]uint32, len(other.syms.urls))
	}
	sym := func(s uint32) uint32 {
		if remap == nil {
			return s
		}
		if remap[s] == 0 {
			remap[s] = t.syms.intern(other.syms.urls[s])
		}
		return remap[s]
	}
	var relabel func(n *Node)
	relabel = func(n *Node) {
		n.sym = sym(n.sym)
		if n.big != nil {
			big := make(map[uint32]*Node, len(n.big))
			for _, c := range n.big {
				relabel(c)
				big[c.sym] = c
			}
			n.big = big
			return
		}
		for i := range n.small {
			relabel(n.small[i].node)
			n.small[i].sym = n.small[i].node.sym
		}
		sortChildRefs(n.small)
	}
	var absorb func(dst, src *Node)
	absorb = func(dst, src *Node) {
		src.EachChild(func(sc *Node) bool {
			if dc := dst.childBySym(sym(sc.sym)); dc != nil {
				dc.Count += sc.Count
				absorb(dc, sc)
				return true
			}
			if remap != nil {
				relabel(sc)
			}
			dst.attachChild(sc)
			return true
		})
	}
	absorb(t.Root, other.Root)
	other.Root = &Node{}
	other.syms = newSymtab()
}

// attachChild adds c, which n must not already have a child for, under
// its symbol, promoting the representation as ensureChildSym does.
func (n *Node) attachChild(c *Node) {
	if n.big == nil && len(n.small) < promoteFanout {
		n.small = append(n.small, childRef{sym: c.sym, node: c})
		sortChildRefs(n.small)
		return
	}
	if n.big == nil {
		n.big = make(map[uint32]*Node, len(n.small)+1)
		for _, cr := range n.small {
			n.big[cr.sym] = cr.node
		}
		n.small = nil
	}
	n.big[c.sym] = c
}

// sortChildRefs restores symbol order in a small child slice by
// insertion sort; the slices hold at most promoteFanout entries.
func sortChildRefs(s []childRef) {
	for i := 1; i < len(s); i++ {
		cr := s[i]
		j := i - 1
		for j >= 0 && s[j].sym > cr.sym {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = cr
	}
}

// Clone returns a deep copy of the tree: every node, child container,
// and the symbol table are fresh allocations, so training into or
// merging into the clone never mutates the receiver. This is the
// copy-on-write step of incremental maintenance: the published snapshot
// stays live and read-only while its clone absorbs a delta. Usage marks
// are not copied (they are prediction-phase scratch); the recording
// gate's state is carried over.
//
// The receiver must not be trained concurrently with Clone; cloning a
// published (read-only) snapshot is always safe.
func (t *Tree) Clone() *Tree {
	out := &Tree{Root: cloneNode(t.Root), syms: t.syms.clone()}
	out.recording.Store(t.recording.Load())
	return out
}

func cloneNode(n *Node) *Node {
	c := &Node{Count: n.Count, sym: n.sym}
	if n.big != nil {
		c.big = make(map[uint32]*Node, len(n.big))
		for sym, ch := range n.big {
			c.big[sym] = cloneNode(ch)
		}
		return c
	}
	if len(n.small) > 0 {
		c.small = make([]childRef, len(n.small))
		for i, cr := range n.small {
			c.small[i] = childRef{sym: cr.sym, node: cloneNode(cr.node)}
		}
	}
	return c
}

// MergeInto folds t's counts into dst, leaving t unmodified: Merge seen
// from the shard's side, so a freshly trained delta tree reads
// delta.MergeInto(clone). dst must not be a published snapshot that
// concurrent readers still use.
func (t *Tree) MergeInto(dst *Tree) { dst.Merge(t) }

// CopyIf returns a new tree containing only the nodes for which keep
// returns true; rejecting a node skips its entire subtree. The copy
// shares t's symbol table (so it costs no string duplication) and must
// therefore not be read concurrently with training that mutates t.
// Usage marks are not copied; recording starts enabled.
func (t *Tree) CopyIf(keep func(parent, child *Node) bool) *Tree {
	out := &Tree{Root: &Node{Count: t.Root.Count}, syms: t.syms}
	out.recording.Store(true)
	var cp func(src, dst *Node)
	cp = func(src, dst *Node) {
		src.EachChild(func(sc *Node) bool {
			if !keep(src, sc) {
				return true
			}
			dc := dst.ensureChildSym(sc.sym)
			dc.Count = sc.Count
			cp(sc, dc)
			return true
		})
	}
	cp(t.Root, out.Root)
	return out
}
