// Package core implements the paper's primary contribution: the
// popularity-based PPM prefetching model (§3.4).
//
// The Markov prediction tree grows with a variable height per branch:
// a branch headed by a popular URL may grow long (height 7 for grade 3)
// while a branch headed by an unpopular URL stays short (height 1 for
// grade 0). The model is built with four rules:
//
//  1. Branch heights are proportional to the heading URL's relative
//     popularity grade (default 7/5/3/1 for grades 3/2/1/0).
//  2. The maximum height is moderate because >95% of access sessions
//     have at most 9 clicks.
//  3. A URL appearing in a branch that is not the immediate successor
//     of the heading URL, and whose grade exceeds the heading URL's
//     grade or is the highest grade, is additionally linked directly
//     under the heading URL as a duplicated node; when the clicked URL
//     is a root, those linked nodes yield extra predictions.
//  4. Each URL of a session is added once: it extends the single open
//     branch, and it additionally starts a new root branch only when
//     its grade is strictly higher than its predecessor's (or it opens
//     the session). This keeps the root population dominated by
//     popular URLs.
//
// After building, two space optimizations may be applied: cutting
// branches whose relative access probability (node count over parent
// count) is below a cutoff, and removing nodes accessed only once.
package core

import (
	"fmt"

	"pbppm/internal/markov"
	"pbppm/internal/popularity"
	"pbppm/internal/ppm"
)

// DefaultHeights is the paper's grade→height mapping (§4.1): height 7
// for grade-3 heading URLs, 5 for grade 2, 3 for grade 1, 1 for grade 0.
var DefaultHeights = [4]int{1, 3, 5, 7}

// Config parameterizes the popularity-based model.
type Config struct {
	// Heights maps a heading URL's popularity grade to the maximum
	// height of branches it leads. The zero value selects
	// DefaultHeights. Every entry must be at least 1 once defaulted.
	Heights [4]int
	// Threshold is the minimum conditional probability for a prefetch
	// candidate; zero selects the paper's 0.25.
	Threshold float64
	// DisableLinks turns off rule 3 (the duplicated popular-node links);
	// used by the ablation experiments.
	DisableLinks bool
	// MaxLinkPredictions caps how many linked duplicated nodes a root
	// may contribute per prediction, strongest first. Zero selects the
	// default of 1; negative means unlimited.
	MaxLinkPredictions int
	// RelProbCutoff drives the first space optimization: after building,
	// Optimize removes every non-root node whose relative access
	// probability is below this value. The paper uses 1%–10%. Zero
	// disables the optimization.
	RelProbCutoff float64
	// DropSingletons drives the second space optimization: Optimize
	// removes every node (and link) with an absolute access count of at
	// most one. The paper enables it for the UCB-CS trace.
	DropSingletons bool
}

func (c Config) heights() [4]int {
	if c.Heights == ([4]int{}) {
		return DefaultHeights
	}
	return c.Heights
}

func (c Config) threshold() float64 { return ppm.ThresholdOrDefault(c.Threshold) }

// Model is a popularity-based PPM predictor.
type Model struct {
	cfg     Config
	heights [4]int
	grades  popularity.Grader
	tree    *markov.Tree
	// links holds rule-3 duplicated nodes: heading URL → linked URL →
	// access count of the duplicate.
	links map[string]map[string]int64
}

var _ markov.Predictor = (*Model)(nil)
var _ markov.BufferedPredictor = (*Model)(nil)
var _ markov.Freezer = (*Model)(nil)
var _ markov.UtilizationReporter = (*Model)(nil)
var _ markov.UsageRecorder = (*Model)(nil)
var _ markov.ShardedTrainer = (*Model)(nil)
var _ markov.IncrementalTrainer = (*Model)(nil)

// New returns an empty popularity-based model that grades URLs with
// grades (typically a *popularity.Ranking built from the training
// window). It panics if grades is nil or a configured height is below
// 1: both are programmer errors.
func New(grades popularity.Grader, cfg Config) *Model {
	if grades == nil {
		panic("core: nil popularity grader")
	}
	h := cfg.heights()
	for g, v := range h {
		if v < 1 {
			panic(fmt.Sprintf("core: height %d for grade %d must be at least 1", v, g))
		}
	}
	return &Model{
		cfg:     cfg,
		heights: h,
		grades:  grades,
		tree:    markov.NewTree(),
		links:   make(map[string]map[string]int64),
	}
}

// Name identifies the model.
func (m *Model) Name() string { return "PB-PPM" }

// maxHeight returns the branch height limit for a heading URL grade.
func (m *Model) maxHeight(g popularity.Grade) int {
	if g < 0 {
		g = 0
	}
	if int(g) >= len(m.heights) {
		g = popularity.Grade(len(m.heights) - 1)
	}
	return m.heights[g]
}

// TrainSequence folds one session into the model following the four
// construction rules.
func (m *Model) TrainSequence(seq []string) {
	var (
		cur        *markov.Node // deepest node of the open branch
		heightLeft int          // nodes the open branch may still grow
		rootGrade  popularity.Grade
		rootURL    string
		depth      int // nodes in the open branch so far
		prevGrade  popularity.Grade
	)
	for i, u := range seq {
		g := m.grades.GradeOf(u)

		// Extend the single open branch (rule 4: each URL is added once).
		if cur != nil && heightLeft > 0 {
			child := m.tree.EnsureChild(cur, u)
			child.Count++
			depth++
			// Rule 3: a popular URL deeper than the heading URL's
			// immediate successor earns a duplicated node linked under
			// the heading URL.
			if depth >= 3 && !m.cfg.DisableLinks &&
				(g > rootGrade || g == popularity.MaxGrade) {
				m.addLink(rootURL, u)
			}
			cur = child
			heightLeft--
		}

		// Open a new root branch at the session head or on a strict
		// grade ascent; the new branch becomes the open one.
		if i == 0 || g > prevGrade {
			root := m.tree.EnsureChild(m.tree.Root, u)
			root.Count++
			m.tree.Root.Count++
			cur = root
			rootURL, rootGrade = u, g
			heightLeft = m.maxHeight(g) - 1
			depth = 1
		}
		prevGrade = g
	}
}

// NewShard returns an empty model sharing the popularity grader and
// configuration, for markov.TrainAllParallel. The grader is read-only
// during training, so sharing it across shards is safe.
func (m *Model) NewShard() markov.Predictor { return New(m.grades, m.cfg) }

// MergeShard folds a shard trained by NewShard back into the model and
// consumes it: the shard's tree is absorbed and its rule-3 link maps
// are moved or folded, leaving the shard empty. Tree counts are
// additive and link counts fold per (root, url) pair, so shard-trained
// and serially-trained models are equivalent.
func (m *Model) MergeShard(shard markov.Predictor) {
	sh := shard.(*Model)
	m.tree.Absorb(sh.tree)
	for root, lm := range sh.links {
		dst := m.links[root]
		if dst == nil {
			m.links[root] = lm
			continue
		}
		for url, cnt := range lm {
			dst[url] += cnt
		}
	}
	sh.links = make(map[string]map[string]int64)
}

// Clone returns a deep copy of the model for incremental maintenance:
// the tree and rule-3 link counts are fresh, so merging a delta shard
// into the clone never mutates the receiver. The popularity grader is
// shared — it is read-only during training, and the incremental scheme
// deliberately keeps the grading fixed between compactions (a
// compaction re-derives the ranking from the full window).
func (m *Model) Clone() markov.Predictor {
	links := make(map[string]map[string]int64, len(m.links))
	for root, lm := range m.links {
		cp := make(map[string]int64, len(lm))
		for url, cnt := range lm {
			cp[url] = cnt
		}
		links[root] = cp
	}
	return &Model{
		cfg:     m.cfg,
		heights: m.heights,
		grades:  m.grades,
		tree:    m.tree.Clone(),
		links:   links,
	}
}

func (m *Model) maxLinkPredictions() int {
	switch {
	case m.cfg.MaxLinkPredictions == 0:
		return 1
	case m.cfg.MaxLinkPredictions < 0:
		return -1
	default:
		return m.cfg.MaxLinkPredictions
	}
}

func (m *Model) addLink(root, url string) {
	if root == url {
		return
	}
	lm := m.links[root]
	if lm == nil {
		lm = make(map[string]int64)
		m.links[root] = lm
	}
	lm[url]++
}

// Predict combines the longest-suffix match used by all models with the
// rule-3 extra predictions: when the current click is a root of the
// tree, the root's linked duplicated nodes are offered as additional
// candidates. Duplicate URLs keep their highest probability (a tree
// candidate wins an exact tie, keeping its matched order).
func (m *Model) Predict(context []string) []markov.Prediction {
	return m.PredictInto(context, nil)
}

// PredictInto is Predict writing into buf per the
// markov.BufferedPredictor buffer-ownership contract.
func (m *Model) PredictInto(context []string, buf []markov.Prediction) []markov.Prediction {
	buf = buf[:0]
	if len(context) == 0 {
		return buf
	}
	thr := m.cfg.threshold()
	if n, order := m.tree.LongestMatch(context); n != nil {
		m.tree.MarkPath(context[len(context)-order:])
		buf = m.tree.PredictFromInto(n, thr, order, buf)
	}
	cur := context[len(context)-1]
	if root := m.tree.Child(m.tree.Root, cur); root != nil && !m.cfg.DisableLinks {
		var linked []markov.Prediction
		for url, cnt := range m.links[cur] {
			p := float64(cnt) / float64(root.Count)
			if p >= thr {
				linked = append(linked, markov.Prediction{URL: url, Probability: p, Order: 1})
			}
		}
		markov.SortPredictions(linked)
		if max := m.maxLinkPredictions(); max >= 0 && len(linked) > max {
			linked = linked[:max]
		}
		buf = mergeLinked(buf, linked)
	}
	if len(buf) == 0 {
		return buf
	}
	markov.SortPredictions(buf)
	return buf
}

// mergeLinked folds the rule-3 link candidates into the tree
// candidates, deduplicating by URL with the strongest estimate winning
// and the tree candidate keeping an exact tie (it came first).
func mergeLinked(preds, linked []markov.Prediction) []markov.Prediction {
	for _, lp := range linked {
		dup := -1
		for i := range preds {
			if preds[i].URL == lp.URL {
				dup = i
				break
			}
		}
		if dup < 0 {
			preds = append(preds, lp)
		} else if lp.Probability > preds[dup].Probability {
			preds[dup] = lp
		}
	}
	return preds
}

// Freeze returns the immutable arena-backed snapshot of the trained
// model: the prediction tree becomes a flat arena and the rule-3 link
// candidates are precomputed per heading URL (their root counts are
// fixed once training stops), so serving performs no map-building, no
// usage marking, and — with a warm caller buffer — no allocations,
// while predictions stay bit-identical to the live model's.
func (m *Model) Freeze() markov.Predictor {
	thr := m.cfg.threshold()
	f := &Frozen{
		name:      m.Name(),
		arena:     m.tree.Freeze(),
		threshold: thr,
		nodeCount: m.NodeCount(),
	}
	if !m.cfg.DisableLinks {
		max := m.maxLinkPredictions()
		f.links = make(map[string][]markov.Prediction, len(m.links))
		for rootURL, lm := range m.links {
			root := m.tree.Child(m.tree.Root, rootURL)
			if root == nil {
				// Live Predict offers links only while the heading URL
				// is a root; a pruned root silences its links.
				continue
			}
			var linked []markov.Prediction
			for url, cnt := range lm {
				p := float64(cnt) / float64(root.Count)
				if p >= thr {
					linked = append(linked, markov.Prediction{URL: url, Probability: p, Order: 1})
				}
			}
			if len(linked) == 0 {
				continue
			}
			markov.SortPredictions(linked)
			if max >= 0 && len(linked) > max {
				linked = linked[:max]
			}
			f.links[rootURL] = linked
		}
	}
	return f
}

// Frozen is the arena-backed snapshot of a popularity-based model.
// It is immutable and safe for unsynchronized concurrent use;
// TrainSequence panics.
type Frozen struct {
	name      string
	arena     *markov.Arena
	threshold float64
	// nodeCount is the live model's NodeCount — tree nodes plus every
	// rule-3 link (the paper's space metric counts links before the
	// prediction threshold is applied, so it is captured at freeze time
	// rather than recomputed from the thresholded link table below).
	nodeCount int
	// links holds the precomputed rule-3 predictions per heading URL:
	// thresholded, sorted, and capped at freeze time.
	links map[string][]markov.Prediction
}

var _ markov.Predictor = (*Frozen)(nil)
var _ markov.BufferedPredictor = (*Frozen)(nil)
var _ markov.ArenaHolder = (*Frozen)(nil)

// Name identifies the model; the frozen snapshot keeps the live name
// so reports stay comparable across a freeze.
func (f *Frozen) Name() string { return f.name }

// TrainSequence panics: a frozen model is a published immutable
// snapshot. Train the live model and freeze again.
func (f *Frozen) TrainSequence([]string) {
	panic("core: TrainSequence on a frozen model; train the live model and re-freeze")
}

// NodeCount reports the live model's storage requirement (tree nodes
// plus rule-3 links), the paper's space metric.
func (f *Frozen) NodeCount() int { return f.nodeCount }

// Arena exposes the snapshot for stats and its wire form.
func (f *Frozen) Arena() *markov.Arena { return f.arena }

// Predict mirrors Model.Predict on the arena.
func (f *Frozen) Predict(context []string) []markov.Prediction {
	return f.PredictInto(context, nil)
}

// PredictInto is Predict writing into buf per the
// markov.BufferedPredictor buffer-ownership contract. With a warm
// buffer the call performs zero allocations.
func (f *Frozen) PredictInto(context []string, buf []markov.Prediction) []markov.Prediction {
	buf = buf[:0]
	if len(context) == 0 {
		return buf
	}
	if n, order, ok := f.arena.LongestMatch(context); ok {
		buf = f.arena.AppendPredictions(buf, n, f.threshold, order)
	}
	if linked := f.links[context[len(context)-1]]; len(linked) > 0 {
		buf = mergeLinked(buf, linked)
	}
	if len(buf) == 0 {
		return buf
	}
	markov.SortPredictions(buf)
	return buf
}

// Optimize applies the configured space optimizations and returns the
// number of nodes removed (tree nodes plus duplicated link nodes). The
// paper applies it once, after the tree is built from the training
// window.
func (m *Model) Optimize() int {
	removed := 0
	if cut := m.cfg.RelProbCutoff; cut > 0 {
		removed += m.tree.Prune(func(parent, child *markov.Node) bool {
			if parent == m.tree.Root || parent.Count == 0 {
				return false
			}
			return float64(child.Count)/float64(parent.Count) < cut
		})
		for rootURL, lm := range m.links {
			root := m.tree.Child(m.tree.Root, rootURL)
			if root == nil {
				// The heading URL itself vanished (possible only via
				// DropSingletons below on a prior call); drop its links.
				removed += len(lm)
				delete(m.links, rootURL)
				continue
			}
			for url, cnt := range lm {
				if float64(cnt)/float64(root.Count) < cut {
					delete(lm, url)
					removed++
				}
			}
			if len(lm) == 0 {
				delete(m.links, rootURL)
			}
		}
	}
	if m.cfg.DropSingletons {
		removed += m.tree.Prune(func(parent, child *markov.Node) bool {
			return child.Count <= 1
		})
		for rootURL, lm := range m.links {
			if m.tree.Child(m.tree.Root, rootURL) == nil {
				removed += len(lm)
				delete(m.links, rootURL)
				continue
			}
			for url, cnt := range lm {
				if cnt <= 1 {
					delete(lm, url)
					removed++
				}
			}
			if len(lm) == 0 {
				delete(m.links, rootURL)
			}
		}
	}
	return removed
}

// NodeCount reports the storage requirement: tree nodes plus duplicated
// link nodes.
func (m *Model) NodeCount() int {
	n := m.tree.NodeCount()
	for _, lm := range m.links {
		n += len(lm)
	}
	return n
}

// LinkCount reports the number of duplicated popular-node links.
func (m *Model) LinkCount() int {
	n := 0
	for _, lm := range m.links {
		n += len(lm)
	}
	return n
}

// Utilization reports the fraction of stored root-to-leaf tree paths
// used by predictions since the last ResetUsage. Linked duplicate nodes
// are prediction shortcuts and are not counted as paths.
func (m *Model) Utilization() float64 { return m.tree.Utilization() }

// ResetUsage clears utilization marks.
func (m *Model) ResetUsage() { m.tree.ResetUsage() }

// SetUsageRecording attaches or detaches prediction-time usage marking;
// serving paths detach it so Predict on a published model is read-only.
func (m *Model) SetUsageRecording(on bool) { m.tree.SetUsageRecording(on) }

// UsageRecording reports whether usage marking is enabled.
func (m *Model) UsageRecording() bool { return m.tree.UsageRecording() }

// Tree exposes the underlying prediction tree for diagnostics.
func (m *Model) Tree() *markov.Tree { return m.tree }

// Stats summarizes the model's structure; used to validate the paper's
// claim that most root nodes are popular URLs.
type Stats struct {
	Nodes int
	Roots int
	Links int
	// RootsByGrade counts root nodes per popularity grade.
	RootsByGrade [4]int
}

// Stats computes structural statistics.
func (m *Model) Stats() Stats {
	st := Stats{Nodes: m.NodeCount(), Links: m.LinkCount()}
	m.tree.EachChild(m.tree.Root, func(url string, _ *markov.Node) bool {
		st.Roots++
		g := m.grades.GradeOf(url)
		if g < 0 {
			g = 0
		}
		if g > popularity.MaxGrade {
			g = popularity.MaxGrade
		}
		st.RootsByGrade[g]++
		return true
	})
	return st
}
