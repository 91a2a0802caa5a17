// Package lrs implements the Longest-Repeating-Subsequences PPM model
// of Pitkow & Pirolli (USENIX '99), the space-optimized baseline in
// §3.2 of the paper: only URL sequences accessed at least twice are
// kept in the prediction tree.
//
// Construction follows the paper's description — "each branch in the
// model is further cut and paste into multiple sub-branches starting
// from different URLs", i.e. every suffix of each repeating pattern
// appears as its own branch. We obtain exactly that tree by building
// the full suffix trie of the training sessions and pruning every node
// whose occurrence count is below the repeat threshold: a suffix of a
// repeating subsequence is itself repeating, so all sub-branches
// survive with their true occurrence counts.
package lrs

import (
	"pbppm/internal/markov"
	"pbppm/internal/ppm"
)

// Config parameterizes the LRS model.
type Config struct {
	// RepeatThreshold is the minimum occurrence count for a sequence to
	// be considered "frequently repeating"; zero selects the paper's 2.
	RepeatThreshold int64
	// Threshold is the minimum conditional probability for a prefetch
	// candidate; zero selects the paper's 0.25.
	Threshold float64
	// MaxHeight optionally caps branch heights; <= 0 (the paper's
	// setting) leaves them unbounded so the longest repeating
	// subsequences are kept whole.
	MaxHeight int
}

func (c Config) repeat() int64 {
	if c.RepeatThreshold <= 0 {
		return 2
	}
	return c.RepeatThreshold
}

func (c Config) threshold() float64 { return ppm.ThresholdOrDefault(c.Threshold) }

// Model is an LRS-PPM predictor.
type Model struct {
	cfg Config
	// full is the complete suffix trie including count-1 nodes; it is
	// retained so that later training can promote sequences across the
	// repeat threshold.
	full *markov.Tree
	// pruned is the repeating-only prediction tree, rebuilt lazily
	// after training.
	pruned *markov.Tree
	dirty  bool
}

var _ markov.Predictor = (*Model)(nil)
var _ markov.BufferedPredictor = (*Model)(nil)
var _ markov.Freezer = (*Model)(nil)
var _ markov.UtilizationReporter = (*Model)(nil)
var _ markov.UsageRecorder = (*Model)(nil)
var _ markov.ShardedTrainer = (*Model)(nil)
var _ markov.IncrementalTrainer = (*Model)(nil)

// New returns an empty LRS model.
func New(cfg Config) *Model {
	return &Model{cfg: cfg, full: markov.NewTree(), pruned: markov.NewTree()}
}

// Name identifies the model.
func (m *Model) Name() string { return "LRS-PPM" }

// TrainSequence inserts every suffix of seq into the underlying suffix
// trie. The prediction tree is rebuilt lazily on the next Predict or
// NodeCount call.
func (m *Model) TrainSequence(seq []string) {
	m.full.InsertSuffixes(seq, m.cfg.MaxHeight, 1)
	m.dirty = true
}

// rebuild materializes the repeating-only prediction tree. The copy
// shares the full trie's symbol table (CopyIf), so it costs no URL
// duplication; that is safe because the model's contract already
// forbids training concurrently with other methods.
func (m *Model) rebuild() {
	if !m.dirty {
		return
	}
	m.dirty = false
	min := m.cfg.repeat()
	out := m.full.CopyIf(func(_, child *markov.Node) bool {
		return child.Count >= min
	})
	out.SetUsageRecording(m.pruned.UsageRecording())
	m.pruned = out
}

// NewShard returns an empty model with the same configuration, for
// markov.TrainAllParallel.
func (m *Model) NewShard() markov.Predictor { return New(m.cfg) }

// MergeShard folds a shard trained by NewShard into the full suffix
// trie and consumes it: the shard's trie is absorbed, leaving it empty.
// The repeating-only view is rebuilt lazily as usual.
func (m *Model) MergeShard(shard markov.Predictor) {
	m.full.Absorb(shard.(*Model).full)
	m.dirty = true
}

// Clone returns a deep copy of the model for incremental maintenance.
// Both the full suffix trie and the pruned prediction view are copied,
// so later training or delta merges into the clone can promote
// sequences across the repeat threshold without touching the receiver.
func (m *Model) Clone() markov.Predictor {
	return &Model{
		cfg:    m.cfg,
		full:   m.full.Clone(),
		pruned: m.pruned.Clone(),
		dirty:  m.dirty,
	}
}

// Predict finds the deepest repeating-sequence node matching the
// longest suffix of the context — the paper's "longest matching method"
// — and returns its children above the probability threshold.
func (m *Model) Predict(context []string) []markov.Prediction {
	return m.PredictInto(context, nil)
}

// PredictInto is Predict writing into buf per the
// markov.BufferedPredictor buffer-ownership contract.
func (m *Model) PredictInto(context []string, buf []markov.Prediction) []markov.Prediction {
	m.rebuild()
	n, order := m.pruned.LongestMatch(context)
	if n == nil {
		return buf[:0]
	}
	m.pruned.MarkPath(context[len(context)-order:])
	return m.pruned.PredictFromInto(n, m.cfg.threshold(), order, buf)
}

// Freeze materializes the repeating-only prediction tree and returns
// its immutable arena-backed snapshot: identical predictions with no
// per-node GC load and no allocations on the serving path. The full
// suffix trie is a training-time artifact and is not frozen.
func (m *Model) Freeze() markov.Predictor {
	m.rebuild()
	return markov.NewFrozenTree(m.pruned.Freeze(), m.Name(), m.cfg.threshold(), 0)
}

// NodeCount reports the storage requirement of the repeating-only tree,
// the paper's space metric for LRS. The retained full trie is a
// training-time artifact and is not part of the served model.
func (m *Model) NodeCount() int {
	m.rebuild()
	return m.pruned.NodeCount()
}

// Utilization reports the fraction of stored root-to-leaf paths used by
// predictions since the last ResetUsage.
func (m *Model) Utilization() float64 {
	m.rebuild()
	return m.pruned.Utilization()
}

// ResetUsage clears utilization marks.
func (m *Model) ResetUsage() {
	m.rebuild()
	m.pruned.ResetUsage()
}

// SetUsageRecording attaches or detaches prediction-time usage marking.
// Detaching also materializes the lazily-rebuilt pruned tree, so that
// subsequent Predict calls on the published model perform no writes at
// all and are safe for unsynchronized concurrent use.
func (m *Model) SetUsageRecording(on bool) {
	m.rebuild()
	m.pruned.SetUsageRecording(on)
}

// UsageRecording reports whether usage marking is enabled.
func (m *Model) UsageRecording() bool { return m.pruned.UsageRecording() }

// Patterns returns the longest repeating subsequences currently stored:
// every root-to-leaf path of the repeating-only tree, with the leaf's
// occurrence count. Paths are emitted in deterministic (sorted) order.
// This is primarily a diagnostic and test hook.
func (m *Model) Patterns() []Pattern {
	m.rebuild()
	var out []Pattern
	m.pruned.Walk(func(path []string, n *markov.Node) {
		if n.IsLeaf() {
			p := make([]string, len(path))
			copy(p, path)
			out = append(out, Pattern{URLs: p, Count: n.Count})
		}
	})
	return out
}

// Pattern is one repeating subsequence kept by the model.
type Pattern struct {
	URLs  []string
	Count int64
}

// Tree exposes the repeating-only prediction tree for diagnostics.
func (m *Model) Tree() *markov.Tree {
	m.rebuild()
	return m.pruned
}
