// Package topn implements the Top-10 server-initiated prefetching
// baseline the paper discusses in its related work (§6): Markatos &
// Chronaki's approach, where a Web server regularly pushes its most
// popular documents regardless of the requesting client's context.
//
// It implements the same Predictor interface as the PPM models, which
// lets the simulator and the experiment harness compare context-free
// popularity pushing against context-aware Markov prediction — the
// contrast motivating popularity-BASED (not popularity-ONLY)
// prefetching.
package topn

import (
	"pbppm/internal/markov"
	"pbppm/internal/popularity"
)

// Config parameterizes the Top-N model.
type Config struct {
	// N is how many of the most popular documents are candidates;
	// zero selects the eponymous 10.
	N int
	// MinRelative drops candidates whose relative popularity is below
	// this floor (avoids pushing the long tail on tiny servers).
	MinRelative float64
}

func (c Config) n() int {
	if c.N <= 0 {
		return 10
	}
	return c.N
}

// Model is a Top-N popularity pusher.
type Model struct {
	cfg  Config
	rank *popularity.Ranking
	// top is exactly rank.Top(n+1) with each URL's count, kept by
	// TrainSequence so Predict never sorts the ranking. Counts only
	// grow, so one access can only move the accessed URL, and only up.
	top []ranked
}

// ranked is one entry of the kept Top-(n+1) prefix.
type ranked struct {
	url   string
	count int64
}

// before is the ranking's order: descending count, ascending URL.
func (a ranked) before(b ranked) bool {
	if a.count != b.count {
		return a.count > b.count
	}
	return a.url < b.url
}

var _ markov.Predictor = (*Model)(nil)
var _ markov.BufferedPredictor = (*Model)(nil)

// New returns an empty Top-N model.
func New(cfg Config) *Model {
	return &Model{cfg: cfg, rank: popularity.NewRanking()}
}

// Name identifies the model.
func (m *Model) Name() string { return "Top-10" }

// TrainSequence counts document accesses; sequence structure is
// ignored — this baseline has no notion of context.
func (m *Model) TrainSequence(seq []string) {
	for _, u := range seq {
		m.rank.Observe(u, 1)
		m.bump(ranked{url: u, count: m.rank.Count(u)})
	}
}

// bump moves a URL whose count just grew to its place in the kept
// prefix. Only e changed, so the prefix either keeps its members or e
// displaces the last one.
func (m *Model) bump(e ranked) {
	i := 0
	for i < len(m.top) && m.top[i].url != e.url {
		i++
	}
	switch {
	case i < len(m.top):
	case len(m.top) < m.cfg.n()+1:
		m.top = append(m.top, e)
	case e.before(m.top[i-1]):
		i--
	default:
		return
	}
	for i > 0 && e.before(m.top[i-1]) {
		m.top[i] = m.top[i-1]
		i--
	}
	m.top[i] = e
}

// Predict returns the top-N popular documents with their relative
// popularity as the (context-free) probability estimate. The current
// document itself is excluded: pushing what was just served is free
// but useless. Predict only reads the ranking, so once training has
// ceased it is safe for unsynchronized concurrent use.
func (m *Model) Predict(context []string) []markov.Prediction {
	return m.PredictInto(context, nil)
}

// PredictInto is Predict writing into buf per the
// markov.BufferedPredictor buffer-ownership contract. It reads the kept
// Top-(n+1) prefix, so it allocates nothing once buf is warm.
func (m *Model) PredictInto(context []string, buf []markov.Prediction) []markov.Prediction {
	buf = buf[:0]
	cur := ""
	if len(context) > 0 {
		cur = context[len(context)-1]
	}
	mostCount := float64(m.rank.MaxCount())
	for _, e := range m.top {
		if e.url == cur {
			continue
		}
		rp := float64(e.count) / mostCount
		if rp < m.cfg.MinRelative {
			continue
		}
		buf = append(buf, markov.Prediction{URL: e.url, Probability: rp, Order: 0})
		if len(buf) == m.cfg.n() {
			break
		}
	}
	return buf
}

// NodeCount reports the model's storage requirement: one counter per
// distinct document, the cheapest of all the models.
func (m *Model) NodeCount() int { return m.rank.Len() }

// Ranking exposes the underlying popularity state. It is read-only:
// counts observed into it directly would bypass the kept prefix, so
// train through TrainSequence.
func (m *Model) Ranking() *popularity.Ranking { return m.rank }
