package topn

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pbppm/internal/markov"
)

func train(m *Model) {
	// /hot 30x, /warm 20x, /mild 10x, tail 1x each.
	for i := 0; i < 30; i++ {
		m.TrainSequence([]string{"/hot"})
	}
	for i := 0; i < 20; i++ {
		m.TrainSequence([]string{"/warm"})
	}
	for i := 0; i < 10; i++ {
		m.TrainSequence([]string{"/mild"})
	}
	m.TrainSequence([]string{"/tail1", "/tail2"})
}

func TestName(t *testing.T) {
	if got := New(Config{}).Name(); got != "Top-10" {
		t.Errorf("Name = %q", got)
	}
}

func TestPredictReturnsTopN(t *testing.T) {
	m := New(Config{N: 2})
	train(m)
	ps := m.Predict([]string{"/somewhere"})
	if len(ps) != 2 || ps[0].URL != "/hot" || ps[1].URL != "/warm" {
		t.Fatalf("Predict = %+v", ps)
	}
	if ps[0].Probability != 1.0 {
		t.Errorf("P(/hot) = %v, want RP 1.0", ps[0].Probability)
	}
	if ps[1].Probability < 0.66 || ps[1].Probability > 0.67 {
		t.Errorf("P(/warm) = %v, want RP 2/3", ps[1].Probability)
	}
}

func TestPredictExcludesCurrentDocument(t *testing.T) {
	m := New(Config{N: 2})
	train(m)
	ps := m.Predict([]string{"/hot"})
	if len(ps) != 2 {
		t.Fatalf("Predict = %+v", ps)
	}
	for _, p := range ps {
		if p.URL == "/hot" {
			t.Error("current document predicted")
		}
	}
	if ps[0].URL != "/warm" || ps[1].URL != "/mild" {
		t.Errorf("Predict = %+v", ps)
	}
}

func TestMinRelativeFloor(t *testing.T) {
	m := New(Config{N: 10, MinRelative: 0.3})
	train(m)
	ps := m.Predict(nil)
	// Only /hot (1.0), /warm (0.67), /mild (0.33) clear the floor.
	if len(ps) != 3 {
		t.Fatalf("Predict = %+v, want 3 above the floor", ps)
	}
}

func TestDefaultN(t *testing.T) {
	m := New(Config{})
	train(m)
	if got := len(m.Predict(nil)); got != 5 {
		// Only 5 distinct URLs exist; all are candidates.
		t.Errorf("predictions = %d, want 5", got)
	}
}

func TestNodeCount(t *testing.T) {
	m := New(Config{})
	train(m)
	if got := m.NodeCount(); got != 5 {
		t.Errorf("NodeCount = %d, want 5 distinct documents", got)
	}
}

func TestEmptyModel(t *testing.T) {
	m := New(Config{})
	if got := m.Predict([]string{"/x"}); len(got) != 0 {
		t.Errorf("empty model predicted %+v", got)
	}
	if m.NodeCount() != 0 {
		t.Error("empty model has nodes")
	}
}

func TestPredictorInterface(t *testing.T) {
	var p markov.Predictor = New(Config{})
	p.TrainSequence([]string{"/a", "/b"})
	if p.Name() != "Top-10" || p.NodeCount() != 2 {
		t.Error("interface conformance broken")
	}
}

// TestKeptPrefixMatchesRankingTop: after every TrainSequence the kept
// prefix is exactly rank.Top(n+1) with the ranking's counts, on random
// sessions over a small alphabet so count ties are frequent, and
// PredictInto equals the prediction computed from a full sort.
func TestKeptPrefixMatchesRankingTop(t *testing.T) {
	for _, n := range []int{1, 2, 10} {
		rng := rand.New(rand.NewSource(int64(n)))
		m := New(Config{N: n})
		for i := 0; i < 400; i++ {
			s := make([]string, rng.Intn(5)+1)
			for j := range s {
				s[j] = fmt.Sprintf("/u%d", rng.Intn(3*n+4))
			}
			m.TrainSequence(s)

			want := m.rank.Top(n + 1)
			if len(m.top) != len(want) {
				t.Fatalf("N=%d step %d: kept %d URLs, Top has %d", n, i, len(m.top), len(want))
			}
			for k, u := range want {
				if m.top[k].url != u || m.top[k].count != m.rank.Count(u) {
					t.Fatalf("N=%d step %d: kept[%d] = %+v, Top has %s/%d",
						n, i, k, m.top[k], u, m.rank.Count(u))
				}
			}
			cur := []string{s[len(s)-1]}
			if got, ref := m.Predict(cur), sortedPredict(m, cur); !reflect.DeepEqual(got, ref) {
				t.Fatalf("N=%d step %d: Predict = %+v, full sort gives %+v", n, i, got, ref)
			}
		}
	}
}

// sortedPredict is Predict computed from a full sort of the ranking.
func sortedPredict(m *Model, context []string) []markov.Prediction {
	var out []markov.Prediction
	for _, u := range m.rank.Top(m.cfg.n() + 1) {
		if u == context[len(context)-1] || m.rank.Relative(u) < m.cfg.MinRelative {
			continue
		}
		out = append(out, markov.Prediction{URL: u, Probability: m.rank.Relative(u)})
		if len(out) == m.cfg.n() {
			break
		}
	}
	return out
}

// TestPredictIntoAllocatesNothing: with a warm buffer PredictInto only
// reads the kept prefix.
func TestPredictIntoAllocatesNothing(t *testing.T) {
	m := New(Config{})
	train(m)
	buf := m.PredictInto([]string{"/hot"}, nil)
	if allocs := testing.AllocsPerRun(100, func() {
		buf = m.PredictInto([]string{"/hot"}, buf)
	}); allocs != 0 {
		t.Errorf("PredictInto allocates %v times per call", allocs)
	}
}
