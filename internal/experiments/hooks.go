package experiments

import (
	"sync"

	"pbppm/internal/markov"
	"pbppm/internal/sim"
)

// Hooks carries optional run instrumentation that every experiment
// threads into its simulator runs: a phase clock for train/simulate
// wall time and event counts, a progress reporter for long replays,
// and a model-statistics observer. The zero value disables everything,
// so experiment code applies hooks unconditionally.
//
// Hooks live on the Workload because every experiment already receives
// one; cmd/reproduce installs a fresh phase clock and model observer
// per experiment so one figure's timings never bleed into another's
// record.
type Hooks struct {
	// Phases receives train/simulate timings and replay event counts
	// (see sim.PhaseClock); nil disables phase timing.
	Phases *sim.PhaseClock
	// OnProgress and ProgressEvery mirror sim.Options: every replay of
	// the experiment reports through the same callback.
	OnProgress    func(sim.Progress)
	ProgressEvery int
	// OnModel receives tree statistics for each trained tree-backed
	// model, keyed by its report name; predictors without a tree
	// (e.g. Top-N) are skipped.
	OnModel func(model string, st markov.TreeStats)
}

// apply copies the hooks into one run's simulator options.
func (h Hooks) apply(o *sim.Options) {
	o.Phases = h.Phases
	o.OnProgress = h.OnProgress
	o.ProgressEvery = h.ProgressEvery
}

// serialized returns h with OnProgress wrapped in a lock, so the
// concurrent runs that apply the returned hooks never call it at the
// same time.
func (h Hooks) serialized() Hooks {
	if f := h.OnProgress; f != nil {
		var mu sync.Mutex
		h.OnProgress = func(p sim.Progress) {
			mu.Lock()
			defer mu.Unlock()
			f(p)
		}
	}
	return h
}

// ObserveModel reports one trained predictor's tree statistics to
// OnModel, if both are present.
func (h Hooks) ObserveModel(name string, p markov.Predictor) {
	if h.OnModel == nil || p == nil {
		return
	}
	if st, ok := markov.StatsOf(p); ok {
		h.OnModel(name, st)
	}
}

// ObserveModels reports every named run's trained predictor, the
// post-Compare bookend in the sweep-style experiments.
func (h Hooks) ObserveModels(runs []sim.NamedRun) {
	h.reportModels(h.modelStats(runs))
}

// modelStats is one trained model's tree statistics under its report
// name.
type modelStats struct {
	name string
	st   markov.TreeStats
}

// modelStats collects the statistics ObserveModels would report,
// without calling OnModel, so concurrent runs can gather them and
// report in a fixed order afterwards. It returns nil when OnModel is
// unset.
func (h Hooks) modelStats(runs []sim.NamedRun) []modelStats {
	if h.OnModel == nil {
		return nil
	}
	var out []modelStats
	for _, r := range runs {
		if r.Options.Predictor == nil {
			continue
		}
		if st, ok := markov.StatsOf(r.Options.Predictor); ok {
			out = append(out, modelStats{r.Name, st})
		}
	}
	return out
}

// reportModels hands collected statistics to OnModel in order.
func (h Hooks) reportModels(ms []modelStats) {
	for _, m := range ms {
		h.OnModel(m.name, m.st)
	}
}
