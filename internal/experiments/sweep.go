package experiments

import (
	"fmt"

	"pbppm/internal/core"
	"pbppm/internal/lrs"
	"pbppm/internal/metrics"
	"pbppm/internal/ppm"
	"pbppm/internal/sim"
)

// Model names used across the experiment tables.
const (
	ModelNone = "none"
	ModelPPM  = "PPM"   // standard model, unbounded height (§4.1)
	Model3PPM = "3-PPM" // standard model, height 3 (§3.3 observations)
	ModelLRS  = "LRS-PPM"
	ModelPB   = "PB-PPM"
)

// DayResult holds every model's metrics for one training-window size.
type DayResult struct {
	// TrainDays is the number of day files used to build the models;
	// the models are evaluated on the following day.
	TrainDays int
	// Results maps model name (including ModelNone for the no-prefetch
	// baseline) to its metrics.
	Results map[string]metrics.Result
}

// SweepConfig controls the day sweep shared by Figures 2–4 and Tables
// 1–2.
type SweepConfig struct {
	// MaxTrainDays sweeps k = 1..MaxTrainDays training days; each k is
	// evaluated on day k (zero-based day index k). Zero selects
	// workload days - 1.
	MaxTrainDays int
	// RelProbCutoff is PB-PPM's first space optimization (default 1%).
	RelProbCutoff float64
	// Include3PPM adds the height-3 standard model used by Figure 2.
	Include3PPM bool
	// PredictOnHitToo makes every click visible to the server (clients
	// revalidate cached copies). Figure 2's observation experiments use
	// it so the models' trees see full surfing paths.
	PredictOnHitToo bool
}

func (c SweepConfig) relProb() float64 {
	if c.RelProbCutoff == 0 {
		return 0.01
	}
	return c.RelProbCutoff
}

// Sweep runs the client–server comparison for every training-window
// size: standard PPM (unbounded), optionally 3-PPM, LRS-PPM, PB-PPM
// (with the paper's thresholds: 10 KB prefetch size cap for the first
// three, 30 KB for PB-PPM), plus the no-prefetch baseline.
//
// The windows are independent runs, so they execute concurrently (at
// most runtime.GOMAXPROCS(0) at a time), each with its own ranking,
// predictors and sim.Compare. The result is the same as running them
// one after another: out[k-1] holds window k, the first error in k
// order is returned, progress callbacks never overlap, and OnModel
// sees the windows' trained models in k order after all have finished.
func Sweep(w *Workload, cfg SweepConfig) ([]DayResult, error) {
	maxDays := cfg.MaxTrainDays
	if maxDays == 0 {
		maxDays = w.Days() - 1
	}
	if maxDays < 1 || maxDays >= w.Days() {
		return nil, fmt.Errorf("experiments: sweep over %d train days needs a trace of at least %d days, have %d",
			maxDays, maxDays+1, w.Days())
	}

	hooks := w.Hooks.serialized()
	out := make([]DayResult, maxDays)
	models := make([][]modelStats, maxDays)
	errs := make([]error, maxDays)
	sim.Parallel(maxDays, func(i int) {
		out[i], models[i], errs[i] = sweepWindow(w, cfg, hooks, i+1)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, m := range models {
		w.Hooks.reportModels(m)
	}
	return out, nil
}

// sweepWindow trains every model on days [0, k) and replays day k. It
// returns the window's results and, when hooks.OnModel is set, the
// trained models' statistics for the caller to report.
func sweepWindow(w *Workload, cfg SweepConfig, hooks Hooks, k int) (DayResult, []modelStats, error) {
	train := w.DaySessions(0, k)
	test := w.DaySessions(k, k+1)
	if len(train) == 0 || len(test) == 0 {
		return DayResult{}, nil, fmt.Errorf("experiments: day %d: empty train (%d) or test (%d) window",
			k, len(train), len(test))
	}
	rank := Ranking(train)

	common := sim.Options{
		Path:            w.Path,
		Grades:          rank,
		Sizes:           w.Sizes,
		PredictOnHitToo: cfg.PredictOnHitToo,
	}
	hooks.apply(&common)
	runs := []sim.NamedRun{}
	addRun := func(name string, opt sim.Options) {
		runs = append(runs, sim.NamedRun{Name: name, Options: opt})
	}

	o := common
	o.Predictor = ppm.New(ppm.Config{})
	o.MaxPrefetchBytes = sim.DefaultMaxPrefetchBytes
	addRun(ModelPPM, o)

	if cfg.Include3PPM {
		o = common
		o.Predictor = ppm.New(ppm.Config{Height: 3})
		o.MaxPrefetchBytes = sim.DefaultMaxPrefetchBytes
		addRun(Model3PPM, o)
	}

	o = common
	o.Predictor = lrs.New(lrs.Config{})
	o.MaxPrefetchBytes = sim.DefaultMaxPrefetchBytes
	addRun(ModelLRS, o)

	o = common
	o.Predictor = core.New(rank, core.Config{
		RelProbCutoff:  cfg.relProb(),
		DropSingletons: w.DropSingletons,
	})
	o.MaxPrefetchBytes = sim.PBMaxPrefetchBytes
	addRun(ModelPB, o)

	results := sim.Compare(train, test, runs)
	dr := DayResult{TrainDays: k, Results: make(map[string]metrics.Result, len(results))}
	for _, r := range results {
		dr.Results[r.Model] = r
	}
	return dr, hooks.modelStats(runs), nil
}
