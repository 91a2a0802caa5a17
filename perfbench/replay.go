package main

import (
	"fmt"
	"runtime"
	"time"

	"pbppm/internal/benchreport"
	"pbppm/internal/experiments"
	"pbppm/internal/session"
	"pbppm/internal/sim"
	"pbppm/internal/tracegen"
)

// baselinePath is the committed artifact whose headline metrics the
// replayed figures must reproduce exactly, read from the repository
// root the benchmark runs in.
const baselinePath = "BENCH_baseline.json"

// replayProfile is the nasa profile at the scale BENCH_baseline.json was
// recorded at (cmd/reproduce -scale small).
func replayProfile() tracegen.Profile {
	p := tracegen.NASA()
	p.Days = 4
	p.SessionsPerDay /= 2
	p.Pages /= 2
	p.Browsers /= 2
	p.CrawlerPagesPerDay = 150
	return p
}

// replayExperiment is one figure of the batch.
type replayExperiment struct {
	name string
	run  func(w *experiments.Workload) (experiments.Headliner, error)
}

var replayBatch = []replayExperiment{
	{"fig3", func(w *experiments.Workload) (experiments.Headliner, error) {
		return experiments.RunFigure3(w, experiments.SweepConfig{})
	}},
	{"fig4", func(w *experiments.Workload) (experiments.Headliner, error) {
		return experiments.RunFigure4(w, experiments.SweepConfig{})
	}},
	{"baselines", func(w *experiments.Workload) (experiments.Headliner, error) {
		return experiments.RunBaselines(w)
	}},
}

// minReplayRuns is the fewest experiment runs a replay makes, so the
// p50 of their wall times has ten samples beyond it.
const minReplayRuns = 21

// runReplay is the paper-replay workload: a closed offline batch of the
// paper's PB-PPM figures on the nasa trace, repeated for the run length.
// Each experiment run is one unit of work; its wall time is the latency
// sample, and its replayed demand events over the CPU time it used are
// the throughput.
func runReplay(o options, traced bool) (*outcome, error) {
	out := &outcome{endToEnd: map[string]float64{}, layers: map[string]float64{}, info: map[string]any{}}
	base, err := benchreport.ReadFile(baselinePath)
	if err != nil {
		return nil, err
	}
	var (
		setupS []float64
		w      *experiments.Workload
	)
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		w, err = experiments.FromProfile(replayProfile())
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	var (
		wallMs, trainMs, simMs []float64
		events                 int64
		cpu                    time.Duration
		pb                     *experiments.Baselines
	)
	deadline := time.Now().Add(o.seconds)
	for time.Now().Before(deadline) || len(wallMs) < minReplayRuns {
		for _, e := range replayBatch {
			clock := sim.NewPhaseClock(nil)
			w.Hooks = experiments.Hooks{Phases: clock}
			t0, cpu0 := time.Now(), cpuTime()
			art, err := e.run(w)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", e.name, err)
			}
			wallMs = append(wallMs, ms(time.Since(t0)))
			cpu += cpuTime() - cpu0
			trainMs = append(trainMs, ms(clock.Total(sim.PhaseTrain)))
			simMs = append(simMs, ms(clock.Total(sim.PhaseSimulate)))
			events += clock.Events()
			out.attempted++
			if err := matchBaseline(base, e.name, art.Headline()); err != nil {
				out.failed++
				out.problem("%v", err)
			}
			if b, ok := art.(*experiments.Baselines); ok {
				pb = b
			}
		}
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	res := pb.Result(experiments.ModelPB)
	out.endToEnd["setup_s"] = median(setupS)
	out.endToEnd["served_per_cpu_s"] = float64(events) / cpu.Seconds()
	out.endToEnd["p50_ms"] = out.pct("p50 of the experiment runs", wallMs, 0.5)
	out.endToEnd["hit_ratio"] = res.HitRatio()
	out.endToEnd["precision"] = res.PrefetchPrecision()
	out.endToEnd["traffic_increase"] = res.TrafficIncrease()
	out.endToEnd["heap_mb"] = float64(mem.HeapAlloc) / 1e6
	out.info["experiment_runs"] = len(wallMs)
	out.info["p90_ms"], _ = percentile(wallMs, 0.9)
	out.info["train_s"] = median(trainMs) / 1e3

	if traced {
		l := out.layers
		fillZeroLayers(l)
		t0 := time.Now()
		tr, err := tracegen.Generate(replayProfile())
		if err != nil {
			return nil, err
		}
		l["tracegen.generate_ms"] = ms(time.Since(t0))
		t0 = time.Now()
		session.Sessionize(tr, session.Config{})
		l["session.sessionize_ms"] = ms(time.Since(t0))
		l["sim.train_ms"] = median(trainMs)
		l["sim.simulate_ms"] = median(simMs)
		l["sim.events"] = float64(events) / float64(len(wallMs))
		buildCost(l, w.DaySessions(0, w.Days()-1))
	}
	return out, nil
}

// matchBaseline requires every headline metric of one experiment to
// equal the committed nasa record exactly.
func matchBaseline(base *benchreport.Report, name string, got map[string]float64) error {
	rec := base.Find(name, "nasa")
	if rec == nil {
		return fmt.Errorf("%s: no nasa record in %s", name, baselinePath)
	}
	for k, want := range rec.Metrics {
		if v, ok := got[k]; !ok || v != want {
			return fmt.Errorf("%s: %s = %v, %s has %v", name, k, got[k], baselinePath, want)
		}
	}
	if len(got) != len(rec.Metrics) {
		return fmt.Errorf("%s: %d headline metrics, %s has %d", name, len(got), baselinePath, len(rec.Metrics))
	}
	return nil
}
