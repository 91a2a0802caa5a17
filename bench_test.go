// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (regenerating the artifact at paper scale on the synthetic
// workloads), plus micro-benchmarks of the substrates. Domain results
// are attached as custom benchmark metrics so a run doubles as an
// experiment report:
//
//	go test -bench=. -benchmem
package pbppm

import (
	"strings"
	"sync"
	"testing"

	"pbppm/internal/experiments"
	"pbppm/internal/markov"
	"pbppm/internal/session"
	"pbppm/internal/sim"
	"pbppm/internal/trace"
	"pbppm/internal/tracegen"
)

var (
	benchNASAOnce sync.Once
	benchNASA     *experiments.Workload
	benchNASAErr  error
	benchUCBOnce  sync.Once
	benchUCB      *experiments.Workload
	benchUCBErr   error
)

func nasaWorkload(b *testing.B) *experiments.Workload {
	b.Helper()
	benchNASAOnce.Do(func() { benchNASA, benchNASAErr = experiments.NASAWorkload() })
	if benchNASAErr != nil {
		b.Fatal(benchNASAErr)
	}
	return benchNASA
}

func ucbWorkload(b *testing.B) *experiments.Workload {
	b.Helper()
	benchUCBOnce.Do(func() { benchUCB, benchUCBErr = experiments.UCBWorkload() })
	if benchUCBErr != nil {
		b.Fatal(benchUCBErr)
	}
	return benchUCB
}

// BenchmarkFigure2 regenerates Figure 2: the share of popular documents
// among prefetch hits and the path-utilization rates of 3-PPM, LRS-PPM,
// and PB-PPM over 1–7 training days (NASA-like workload).
func BenchmarkFigure2(b *testing.B) {
	w := nasaWorkload(b)
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFigure2(w, experiments.SweepConfig{})
		if err != nil {
			b.Fatal(err)
		}
		last := f.Rows[len(f.Rows)-1]
		b.ReportMetric(last.Results[experiments.ModelPB].PopularShareOfPrefetchHits(), "PB-popular-share")
		b.ReportMetric(last.Results[experiments.ModelPB].Utilization, "PB-utilization")
		b.ReportMetric(last.Results[experiments.Model3PPM].Utilization, "3PPM-utilization")
	}
}

// BenchmarkFigure3NASA regenerates Figure 3 (first and second panels):
// hit ratios and latency reductions on the NASA-like workload.
func BenchmarkFigure3NASA(b *testing.B) {
	w := nasaWorkload(b)
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFigure3(w, experiments.SweepConfig{})
		if err != nil {
			b.Fatal(err)
		}
		last := len(f.Rows) - 1
		b.ReportMetric(f.HitRatio(last, experiments.ModelPB), "PB-hit")
		b.ReportMetric(f.HitRatio(last, experiments.ModelPPM), "PPM-hit")
		b.ReportMetric(f.LatencyReduction(last, experiments.ModelPB), "PB-latred")
	}
}

// BenchmarkFigure3UCB regenerates Figure 3 (third and fourth panels) on
// the UCB-CS-like workload.
func BenchmarkFigure3UCB(b *testing.B) {
	w := ucbWorkload(b)
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFigure3(w, experiments.SweepConfig{})
		if err != nil {
			b.Fatal(err)
		}
		last := len(f.Rows) - 1
		b.ReportMetric(f.HitRatio(last, experiments.ModelPB), "PB-hit")
		b.ReportMetric(f.HitRatio(last, experiments.ModelPPM), "PPM-hit")
	}
}

// BenchmarkTable1 regenerates Table 1: node counts of the three models
// on the NASA-like workload for 1–7 training days.
func BenchmarkTable1(b *testing.B) {
	w := nasaWorkload(b)
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunSpaceTable(w, experiments.SweepConfig{})
		if err != nil {
			b.Fatal(err)
		}
		last := len(t.Rows) - 1
		b.ReportMetric(float64(t.Nodes(last, experiments.ModelPPM)), "PPM-nodes")
		b.ReportMetric(float64(t.Nodes(last, experiments.ModelLRS)), "LRS-nodes")
		b.ReportMetric(float64(t.Nodes(last, experiments.ModelPB)), "PB-nodes")
	}
}

// BenchmarkTable2 regenerates Table 2: node counts on the UCB-CS-like
// workload with both space optimizations enabled for PB-PPM.
func BenchmarkTable2(b *testing.B) {
	w := ucbWorkload(b)
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunSpaceTable(w, experiments.SweepConfig{})
		if err != nil {
			b.Fatal(err)
		}
		last := len(t.Rows) - 1
		b.ReportMetric(float64(t.Nodes(last, experiments.ModelLRS)), "LRS-nodes")
		b.ReportMetric(float64(t.Nodes(last, experiments.ModelPB)), "PB-nodes")
	}
}

// BenchmarkFigure4NASA regenerates Figure 4 (first and second panels):
// LRS-vs-PB space growth and traffic increments, NASA-like workload.
func BenchmarkFigure4NASA(b *testing.B) {
	w := nasaWorkload(b)
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFigure4(w, experiments.SweepConfig{})
		if err != nil {
			b.Fatal(err)
		}
		last := len(f.Rows) - 1
		b.ReportMetric(f.NodeRatio(last), "LRS/PB-nodes")
		b.ReportMetric(f.TrafficIncrease(last, experiments.ModelPB), "PB-traffic")
	}
}

// BenchmarkFigure4UCB regenerates Figure 4 (third and fourth panels) on
// the UCB-CS-like workload.
func BenchmarkFigure4UCB(b *testing.B) {
	w := ucbWorkload(b)
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFigure4(w, experiments.SweepConfig{})
		if err != nil {
			b.Fatal(err)
		}
		last := len(f.Rows) - 1
		b.ReportMetric(f.NodeRatio(last), "LRS/PB-nodes")
		b.ReportMetric(f.TrafficIncrease(last, experiments.ModelLRS), "LRS-traffic")
		b.ReportMetric(f.TrafficIncrease(last, experiments.ModelPB), "PB-traffic")
	}
}

// BenchmarkFigure5 regenerates Figure 5: proxy hit ratios and traffic
// increments for 1–32 clients behind a shared proxy.
func BenchmarkFigure5(b *testing.B) {
	w := nasaWorkload(b)
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFigure5(w, experiments.Figure5Config{})
		if err != nil {
			b.Fatal(err)
		}
		last := len(f.ClientCounts) - 1
		b.ReportMetric(f.Results[last][experiments.ModelPB10KB].HitRatio(), "PB10KB-hit-32c")
		b.ReportMetric(f.Results[last][experiments.ModelPB4KB].TrafficIncrease(), "PB4KB-traffic-32c")
	}
}

// BenchmarkAblationThresholds sweeps PB-PPM's probability and size
// thresholds (the hit/traffic trade-off knob of §4.1 and §5).
func BenchmarkAblationThresholds(b *testing.B) {
	w := nasaWorkload(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationThresholds(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSpaceOpt compares PB-PPM's space optimizations
// (§3.4's two alternatives).
func BenchmarkAblationSpaceOpt(b *testing.B) {
	w := nasaWorkload(b)
	for i := 0; i < b.N; i++ {
		a, err := experiments.RunAblationSpaceOpt(w)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(a.Rows[0].Result.Nodes), "nodes-raw")
		b.ReportMetric(float64(a.Rows[len(a.Rows)-1].Result.Nodes), "nodes-optimized")
	}
}

// BenchmarkAblationHeights sweeps the grade→height mapping.
func BenchmarkAblationHeights(b *testing.B) {
	w := nasaWorkload(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationHeights(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLinks isolates rule 3 (popular-node links).
func BenchmarkAblationLinks(b *testing.B) {
	w := nasaWorkload(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationLinks(w); err != nil {
			b.Fatal(err)
		}
	}
}

// ----- micro-benchmarks of the substrates -----

func benchSessions(b *testing.B, w *experiments.Workload, days int) []session.Session {
	b.Helper()
	s := w.DaySessions(0, days)
	if len(s) == 0 {
		b.Fatal("no sessions")
	}
	return s
}

// BenchmarkTrainPBPPM measures PB-PPM model construction throughput
// (sessions folded per op: one full 5-day training window).
func BenchmarkTrainPBPPM(b *testing.B) {
	w := nasaWorkload(b)
	train := benchSessions(b, w, 5)
	rank := experiments.Ranking(train)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewPopularityPPM(rank, PopularityPPMConfig{RelProbCutoff: 0.01, DropSingletons: true})
		sim.Train(m, train)
	}
}

// BenchmarkTrainStandardPPM measures unbounded standard PPM training on
// the same window (the memory-hungry baseline).
func BenchmarkTrainStandardPPM(b *testing.B) {
	w := nasaWorkload(b)
	train := benchSessions(b, w, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewStandardPPM(PPMConfig{})
		sim.Train(m, train)
	}
}

// BenchmarkTrainLRS measures LRS training plus its repeat-pruning
// rebuild.
func BenchmarkTrainLRS(b *testing.B) {
	w := nasaWorkload(b)
	train := benchSessions(b, w, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewLRS(LRSConfig{})
		sim.Train(m, train)
	}
}

// BenchmarkPredictPBPPM measures single-prediction latency on a trained
// PB-PPM model — the per-request server overhead the paper argues is
// low thanks to the compact tree.
func BenchmarkPredictPBPPM(b *testing.B) {
	w := nasaWorkload(b)
	train := benchSessions(b, w, 5)
	rank := experiments.Ranking(train)
	m := NewPopularityPPM(rank, PopularityPPMConfig{RelProbCutoff: 0.01, DropSingletons: true})
	sim.Train(m, train)
	contexts := make([][]string, 0, 256)
	for _, s := range w.DaySessions(5, 6) {
		urls := s.URLs()
		for j := range urls {
			contexts = append(contexts, urls[:j+1])
			if len(contexts) == cap(contexts) {
				break
			}
		}
		if len(contexts) == cap(contexts) {
			break
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(contexts[i%len(contexts)])
	}
}

// BenchmarkPredictFrozenPBPPM measures the arena serving path: the same
// trained PB-PPM model frozen into its flat arena and driven through
// PredictInto with a reused scratch buffer. CI runs this with -benchmem
// and fails if it reports any allocations — the zero-allocation gate on
// the frozen serving path.
func BenchmarkPredictFrozenPBPPM(b *testing.B) {
	w := nasaWorkload(b)
	train := benchSessions(b, w, 5)
	rank := experiments.Ranking(train)
	m := NewPopularityPPM(rank, PopularityPPMConfig{RelProbCutoff: 0.01, DropSingletons: true})
	sim.Train(m, train)
	frozen := m.Freeze().(BufferedPredictor)
	contexts := make([][]string, 0, 256)
	for _, s := range w.DaySessions(5, 6) {
		urls := s.URLs()
		for j := range urls {
			contexts = append(contexts, urls[:j+1])
			if len(contexts) == cap(contexts) {
				break
			}
		}
		if len(contexts) == cap(contexts) {
			break
		}
	}
	// Warm pass: grow the scratch buffer to steady-state capacity so the
	// measured loop is pure reuse.
	var buf []Prediction
	for _, ctx := range contexts {
		buf = frozen.PredictInto(ctx, buf)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = frozen.PredictInto(contexts[i%len(contexts)], buf)
	}
}

// BenchmarkTrainAllSerial measures serial session-by-session training
// of the height-3 standard PPM model over the 5-day window — the
// baseline for the sharded-training comparison below. CI runs the pair
// with GOGC pinned as a train-throughput smoke.
func BenchmarkTrainAllSerial(b *testing.B) {
	w := nasaWorkload(b)
	seqs := sim.URLSequences(benchSessions(b, w, 5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		markov.TrainAll(NewStandardPPM(PPMConfig{Height: 3}), seqs)
	}
}

// BenchmarkTrainAllParallel is the same workload through
// markov.TrainAllParallel: sessions sharded by head URL across
// GOMAXPROCS workers and merged. On a single-CPU runner it falls back
// to serial, so the pair also guards against the sharding machinery
// regressing the serial path.
func BenchmarkTrainAllParallel(b *testing.B) {
	w := nasaWorkload(b)
	seqs := sim.URLSequences(benchSessions(b, w, 5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		markov.TrainAllParallel(NewStandardPPM(PPMConfig{Height: 3}), seqs)
	}
}

// BenchmarkReplayDay measures the simulator replaying one full test day
// against a trained PB-PPM model.
func BenchmarkReplayDay(b *testing.B) {
	w := nasaWorkload(b)
	train := benchSessions(b, w, 5)
	test := w.DaySessions(5, 6)
	rank := experiments.Ranking(train)
	m := NewPopularityPPM(rank, PopularityPPMConfig{RelProbCutoff: 0.01, DropSingletons: true})
	sim.Train(m, train)
	opt := sim.Options{
		Predictor: m, MaxPrefetchBytes: sim.PBMaxPrefetchBytes,
		Path: w.Path, Grades: rank, Sizes: w.Sizes,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(test, opt)
	}
}

// BenchmarkGenerateTrace measures synthetic workload generation.
func BenchmarkGenerateTrace(b *testing.B) {
	p := tracegen.NASA()
	p.Days = 2
	for i := 0; i < b.N; i++ {
		if _, err := tracegen.Generate(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionize measures session splitting and embedded-object
// folding over the full NASA-like trace.
func BenchmarkSessionize(b *testing.B) {
	w := nasaWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		session.Sessionize(w.Trace, session.Config{})
	}
}

// BenchmarkParseCLF measures Common Log Format parsing.
func BenchmarkParseCLF(b *testing.B) {
	w := nasaWorkload(b)
	var sb strings.Builder
	for _, r := range w.Trace.Records[:1000] {
		sb.WriteString(trace.MarshalCLF(r))
		sb.WriteByte('\n')
	}
	text := sb.String()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := trace.ReadCLF(strings.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselinesTop10 regenerates the related-work comparison:
// context-free Top-10 pushing vs the three context models.
func BenchmarkBaselinesTop10(b *testing.B) {
	w := nasaWorkload(b)
	for i := 0; i < b.N; i++ {
		bl, err := experiments.RunBaselines(w)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(bl.Result(experiments.ModelTop10).HitRatio(), "Top10-hit")
		b.ReportMetric(bl.Result(experiments.ModelPB).HitRatio(), "PB-hit")
	}
}

// BenchmarkAblationCachePolicy compares LRU vs GDSF browser caches.
func BenchmarkAblationCachePolicy(b *testing.B) {
	w := nasaWorkload(b)
	for i := 0; i < b.N; i++ {
		a, err := experiments.RunAblationCachePolicy(w)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(a.Rows[0].Result.HitRatio(), "LRU-hit")
		b.ReportMetric(a.Rows[1].Result.HitRatio(), "GDSF-hit")
	}
}

// BenchmarkAblationBlending compares longest-match and variable-order
// blended prediction on the standard model.
func BenchmarkAblationBlending(b *testing.B) {
	w := nasaWorkload(b)
	for i := 0; i < b.N; i++ {
		a, err := experiments.RunAblationBlending(w)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(a.Rows[0].Result.HitRatio(), "longest-hit")
		b.ReportMetric(a.Rows[1].Result.HitRatio(), "blended-hit")
	}
}

// BenchmarkAblationOnlineTraining compares frozen vs online-updated
// PB-PPM during the evaluation day.
func BenchmarkAblationOnlineTraining(b *testing.B) {
	w := nasaWorkload(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationOnlineTraining(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaintenance runs the static-vs-daily-rebuild study.
func BenchmarkMaintenance(b *testing.B) {
	w := nasaWorkload(b)
	for i := 0; i < b.N; i++ {
		m, err := experiments.RunMaintenance(w)
		if err != nil {
			b.Fatal(err)
		}
		last := len(m.Days) - 1
		b.ReportMetric(m.Static[last].HitRatio(), "static-hit-day7")
		b.ReportMetric(m.Daily[last].HitRatio(), "daily-hit-day7")
	}
}

var (
	benchReplayOnce sync.Once
	benchReplay     *experiments.Workload
	benchReplayErr  error
)

// replayWorkload is the nasa workload at the scale BENCH_baseline.json
// was recorded at (cmd/reproduce -scale small).
func replayWorkload(b *testing.B) *experiments.Workload {
	b.Helper()
	benchReplayOnce.Do(func() {
		p := tracegen.NASA()
		p.Days = 4
		p.SessionsPerDay /= 2
		p.Pages /= 2
		p.Browsers /= 2
		p.CrawlerPagesPerDay = 150
		benchReplay, benchReplayErr = experiments.FromProfile(p)
	})
	if benchReplayErr != nil {
		b.Fatal(benchReplayErr)
	}
	return benchReplay
}

// BenchmarkPaperReplayBatch runs one batch of the offline paper replay:
// Figure 3, Figure 4 and the Top-10 baselines on the small-scale nasa
// workload, each training every model and replaying every test event.
// It reports the replayed demand events per op, so a CPU profile of it
// (-cpuprofile) shows where the replay's time goes.
func BenchmarkPaperReplayBatch(b *testing.B) {
	w := replayWorkload(b)
	clock := sim.NewPhaseClock(nil)
	w.Hooks = experiments.Hooks{Phases: clock}
	defer func() { w.Hooks = experiments.Hooks{} }()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure3(w, experiments.SweepConfig{}); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.RunFigure4(w, experiments.SweepConfig{}); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.RunBaselines(w); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(clock.Events())/float64(b.N), "events/op")
}
