package experiments

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"pbppm/internal/markov"
	"pbppm/internal/sim"
	"pbppm/internal/trace"
	"pbppm/internal/tracegen"
)

func TestWorkloadConstruction(t *testing.T) {
	w := testNASA(t)
	if w.Name != "nasa" {
		t.Errorf("Name = %q", w.Name)
	}
	if w.Days() < 3 {
		t.Errorf("Days = %d", w.Days())
	}
	if len(w.Sizes) == 0 {
		t.Error("empty size table")
	}
	if w.Path.ClientServer.Connect <= 0 {
		t.Error("latency path not fitted")
	}
	if !w.DropSingletons {
		t.Error("DropSingletons not defaulted")
	}
	// DaySessions partitions the sessions by start day.
	total := 0
	for d := 0; d < w.Days()+1; d++ {
		total += len(w.DaySessions(d, d+1))
	}
	if total != len(w.Sessions) {
		t.Errorf("day partition holds %d sessions, want %d", total, len(w.Sessions))
	}
	if got := len(w.DaySessions(0, w.Days()+1)); got != len(w.Sessions) {
		t.Errorf("full window = %d sessions, want %d", got, len(w.Sessions))
	}
}

func TestNewWorkloadErrors(t *testing.T) {
	if _, err := NewWorkload("empty", &trace.Trace{}); err == nil {
		t.Error("empty trace accepted")
	}
	bad := tracegen.NASA()
	bad.Days = 0
	if _, err := FromProfile(bad); err == nil {
		t.Error("invalid profile accepted")
	}
}

func TestRankingFromSessions(t *testing.T) {
	w := testNASA(t)
	train := w.DaySessions(0, 2)
	rk := Ranking(train)
	if rk.Len() == 0 || rk.MaxCount() == 0 {
		t.Fatal("empty ranking")
	}
	// The most popular URL must be one of the top entry pages.
	top := rk.Top(1)[0]
	if rk.GradeOf(top) != 3 {
		t.Errorf("top URL grade = %v", rk.GradeOf(top))
	}
}

func TestSweepShapes(t *testing.T) {
	w := testNASA(t)
	rows, err := Sweep(w, SweepConfig{MaxTrainDays: 3, Include3PPM: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	last := rows[len(rows)-1]

	base := last.Results[ModelNone]
	for _, m := range []string{ModelPPM, Model3PPM, ModelLRS, ModelPB} {
		r := last.Results[m]
		if r.Requests != base.Requests {
			t.Errorf("%s evaluated %d requests, baseline %d", m, r.Requests, base.Requests)
		}
		if r.HitRatio() <= base.HitRatio() {
			t.Errorf("%s hit %.3f not above baseline %.3f", m, r.HitRatio(), base.HitRatio())
		}
		if r.TrafficIncrease() < 0 {
			t.Errorf("%s negative traffic increase", m)
		}
		if r.Utilization < 0 || r.Utilization > 1 {
			t.Errorf("%s utilization %v out of range", m, r.Utilization)
		}
		if r.LatencyReductionVs(base) <= 0 {
			t.Errorf("%s latency reduction not positive", m)
		}
	}

	// Space ordering (the paper's headline): standard >> LRS > PB.
	ppmN := last.Results[ModelPPM].Nodes
	lrsN := last.Results[ModelLRS].Nodes
	pbN := last.Results[ModelPB].Nodes
	if !(ppmN > lrsN && lrsN > pbN) {
		t.Errorf("node ordering violated: PPM %d, LRS %d, PB %d", ppmN, lrsN, pbN)
	}
	if ppmN < 10*lrsN {
		t.Errorf("standard model not dramatically larger: PPM %d vs LRS %d", ppmN, lrsN)
	}

	// The LRS/PB gap widens with training days.
	first := rows[0]
	ratioFirst := float64(first.Results[ModelLRS].Nodes) / float64(first.Results[ModelPB].Nodes)
	ratioLast := float64(lrsN) / float64(pbN)
	if ratioLast <= ratioFirst {
		t.Errorf("LRS/PB ratio did not grow: %.2f -> %.2f", ratioFirst, ratioLast)
	}

	// PB-PPM stays competitive at this reduced test scale; its strict
	// hit-ratio win is asserted at paper scale in
	// TestFullScaleNASAShapes, where the popularity ranking has enough
	// data to separate the grades.
	if last.Results[ModelPB].HitRatio() < last.Results[ModelLRS].HitRatio()-0.05 {
		t.Errorf("PB hit %.3f far below LRS %.3f",
			last.Results[ModelPB].HitRatio(), last.Results[ModelLRS].HitRatio())
	}
}

func TestSweepErrors(t *testing.T) {
	w := testNASA(t)
	if _, err := Sweep(w, SweepConfig{MaxTrainDays: 99}); err == nil {
		t.Error("oversized sweep accepted")
	}
}

func TestFigure2Shapes(t *testing.T) {
	w := testNASA(t)
	f, err := RunFigure2(w, SweepConfig{MaxTrainDays: 3})
	if err != nil {
		t.Fatal(err)
	}
	last := f.Rows[len(f.Rows)-1]
	// Popular documents dominate prefetch hits for every model, and
	// PB-PPM has the highest share (Figure 2 left).
	for _, m := range f.Models() {
		if got := last.Results[m].PopularShareOfPrefetchHits(); got < 0.5 {
			t.Errorf("%s popular share = %.3f, want > 0.5", m, got)
		}
	}
	pbShare := last.Results[ModelPB].PopularShareOfPrefetchHits()
	for _, m := range []string{Model3PPM, ModelLRS} {
		if pbShare < last.Results[m].PopularShareOfPrefetchHits()-0.02 {
			t.Errorf("PB popular share %.3f below %s", pbShare, m)
		}
	}
	// PB-PPM's path utilization is the highest (Figure 2 right), and
	// the standard model's decays as days accumulate.
	pbU := last.Results[ModelPB].Utilization
	for _, m := range []string{Model3PPM, ModelLRS} {
		if pbU <= last.Results[m].Utilization {
			t.Errorf("PB utilization %.3f not above %s %.3f",
				pbU, m, last.Results[m].Utilization)
		}
	}
	if f.Rows[0].Results[Model3PPM].Utilization <= last.Results[Model3PPM].Utilization {
		t.Error("3-PPM utilization did not decay with days")
	}
	out := f.String()
	for _, want := range []string{"Figure 2 (left)", "Figure 2 (right)", Model3PPM, ModelPB} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q", want)
		}
	}
}

func TestFigure3Accessors(t *testing.T) {
	w := testNASA(t)
	f, err := RunFigure3(w, SweepConfig{MaxTrainDays: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.HitRatio(0, ModelPB); got <= 0 || got >= 1 {
		t.Errorf("HitRatio = %v", got)
	}
	if got := f.LatencyReduction(0, ModelPB); got <= 0 {
		t.Errorf("LatencyReduction = %v", got)
	}
	out := f.String()
	if !strings.Contains(out, "hit ratio") || !strings.Contains(out, "latency reduction") {
		t.Errorf("rendering:\n%s", out)
	}
}

func TestSpaceTable(t *testing.T) {
	w := testNASA(t)
	tb, err := RunSpaceTable(w, SweepConfig{MaxTrainDays: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tb.Nodes(0, ModelPPM) <= 0 || tb.Nodes(1, ModelPB) <= 0 {
		t.Error("zero node counts")
	}
	if tb.Nodes(1, ModelPPM) <= tb.Nodes(0, ModelPPM) {
		t.Error("standard model nodes did not grow with days")
	}
	out := tb.String()
	if !strings.Contains(out, "space size in number of nodes") || !strings.Contains(out, "2d") {
		t.Errorf("rendering:\n%s", out)
	}
}

func TestFigure4Shapes(t *testing.T) {
	w := testNASA(t)
	f, err := RunFigure4(w, SweepConfig{MaxTrainDays: 3})
	if err != nil {
		t.Fatal(err)
	}
	lastRow := len(f.Rows) - 1
	if f.NodeRatio(lastRow) <= 1 {
		t.Errorf("LRS/PB node ratio = %.2f, want > 1", f.NodeRatio(lastRow))
	}
	if f.NodeRatio(lastRow) <= f.NodeRatio(0) {
		t.Errorf("node ratio did not grow: %.2f -> %.2f", f.NodeRatio(0), f.NodeRatio(lastRow))
	}
	for _, m := range []string{ModelPPM, ModelLRS, ModelPB} {
		if got := f.TrafficIncrease(lastRow, m); got < 0 {
			t.Errorf("%s traffic = %v", m, got)
		}
	}
	out := f.String()
	if !strings.Contains(out, "number of nodes") || !strings.Contains(out, "traffic increase rate") {
		t.Errorf("rendering:\n%s", out)
	}
}

func TestFigure5Shapes(t *testing.T) {
	w := testNASA(t)
	f, err := RunFigure5(w, Figure5Config{ClientCounts: []int{1, 4, 16}})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.ClientCounts) != 3 {
		t.Fatalf("client counts = %v", f.ClientCounts)
	}
	for i := range f.ClientCounts {
		for _, m := range f.Models() {
			r := f.Results[i][m]
			if r.Requests == 0 {
				t.Fatalf("%s with %d clients saw no requests", m, f.ClientCounts[i])
			}
			if hr := r.HitRatio(); hr <= 0 || hr > 1 {
				t.Errorf("%s hit ratio %v", m, hr)
			}
		}
	}
	// Hit ratio grows with the client population for every model
	// (shared proxy cache effects).
	for _, m := range f.Models() {
		if f.Results[2][m].HitRatio() <= f.Results[0][m].HitRatio() {
			t.Errorf("%s hit ratio did not grow with clients: %.3f -> %.3f",
				m, f.Results[0][m].HitRatio(), f.Results[2][m].HitRatio())
		}
	}
	// The 4 KB threshold moves less prefetch traffic than 10 KB.
	if f.Results[2][ModelPB4KB].PrefetchedBytes >= f.Results[2][ModelPB10KB].PrefetchedBytes {
		t.Error("4KB threshold did not reduce prefetched bytes")
	}
	out := f.String()
	if !strings.Contains(out, "proxy hit ratio") || !strings.Contains(out, ModelPB4KB) {
		t.Errorf("rendering:\n%s", out)
	}
}

func TestFigure5Errors(t *testing.T) {
	w := testNASA(t)
	if _, err := RunFigure5(w, Figure5Config{TrainDays: 99}); err == nil {
		t.Error("bad train days accepted")
	}
}

func TestAblationThresholds(t *testing.T) {
	w := testNASA(t)
	a, err := RunAblationThresholds(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 9 {
		t.Fatalf("rows = %d, want 9 (3 prob x 3 size)", len(a.Rows))
	}
	byLabel := map[string]AblationRow{}
	for _, r := range a.Rows {
		byLabel[r.Label] = r
	}
	// At fixed probability, a larger size threshold prefetches at least
	// as many bytes (the paper's hit/traffic trade-off lever).
	lo := byLabel["p>=0.25 size<=4KB"].Result
	hi := byLabel["p>=0.25 size<=30KB"].Result
	if hi.PrefetchedBytes < lo.PrefetchedBytes {
		t.Error("larger size threshold moved fewer bytes")
	}
	if hi.HitRatio() < lo.HitRatio() {
		t.Error("larger size threshold lowered the hit ratio")
	}
	// At fixed size, a stricter probability threshold prefetches less.
	strict := byLabel["p>=0.40 size<=10KB"].Result
	loose := byLabel["p>=0.10 size<=10KB"].Result
	if strict.PrefetchedDocs > loose.PrefetchedDocs {
		t.Error("stricter probability pushed more documents")
	}
	if !strings.Contains(a.String(), "thresholds") {
		t.Error("rendering missing title")
	}
}

func TestAblationSpaceOpt(t *testing.T) {
	w := testNASA(t)
	a, err := RunAblationSpaceOpt(w)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]AblationRow{}
	for _, r := range a.Rows {
		byLabel[r.Label] = r
	}
	raw := byLabel["no optimization"].Result
	cut1 := byLabel["rel-prob 1% cut"].Result
	both := byLabel["1% cut + drop singletons"].Result
	if !(raw.Nodes >= cut1.Nodes && cut1.Nodes > both.Nodes) {
		t.Errorf("space optimizations did not shrink the tree: %d, %d, %d",
			raw.Nodes, cut1.Nodes, both.Nodes)
	}
	// The optimizations must not devastate the hit ratio.
	if both.HitRatio() < raw.HitRatio()-0.10 {
		t.Errorf("optimizations cost too much hit ratio: %.3f -> %.3f",
			raw.HitRatio(), both.HitRatio())
	}
}

func TestAblationHeights(t *testing.T) {
	w := testNASA(t)
	a, err := RunAblationHeights(w)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]AblationRow{}
	for _, r := range a.Rows {
		byLabel[r.Label] = r
	}
	paper := byLabel["paper 1/3/5/7"].Result
	minimal := byLabel["minimal 1/1/1/1"].Result
	tall := byLabel["flat 7/7/7/7"].Result
	if paper.HitRatio() <= minimal.HitRatio() {
		t.Errorf("graded heights %.3f not above minimal %.3f",
			paper.HitRatio(), minimal.HitRatio())
	}
	if paper.Nodes > tall.Nodes {
		t.Errorf("graded heights %d nodes above flat-7 %d", paper.Nodes, tall.Nodes)
	}
	if minimal.Nodes > paper.Nodes {
		t.Errorf("minimal heights %d nodes above graded %d", minimal.Nodes, paper.Nodes)
	}
}

func TestAblationLinks(t *testing.T) {
	w := testNASA(t)
	a, err := RunAblationLinks(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 2 {
		t.Fatalf("rows = %d", len(a.Rows))
	}
	with := a.Rows[0].Result
	without := a.Rows[1].Result
	if with.HitRatio() < without.HitRatio() {
		t.Errorf("links lowered the hit ratio: %.3f vs %.3f",
			with.HitRatio(), without.HitRatio())
	}
	if with.PrefetchedDocs <= without.PrefetchedDocs {
		t.Error("links did not add prefetch candidates")
	}
}

func TestUCBWorkloadShapes(t *testing.T) {
	w := testUCB(t)
	rows, err := Sweep(w, SweepConfig{MaxTrainDays: 3})
	if err != nil {
		t.Fatal(err)
	}
	last := rows[len(rows)-1]
	// On the irregular workload PB-PPM's hit ratio may trail the
	// standard model (the paper reports it ~2% lower), but its space
	// advantage must be dramatic: the cost-effectiveness claim.
	ppmN := last.Results[ModelPPM].Nodes
	pbN := last.Results[ModelPB].Nodes
	lrsN := last.Results[ModelLRS].Nodes
	if pbN >= lrsN || lrsN >= ppmN {
		t.Errorf("node ordering violated: PPM %d, LRS %d, PB %d", ppmN, lrsN, pbN)
	}
	gap := last.Results[ModelPPM].HitRatio() - last.Results[ModelPB].HitRatio()
	if gap > 0.10 {
		t.Errorf("PB hit ratio trails standard by %.3f, want within 0.10", gap)
	}
}

func TestBaselinesTop10(t *testing.T) {
	w := testNASA(t)
	b, err := RunBaselines(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Results) != 5 {
		t.Fatalf("results = %d, want 5 (none + 4 models)", len(b.Results))
	}
	top := b.Result(ModelTop10)
	pb := b.Result(ModelPB)
	base := b.Result(ModelNone)
	if top.Requests == 0 || top.Model != ModelTop10 {
		t.Fatalf("Top-10 result missing: %+v", top)
	}
	// Context-free pushing beats no prefetching at all...
	if top.HitRatio() <= base.HitRatio() {
		t.Errorf("Top-10 hit %.3f not above baseline %.3f", top.HitRatio(), base.HitRatio())
	}
	// ...but the context-aware popularity model beats it.
	if pb.HitRatio() <= top.HitRatio() {
		t.Errorf("PB hit %.3f not above Top-10 %.3f", pb.HitRatio(), top.HitRatio())
	}
	// Top-10's storage is the smallest of all models.
	for _, m := range []string{ModelPPM, ModelLRS, ModelPB} {
		if top.Nodes >= b.Result(m).Nodes {
			t.Errorf("Top-10 nodes %d not below %s %d", top.Nodes, m, b.Result(m).Nodes)
		}
	}
	if got := b.String(); !contains(got, "Top-10") || !contains(got, "PB-PPM") {
		t.Errorf("rendering:\n%s", got)
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }

func TestAblationCachePolicy(t *testing.T) {
	w := testNASA(t)
	a, err := RunAblationCachePolicy(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 2 {
		t.Fatalf("rows = %d", len(a.Rows))
	}
	for _, r := range a.Rows {
		if r.Result.HitRatio() <= 0 {
			t.Errorf("%s: hit ratio %v", r.Label, r.Result.HitRatio())
		}
	}
	// With 1 MB caches and small docs both policies work; they must at
	// least be in the same regime (within 10 points).
	diff := a.Rows[0].Result.HitRatio() - a.Rows[1].Result.HitRatio()
	if diff > 0.10 || diff < -0.10 {
		t.Errorf("cache policies diverge implausibly: %.3f vs %.3f",
			a.Rows[0].Result.HitRatio(), a.Rows[1].Result.HitRatio())
	}
}

func TestMaintenanceExperiment(t *testing.T) {
	w := testNASA(t)
	m, err := RunMaintenance(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Days) < 2 {
		t.Fatalf("days evaluated = %d", len(m.Days))
	}
	// By the final day, the daily-rebuilt model has seen several days
	// of history and must beat (or match) the static day-0 model.
	last := len(m.Days) - 1
	if m.Daily[last].HitRatio() < m.Static[last].HitRatio()-0.01 {
		t.Errorf("daily rebuild %.3f below static %.3f on final day",
			m.Daily[last].HitRatio(), m.Static[last].HitRatio())
	}
	// The static model never grows; the daily one does.
	if m.Daily[last].Nodes <= m.Static[last].Nodes {
		t.Errorf("daily model nodes %d not above static %d",
			m.Daily[last].Nodes, m.Static[last].Nodes)
	}
	if !strings.Contains(m.String(), "daily rebuilds") {
		t.Error("rendering missing title")
	}
}

// TestCSVExports drives every artifact's CSV writer and sanity-checks
// header and row counts.
func TestCSVExports(t *testing.T) {
	w := testNASA(t)
	check := func(name string, cw CSVWriter, wantHeader string, minRows int) {
		t.Helper()
		var buf strings.Builder
		if err := cw.WriteCSV(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if !strings.HasPrefix(lines[0], wantHeader) {
			t.Errorf("%s header = %q", name, lines[0])
		}
		if len(lines)-1 < minRows {
			t.Errorf("%s rows = %d, want >= %d", name, len(lines)-1, minRows)
		}
	}

	f2, err := RunFigure2(w, SweepConfig{MaxTrainDays: 2})
	if err != nil {
		t.Fatal(err)
	}
	check("figure2", f2, "days,model", 6)

	f3, err := RunFigure3(w, SweepConfig{MaxTrainDays: 2})
	if err != nil {
		t.Fatal(err)
	}
	check("figure3", f3, "days,model", 8)

	st, err := RunSpaceTable(w, SweepConfig{MaxTrainDays: 2})
	if err != nil {
		t.Fatal(err)
	}
	check("spacetable", st, "days,model", 6)

	f4, err := RunFigure4(w, SweepConfig{MaxTrainDays: 2})
	if err != nil {
		t.Fatal(err)
	}
	check("figure4", f4, "days,model", 6)

	f5, err := RunFigure5(w, Figure5Config{ClientCounts: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	check("figure5", f5, "clients,model", 8)

	bl, err := RunBaselines(w)
	if err != nil {
		t.Fatal(err)
	}
	check("baselines", bl, "model,hit_ratio", 5)

	mn, err := RunMaintenance(w)
	if err != nil {
		t.Fatal(err)
	}
	check("maintenance", mn, "day,static_hit", 2)

	mc, err := RunMaintenanceCost(w)
	if err != nil {
		t.Fatal(err)
	}
	check("maintenance-cost", mc, "day,delta_seconds", 1)

	ab, err := RunAblationLinks(w)
	if err != nil {
		t.Fatal(err)
	}
	check("ablation", ab, "variant,hit_ratio", 2)
}

func TestAblationBlending(t *testing.T) {
	w := testNASA(t)
	a, err := RunAblationBlending(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 2 {
		t.Fatalf("rows = %d", len(a.Rows))
	}
	longest, blended := a.Rows[0].Result, a.Rows[1].Result
	if blended.HitRatio() <= 0 || longest.HitRatio() <= 0 {
		t.Error("degenerate results")
	}
	// Blending collects candidates from every order, so it pushes at
	// least as many documents as longest-match.
	if blended.PrefetchedDocs < longest.PrefetchedDocs {
		t.Errorf("blending pushed fewer docs: %d vs %d",
			blended.PrefetchedDocs, longest.PrefetchedDocs)
	}
}

// TestSweepDeterminism: the whole pipeline is seeded, so repeated runs
// must agree bit-for-bit — including a sweep whose windows and models
// run one at a time (GOMAXPROCS 1) against one that runs them
// concurrently (GOMAXPROCS 4), on every DayResult field.
func TestSweepDeterminism(t *testing.T) {
	w := testNASA(t)
	sweepAt := func(procs int) []DayResult {
		t.Helper()
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		out, err := Sweep(w, SweepConfig{MaxTrainDays: 2})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := sweepAt(1), sweepAt(4)
	if len(a) != 2 || len(b) != len(a) {
		t.Fatalf("sweeps returned %d and %d windows, want 2", len(a), len(b))
	}
	for i := range a {
		if a[i].TrainDays != i+1 || b[i].TrainDays != i+1 {
			t.Errorf("window %d: TrainDays %d and %d, want %d", i, a[i].TrainDays, b[i].TrainDays, i+1)
		}
		if len(a[i].Results) != len(b[i].Results) {
			t.Errorf("day %d: %d vs %d models", a[i].TrainDays, len(a[i].Results), len(b[i].Results))
		}
		for m, ra := range a[i].Results {
			if rb, ok := b[i].Results[m]; !ok || !reflect.DeepEqual(ra, rb) {
				t.Errorf("day %d %s: serial and concurrent sweeps disagree:\n %+v\n %+v", a[i].TrainDays, m, ra, rb)
			}
		}
	}
}

// TestSweepHooksUnderConcurrency: with its windows running
// concurrently, Sweep still never overlaps OnProgress calls, and
// OnModel sees every window's models in k order once all windows have
// finished.
func TestSweepHooksUnderConcurrency(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	wc := *testNASA(t)
	var (
		models   []string
		progress int // unsynchronized on purpose: the race detector checks the contract
	)
	wc.Hooks = Hooks{
		OnModel:       func(m string, _ markov.TreeStats) { models = append(models, m) },
		OnProgress:    func(sim.Progress) { progress++ },
		ProgressEvery: 500,
	}
	if _, err := Sweep(&wc, SweepConfig{MaxTrainDays: 3}); err != nil {
		t.Fatal(err)
	}
	var want []string
	for k := 1; k <= 3; k++ {
		want = append(want, ModelPPM, ModelLRS, ModelPB)
	}
	if !reflect.DeepEqual(models, want) {
		t.Errorf("OnModel order = %v, want %v", models, want)
	}
	if progress == 0 {
		t.Error("OnProgress never called")
	}
}

func TestAblationOnlineTraining(t *testing.T) {
	w := testNASA(t)
	a, err := RunAblationOnlineTraining(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 2 {
		t.Fatalf("rows = %d", len(a.Rows))
	}
	frozen, online := a.Rows[0].Result, a.Rows[1].Result
	// Online updates grow the tree during the test day.
	if online.Nodes <= frozen.Nodes {
		t.Errorf("online nodes %d not above frozen %d", online.Nodes, frozen.Nodes)
	}
	if online.HitRatio() < frozen.HitRatio()-0.02 {
		t.Errorf("online training hurt the hit ratio badly: %.3f vs %.3f",
			online.HitRatio(), frozen.HitRatio())
	}
}
