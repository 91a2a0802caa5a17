package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"pbppm/internal/core"
	"pbppm/internal/lrs"
	"pbppm/internal/metrics"
	"pbppm/internal/popularity"
	"pbppm/internal/ppm"
	"pbppm/internal/session"
	"pbppm/internal/topn"
	"pbppm/internal/tracegen"
)

// tracedWindows generates a two-day synthetic trace and splits its
// sessions into a day-0 training window and a day-1 test window.
func tracedWindows(t *testing.T) (train, test []session.Session) {
	t.Helper()
	p := tracegen.NASA()
	p.Days = 2
	p.SessionsPerDay = 300
	p.Pages = 200
	p.Browsers = 120
	p.CrawlerPagesPerDay = 100
	tr, err := tracegen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range session.Sessionize(tr, session.Config{}) {
		if s.Start().Sub(tr.Epoch) < 24*3600*1e9 {
			train = append(train, s)
		} else {
			test = append(test, s)
		}
	}
	if len(train) < 100 || len(test) == 0 {
		t.Fatalf("trace too small: %d train, %d test sessions", len(train), len(test))
	}
	return train, test
}

// mixedRuns returns fresh, untrained ppm, lrs, core and topn runs.
func mixedRuns(train []session.Session) []NamedRun {
	rank := popularity.NewRanking()
	for _, s := range train {
		for _, u := range s.URLs() {
			rank.Observe(u, 1)
		}
	}
	common := Options{Grades: rank}
	runs := []NamedRun{
		{Options: common},
		{Name: "3-PPM", Options: common},
		{Options: common},
		{Options: common},
		{Options: common},
	}
	runs[0].Options.Predictor = ppm.New(ppm.Config{})
	runs[1].Options.Predictor = ppm.New(ppm.Config{Height: 3})
	runs[2].Options.Predictor = lrs.New(lrs.Config{})
	runs[3].Options.Predictor = core.New(rank, core.Config{RelProbCutoff: 0.01, DropSingletons: true})
	runs[3].Options.MaxPrefetchBytes = PBMaxPrefetchBytes
	runs[4].Options.Predictor = topn.New(topn.Config{})
	return runs
}

// TestCompareMatchesSequentialRuns: Compare's concurrent jobs, with
// serial training inside each, must give exactly the results of
// training (sharded, via Train) and replaying one model at a time —
// every field, including the latency histogram, node counts and
// utilization — at any GOMAXPROCS.
func TestCompareMatchesSequentialRuns(t *testing.T) {
	train, test := tracedWindows(t)
	sizes := BuildSizeTable(train, test)

	// The reference trains through TrainAllParallel's shards and merge.
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	runs := mixedRuns(train)
	base := runs[0].Options
	base.Predictor = nil
	base.Sizes = sizes
	want := []metrics.Result{Run(test, base)}
	for _, r := range runs {
		Train(r.Options.Predictor, train)
		o := r.Options
		o.Sizes = sizes
		res := Run(test, o)
		if r.Name != "" {
			res.Model = r.Name
		}
		want = append(want, res)
	}
	for _, r := range want[1:] {
		if r.PrefetchHits == 0 {
			t.Fatalf("%s: no prefetch hits; the workload is too weak to compare", r.Model)
		}
	}

	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		got := Compare(train, test, mixedRuns(train))
		if len(got) != len(want) {
			t.Fatalf("GOMAXPROCS %d: %d results, want %d", procs, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("GOMAXPROCS %d: result %d (%s) differs from the sequential run:\n got  %+v\n want %+v",
					procs, i, want[i].Model, got[i], want[i])
			}
		}
	}
}

// TestCompareSerializesProgress: every job reports, and the jobs'
// OnProgress callbacks never run concurrently. The callback keeps
// unsynchronized state on purpose, so under -race an overlap (or any
// call without a happens-before edge to the next) is reported.
func TestCompareSerializesProgress(t *testing.T) {
	train, test := tracedWindows(t)
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	calls := map[string]int{}
	runs := mixedRuns(train)
	for i := range runs {
		name := runs[i].label()
		runs[i].Options.ProgressEvery = 50
		runs[i].Options.OnProgress = func(Progress) { calls[name]++ }
	}
	Compare(train, test, runs)
	// The baseline job reports under the first run's callback.
	if calls[runs[0].label()] < 2 {
		t.Errorf("%s callback called %d times, want its own run and the baseline's", runs[0].label(), calls[runs[0].label()])
	}
	for _, r := range runs[1:] {
		if calls[r.label()] == 0 {
			t.Errorf("%s never reported progress", r.label())
		}
	}
}

// TestCompareRejectsSharedPredictor: two runs holding one model
// instance would train it twice, concurrently; Compare refuses them
// and names both runs.
func TestCompareRejectsSharedPredictor(t *testing.T) {
	shared := ppm.New(ppm.Config{})
	runs := []NamedRun{
		{Name: "first", Options: Options{Predictor: shared}},
		{Options: Options{Predictor: lrs.New(lrs.Config{})}},
		{Name: "second", Options: Options{Predictor: shared}},
	}
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, `"first"`) || !strings.Contains(msg, `"second"`) {
			t.Errorf("panic %q does not name both runs", msg)
		}
	}()
	Compare(nil, nil, runs)
}

// TestParallelRunsEveryJobOnce covers job counts below, at and above
// the worker count.
func TestParallelRunsEveryJobOnce(t *testing.T) {
	for _, n := range []int{0, 1, 3, 17} {
		var mu sync.Mutex
		seen := make(map[int]int)
		Parallel(n, func(i int) {
			mu.Lock()
			seen[i]++
			mu.Unlock()
		})
		if len(seen) != n {
			t.Errorf("n=%d: %d distinct jobs ran", n, len(seen))
		}
		for i, c := range seen {
			if c != 1 || i < 0 || i >= n {
				t.Errorf("n=%d: job %d ran %d times", n, i, c)
			}
		}
	}
}
