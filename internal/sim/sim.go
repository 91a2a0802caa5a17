// Package sim implements the paper's trace-driven simulation
// environment (§2.2): a Web server holding a prediction model, clients
// with 1 MB LRU browser caches, optionally a proxy tier with a 16 GB
// LRU cache, and prefetch decisioning with the paper's probability and
// size thresholds. A run replays test-window sessions in time order,
// serving each page view from the nearest cache or the server, pushing
// prefetched documents alongside responses, and accumulating the four
// §2.3 metrics.
//
// Prefetched documents ride along with responses ("sending both
// requested and prefetched data to the targeted clients"), so
// predictions fire only for requests that actually reach the server —
// browser and proxy cache hits are invisible to it. The server keeps a
// per-session context of the requests it has seen and matches as many
// previous URLs as possible, the paper's longest-matching method.
package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pbppm/internal/cache"
	"pbppm/internal/latency"
	"pbppm/internal/markov"
	"pbppm/internal/metrics"
	"pbppm/internal/popularity"
	"pbppm/internal/quality"
	"pbppm/internal/session"
)

// DefaultMaxPrefetchBytes is the paper's size threshold for the
// standard and LRS models (10 KB); PBMaxPrefetchBytes is the 30 KB
// threshold used for PB-PPM in the client–server experiments.
const (
	DefaultMaxPrefetchBytes = 10 * 1024
	PBMaxPrefetchBytes      = 30 * 1024
)

// Optimizer is implemented by models with a post-build space
// optimization pass (PB-PPM).
type Optimizer interface {
	Optimize() int
}

// Options configures a simulation run.
type Options struct {
	// Predictor is the trained prediction model; nil runs the
	// no-prefetch baseline.
	Predictor markov.Predictor
	// MaxPrefetchBytes drops prefetch candidates larger than this
	// (documents measured with embedded objects). Zero selects
	// DefaultMaxPrefetchBytes.
	MaxPrefetchBytes int64
	// Path supplies the latency models; the zero value selects
	// latency.DefaultPath().
	Path latency.Path
	// BrowserCacheBytes sizes each client's browser cache; zero selects
	// the paper's 1 MB.
	BrowserCacheBytes int64
	// UseProxy interposes a shared proxy cache between the clients and
	// the server (the §5 experiment); prefetched documents are then
	// pushed to the proxy, not the browsers.
	UseProxy bool
	// ProxyCacheBytes sizes the proxy cache; zero selects 16 GB.
	ProxyCacheBytes int64
	// Grades classifies documents for the popular-prefetch-hit metric;
	// nil disables that metric. Popular means grade >= PopularMinGrade.
	Grades popularity.Grader
	// PopularMinGrade defaults to 2.
	PopularMinGrade popularity.Grade
	// OnlineTraining feeds each completed test session back into the
	// model, emulating a continuously maintained server model.
	OnlineTraining bool
	// PredictOnHitToo makes every demand click visible to the server
	// (as if clients revalidated every cached copy), so predictions
	// also fire on cache hits. The default (false) is the paper's
	// piggyback architecture: only requests that reach the server
	// trigger prefetch pushes.
	PredictOnHitToo bool
	// CachePolicy selects the replacement policy for browser and proxy
	// caches: PolicyLRU (the paper's §2.2 default) or PolicyGDSF (the
	// popularity-aware policy of the paper's reference [16]).
	CachePolicy CachePolicy
	// Sizes maps URL to document size (with embedded objects). If nil,
	// the table is built from the test sessions themselves; supplying
	// one built from the training window too avoids zero-size prefetch
	// estimates for unseen documents.
	Sizes map[string]int64
	// OnProgress, if set, receives a Progress snapshot every
	// ProgressEvery replayed page views and once more when the replay
	// ends, so long trace replays are no longer opaque. It is called
	// synchronously from the replay loop and must be cheap. Compare
	// serializes the calls of its concurrent jobs.
	OnProgress func(Progress)
	// ProgressEvery is the page-view interval between OnProgress calls;
	// zero selects 50000.
	ProgressEvery int
	// Phases, if set, receives the replay's wall time under
	// PhaseSimulate and its event count; Compare additionally records
	// each model's training time under PhaseTrain. Nil disables phase
	// timing.
	Phases *PhaseClock
}

// Progress is a snapshot of a running replay, delivered to
// Options.OnProgress.
type Progress struct {
	// Phase names the run phase the snapshot belongs to (always
	// PhaseSimulate from Run's replay loop; harnesses layering their
	// own phases may report others).
	Phase string
	// Events is the number of page views replayed so far; TotalEvents
	// the number the replay will process.
	Events      int64
	TotalEvents int64
	// HitRatio is the partial hit ratio over the events replayed so far.
	HitRatio float64
	// PrefetchHits is the partial prefetch-hit count.
	PrefetchHits int64
	// Elapsed is wall-clock time since the replay started; EventsPerSec
	// the replay throughput over that span.
	Elapsed      time.Duration
	EventsPerSec float64
}

func (o Options) maxPrefetch() int64 {
	if o.MaxPrefetchBytes == 0 {
		return DefaultMaxPrefetchBytes
	}
	return o.MaxPrefetchBytes
}

func (o Options) path() latency.Path {
	if o.Path == (latency.Path{}) {
		return latency.DefaultPath()
	}
	return o.Path
}

func (o Options) browserBytes() int64 {
	if o.BrowserCacheBytes == 0 {
		return cache.DefaultBrowserCapacity
	}
	return o.BrowserCacheBytes
}

func (o Options) proxyBytes() int64 {
	if o.ProxyCacheBytes == 0 {
		return cache.DefaultProxyCapacity
	}
	return o.ProxyCacheBytes
}

// CachePolicy names a cache replacement policy.
type CachePolicy int

const (
	// PolicyLRU is the paper's replacement policy.
	PolicyLRU CachePolicy = iota
	// PolicyGDSF is popularity-aware GreedyDual-Size-Frequency.
	PolicyGDSF
)

// String returns the policy name.
func (p CachePolicy) String() string {
	if p == PolicyGDSF {
		return "gdsf"
	}
	return "lru"
}

// newCache builds a cache of the configured policy.
func (o Options) newCache(capacity int64) cache.Policy {
	if o.CachePolicy == PolicyGDSF {
		return cache.NewGDSF(capacity)
	}
	return cache.NewLRU(capacity)
}

func (o Options) progressEvery() int {
	if o.ProgressEvery <= 0 {
		return 50000
	}
	return o.ProgressEvery
}

func (o Options) popularMin() popularity.Grade {
	if o.PopularMinGrade == 0 {
		return 2
	}
	return o.PopularMinGrade
}

// URLSequences extracts the clicked URL sequences from sessions — the
// training food for every model.
func URLSequences(sessions []session.Session) [][]string {
	out := make([][]string, len(sessions))
	for i, s := range sessions {
		out[i] = s.URLs()
	}
	return out
}

// BuildSizeTable returns the largest observed transfer size (page plus
// embedded objects) per URL.
func BuildSizeTable(sessionSets ...[]session.Session) map[string]int64 {
	sizes := make(map[string]int64)
	for _, set := range sessionSets {
		for _, s := range set {
			for _, v := range s.Views {
				if tb := v.TotalBytes(); tb > sizes[v.URL] {
					sizes[v.URL] = tb
				}
			}
		}
	}
	return sizes
}

// Train folds the training sessions into the predictor — sharded
// across CPUs when the model supports it — and runs its space
// optimization if it has one. It returns the node count after training,
// for convenience.
func Train(p markov.Predictor, train []session.Session) int {
	markov.TrainAllParallel(p, URLSequences(train))
	finishTraining(p)
	return p.NodeCount()
}

// finishTraining runs a freshly trained predictor's space optimization,
// if it has one, and clears the usage marks training left behind.
func finishTraining(p markov.Predictor) {
	if opt, ok := p.(Optimizer); ok {
		opt.Optimize()
	}
	if ur, ok := p.(markov.UtilizationReporter); ok {
		ur.ResetUsage()
	}
}

// event is one page view scheduled for replay.
type event struct {
	t       time.Time
	client  string
	session int // index into the session list
	view    int // index into the session's views
}

// schedule orders every page view of the test sessions for replay:
// strictly by time across sessions, so cache contents evolve exactly as
// the interleaved trace dictates. Replays only read it, so the runs of
// one comparison share it.
func schedule(test []session.Session) []event {
	var events []event
	for si, s := range test {
		for vi, v := range s.Views {
			events = append(events, event{t: v.Time, client: s.Client, session: si, view: vi})
		}
	}
	sort.SliceStable(events, func(i, j int) bool {
		if !events[i].t.Equal(events[j].t) {
			return events[i].t.Before(events[j].t)
		}
		if events[i].client != events[j].client {
			return events[i].client < events[j].client
		}
		return events[i].session < events[j].session ||
			(events[i].session == events[j].session && events[i].view < events[j].view)
	})
	return events
}

// Run replays the test sessions against the configured topology and
// returns the accumulated metrics. The supplied predictor must already
// be trained (see Train).
func Run(test []session.Session, opt Options) metrics.Result {
	return run(test, schedule(test), opt)
}

// run is Run over a replay schedule built by schedule(test).
func run(test []session.Session, events []event, opt Options) metrics.Result {
	res := metrics.Result{Model: "none"}
	if opt.Predictor != nil {
		res.Model = opt.Predictor.Name()
	}
	sizes := opt.Sizes
	if sizes == nil {
		sizes = BuildSizeTable(test)
	}
	path := opt.path()
	maxPf := opt.maxPrefetch()

	browsers := make(map[string]cache.Policy)
	browserFor := func(client string) cache.Policy {
		b := browsers[client]
		if b == nil {
			b = opt.newCache(opt.browserBytes())
			browsers[client] = b
		}
		return b
	}
	var proxy cache.Policy
	if opt.UseProxy {
		proxy = opt.newCache(opt.proxyBytes())
	}

	// contexts tracks each in-flight session's clicked URLs so far.
	contexts := make(map[int][]string, len(test))

	// All §2.3 quality accounting flows through a quality.Scorer — the
	// same implementation the live server scores its hint lifecycle
	// with — so offline and online metrics cannot drift apart.
	score := quality.NewScorer()

	replayStart := time.Now()
	every := opt.progressEvery()
	report := func(done int64) {
		elapsed := time.Since(replayStart)
		part := score.Total()
		p := Progress{
			Phase:        PhaseSimulate,
			Events:       done,
			TotalEvents:  int64(len(events)),
			HitRatio:     part.HitRatio(),
			PrefetchHits: part.PrefetchHits,
			Elapsed:      elapsed,
		}
		if secs := elapsed.Seconds(); secs > 0 {
			p.EventsPerSec = float64(done) / secs
		}
		opt.OnProgress(p)
	}

	// One prediction scratch buffer is reused for the whole replay: the
	// markov.BufferedPredictor contract guarantees predictions are
	// consumed before the next call overwrites them, so an arena-frozen
	// model runs the entire event loop without per-event allocations.
	var predBuf []markov.Prediction

	for evIdx, ev := range events {
		v := test[ev.session].Views[ev.view]
		size := v.TotalBytes()
		outcome := quality.Miss

		browser := browserFor(ev.client)
		served := false

		if ok, prefetched := browser.Get(v.URL); ok {
			served = true
			res.BrowserHits++
			if prefetched {
				outcome = quality.PrefetchHit
				if opt.Grades != nil && opt.Grades.GradeOf(v.URL) >= opt.popularMin() {
					res.PrefetchHitsPopular++
				}
				browser.MarkDemand(v.URL)
			} else {
				outcome = quality.CacheHit
			}
			// Local hit: negligible latency.
			res.Latencies.Observe(0)
		}

		if !served && proxy != nil {
			if ok, prefetched := proxy.Get(v.URL); ok {
				served = true
				if prefetched {
					outcome = quality.PrefetchHit
					res.ProxyPrefetchHits++
					if opt.Grades != nil && opt.Grades.GradeOf(v.URL) >= opt.popularMin() {
						res.PrefetchHitsPopular++
					}
					proxy.MarkDemand(v.URL)
				} else {
					outcome = quality.CacheHit
					res.ProxyCacheHits++
				}
				hitLat := path.ProxyHit(size)
				res.TotalLatency += hitLat
				res.Latencies.Observe(hitLat)
				browser.Put(v.URL, size, false)
			}
		}

		if !served {
			// Fetch from the server.
			var missLat time.Duration
			if proxy != nil {
				missLat = path.ProxyMiss(size)
				proxy.Put(v.URL, size, false)
			} else {
				missLat = path.DirectFetch(size)
			}
			res.TotalLatency += missLat
			res.Latencies.Observe(missLat)
			browser.Put(v.URL, size, false)
		}
		score.Demand(size, outcome)

		// The server's view of the session: requests that reached it.
		// Cache hits stay invisible unless PredictOnHitToo is set.
		reachedServer := !served || opt.PredictOnHitToo
		var ctx []string
		if reachedServer {
			ctx = append(contexts[ev.session], v.URL)
			contexts[ev.session] = ctx
		} else {
			ctx = contexts[ev.session]
		}
		if ev.view == len(test[ev.session].Views)-1 {
			delete(contexts, ev.session)
			if opt.OnlineTraining && opt.Predictor != nil {
				opt.Predictor.TrainSequence(test[ev.session].URLs())
			}
		}
		if opt.Predictor != nil && reachedServer && len(ctx) > 0 {
			predBuf = markov.PredictInto(opt.Predictor, ctx, predBuf)
			for _, p := range predBuf {
				psize, known := sizes[p.URL]
				if !known || psize > maxPf {
					continue
				}
				if proxy != nil {
					// §5: the server pushes predicted documents to the proxy.
					if proxy.Contains(p.URL) {
						continue
					}
					proxy.Put(p.URL, psize, true)
				} else {
					if browser.Contains(p.URL) {
						continue
					}
					browser.Put(p.URL, psize, true)
				}
				score.Prefetched(psize)
			}
		}
		if opt.OnProgress != nil && (evIdx+1)%every == 0 {
			report(int64(evIdx + 1))
		}
	}
	if opt.OnProgress != nil && len(events) > 0 {
		report(int64(len(events)))
	}
	opt.Phases.Observe(PhaseSimulate, time.Since(replayStart))
	opt.Phases.AddEvents(int64(len(events)))

	// Fold the scorer's totals into the result; the integer accounting
	// is identical to the pre-scorer implementation by construction.
	total := score.Total()
	res.Requests = total.Requests
	res.CacheHits = total.CacheHits
	res.PrefetchHits = total.PrefetchHits
	res.PrefetchedDocs = total.PrefetchedDocs
	res.TransferredBytes = total.TransferredBytes
	res.UsefulBytes = total.UsefulBytes
	res.PrefetchedBytes = total.PrefetchedBytes

	res.Nodes = 0
	if opt.Predictor != nil {
		res.Nodes = opt.Predictor.NodeCount()
		if ur, ok := opt.Predictor.(markov.UtilizationReporter); ok {
			res.Utilization = ur.Utilization()
		}
	}
	return res
}

// Compare trains each predictor on the training window, runs it on the
// test window with per-model options, and also runs the no-prefetch
// baseline. It is the workhorse the experiment harness builds on.
//
// The baseline replay and each run (train, then replay) are
// independent jobs, executed on at most runtime.GOMAXPROCS(0)
// goroutines; the results keep the order baseline first, then runs in
// order, and are identical to training and replaying one model at a
// time. Each model trains serially inside its job, because the jobs
// are the parallel unit. Two contracts follow from the concurrency:
//   - every run must hold its own Predictor instance (Compare panics
//     naming both runs when two share one);
//   - OnProgress callbacks are serialized across the jobs, so a
//     callback never runs concurrently with another from the same
//     Compare, though calls from different jobs interleave.
func Compare(train, test []session.Session, runs []NamedRun) []metrics.Result {
	checkDistinctPredictors(runs)
	sizes := BuildSizeTable(train, test)
	events := schedule(test)
	seqs := URLSequences(train)

	var progressMu sync.Mutex
	prepare := func(o Options) Options {
		o.Sizes = sizes
		if f := o.OnProgress; f != nil {
			o.OnProgress = func(p Progress) {
				progressMu.Lock()
				defer progressMu.Unlock()
				f(p)
			}
		}
		return o
	}

	results := make([]metrics.Result, len(runs)+1)
	Parallel(len(runs)+1, func(i int) {
		if i == 0 {
			base := prepare(runs[0].Options)
			base.Predictor = nil
			results[0] = run(test, events, base)
			return
		}
		r := runs[i-1]
		opts := prepare(r.Options)
		opts.Phases.Time(PhaseTrain, func() {
			markov.TrainAll(opts.Predictor, seqs)
			finishTraining(opts.Predictor)
		})
		results[i] = run(test, events, opts)
		results[i].Model = r.label()
	})
	return results
}

// checkDistinctPredictors panics when two runs share one Predictor
// instance: Compare trains the runs concurrently, so a shared model
// would be trained twice and raced on.
func checkDistinctPredictors(runs []NamedRun) {
	for i, a := range runs {
		p := a.Options.Predictor
		if p == nil || !reflect.TypeOf(p).Comparable() {
			continue
		}
		for _, b := range runs[i+1:] {
			if b.Options.Predictor == p {
				panic(fmt.Sprintf("sim: runs %q and %q share one Predictor instance", a.label(), b.label()))
			}
		}
	}
}

// Parallel calls job(0), ..., job(n-1) on at most runtime.GOMAXPROCS(0)
// goroutines and returns when every call has returned. Jobs are handed
// out in index order.
func Parallel(n int, job func(i int)) {
	workers := min(n, runtime.GOMAXPROCS(0))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				job(i)
			}
		}()
	}
	wg.Wait()
}

// NamedRun pairs a configured run with an optional display name
// override (e.g. "PB-PPM-4KB").
type NamedRun struct {
	Name    string
	Options Options
}

// label is the run's report name: Name, else the predictor's own.
// Compare labels each run's result with it.
func (r NamedRun) label() string {
	if r.Name != "" || r.Options.Predictor == nil {
		return r.Name
	}
	return r.Options.Predictor.Name()
}

// FitPathFromTrace fits the client-server latency model from synthetic
// measured samples derived from the observed document sizes, mirroring
// the paper's least-squares methodology, and returns a Path whose proxy
// legs are scaled from the fit. seed makes the sample noise
// reproducible.
func FitPathFromTrace(sizes map[string]int64, seed int64) (latency.Path, error) {
	truth := latency.DefaultPath()
	samples := latency.SyntheticSamples(truth.ClientServer, sizes, seed)
	fitted, err := latency.Fit(samples)
	if err != nil {
		return latency.Path{}, fmt.Errorf("sim: fitting latency model: %w", err)
	}
	p := latency.Path{
		ClientServer: fitted,
		ClientProxy: latency.Model{
			Connect:      fitted.Connect / 10,
			TransferRate: fitted.TransferRate / 10,
		},
		ProxyServer: latency.Model{
			Connect:      fitted.Connect * 5 / 6,
			TransferRate: fitted.TransferRate * 5 / 6,
		},
	}
	return p, nil
}
