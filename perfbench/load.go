package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pbppm/internal/loadgen"
	"pbppm/internal/quality"
	"pbppm/internal/server"
	"pbppm/internal/session"
	"pbppm/internal/tracegen"
)

// Per-arrival outcomes.
const (
	srcFailed = iota
	srcNetwork
	srcCache
	srcPrefetch
)

// Time compression. The nasa profile the warm history comes from has
// clients think MeanThinkSeconds (35 s) between the clicks of a
// session, and the server splits a client's sessions after the paper's
// 30 idle minutes. The benchmark runs timeScale seconds of that day in
// each second, the same for every workload, so it reaches serving rates
// with thousands of clients rather than millions.
const timeScale = 3600

// sessionIdle is the servers' idle limit, compressed: 500 ms.
const sessionIdle = session.DefaultIdleTimeout / timeScale

// restGap is how long a client rests after its session ends. In the
// nasa profile a browser returns hours later (Browsers against
// SessionsPerDay); every gap past the idle limit looks the same to the
// server, so the rest is cut to twice the limit.
const restGap = 2 * sessionIdle

// thinkTime is a client's mean time between clicks within a session,
// compressed: 35 s / 3600 ≈ 9.7 ms.
func thinkTime(p tracegen.Profile) time.Duration {
	return time.Duration(p.MeanThinkSeconds * float64(time.Second) / timeScale)
}

// walker is one warm virtual client: protocol state in the
// server.Client, walk state here, touched only by the dispatcher.
type walker struct {
	id     string
	client *server.Client
	cur    int
	clicks int // clicks of the current session; 0 between sessions
	pCont  float64
	// back is when a resting walker may start its next session, on the
	// schedule's clock.
	back time.Duration
}

// generator is the benchmark's open-loop driver. Arrivals fire on a
// fixed schedule whatever the completions, and every latency is timed
// from the arrival's due time. Virtual clients walk the site with
// loadgen.Navigator and follow X-Prefetch hints through server.Client
// with their default browser caches.
//
// The warm arrivals of a phase go to a pool of clients in session. By
// Little's law the pool is the warm arrival rate times the think time,
// so every client clicks once per think time on average whatever the
// rate; only the pool grows with the rate. A client whose session ends
// rests for restGap and a rested (or, when none is ready, a new) client
// takes its place in the pool.
type generator struct {
	dep       *deployment
	nav       *loadgen.Navigator
	hc        *http.Client
	transport *http.Transport
	check     *checkTransport
	dials     *dialCounter
	rng       *rand.Rand
	think     time.Duration
	seed      int64
	created   int
	active    []*walker // clients in session
	resting   []*walker // by the time they may come back
	clock     time.Duration
	coldShare float64
	coldTag   string
	coldSeq   int64

	// work feeds arrivals to a fixed set of workers, so the goroutines
	// the generator runs stay bounded however far the servers fall
	// behind; an arrival waiting for a worker is late, and its latency,
	// timed from its due time, shows it.
	work        chan job
	workers     sync.WaitGroup
	wg          sync.WaitGroup
	outstanding atomic.Int64
}

// job is one dispatched arrival and where its outcome goes.
type job struct {
	a   arrival
	due time.Time
	lat *int64
	src *uint8
}

// workers is the size of the generator's worker set: far more than the
// connections it may open, so workers only run short of each other
// when clicks pile up behind a slow server.
const workers = 256

func newGenerator(dep *deployment, coldShare float64, seed int64) (*generator, error) {
	nav, err := loadgen.NewNavigator(dep.site, dep.profile)
	if err != nil {
		return nil, err
	}
	g := &generator{
		dep:       dep,
		nav:       nav,
		dials:     newDialCounter(),
		rng:       rand.New(rand.NewSource(seed)),
		think:     thinkTime(dep.profile),
		seed:      seed,
		coldShare: coldShare,
		coldTag:   fmt.Sprintf("cold-s%d-", seed),
	}
	g.transport = newCappedTransport(g.dials)
	g.check = &checkTransport{base: g.transport, store: dep.store, tr: dep.tr}
	g.hc = &http.Client{Transport: g.check, Timeout: 10 * time.Second}
	g.work = make(chan job, workers)
	g.workers.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer g.workers.Done()
			for j := range g.work {
				g.issue(j)
			}
		}()
	}
	return g, nil
}

// setPool sizes the pool of clients in session for a phase at rate:
// clients beyond it rest, and missing ones are recruited.
func (g *generator) setPool(rate float64) {
	n := max(1, int(math.Round(rate*(1-g.coldShare)*g.think.Seconds())))
	for len(g.active) > n {
		w := g.active[len(g.active)-1]
		g.active = g.active[:len(g.active)-1]
		g.rest(w)
	}
	for len(g.active) < n {
		g.active = append(g.active, g.recruit())
	}
}

// rest ends w's session; it may come back after restGap.
func (g *generator) rest(w *walker) {
	w.clicks = 0
	w.back = g.clock + restGap
	g.resting = append(g.resting, w)
}

// recruit returns the longest-resting client whose rest is over, or a
// new client when none is.
func (g *generator) recruit() *walker {
	if len(g.resting) > 0 && g.resting[0].back <= g.clock {
		w := g.resting[0]
		g.resting = g.resting[1:]
		return w
	}
	id := fmt.Sprintf("warm-s%d-%06d", g.seed, g.created)
	g.created++
	// NewClient fails only on an empty ID or base URL.
	cl, _ := g.client(id)
	return &walker{id: id, client: cl}
}

func (g *generator) client(id string) (*server.Client, error) {
	return server.NewClient(server.ClientConfig{ID: id, BaseURL: g.dep.front, HTTPClient: g.hc})
}

// close stops the workers and releases the generator's connections.
func (g *generator) close() {
	close(g.work)
	g.workers.Wait()
	g.transport.CloseIdleConnections()
}

// phase is the measurement of one fixed-rate interval.
type phase struct {
	rate     float64
	dur      time.Duration
	pool     int // warm clients in session
	arrivals int64
	failed   int64
	// transportErrors counts requests of the phase, hint prefetches and
	// report beacons included, that failed in transport.
	transportErrors int64
	sources         [4]int64
	latencyMs       []float64 // server-reaching demand clicks, from due time
	lagUs           []float64 // dispatch minus due time
	// backlog is the number of arrivals still outstanding when the
	// phase's last arrival was dispatched.
	backlog int64
	// server and completions are the backends' counters and the
	// generator's responses over the phase, read with nothing in flight.
	server      server.Stats
	completions int64
	// cpu is the CPU time the whole process used over the phase.
	cpu time.Duration
}

// demandPerSec is the server-counted demand rate of the phase.
func (p *phase) demandPerSec() float64 {
	return float64(p.server.DemandRequests) / p.dur.Seconds()
}

// served is the number of requests the servers handled in the phase.
func (p *phase) served() int64 {
	return p.server.DemandRequests + p.server.PrefetchRequests + p.server.NotFound
}

// serverShare is the share of the phase's clicks that reached a server.
func (p *phase) serverShare() float64 {
	return float64(p.sources[srcNetwork]) / float64(p.arrivals)
}

// run dispatches one phase at rate arrivals per second for dur and
// returns its measurements once every request, background prefetch
// included, has completed.
func (g *generator) run(rate float64, dur time.Duration) *phase {
	st0, c0, e0, cpu0 := g.dep.stats(), g.check.completions.Load(), g.check.errors.Load(), cpuTime()
	n := int(rate * dur.Seconds())
	if n < 1 {
		n = 1
	}
	g.setPool(rate)
	p := &phase{rate: rate, dur: dur, pool: len(g.active), arrivals: int64(n), lagUs: make([]float64, n)}
	clock0 := g.clock
	lat := make([]int64, n)
	src := make([]uint8, n)
	interval := dur / time.Duration(n)
	start := time.Now().Add(time.Millisecond)
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(k) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		p.lagUs[k] = float64(time.Since(due)) / float64(time.Microsecond)
		g.clock = clock0 + time.Duration(k)*interval
		g.wg.Add(1)
		g.outstanding.Add(1)
		g.work <- job{a: g.pick(), due: due, lat: &lat[k], src: &src[k]}
	}
	p.backlog = g.outstanding.Load()
	g.clock = clock0 + dur
	g.quiesce()
	for k := range src {
		p.sources[src[k]]++
		if src[k] == srcNetwork {
			p.latencyMs = append(p.latencyMs, float64(lat[k])/float64(time.Millisecond))
		}
	}
	p.failed = p.sources[srcFailed]
	st1 := g.dep.stats()
	p.server = server.Stats{
		DemandRequests:   st1.DemandRequests - st0.DemandRequests,
		PrefetchRequests: st1.PrefetchRequests - st0.PrefetchRequests,
		NotFound:         st1.NotFound - st0.NotFound,
	}
	p.completions = g.check.completions.Load() - c0
	p.transportErrors = g.check.errors.Load() - e0
	p.cpu = cpuTime() - cpu0
	return p
}

// walkers returns every warm client, in session or resting.
func (g *generator) walkers() []*walker {
	return append(append([]*walker(nil), g.active...), g.resting...)
}

// quiesce waits for every dispatched click and every hint prefetch.
func (g *generator) quiesce() {
	g.wg.Wait()
	for _, w := range g.walkers() {
		w.client.Wait()
	}
}

// flush delivers every warm client's pending hit reports.
func (g *generator) flush() error {
	for _, w := range g.walkers() {
		if err := w.client.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// qualityNow quiesces, flushes the clients' reports and returns the
// servers' cumulative §2.3 accounting.
func (g *generator) qualityNow() (quality.Snapshot, error) {
	g.quiesce()
	if err := g.flush(); err != nil {
		return quality.Snapshot{}, err
	}
	return g.dep.quality(), nil
}

// arrival is one scheduled click. last marks a warm client's last
// click of a session.
type arrival struct {
	id     string
	client *server.Client
	url    string
	cold   bool
	last   bool
}

// pick chooses the client and URL of one arrival on the dispatcher
// goroutine, so the seeded RNG fixes the request sequence. A warm
// arrival goes to a client in session drawn uniformly, so each client's
// clicks are a Poisson stream with the think time as mean gap.
func (g *generator) pick() arrival {
	if g.coldShare > 0 && g.rng.Float64() < g.coldShare {
		g.coldSeq++
		id := fmt.Sprintf("%s%07d", g.coldTag, g.coldSeq)
		if cl, err := g.client(id); err == nil {
			page, _ := g.nav.Start(g.rng, 0)
			return arrival{id: id, client: cl, url: g.nav.URL(page), cold: true}
		}
	}
	i := g.rng.Intn(len(g.active))
	w := g.active[i]
	url := g.next(w)
	last := w.clicks == 0
	if last {
		g.rest(w)
		g.active[i] = g.recruit()
	}
	return arrival{id: w.id, client: w.client, url: url, last: last}
}

// next advances a walker's session walk as loadgen's walkers do, and
// ends the session (clicks back to 0) when the walk stops: the session
// continues after a click with its continue probability, up to the
// profile's longest session, and stops at a dead end.
func (g *generator) next(w *walker) string {
	if w.clicks == 0 {
		w.cur, w.pCont = g.nav.Start(g.rng, 0)
	} else if nxt, ok := g.nav.Next(g.rng, w.cur, 0); ok {
		w.cur = nxt
	} else {
		w.cur, w.pCont = g.nav.Start(g.rng, 0)
		w.clicks = 0
	}
	w.clicks++
	if w.clicks >= g.dep.profile.MaxSessionLen || g.rng.Float64() >= w.pCont {
		w.clicks = 0
	}
	return g.nav.URL(w.cur)
}

// issue performs one click. A cold client makes its one click, drains
// its hint prefetches and is dropped.
func (g *generator) issue(j job) {
	defer g.wg.Done()
	defer g.outstanding.Add(-1)
	a := j.a
	g.dep.tr.expectDue(a.id, a.url, j.due)
	source, err := a.client.Get(a.url)
	g.dep.tr.forgetDue(a.id, a.url)
	if err != nil {
		*j.src = srcFailed
	} else {
		*j.lat = int64(time.Since(j.due))
		switch source {
		case "cache":
			*j.src = srcCache
		case "prefetch":
			*j.src = srcPrefetch
		default:
			*j.src = srcNetwork
		}
	}
	if a.cold {
		a.client.Wait()
	}
	if a.last {
		// A client leaving sends its pending hit reports, as a page
		// beacon does; otherwise they would ride on its next session's
		// first request and find their hints expired with the session.
		// A failed beacon is counted by the transport.
		a.client.Flush() //nolint:errcheck
	}
}

// percentile returns the exact q-quantile (nearest rank) of xs and
// whether at least ten samples lie beyond it. xs is not modified.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(float64(len(s)) * q))
	rank = max(1, min(rank, len(s)))
	return s[rank-1], len(s)-rank >= 10
}

// cpuTime returns the user and system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Window sizes of windowedP99.
const (
	minWindowSamples = 1000
	maxWindows       = 5
)

// windowedP99 splits latencies, in dispatch order, into as many equal
// windows of at least minWindowSamples as they fill (at most
// maxWindows) and returns the median of the windows' p99s, so one
// scheduling stall of the shared machine moves one window, not the
// result. ok is false below minWindowSamples, where a p99 would have
// fewer than ten samples beyond it; the value is then the maximum.
func windowedP99(xs []float64) (v float64, ok bool) {
	w := min(maxWindows, len(xs)/minWindowSamples)
	if w < 1 {
		v, _ = percentile(xs, 1)
		return v, false
	}
	ps := make([]float64, w)
	for i := range ps {
		ps[i], _ = percentile(xs[i*len(xs)/w:(i+1)*len(xs)/w], 0.99)
	}
	return median(ps), true
}
