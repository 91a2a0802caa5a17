package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"pbppm/internal/cluster"
	"pbppm/internal/core"
	"pbppm/internal/loadgen"
	"pbppm/internal/maintain"
	"pbppm/internal/markov"
	"pbppm/internal/obs"
	"pbppm/internal/popularity"
	"pbppm/internal/quality"
	"pbppm/internal/server"
	"pbppm/internal/session"
	"pbppm/internal/tracegen"
)

// kind selects one of the three serving deployments.
type kind int

const (
	// kindWarm is one server.Server, no router, no publishes.
	kindWarm kind = iota
	// kindCold is cluster.Router over two server.Server backends.
	kindCold
	// kindChurn is cluster.Router over the publisher's server and one
	// follower's server, with maintenance running while it serves.
	kindChurn
)

// warmDays sizes the warm-start history, as prefetchd's default does.
const warmDays = 3

// Every deployment expires idle sessions every expireEvery, as
// prefetchd does. publish-churn also runs a delta merge every
// deltaEvery and a compaction every compactEvery.
const (
	expireEvery  = 250 * time.Millisecond
	deltaEvery   = time.Second
	compactEvery = 4 * time.Second
)

// coreFactory is prefetchd's model factory.
func coreFactory(rank *popularity.Ranking) markov.Predictor {
	return core.New(rank, core.Config{RelProbCutoff: 0.01, DropSingletons: true})
}

// deployment is one running serving system on loopback listeners.
type deployment struct {
	kind    kind
	tr      *tracer
	profile tracegen.Profile
	site    *tracegen.Site
	store   server.MapStore
	warm    []session.Session

	maint    *maintain.Maintainer
	maintReg *obs.Registry
	// servers are the backends whose counters define capacity.
	servers []*server.Server
	// serverCfgs are the configurations the backends were built with,
	// reused by the traced run's single-threaded replay.
	serverCfgs []server.Config
	routerReg  *obs.Registry
	// front is the base URL the generator targets.
	front string

	pub      *maintain.Publisher
	fol      *maintain.Follower
	folMaint *maintain.Maintainer
	folReg   *obs.Registry

	web    []*http.Server
	cancel context.CancelFunc
	loops  sync.WaitGroup
	// stopMaint ends publish-churn's maintenance loop alone, so the
	// follower can catch up with the last publish before it stops.
	stopMaint func()

	// churn bookkeeping: when each snapshot version was published, and
	// the measured distribution times.
	mu          sync.Mutex
	lastPublish time.Time
	pubAt       map[uint64]time.Time
	lagMs       []float64
	pollMs      []float64
	installMs   []float64
	deltaMs     []float64
	rebuildMs   []float64
	installT0   time.Time
	installT1   time.Time
}

// boot assembles the deployment the way prefetchd and prefetchrouter
// do. tr instruments it when non-nil.
func boot(k kind, tr *tracer) (*deployment, error) {
	d := &deployment{kind: k, tr: tr, pubAt: make(map[uint64]time.Time)}
	d.profile = tracegen.NASA()
	site, err := tracegen.BuildSite(d.profile)
	if err != nil {
		return nil, fmt.Errorf("building site: %w", err)
	}
	d.site = site
	warm := d.profile
	warm.Days = warmDays
	t0 := time.Now()
	trace, err := tracegen.GenerateOn(site, warm)
	if err != nil {
		return nil, fmt.Errorf("generating warm history: %w", err)
	}
	tr.setupPhase("tracegen.generate_ms", t0)
	t0 = time.Now()
	d.warm = session.Sessionize(trace, session.Config{})
	tr.setupPhase("session.sessionize_ms", t0)
	d.store = loadgen.StoreFromSite(site)

	d.maintReg = obs.NewRegistry()
	d.maint, err = maintain.New(maintain.Config{
		Factory:   coreFactory,
		Obs:       d.maintReg,
		OnPublish: d.onPublish,
	})
	if err != nil {
		return nil, err
	}
	// Shift the history to end now so the sliding window keeps it, as
	// prefetchd does.
	shift := time.Since(trace.Epoch.Add(warmDays * 24 * time.Hour))
	for _, s := range d.warm {
		shifted := s
		shifted.Views = make([]session.PageView, len(s.Views))
		for i, v := range s.Views {
			v.Time = v.Time.Add(shift)
			shifted.Views[i] = v
		}
		d.maint.Observe(shifted)
	}
	model := d.maint.Rebuild(time.Now())
	if model == nil || model.NodeCount() == 0 {
		return nil, fmt.Errorf("warm model is empty")
	}

	ctx, cancel := context.WithCancel(context.Background())
	d.cancel = cancel
	if err := d.start(ctx, model); err != nil {
		d.close()
		return nil, err
	}
	d.loops.Add(1)
	go func() {
		defer d.loops.Done()
		d.expire(ctx)
	}()
	return d, nil
}

// start builds the servers, listeners, router and distribution channel.
func (d *deployment) start(ctx context.Context, model markov.Predictor) error {
	base := server.Config{
		Predictor:   d.tr.predictor(model),
		Grades:      d.tr.grader(d.maint.Ranking()),
		OnHintEvent: d.tr.hintEventHook(),
		SessionIdle: sessionIdle,
	}
	switch d.kind {
	case kindWarm:
		d.addServer(base)
		url, err := d.listen(d.tr.handler(layerServer, d.servers[0]))
		if err != nil {
			return err
		}
		d.front = url
		return nil
	case kindCold:
		base.TrustedPeers = []string{"127.0.0.1"}
		d.addServer(base)
		d.addServer(base)
	case kindChurn:
		base.TrustedPeers = []string{"127.0.0.1"}
		pubCfg := base
		pubCfg.OnSessionEnd = d.tr.sessionEndHook(d.maint.Observe)
		d.addServer(pubCfg)
		// The follower has no model until the first snapshot installs
		// and, like prefetchd in follower mode, does not train.
		folCfg := base
		folCfg.Predictor, folCfg.Grades = nil, nil
		d.addServer(folCfg)
		if err := d.startDistribution(ctx); err != nil {
			return err
		}
	}
	var backends []string
	for _, s := range d.servers {
		url, err := d.listen(d.tr.handler(layerServer, s))
		if err != nil {
			return err
		}
		backends = append(backends, url)
	}
	d.routerReg = obs.NewRegistry()
	rt, err := cluster.NewRouter(cluster.RouterConfig{Backends: backends, Obs: d.routerReg})
	if err != nil {
		return err
	}
	d.front, err = d.listen(d.tr.handler(layerRouter, rt))
	return err
}

func (d *deployment) addServer(cfg server.Config) {
	d.servers = append(d.servers, server.New(d.tr.store(d.store), cfg))
	d.serverCfgs = append(d.serverCfgs, cfg)
}

// listen serves h on a fresh loopback listener and returns its URL.
func (d *deployment) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("binding loopback listener: %w", err)
	}
	srv := &http.Server{Handler: h}
	d.web = append(d.web, srv)
	go srv.Serve(ln) //nolint:errcheck // Close ends it with ErrServerClosed
	return "http://" + ln.Addr().String(), nil
}

// onPublish is the publisher maintainer's OnPublish: it swaps the model
// into the serving server, as prefetchd's wiring does.
func (d *deployment) onPublish(p markov.Predictor) {
	d.mu.Lock()
	d.lastPublish = time.Now()
	d.mu.Unlock()
	if len(d.servers) == 0 {
		return // the warm build, before the servers exist
	}
	defer d.tr.timeHook(layerPublish, time.Now())
	d.servers[0].SetPredictor(d.tr.predictor(p))
	if r := d.maint.Ranking(); r != nil {
		d.servers[0].SetGrader(d.tr.grader(r))
	}
}

// startDistribution serves the publisher's /snapshot, installs the
// first snapshot on the follower, and starts the follower's long-poll
// loop and the maintenance loop.
func (d *deployment) startDistribution(ctx context.Context) error {
	d.pub = maintain.NewPublisher(d.maint, maintain.PublisherConfig{})
	d.maint.Subscribe(func(markov.Predictor) {
		// Runs after the publisher's own subscriber, so Version is the
		// version this publish was offered as.
		d.mu.Lock()
		d.pubAt[d.pub.Version()] = d.lastPublish
		d.mu.Unlock()
	})
	mux := http.NewServeMux()
	mux.Handle("/snapshot", d.pub)
	pubURL, err := d.listen(mux)
	if err != nil {
		return err
	}
	d.folReg = obs.NewRegistry()
	folSrv := d.servers[1]
	d.folMaint, err = maintain.New(maintain.Config{
		Factory: coreFactory,
		Obs:     d.folReg,
		OnPublish: func(p markov.Predictor) {
			folSrv.SetPredictor(d.tr.predictor(p))
			if r := d.folMaint.Ranking(); r != nil {
				folSrv.SetGrader(d.tr.grader(r))
			}
		},
	})
	if err != nil {
		return err
	}
	d.fol, err = maintain.NewFollower(maintain.FollowerConfig{
		URL:     pubURL + "/snapshot",
		Wait:    10 * time.Second,
		Install: d.install,
		Obs:     d.folReg,
	})
	if err != nil {
		return err
	}
	if err := d.poll(ctx); err != nil {
		return fmt.Errorf("first snapshot install: %w", err)
	}
	if d.fol.Version() != d.pub.Version() {
		return fmt.Errorf("follower at version %d after first poll, publisher at %d", d.fol.Version(), d.pub.Version())
	}
	// The first install carries the set-up time; lags count from here.
	d.lagMs, d.pollMs, d.installMs = nil, nil, nil
	d.loops.Add(1)
	go func() {
		defer d.loops.Done()
		for ctx.Err() == nil {
			// Failures are counted by reason in the follower's registry;
			// the pause keeps a dead publisher from spinning the loop.
			if err := d.poll(ctx); err != nil {
				select {
				case <-ctx.Done():
				case <-time.After(50 * time.Millisecond):
				}
			}
		}
	}()
	mctx, mcancel := context.WithCancel(ctx)
	var done sync.WaitGroup
	done.Add(1)
	go func() {
		defer done.Done()
		d.maintain(mctx)
	}()
	d.stopMaint = func() {
		mcancel()
		done.Wait()
	}
	return nil
}

// install is the follower's Install callback: the maintainer's
// InstallSnapshot, timed.
func (d *deployment) install(model markov.Predictor, rank *popularity.Ranking) error {
	t0 := time.Now()
	err := d.folMaint.InstallSnapshot(model, rank)
	t1 := time.Now()
	d.tr.timeHook(layerInstall, t0)
	d.mu.Lock()
	d.installT0, d.installT1 = t0, t1
	d.mu.Unlock()
	return err
}

// poll runs one follower poll and, when it installed a new version,
// records that version's publish-to-serving lag.
func (d *deployment) poll(ctx context.Context) error {
	before := d.fol.Version()
	err := d.fol.Poll(ctx)
	v := d.fol.Version()
	if err != nil || v == before {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if at, ok := d.pubAt[v]; ok {
		d.lagMs = append(d.lagMs, ms(d.installT1.Sub(at)))
		d.pollMs = append(d.pollMs, ms(d.installT0.Sub(at)))
		d.installMs = append(d.installMs, ms(d.installT1.Sub(d.installT0)))
	}
	return nil
}

// expire ends idle sessions on every backend on a fixed interval, as
// prefetchd's expiry ticker does. On publish-churn's publisher the
// ended sessions reach the maintainer through OnSessionEnd.
func (d *deployment) expire(ctx context.Context) {
	tick := time.NewTicker(expireEvery)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		for _, s := range d.servers {
			s.ExpireSessions()
		}
	}
}

// maintain is publish-churn's maintenance loop: delta merges and
// compactions on fixed intervals, as prefetchd's incremental schedule
// runs them.
func (d *deployment) maintain(ctx context.Context) {
	tick := time.NewTicker(expireEvery)
	defer tick.Stop()
	nextDelta := time.Now().Add(deltaEvery)
	nextCompact := time.Now().Add(compactEvery)
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		now := time.Now()
		switch {
		case !now.Before(nextCompact):
			d.maint.Rebuild(now)
			d.mu.Lock()
			d.rebuildMs = append(d.rebuildMs, ms(time.Since(now)))
			d.mu.Unlock()
			nextCompact = now.Add(compactEvery)
			nextDelta = now.Add(deltaEvery)
		case !now.Before(nextDelta):
			merges := d.maint.DeltaMerges()
			d.maint.DeltaMerge(now)
			if d.maint.DeltaMerges() > merges {
				d.mu.Lock()
				d.deltaMs = append(d.deltaMs, ms(time.Since(now)))
				d.mu.Unlock()
			}
			nextDelta = now.Add(deltaEvery)
		}
	}
}

// stopMaintainer ends publish-churn's maintenance loop and waits for it.
func (d *deployment) stopMaintainer() {
	if d.stopMaint != nil {
		d.stopMaint()
	}
}

// close stops everything the deployment started.
func (d *deployment) close() {
	d.stopMaintainer()
	if d.cancel != nil {
		d.cancel()
	}
	d.loops.Wait()
	for _, s := range d.web {
		s.Close()
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// stats sums the backends' counters.
func (d *deployment) stats() server.Stats {
	var st server.Stats
	for _, s := range d.servers {
		st = st.Add(s.Stats())
	}
	return st
}

// quality sums the backends' live §2.3 accounting.
func (d *deployment) quality() quality.Snapshot {
	var q quality.Snapshot
	for _, s := range d.servers {
		q = q.Add(s.QualityTotal())
	}
	return q
}

// sessionsOpen counts the open client contexts over all backends.
func (d *deployment) sessionsOpen() int {
	n := 0
	for _, s := range d.servers {
		n += len(s.OpenSessions())
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
