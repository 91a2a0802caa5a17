package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pbppm/internal/core"
	"pbppm/internal/maintain"
	"pbppm/internal/markov"
	"pbppm/internal/popularity"
	"pbppm/internal/quality"
	"pbppm/internal/server"
	"pbppm/internal/session"
)

// replayTrace drives a fixed set of client walks through one handler
// with cooperating prefetch clients (synchronous, so each walk is
// deterministic), then flushes reports. Walks run sequentially; hint
// accounting is per-client, so interleaving cannot change the totals.
func replayTrace(t *testing.T, baseURL string) {
	t.Helper()
	walks := map[string][]string{
		"alice": {"/home", "/news", "/news/today"}, // hint hit chain
		"bob":   {"/home", "/sports", "/blog"},     // hinted /news wasted
		"carol": {"/sports", "/blog", "/home"},     // weak chain hit
		"dave":  {"/news", "/news/today", "/home"}, // mid-chain entry
		"erin":  {"/home", "/news", "/home"},       // partial hit, revisit
	}
	// Deterministic order.
	ids := []string{"alice", "bob", "carol", "dave", "erin"}
	for _, id := range ids {
		cl, err := server.NewClient(server.ClientConfig{
			ID:                  id,
			BaseURL:             baseURL,
			SynchronousPrefetch: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, url := range walks[id] {
			if _, err := cl.Get(url); err != nil {
				t.Fatalf("%s GET %s: %v", id, url, err)
			}
		}
		if err := cl.Flush(); err != nil {
			t.Fatalf("%s flush: %v", id, err)
		}
	}
}

// gradedKey tallies hint-lifecycle events by both transition and the
// popularity grade the serving tier stamped on them. Grades come from
// the grader each backend holds at event time, so this is the surface
// that silently degrades when a follower serves without the
// publisher's ranking: every event collapses to grade 0.
type gradedKey struct {
	Type  server.HintEventType
	Grade popularity.Grade
}

type gradedTally struct {
	mu sync.Mutex
	n  map[gradedKey]int
}

func (g *gradedTally) record(ev server.HintEvent) {
	g.mu.Lock()
	if g.n == nil {
		g.n = make(map[gradedKey]int)
	}
	g.n[gradedKey{ev.Type, ev.Grade}]++
	g.mu.Unlock()
}

func (g *gradedTally) snapshot() map[gradedKey]int {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[gradedKey]int, len(g.n))
	for k, v := range g.n {
		out[k] = v
	}
	return out
}

func equalTallies(a, b map[gradedKey]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// distributionFactory mirrors the serving factory: PB-PPM over the
// window's ranking.
func distributionFactory(rank *popularity.Ranking) markov.Predictor {
	return core.New(rank, core.Config{})
}

// trainedPublisher builds a maintainer whose window reproduces the
// trainedModel fixture's chains, rebuilt so the published model is the
// frozen PB-PPM snapshot and the ranking is window-derived.
func trainedPublisher(t *testing.T, base time.Time) *maintain.Maintainer {
	t.Helper()
	m, err := maintain.New(maintain.Config{Factory: distributionFactory})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(hour int, urls ...string) session.Session {
		s := session.Session{Client: "history"}
		for i, u := range urls {
			s.Views = append(s.Views, session.PageView{
				URL:  u,
				Time: base.Add(time.Duration(hour-24)*time.Hour + time.Duration(i)*time.Minute),
			})
		}
		return s
	}
	for i := 0; i < 5; i++ {
		m.Observe(mk(i, "/home", "/news", "/news/today"))
		m.Observe(mk(i, "/sports", "/blog"))
	}
	if m.Rebuild(base) == nil {
		t.Fatal("publisher rebuild failed")
	}
	return m
}

// books is what one replay leaves behind, summed over every server.
type books struct {
	qual   quality.Snapshot
	stats  server.Stats
	events map[gradedKey]int
}

// newBackend builds one server from cfg (clock, event tally, trust)
// that serves pubM's model, either by sharing it or by following the
// publisher at pubURL.
type newBackend func(t *testing.T, pubM *maintain.Maintainer, pubURL string, cfg server.Config) *server.Server

// sharedBackend serves the publisher's model and ranking by pointer.
func sharedBackend(_ *testing.T, pubM *maintain.Maintainer, _ string, cfg server.Config) *server.Server {
	cfg.Predictor, cfg.Grades = pubM.Predictor(), pubM.Ranking()
	return server.New(testStore(), cfg)
}

// followerBackend is its own server plus follower maintainer: the
// model and ranking cross an HTTP snapshot hop and the crash-safe
// install gate before serving starts.
func followerBackend(t *testing.T, _ *maintain.Maintainer, pubURL string, cfg server.Config) *server.Server {
	srv := server.New(testStore(), cfg)
	var sm *maintain.Maintainer
	sm, err := maintain.New(maintain.Config{
		Factory: distributionFactory,
		OnPublish: func(p markov.Predictor) {
			srv.SetPredictor(p)
			if r := sm.Ranking(); r != nil {
				srv.SetGrader(r)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fol, err := maintain.NewFollower(maintain.FollowerConfig{URL: pubURL, Install: sm.InstallSnapshot})
	if err != nil {
		t.Fatal(err)
	}
	// Synchronous install: the backend must be model-complete before
	// traffic arrives, like a booted follower daemon.
	if err := fol.Poll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if fol.Version() == 0 {
		t.Fatal("follower installed nothing")
	}
	return srv
}

// replay boots a fresh publisher and either one server with no router
// in front (routed == 0) or Router over routed backends built by
// backend, replays the trace, closes every session so
// fetched-but-never-hit hints emit Wasted, and sums the books.
func replay(t *testing.T, routed int, backend newBackend) books {
	t.Helper()
	base := time.Date(2026, 8, 7, 0, 0, 0, 0, time.UTC)
	pubM := trainedPublisher(t, base)
	pubTS := httptest.NewServer(maintain.NewPublisher(pubM, maintain.PublisherConfig{}))
	defer pubTS.Close()

	var nanos atomic.Int64
	tally := &gradedTally{}
	cfg := server.Config{
		Clock:       func() time.Time { return base.Add(time.Duration(nanos.Load())) },
		OnHintEvent: tally.record,
	}
	var srvs []*server.Server
	var front http.Handler
	if routed == 0 {
		srv := backend(t, pubM, pubTS.URL, cfg)
		srvs, front = []*server.Server{srv}, srv
	} else {
		cfg.TrustedPeers = []string{"127.0.0.1", "::1"}
		urls := make([]string, routed)
		for i := range urls {
			srv := backend(t, pubM, pubTS.URL, cfg)
			ts := httptest.NewServer(srv)
			defer ts.Close()
			srvs, urls[i] = append(srvs, srv), ts.URL
		}
		rt, err := NewRouter(RouterConfig{Backends: urls})
		if err != nil {
			t.Fatal(err)
		}
		front = rt
	}
	ts := httptest.NewServer(front)
	defer ts.Close()
	replayTrace(t, ts.URL)

	nanos.Add(int64(24 * time.Hour))
	for _, srv := range srvs {
		srv.ExpireSessions()
	}
	b := books{events: tally.snapshot()}
	for _, srv := range srvs {
		b.qual = b.qual.Add(srv.QualityTotal())
		b.stats = b.stats.Add(srv.Stats())
	}
	return b
}

// assertMatchesSingleNode is the routing tier's oracle: Router over 1,
// 2 or 4 backends built by backend, replaying one trace, must produce
// the same graded hint-lifecycle events, the same quality snapshot and
// the same hint stats as one in-process server with no router in front
// — because routing by client identity keeps each client's serving
// state whole on one backend and every backend serves the same
// immutable model and ranking.
func assertMatchesSingleNode(t *testing.T, arm string, backend newBackend) {
	t.Helper()
	want := replay(t, 0, sharedBackend)
	// The trace must exercise every lifecycle stage, and the grades on
	// those events must be nonzero — an all-zero grade distribution is
	// exactly what a ranking-less follower produces, and would let this
	// test pass vacuously.
	stages := map[server.HintEventType]bool{}
	graded := false
	for k := range want.events {
		stages[k.Type] = true
		if k.Grade > 0 {
			graded = true
		}
	}
	if !stages[server.HintIssued] || !stages[server.HintHit] || !stages[server.HintWasted] {
		t.Fatalf("trace too weak: events = %v", want.events)
	}
	if !graded {
		t.Fatal("no event carries a nonzero popularity grade; the grade assertion would be vacuous")
	}

	for _, n := range []int{1, 2, 4} {
		got := replay(t, n, backend)
		if !equalTallies(got.events, want.events) {
			t.Errorf("%s x%d: graded lifecycle events = %v, single node = %v",
				arm, n, got.events, want.events)
		}
		if got.qual != want.qual {
			t.Errorf("%s x%d: quality = %+v, single node = %+v", arm, n, got.qual, want.qual)
		}
		if got.stats != want.stats {
			t.Errorf("%s x%d: stats = %+v, single node = %+v", arm, n, got.stats, want.stats)
		}
	}
}

// TestClusterEquivalenceWithSingleNode holds Router over backends that
// share the publisher's model and ranking by pointer to the single-node
// oracle.
func TestClusterEquivalenceWithSingleNode(t *testing.T) {
	assertMatchesSingleNode(t, "shared", sharedBackend)
}

// TestDistributedEquivalenceWithInProcessCluster holds the distributed
// topology — follower backends fed through Publisher→Follower, so the
// model and ranking cross an HTTP snapshot hop instead of sharing
// memory — to the same oracle: the in-process reference is one server
// serving the publisher's model directly.
func TestDistributedEquivalenceWithInProcessCluster(t *testing.T) {
	assertMatchesSingleNode(t, "follower", followerBackend)
}
