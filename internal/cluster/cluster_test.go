package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pbppm/internal/core"
	"pbppm/internal/obs"
	"pbppm/internal/popularity"
	"pbppm/internal/server"
)

// --- shared fixtures -------------------------------------------------

func testStore() server.MapStore {
	store := server.MapStore{}
	for url, size := range map[string]int{
		"/home":       4000,
		"/news":       3000,
		"/news/today": 2500,
		"/sports":     3500,
		"/blog":       1500,
	} {
		store[url] = server.Document{URL: url, Body: make([]byte, size)}
	}
	return store
}

func testGrades() popularity.FixedGrades {
	return popularity.FixedGrades{"/home": 3, "/news": 2, "/news/today": 1, "/sports": 2, "/blog": 1}
}

// trainedModel knows /home -> /news -> /news/today strongly and
// /sports -> /blog weakly enough to still hint.
func trainedModel() *core.Model {
	m := core.New(testGrades(), core.Config{})
	for i := 0; i < 5; i++ {
		m.TrainSequence([]string{"/home", "/news", "/news/today"})
		m.TrainSequence([]string{"/sports", "/blog"})
	}
	return m
}

// --- ring ------------------------------------------------------------

func TestRingDeterministicAndBalanced(t *testing.T) {
	a := newRing([]int{0, 1, 2, 3}, 0)
	b := newRing([]int{3, 1, 0, 2}, 0) // same set, different order
	if len(a.points) != len(b.points) {
		t.Fatalf("point counts differ: %d vs %d", len(a.points), len(b.points))
	}
	for i := range a.points {
		if a.points[i] != b.points[i] {
			t.Fatalf("ring differs at %d: %+v vs %+v", i, a.points[i], b.points[i])
		}
	}

	// Load split over many client identities stays within a reasonable
	// band of even (128 virtual nodes keeps it tight).
	const keys = 10000
	counts := map[int]int{}
	for i := 0; i < keys; i++ {
		id, ok := a.owner(fmt.Sprintf("client-%d", i))
		if !ok {
			t.Fatal("owner reported empty ring")
		}
		counts[id]++
	}
	for shard, n := range counts {
		frac := float64(n) / keys
		if frac < 0.15 || frac > 0.40 {
			t.Errorf("shard %d owns %.1f%% of keys, want near 25%%", shard, 100*frac)
		}
	}
}

func TestRingRemapsOnlyMovedArcs(t *testing.T) {
	before := newRing([]int{0, 1, 2, 3}, 0)
	after := newRing([]int{0, 1, 2, 3, 4}, 0)
	const keys = 10000
	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("client-%d", i)
		b, _ := before.owner(key)
		a, _ := after.owner(key)
		if a != b {
			if a != 4 {
				t.Fatalf("key %q moved %d -> %d, not to the new shard", key, b, a)
			}
			moved++
		}
	}
	// Consistent hashing moves ~1/5 of keys to the newcomer; modulo
	// hashing would move ~4/5. Assert we are on the right side by a
	// wide margin.
	if frac := float64(moved) / keys; frac < 0.10 || frac > 0.35 {
		t.Errorf("add-shard moved %.1f%% of keys, want ~20%%", 100*frac)
	}

	if _, ok := newRing(nil, 0).owner("x"); ok {
		t.Error("empty ring must report no owner")
	}
}

// Regression for the weak-avalanche bug: sequential client identities
// (the common real shape — numbered load-generator clients, adjacent
// IPs) hash through raw FNV-1a into a few narrow bands of the circle,
// and a joining shard's arcs can miss every one of them — a 2→3 join
// was observed remapping 0 of 20 live clients. With the mixed ring
// hash, even a small sequential pool remaps ~1/N of its keys.
func TestRingSpreadsSequentialIdentities(t *testing.T) {
	before := newRing([]int{0, 1}, 0)
	after := newRing([]int{0, 1, 2}, 0)
	for _, shape := range []string{"lg-c%04d", "client-%d", "10.0.0.%d"} {
		moved := 0
		const n = 40
		for i := 0; i < n; i++ {
			key := fmt.Sprintf(shape, i)
			b, _ := before.owner(key)
			a, _ := after.owner(key)
			if a != b {
				moved++
			}
		}
		// Expect ~n/3; accept a wide band, but never the degenerate
		// none-moved (the bug) or most-moved (modulo-style reshuffle).
		if moved < n/10 || moved > n*6/10 {
			t.Errorf("%s: join remapped %d/%d sequential keys, want ~%d", shape, moved, n, n/3)
		}
	}
}

// --- smoke (run under -race in CI) -----------------------------------

// TestClusterSmoke boots Router over 4 backend servers, pushes ~500
// concurrent requests from many clients, and checks the books: the
// backends' demand counters sum to the requests sent, and the router
// and backend expositions lint clean.
func TestClusterSmoke(t *testing.T) {
	const shards = 4
	srvs := make([]*server.Server, shards)
	regs := make([]*obs.Registry, shards)
	backends := make([]string, shards)
	for i := range srvs {
		regs[i] = obs.NewRegistry()
		srvs[i] = server.New(testStore(), server.Config{
			Predictor:    trainedModel(),
			Grades:       testGrades(),
			Obs:          regs[i],
			TrustedPeers: []string{"127.0.0.1", "::1"},
		})
		ts := httptest.NewServer(srvs[i])
		defer ts.Close()
		backends[i] = ts.URL
	}
	reg := obs.NewRegistry()
	rt, err := NewRouter(RouterConfig{Backends: backends, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt)
	defer ts.Close()

	const (
		nClients = 25
		perCli   = 20 // 500 requests total
	)
	urls := []string{"/home", "/news", "/news/today", "/sports", "/blog"}
	var wg sync.WaitGroup
	var failures atomic.Int64
	for i := 0; i < nClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < perCli; k++ {
				req, _ := http.NewRequest("GET", ts.URL+urls[k%len(urls)], nil)
				req.Header.Set(server.HeaderClientID, fmt.Sprintf("smoke-%d", i))
				resp, err := http.DefaultClient.Do(req)
				if err != nil || resp.StatusCode != http.StatusOK {
					failures.Add(1)
					if err == nil {
						resp.Body.Close()
					}
					continue
				}
				resp.Body.Close()
			}
		}(i)
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d requests failed", failures.Load())
	}

	const total = nClients * perCli
	var perShard int64
	for _, srv := range srvs {
		perShard += srv.Stats().DemandRequests
	}
	if perShard != total {
		t.Errorf("per-backend demand sum = %d, want %d", perShard, total)
	}

	// Expositions lint clean: the router registry and every backend's.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(sb.String()); err != nil {
		t.Errorf("router exposition: %v", err)
	}
	if !strings.Contains(sb.String(), `pbppm_shard_requests_total{shard="0"}`) {
		t.Error("router exposition missing per-shard request counters")
	}
	for i, r := range regs {
		sb.Reset()
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		if err := obs.ValidateExposition(sb.String()); err != nil {
			t.Errorf("backend %d exposition: %v", i, err)
		}
	}
}

// --- standalone HTTP router ------------------------------------------

// The standalone Router proxies to shard processes over HTTP, stamping
// the resolved identity; shards configured to trust the router's host
// honor the stamp even though every connection shares one peer address.
func TestRouterProxiesToHTTPBackends(t *testing.T) {
	// Shards trust the loopback host the proxy connects from.
	shards := make([]*server.Server, 2)
	backends := make([]string, 2)
	for i := range shards {
		shards[i] = server.New(testStore(), server.Config{TrustedPeers: []string{"127.0.0.1", "::1"}})
		ts := httptest.NewServer(shards[i])
		defer ts.Close()
		backends[i] = ts.URL
	}
	rt, err := NewRouter(RouterConfig{Backends: backends})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt)
	defer rts.Close()

	clients := []string{"alice", "bob", "carol", "dave"}
	for _, id := range clients {
		req, _ := http.NewRequest("GET", rts.URL+"/home", nil)
		req.Header.Set(server.HeaderClientID, id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %s", id, resp.Status)
		}
	}
	var total int
	for i, sh := range shards {
		sessions := sh.OpenSessions()
		for _, os := range sessions {
			owner, _ := rt.ring.owner(os.Client)
			if owner != i {
				t.Errorf("%s landed on backend %d, ring owner %d", os.Client, i, owner)
			}
		}
		total += len(sessions)
	}
	if total != len(clients) {
		t.Errorf("distinct sessions = %d, want %d", total, len(clients))
	}

	if _, err := NewRouter(RouterConfig{}); err == nil {
		t.Error("router with no backends must error")
	}
	if _, err := NewRouter(RouterConfig{Backends: []string{"::bad::"}}); err == nil {
		t.Error("bad backend URL must error")
	}
}
