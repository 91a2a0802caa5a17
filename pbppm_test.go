package pbppm

import (
	"bytes"
	"testing"
	"time"
)

// TestPublicAPIEndToEnd drives the whole public surface: generate a
// trace, round-trip it through CLF, sessionize, rank, train all three
// models, simulate, and compare.
func TestPublicAPIEndToEnd(t *testing.T) {
	p := NASAProfile()
	p.Days = 3
	p.SessionsPerDay = 200
	p.Pages = 120
	p.Browsers = 80
	p.Crawlers = 0

	tr, err := GenerateTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}

	// CLF round trip.
	var buf bytes.Buffer
	if err := WriteCLF(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, skipped, err := ReadCLF(&buf)
	if err != nil || skipped != 0 {
		t.Fatalf("ReadCLF: %v, skipped %d", err, skipped)
	}
	if len(back.Records) != len(tr.Records) {
		t.Fatalf("round trip lost records: %d vs %d", len(back.Records), len(tr.Records))
	}

	sessions := Sessionize(tr, SessionConfig{})
	if len(sessions) == 0 {
		t.Fatal("no sessions")
	}
	classes := ClassifyClients(tr, 0)
	if len(classes) == 0 {
		t.Fatal("no clients classified")
	}

	// Split train/test by day.
	var train, test []Session
	for _, s := range sessions {
		if s.Start().Before(tr.Epoch.Add(48 * time.Hour)) {
			train = append(train, s)
		} else {
			test = append(test, s)
		}
	}
	if len(train) == 0 || len(test) == 0 {
		t.Fatalf("bad split: %d train, %d test", len(train), len(test))
	}

	rank := NewRanking()
	for _, s := range train {
		for _, u := range s.URLs() {
			rank.Observe(u, 1)
		}
	}

	pb := NewPopularityPPM(rank, PopularityPPMConfig{RelProbCutoff: 0.01})
	std := NewStandardPPM(PPMConfig{})
	lrsm := NewLRS(LRSConfig{})
	results := CompareModels(train, test, []NamedRun{
		{Options: SimOptions{Predictor: std, MaxPrefetchBytes: DefaultMaxPrefetchBytes, Grades: rank}},
		{Options: SimOptions{Predictor: lrsm, MaxPrefetchBytes: DefaultMaxPrefetchBytes, Grades: rank}},
		{Options: SimOptions{Predictor: pb, MaxPrefetchBytes: PBMaxPrefetchBytes, Grades: rank}},
	})
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	base := results[0]
	for _, r := range results[1:] {
		if r.HitRatio() <= base.HitRatio() {
			t.Errorf("%s hit %.3f not above baseline %.3f", r.Model, r.HitRatio(), base.HitRatio())
		}
	}
	if pb.NodeCount() == 0 || std.NodeCount() == 0 || lrsm.NodeCount() == 0 {
		t.Error("models empty after CompareModels")
	}
	if pb.NodeCount() >= std.NodeCount() {
		t.Errorf("PB nodes %d not below standard %d", pb.NodeCount(), std.NodeCount())
	}
}

func TestFacadeConstants(t *testing.T) {
	if DefaultThreshold != 0.25 {
		t.Errorf("DefaultThreshold = %v", DefaultThreshold)
	}
	if DefaultMaxPrefetchBytes != 10*1024 || PBMaxPrefetchBytes != 30*1024 {
		t.Error("prefetch size thresholds drifted from the paper")
	}
	if DefaultBrowserCacheBytes != 1<<20 || DefaultProxyCacheBytes != 16<<30 {
		t.Error("cache capacities drifted from the paper")
	}
	if DefaultHeights != [4]int{1, 3, 5, 7} {
		t.Errorf("DefaultHeights = %v", DefaultHeights)
	}
	if MaxGrade != 3 {
		t.Errorf("MaxGrade = %v", MaxGrade)
	}
}

func TestFacadePredictorInterface(t *testing.T) {
	grades := FixedGrades{"a": 3}
	models := []Predictor{
		NewStandardPPM(PPMConfig{Height: 3}),
		NewLRS(LRSConfig{}),
		NewPopularityPPM(grades, PopularityPPMConfig{}),
	}
	for _, m := range models {
		for i := 0; i < 3; i++ {
			m.TrainSequence([]string{"a", "b"})
		}
		ps := m.Predict([]string{"a"})
		if len(ps) == 0 || ps[0].URL != "b" {
			t.Errorf("%s Predict = %+v", m.Name(), ps)
		}
		if _, ok := m.(UtilizationReporter); !ok {
			t.Errorf("%s does not report utilization", m.Name())
		}
	}
}

func TestFacadeLatencyFit(t *testing.T) {
	truth := LatencyModel{Connect: 100 * time.Millisecond, TransferRate: 10 * time.Microsecond}
	sizes := map[string]int64{}
	for i := 0; i < 50; i++ {
		sizes[string(rune('a'+i%26))+string(rune('0'+i/26))] = int64(1000 + i*777)
	}
	var samples []LatencySample
	for _, s := range sizes {
		samples = append(samples, LatencySample{Size: s, Latency: truth.Estimate(s)})
	}
	m, err := FitLatency(samples)
	if err != nil {
		t.Fatal(err)
	}
	if m.Estimate(10_000) <= 0 {
		t.Error("fitted model estimates nothing")
	}
}

// TestFacadeTopN exercises the related-work baseline via the facade.
func TestFacadeTopN(t *testing.T) {
	m := NewTopN(TopNConfig{N: 1})
	for i := 0; i < 3; i++ {
		m.TrainSequence([]string{"/hot"})
	}
	m.TrainSequence([]string{"/cold"})
	ps := m.Predict([]string{"/cold"})
	if len(ps) != 1 || ps[0].URL != "/hot" {
		t.Errorf("TopN Predict = %+v", ps)
	}
}

// TestFacadeWorkloadAndAnalysis covers the workload and analysis
// wrappers end to end.
func TestFacadeWorkloadAndAnalysis(t *testing.T) {
	p := NASAProfile()
	p.Days = 3
	p.SessionsPerDay = 150
	p.Pages = 120
	p.Browsers = 60
	p.CrawlerPagesPerDay = 50
	w, err := WorkloadFromProfile(p)
	if err != nil {
		t.Fatal(err)
	}
	if w.Days() < 3 || len(w.Sessions) == 0 {
		t.Fatalf("workload = %d days, %d sessions", w.Days(), len(w.Sessions))
	}

	rep, rank := MeasureRegularities(w.Sessions)
	if rep.Sessions != len(w.Sessions) {
		t.Error("report session count mismatch")
	}
	if got := MeasureLengths(w.Sessions); got.Mean <= 0 {
		t.Error("length distribution empty")
	}
	m := TransitionMatrix(w.Sessions, rank)
	var mass int64
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			mass += m[a][b]
		}
	}
	if mass == 0 {
		t.Error("empty transition matrix")
	}
	if _, _, err := ZipfFit(rank); err != nil {
		t.Errorf("ZipfFit: %v", err)
	}
}

// TestFacadeCaches covers the cache constructors and policy constants.
func TestFacadeCaches(t *testing.T) {
	var c Cache = NewLRUCache(1000)
	c.Put("/a", 100, false)
	if ok, _ := c.Get("/a"); !ok {
		t.Error("LRU facade broken")
	}
	c = NewGDSFCache(1000)
	c.Put("/b", 100, true)
	if ok, pf := c.Get("/b"); !ok || !pf {
		t.Error("GDSF facade broken")
	}
	if PolicyLRU == PolicyGDSF {
		t.Error("policy constants collide")
	}
}

// TestFacadeMaintainerAndHTTP covers the deployable wrappers.
func TestFacadeMaintainerAndHTTP(t *testing.T) {
	maint, err := NewMaintainer(MaintainerConfig{
		Factory: func(rank *Ranking) Predictor {
			return NewPopularityPPM(rank, PopularityPPMConfig{})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := Session{Client: "c"}
	s.Views = append(s.Views, PageView{URL: "/a", Time: time.Now()},
		PageView{URL: "/b", Time: time.Now().Add(time.Second)})
	maint.Observe(s)
	if maint.Rebuild(time.Now().Add(time.Minute)) == nil {
		t.Fatal("rebuild returned nil")
	}

	store := MapStore{"/a": Document{URL: "/a", Body: make([]byte, 10)}}
	srv := NewHTTPServer(store, HTTPServerConfig{Predictor: maint.Predictor()})
	if srv == nil {
		t.Fatal("nil server")
	}
	if _, err := NewHTTPProxy(HTTPProxyConfig{Origin: "http://127.0.0.1:9"}); err != nil {
		t.Errorf("NewHTTPProxy: %v", err)
	}
	if _, err := NewHTTPClient(HTTPClientConfig{ID: "x", BaseURL: "http://127.0.0.1:9"}); err != nil {
		t.Errorf("NewHTTPClient: %v", err)
	}
	if HeaderPrefetch == "" || HeaderClientID == "" || HeaderPrefetchFetch == "" {
		t.Error("header constants empty")
	}
}
