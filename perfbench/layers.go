package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"net/url"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"pbppm/internal/core"
	"pbppm/internal/maintain"
	"pbppm/internal/markov"
	"pbppm/internal/obs"
	"pbppm/internal/popularity"
	"pbppm/internal/ppm"
	"pbppm/internal/server"
	"pbppm/internal/session"
)

// layerMetric is one per-layer metric of the traced run. Every workload
// reports all of them; a layer the workload does not exercise reads 0.
type layerMetric struct{ name, unit string }

var perLayer = []layerMetric{
	{"nethttp.overhead_us_p50", "us"},
	{"nethttp.queue_wait_us_p99", "us"},
	{"nethttp.conns_opened", "count"},
	{"cluster.router_self_us_p50", "us"},
	{"cluster.router_self_us_p99", "us"},
	{"cluster.shard_skew", "ratio"},
	{"cluster.backend_errors", "count"},
	{"server.serve_self_us_p50", "us"},
	{"server.serve_self_us_p99", "us"},
	{"server.serve_allocs_per_op", "count"},
	{"server.serve_bytes_per_op", "bytes"},
	{"server.store_lookups_per_request", "count"},
	{"server.hint_keep_share", "ratio"},
	{"server.hints_per_demand", "count"},
	{"server.sessions_open", "count"},
	{"server.sessions_started", "count"},
	{"server.demand_requests", "count"},
	{"server.prefetch_requests", "count"},
	{"server.not_found", "count"},
	{"core.predict_ns_p50", "ns"},
	{"core.predict_ns_p99", "ns"},
	{"core.predict_allocs_per_op", "count"},
	{"core.predict_ctx_len_mean", "count"},
	{"core.predict_candidates_mean", "count"},
	{"core.predict_empty_share", "ratio"},
	{"markov.longest_match_ns_p50", "ns"},
	{"markov.append_predictions_ns_p50", "ns"},
	{"markov.arena_bytes", "bytes"},
	{"popularity.grade_calls_per_request", "count"},
	{"popularity.grade_ns_p50", "ns"},
	{"quality.hints_issued", "count"},
	{"quality.hints_fetched", "count"},
	{"quality.hints_hit", "count"},
	{"quality.hints_wasted", "count"},
	{"quality.fetch_share", "ratio"},
	{"quality.reports_unmatched", "count"},
	{"maintain.observe_us_p50", "us"},
	{"maintain.delta_merge_ms_p50", "ms"},
	{"maintain.delta_merges", "count"},
	{"maintain.rebuild_ms_p50", "ms"},
	{"maintain.rebuilds", "count"},
	{"maintain.publish_fanout_us_p50", "us"},
	{"maintain.snapshot_encode_ms", "ms"},
	{"maintain.snapshot_decode_ms", "ms"},
	{"maintain.snapshot_bytes", "bytes"},
	{"maintain.follower_poll_ms_p50", "ms"},
	{"maintain.install_ms_p50", "ms"},
	{"maintain.publish_lag_ms_p50", "ms"},
	{"maintain.swap_failures", "count"},
	{"maintain.staged_dropped", "count"},
	{"tracegen.generate_ms", "ms"},
	{"session.sessionize_ms", "ms"},
	{"sim.train_ms", "ms"},
	{"sim.simulate_ms", "ms"},
	{"sim.events", "count"},
	{"core.optimize_ms", "ms"},
	{"core.freeze_ms", "ms"},
	{"runtime.alloc_bytes_per_request", "bytes"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"runtime.goroutines_max", "count"},
	{"load.demand_rps_max", "1/s"},
	{"load.demand_rps_low", "1/s"},
	{"load.demand_rps_high", "1/s"},
	{"load.cache_served_per_s", "1/s"},
	{"load.prefetch_served_per_s", "1/s"},
	{"load.p99_ms_low", "ms"},
	{"load.p50_ms_high", "ms"},
	{"load.p99_ms_high", "ms"},
	{"load.failed_share", "ratio"},
	{"load.dispatch_lag_us_p99", "us"},
	{"trace.overhead_p50_ms", "ms"},
	{"trace.overhead_demand_rps_max", "1/s"},
}

// fillZeroLayers sets every per-layer metric to 0, the reading of a
// layer the workload does not exercise.
func fillZeroLayers(l map[string]float64) {
	for _, m := range perLayer {
		l[m.name] = 0
	}
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func p50(xs []float64) float64 { v, _ := percentile(xs, 0.5); return v }
func p99(xs []float64) float64 { v, _ := percentile(xs, 0.99); return v }

// layerPct is pct for a per-layer percentile: a layer the workload
// does not exercise has no samples and reads 0.
func (o *outcome) layerPct(name string, xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return o.pct(name, xs, q)
}

// sum adds xs up.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// inWindow keeps the spans that started within [from, to).
func inWindow(all []span, from, to int64) []span {
	var out []span
	for _, s := range all {
		if s.start >= from && s.start < to {
			out = append(out, s)
		}
	}
	return out
}

// serverLayers fills the serving layers' metrics from the spans of the
// fixed-rate window, the deployment's counters and the single-threaded
// replays of the recorded inputs. It also puts each layer's share of
// the window's request time in the info line.
func serverLayers(out *outcome, dep *deployment, from, to int64) error {
	l, tr := out.layers, dep.tr
	all := inWindow(tr.spans(), from, to)
	type joined struct{ client, router, server *span }
	byID := map[uint64]*joined{}
	var wait []float64
	for i := range all {
		s := &all[i]
		if s.id == 0 {
			continue
		}
		j := byID[s.id]
		if j == nil {
			j = &joined{}
			byID[s.id] = j
		}
		switch s.layer {
		case layerClient:
			j.client = s
			wait = append(wait, float64(s.wait)/1e3)
		case layerRouter:
			j.router = s
		case layerServer:
			j.server = s
		}
	}
	var overhead, connWait, routerSelf []float64
	dur := func(s *span) float64 { return float64(s.end-s.start) / 1e3 }
	for _, j := range byID {
		outer := j.router
		if outer == nil {
			outer = j.server
		}
		if j.client != nil && outer != nil {
			overhead = append(overhead, dur(j.client)-dur(outer))
			connWait = append(connWait, float64(j.client.conn)/1e3)
		}
		if j.router != nil && j.server != nil {
			routerSelf = append(routerSelf, dur(j.router)-dur(j.server))
		}
	}
	l["nethttp.overhead_us_p50"] = out.layerPct("nethttp.overhead_us_p50", overhead, 0.5)
	l["nethttp.queue_wait_us_p99"] = out.layerPct("nethttp.queue_wait_us_p99", wait, 0.99)
	l["cluster.router_self_us_p50"] = out.layerPct("cluster.router_self_us_p50", routerSelf, 0.5)
	l["cluster.router_self_us_p99"] = out.layerPct("cluster.router_self_us_p99", routerSelf, 0.99)
	if dep.routerReg != nil {
		l["cluster.backend_errors"] = promSum(dep.routerReg, "pbppm_cluster_backend_errors_total")
		var most, sum float64
		for _, s := range dep.servers {
			st := s.Stats()
			n := float64(st.DemandRequests + st.PrefetchRequests + st.NotFound)
			most = max(most, n)
			sum += n
		}
		l["cluster.shard_skew"] = ratio(most, sum/float64(len(dep.servers)))
	}

	st := dep.stats()
	requests := float64(st.DemandRequests + st.PrefetchRequests + st.NotFound)
	predictCalls := float64(tr.predictCalls.Load())
	l["server.store_lookups_per_request"] = ratio(float64(tr.storeCalls.Load()), requests)
	l["server.hint_keep_share"] = ratio(float64(st.HintsIssued), float64(tr.predictOut.Load()))
	l["server.hints_per_demand"] = ratio(float64(st.HintsIssued), float64(st.DemandRequests))
	l["server.sessions_started"] = float64(st.SessionsStarted)
	l["server.demand_requests"] = float64(st.DemandRequests)
	l["server.prefetch_requests"] = float64(st.PrefetchRequests)
	l["server.not_found"] = float64(st.NotFound)

	predict := tr.durations(all, layerPredict)
	l["core.predict_ns_p50"] = out.layerPct("core.predict_ns_p50", predict, 0.5)
	l["core.predict_ns_p99"] = out.layerPct("core.predict_ns_p99", predict, 0.99)
	l["core.predict_ctx_len_mean"] = ratio(float64(tr.predictCtxLen.Load()), predictCalls)
	l["core.predict_candidates_mean"] = ratio(float64(tr.predictOut.Load()), predictCalls)
	l["core.predict_empty_share"] = ratio(float64(tr.predictEmpty.Load()), predictCalls)
	l["popularity.grade_calls_per_request"] = ratio(float64(tr.gradeCalls.Load()), requests)
	grade := tr.durations(all, layerGrade)
	l["popularity.grade_ns_p50"] = out.layerPct("popularity.grade_ns_p50", grade, 0.5)

	// Where the window's request time went, in µs summed over requests:
	// waiting for one of the capped connections, the rest of the HTTP
	// round trip, the router, the server's own work, and its calls.
	store, hooks := tr.durations(all, layerStore), tr.durations(all, layerHintEvent)
	hooks = append(hooks, tr.durations(all, layerSessionEnd)...)
	leaves := (sum(predict) + sum(grade) + sum(store) + sum(hooks)) / 1e3
	parts := map[string]float64{
		"conn_wait":   sum(connWait),
		"nethttp":     sum(overhead) - sum(connWait),
		"router_self": sum(routerSelf),
		"server_self": sum(tr.durations(all, layerServer))/1e3 - leaves,
		"predict":     sum(predict) / 1e3,
		"grade":       sum(grade) / 1e3,
		"store":       sum(store) / 1e3,
		"hooks":       sum(hooks) / 1e3,
	}
	var total float64
	for _, v := range parts {
		total += v
	}
	for k, v := range parts {
		parts[k] = ratio(v, total)
	}
	out.info["layer_time_share"] = parts

	issued := float64(tr.hintEvents[server.HintIssued].Load())
	fetched := float64(tr.hintEvents[server.HintFetched].Load())
	l["quality.hints_issued"] = issued
	l["quality.hints_fetched"] = fetched
	l["quality.hints_hit"] = float64(tr.hintEvents[server.HintHit].Load())
	l["quality.hints_wasted"] = float64(tr.hintEvents[server.HintWasted].Load())
	l["quality.fetch_share"] = ratio(fetched, issued)
	l["quality.reports_unmatched"] = float64(st.HintReportsUnmatched)

	model := dep.maint.Predictor()
	tr.mu.Lock()
	contexts, requestsRec := tr.contexts, tr.requests
	setup := tr.setup
	tr.mu.Unlock()
	replayPredict(out, model, contexts)
	replayServe(out, dep, model, requestsRec)
	l["tracegen.generate_ms"] = median(setup["tracegen.generate_ms"])
	l["session.sessionize_ms"] = median(setup["session.sessionize_ms"])
	buildCost(l, dep.warm)

	if dep.kind == kindChurn {
		l["maintain.observe_us_p50"] = p50(tr.durations(all, layerSessionEnd)) / 1e3
		l["maintain.publish_fanout_us_p50"] = p50(tr.durations(all, layerPublish)) / 1e3
		dep.mu.Lock()
		l["maintain.delta_merge_ms_p50"] = median(dep.deltaMs)
		l["maintain.delta_merges"] = float64(len(dep.deltaMs))
		l["maintain.rebuild_ms_p50"] = median(dep.rebuildMs)
		l["maintain.rebuilds"] = float64(len(dep.rebuildMs))
		l["maintain.follower_poll_ms_p50"] = median(dep.pollMs)
		l["maintain.install_ms_p50"] = median(dep.installMs)
		l["maintain.publish_lag_ms_p50"] = median(dep.lagMs)
		dep.mu.Unlock()
		l["maintain.swap_failures"] = promSum(dep.folReg, "pbppm_snapshot_swap_failures_total")
		l["maintain.staged_dropped"] = promSum(dep.maintReg, "pbppm_staged_dropped_total")
		if err := snapshotCost(l, model, dep.maint.Ranking()); err != nil {
			return err
		}
	}
	return nil
}

// replayPredict replays the recorded live contexts single-threaded
// through the published model, for allocations per call, and through
// its arena's LongestMatch and AppendPredictions, for their times.
func replayPredict(out *outcome, model markov.Predictor, contexts [][]string) {
	l := out.layers
	if len(contexts) == 0 {
		return
	}
	buf := make([]markov.Prediction, 0, 64)
	for _, c := range contexts {
		buf = markov.PredictInto(model, c, buf)
	}
	l["core.predict_allocs_per_op"] = allocsPerOp(len(contexts), func() {
		for _, c := range contexts {
			buf = markov.PredictInto(model, c, buf)
		}
	})
	ah, ok := model.(markov.ArenaHolder)
	if !ok || ah.Arena() == nil {
		return
	}
	a := ah.Arena()
	l["markov.arena_bytes"] = float64(a.SizeBytes())
	threshold := ppm.ThresholdOrDefault(0)
	var match, appendNs []float64
	for _, c := range contexts {
		t0 := time.Now()
		node, order, ok := a.LongestMatch(c)
		t1 := time.Now()
		match = append(match, float64(t1.Sub(t0)))
		if ok {
			buf = a.AppendPredictions(buf[:0], node, threshold, order)
			appendNs = append(appendNs, float64(time.Since(t1)))
		}
	}
	l["markov.longest_match_ns_p50"] = out.layerPct("markov.longest_match_ns_p50", match, 0.5)
	l["markov.append_predictions_ns_p50"] = out.layerPct("markov.append_predictions_ns_p50", appendNs, 0.5)
}

// allocsPerOp runs f and returns heap allocations per operation.
func allocsPerOp(ops int, f func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(ops)
}

// childTime sums the wrapped calls' time in a single-threaded replay.
type childTime struct{ ns int64 }

func (c *childTime) took(_ int, t0 time.Time) { c.ns += int64(time.Since(t0)) }

// discardWriter is a ResponseWriter that keeps only the header map.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

// replayServe replays the requests the backends received through fresh
// servers, single-threaded: once with the store, grader and predictor
// timed, for ServeHTTP self time, and once plain, for allocations and
// bytes per request.
func replayServe(out *outcome, dep *deployment, model markov.Predictor, recs []recordedRequest) {
	l := out.layers
	if len(recs) == 0 {
		return
	}
	reqs := make([]*http.Request, len(recs))
	for i, r := range recs {
		reqs[i] = &http.Request{Method: http.MethodGet, URL: &url.URL{Path: r.path}, Header: r.header, RemoteAddr: "127.0.0.1:1"}
	}
	fresh := func(c *childTime) []*server.Server {
		var out []*server.Server
		for _, cfg := range dep.serverCfgs {
			cfg.OnHintEvent, cfg.OnSessionEnd = nil, nil
			var store server.ContentStore = dep.store
			cfg.Predictor, cfg.Grades = model, dep.maint.Ranking()
			if c != nil {
				store = tracedStore{m: dep.store, sink: c}
				cfg.Predictor = &tracedPredictor{p: model, sink: c}
				cfg.Grades = tracedGrader{g: dep.maint.Ranking(), sink: c}
			}
			out = append(out, server.New(store, cfg))
		}
		return out
	}
	w := &discardWriter{h: http.Header{}}
	serve := func(srvs []*server.Server, i int) {
		clear(w.h)
		srvs[recs[i].backend].ServeHTTP(w, reqs[i])
	}

	var c childTime
	srvs := fresh(&c)
	self := make([]float64, len(reqs))
	for i := range reqs {
		before := c.ns
		t0 := time.Now()
		serve(srvs, i)
		self[i] = float64(int64(time.Since(t0))-(c.ns-before)) / 1e3
	}
	l["server.serve_self_us_p50"] = out.layerPct("server.serve_self_us_p50", self, 0.5)
	l["server.serve_self_us_p99"] = out.layerPct("server.serve_self_us_p99", self, 0.99)

	srvs = fresh(nil)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range reqs {
		serve(srvs, i)
	}
	runtime.ReadMemStats(&m1)
	l["server.serve_allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / float64(len(reqs))
	l["server.serve_bytes_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(reqs))
}

// buildCost times core's space optimization and freeze on the warm
// history, the two build steps inside maintain's Rebuild.
func buildCost(l map[string]float64, sessions []session.Session) {
	rank := popularity.NewRanking()
	seqs := make([][]string, len(sessions))
	for i, s := range sessions {
		for _, v := range s.Views {
			rank.Observe(v.URL, 1)
		}
		seqs[i] = s.URLs()
	}
	var opt, freeze []float64
	for i := 0; i < 3; i++ {
		m := core.New(rank, core.Config{RelProbCutoff: 0.01, DropSingletons: true})
		markov.TrainAllParallel(m, seqs)
		t0 := time.Now()
		m.Optimize()
		t1 := time.Now()
		m.Freeze()
		opt = append(opt, ms(t1.Sub(t0)))
		freeze = append(freeze, ms(time.Since(t1)))
	}
	l["core.optimize_ms"] = median(opt)
	l["core.freeze_ms"] = median(freeze)
}

// snapshotCost times the snapshot codec on the published model.
func snapshotCost(l map[string]float64, model markov.Predictor, rank *popularity.Ranking) error {
	enc, ok := model.(markov.FrozenEncoder)
	if !ok {
		return fmt.Errorf("published model %s has no snapshot encoding", model.Name())
	}
	var encode, decode []float64
	var size int
	for i := 0; i < 5; i++ {
		var buf bytes.Buffer
		t0 := time.Now()
		if err := maintain.EncodeSnapshot(&buf, 1, enc, rank); err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := maintain.DecodeSnapshot(buf.Bytes()); err != nil {
			return err
		}
		encode = append(encode, ms(t1.Sub(t0)))
		decode = append(decode, ms(time.Since(t1)))
		size = buf.Len()
	}
	l["maintain.snapshot_encode_ms"] = median(encode)
	l["maintain.snapshot_decode_ms"] = median(decode)
	l["maintain.snapshot_bytes"] = float64(size)
	return nil
}

// promSum sums every series of one metric family in reg's exposition.
func promSum(reg *obs.Registry, name string) float64 {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return 0
	}
	var sum float64
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name+"{") && !strings.HasPrefix(line, name+" ") {
			continue
		}
		f := strings.Fields(line)
		if v, err := strconv.ParseFloat(f[len(f)-1], 64); err == nil {
			sum += v
		}
	}
	return sum
}

// runtimeSampler reads runtime/metrics over the fixed-rate window and
// samples the goroutine count for its maximum. It is inert in a plain
// run.
type runtimeSampler struct {
	on    bool
	names []string
	a, b  []metrics.Sample
	stop  chan struct{}
	done  chan int64
}

func newRuntimeSampler(on bool) *runtimeSampler {
	return &runtimeSampler{on: on, names: []string{
		"/gc/heap/allocs:bytes",
		"/cpu/classes/gc/total:cpu-seconds",
		"/cpu/classes/total:cpu-seconds",
		"/gc/cycles/total:gc-cycles",
	}}
}

func (r *runtimeSampler) read() []metrics.Sample {
	s := make([]metrics.Sample, len(r.names))
	for i, n := range r.names {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func (r *runtimeSampler) begin() {
	if !r.on {
		return
	}
	r.a = r.read()
	r.stop, r.done = make(chan struct{}), make(chan int64)
	go func() {
		g := []metrics.Sample{{Name: "/sched/goroutines:goroutines"}}
		var most int64
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(g)
			most = max(most, int64(g[0].Value.Uint64()))
			select {
			case <-r.stop:
				r.done <- most
				return
			case <-tick.C:
			}
		}
	}()
}

func (r *runtimeSampler) end() {
	if !r.on {
		return
	}
	r.b = r.read()
	close(r.stop)
}

// value returns the delta of metric i between begin and end.
func (r *runtimeSampler) delta(i int) float64 {
	val := func(s metrics.Sample) float64 {
		if s.Value.Kind() == metrics.KindFloat64 {
			return s.Value.Float64()
		}
		return float64(s.Value.Uint64())
	}
	return val(r.b[i]) - val(r.a[i])
}

func (r *runtimeSampler) fill(l map[string]float64, phases ...*phase) {
	var requests int64
	for _, p := range phases {
		requests += p.server.DemandRequests + p.server.PrefetchRequests
	}
	l["runtime.alloc_bytes_per_request"] = ratio(r.delta(0), float64(requests))
	l["runtime.gc_cpu_share"] = ratio(r.delta(1), r.delta(2))
	l["runtime.gc_cycles"] = r.delta(3)
	l["runtime.goroutines_max"] = float64(<-r.done)
}

// spanPath is where a traced run writes its spans.
func spanPath(workload string, seed int64) string {
	return filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.csv", workload, seed))
}
