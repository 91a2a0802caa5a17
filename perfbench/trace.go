package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pbppm/internal/markov"
	"pbppm/internal/popularity"
	"pbppm/internal/server"
	"pbppm/internal/session"
)

// Span layers. Client, router and server spans carry the request's span
// ID; the others are leaf calls that Go gives no request identity, so
// they are kept as unattributed durations.
const (
	layerClient = iota
	layerRouter
	layerServer
	layerStore
	layerPredict
	layerGrade
	layerSessionEnd
	layerPublish
	layerHintEvent
	layerInstall
	numLayers
)

var layerNames = [numLayers]string{
	"client", "router", "server", "store", "predict", "grade",
	"session_end", "publish", "hint_event", "install",
}

// span is one timed call. Times are nanoseconds since the tracer's
// base. A client span also has wait, its wait for a connection measured
// from the arrival's due time when known, and conn, the part of that
// wait inside the round trip.
type span struct {
	id         uint64
	layer      uint8
	start, end int64
	wait, conn int64
}

// maxRecorded bounds the inputs kept for the single-threaded replays,
// and maxSpans the spans kept per layer; calls beyond it are still
// counted.
const (
	maxRecorded = 20000
	maxSpans    = 1 << 19
)

// recordedRequest is one request a backend received, kept for the
// single-threaded replay that gives server self time and allocations.
type recordedRequest struct {
	backend int
	path    string
	header  http.Header
}

// spanShards spreads span appends over several locks.
const spanShards = 16

// tracer records spans at every layer boundary the benchmark can reach
// from outside the program: the generator's round tripper, handler
// wrappers around the router and each backend, and wrappers around the
// content store, the popularity grader, the predictor and the hook
// functions. A nil *tracer is a plain run: every method is a no-op and
// every wrapper returns its argument unchanged.
type tracer struct {
	base time.Time
	ids  atomic.Uint64
	kept [numLayers]atomic.Int64

	shards [spanShards]struct {
		mu    sync.Mutex
		spans []span
	}

	predictCalls, predictEmpty atomic.Int64
	predictCtxLen, predictOut  atomic.Int64
	storeCalls, gradeCalls     atomic.Int64
	hintEvents                 [4]atomic.Int64

	mu       sync.Mutex
	setup    map[string][]float64
	contexts [][]string
	requests []recordedRequest
	backends int

	// dues maps "client path" to the due time of an arrival in flight,
	// so the round tripper can time its wait from the due time.
	dues sync.Map
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), setup: map[string][]float64{}}
}

func (t *tracer) nextID() uint64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	if t.kept[s.layer].Add(1) > maxSpans {
		return
	}
	sh := &t.shards[s.start&(spanShards-1)]
	sh.mu.Lock()
	sh.spans = append(sh.spans, s)
	sh.mu.Unlock()
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.base)) }

// leaf records an unattributed call that started at t0 and ends now.
func (t *tracer) leaf(layer int, t0 time.Time) {
	t.add(span{layer: uint8(layer), start: t.since(t0), end: t.since(time.Now())})
}

// timeHook records a hook call; nil-safe for plain runs.
func (t *tracer) timeHook(layer int, t0 time.Time) {
	if t != nil {
		t.leaf(layer, t0)
	}
}

// setupPhase records a set-up step's duration in milliseconds.
func (t *tracer) setupPhase(name string, t0 time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.setup[name] = append(t.setup[name], ms(time.Since(t0)))
	t.mu.Unlock()
}

// spans returns every recorded span.
func (t *tracer) spans() []span {
	var out []span
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		out = append(out, sh.spans...)
		sh.mu.Unlock()
	}
	return out
}

// durations returns the durations of one layer's spans in nanoseconds.
func (t *tracer) durations(all []span, layer int) []float64 {
	var out []float64
	for _, s := range all {
		if int(s.layer) == layer {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// writeSpans writes every span as CSV to path.
func (t *tracer) writeSpans(path string, all []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,layer,start_ns,end_ns,wait_ns,conn_ns")
	for _, s := range all {
		fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d\n", s.id, layerNames[s.layer], s.start, s.end, s.wait, s.conn)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// expectDue notes an arrival's due time before its Get; forgetDue drops
// it afterwards (a cache-served click never reaches the round tripper).
func (t *tracer) expectDue(client, path string, due time.Time) {
	if t != nil {
		t.dues.LoadOrStore(client+" "+path, due)
	}
}

func (t *tracer) forgetDue(client, path string) {
	if t != nil {
		t.dues.Delete(client + " " + path)
	}
}

// clientSpan records the generator's span of one request.
func (t *tracer) clientSpan(id uint64, req *http.Request, demand bool, start, gotConn, end time.Time) {
	from := start
	if demand {
		if due, ok := t.dues.LoadAndDelete(req.Header.Get(server.HeaderClientID) + " " + req.URL.Path); ok {
			from = due.(time.Time)
		}
	}
	var wait, conn int64
	if !gotConn.IsZero() {
		wait, conn = int64(gotConn.Sub(from)), int64(gotConn.Sub(start))
	}
	t.add(span{id: id, layer: layerClient, start: t.since(start), end: t.since(end), wait: wait, conn: conn})
}

// handler wraps a router or backend handler with a span; a backend
// handler also records its requests for the single-threaded replay.
func (t *tracer) handler(layer int, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	backend := -1
	if layer == layerServer {
		t.mu.Lock()
		backend = t.backends
		t.backends++
		t.mu.Unlock()
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		if backend >= 0 {
			t.record(backend, r)
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t.add(span{id: id, layer: uint8(layer), start: t.since(t0), end: t.since(time.Now())})
	})
}

func (t *tracer) record(backend int, r *http.Request) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.requests) >= maxRecorded {
		return
	}
	h := http.Header{}
	for _, k := range []string{server.HeaderClientID, server.HeaderPrefetchFetch, server.HeaderPrefetchReport, server.HeaderPrefetchReportOnly} {
		if v := r.Header.Get(k); v != "" {
			h.Set(k, v)
		}
	}
	t.requests = append(t.requests, recordedRequest{backend: backend, path: r.URL.Path, header: h})
}

// timeSink receives the time of one wrapped store, grader or predictor
// call. The tracer records it as a span; the single-threaded replay
// sums it as child time.
type timeSink interface {
	took(layer int, t0 time.Time)
}

// took records a wrapped call as a leaf span and counts it.
func (t *tracer) took(layer int, t0 time.Time) {
	t.leaf(layer, t0)
	switch layer {
	case layerStore:
		t.storeCalls.Add(1)
	case layerGrade:
		t.gradeCalls.Add(1)
	}
}

// store wraps the content store.
func (t *tracer) store(m server.MapStore) server.ContentStore {
	if t == nil {
		return m
	}
	return tracedStore{m: m, sink: t}
}

type tracedStore struct {
	m    server.MapStore
	sink timeSink
}

func (s tracedStore) Lookup(url string) (server.Document, bool) {
	defer s.sink.took(layerStore, time.Now())
	return s.m.Lookup(url)
}

// grader wraps a popularity grader; a nil ranking stays a nil grader.
func (t *tracer) grader(r *popularity.Ranking) popularity.Grader {
	if r == nil {
		return nil
	}
	if t == nil {
		return r
	}
	return tracedGrader{g: r, sink: t}
}

type tracedGrader struct {
	g    popularity.Grader
	sink timeSink
}

func (g tracedGrader) GradeOf(url string) popularity.Grade {
	defer g.sink.took(layerGrade, time.Now())
	return g.g.GradeOf(url)
}

// predictor wraps a published model. The wrapper forwards PredictInto
// and the UsageRecorder methods, so the server's buffered, read-only
// prediction path is the one being timed.
func (t *tracer) predictor(p markov.Predictor) markov.Predictor {
	if t == nil || p == nil {
		return p
	}
	return &tracedPredictor{p: p, sink: t}
}

type tracedPredictor struct {
	p    markov.Predictor
	sink timeSink
}

func (w *tracedPredictor) Name() string               { return w.p.Name() }
func (w *tracedPredictor) TrainSequence(seq []string) { w.p.TrainSequence(seq) }
func (w *tracedPredictor) NodeCount() int             { return w.p.NodeCount() }

func (w *tracedPredictor) Predict(ctx []string) []markov.Prediction {
	return w.PredictInto(ctx, nil)
}

func (w *tracedPredictor) PredictInto(ctx []string, buf []markov.Prediction) []markov.Prediction {
	t0 := time.Now()
	out := markov.PredictInto(w.p, ctx, buf)
	w.sink.took(layerPredict, t0)
	if t, ok := w.sink.(*tracer); ok {
		t.notePredict(ctx, out)
	}
	return out
}

// notePredict counts one live prediction and records its context for
// the replay.
func (t *tracer) notePredict(ctx []string, out []markov.Prediction) {
	t.predictCalls.Add(1)
	t.predictCtxLen.Add(int64(len(ctx)))
	t.predictOut.Add(int64(len(out)))
	if len(out) == 0 {
		t.predictEmpty.Add(1)
	}
	t.mu.Lock()
	if len(t.contexts) < maxRecorded {
		t.contexts = append(t.contexts, append([]string(nil), ctx...))
	}
	t.mu.Unlock()
}

func (w *tracedPredictor) SetUsageRecording(on bool) {
	if ur, ok := w.p.(markov.UsageRecorder); ok {
		ur.SetUsageRecording(on)
	}
}

func (w *tracedPredictor) UsageRecording() bool {
	if ur, ok := w.p.(markov.UsageRecorder); ok {
		return ur.UsageRecording()
	}
	return false
}

// hintEventHook counts hint-lifecycle events; nil in a plain run.
func (t *tracer) hintEventHook() func(server.HintEvent) {
	if t == nil {
		return nil
	}
	return func(ev server.HintEvent) {
		t0 := time.Now()
		if int(ev.Type) < len(t.hintEvents) {
			t.hintEvents[ev.Type].Add(1)
		}
		t.leaf(layerHintEvent, t0)
	}
}

// sessionEndHook turns a closed server session into a maintainer
// session, as prefetchd's OnSessionEnd does, and times the Observe.
func (t *tracer) sessionEndHook(observe func(session.Session)) func(string, []string, time.Time) {
	return func(client string, urls []string, last time.Time) {
		s := session.Session{Client: client}
		for i, u := range urls {
			s.Views = append(s.Views, session.PageView{
				URL:  u,
				Time: last.Add(time.Duration(i-len(urls)) * time.Minute),
			})
		}
		t0 := time.Now()
		observe(s)
		t.timeHook(layerSessionEnd, t0)
	}
}
