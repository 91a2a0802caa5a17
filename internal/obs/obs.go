// Package obs is the repo's zero-dependency observability layer: a
// small metrics registry (counters, gauges, and fixed-bucket duration
// histograms, all with atomic hot paths) that renders the Prometheus
// text exposition format, structured logging helpers over log/slog, a
// sampled predict-path tracer, and an admin HTTP mux serving /metrics,
// /healthz, and net/http/pprof.
//
// The paper's whole argument rests on measured quantities — hit ratio,
// traffic increase, latency reduction, and model storage cost — and
// this package is their live counterpart: the server exports request
// latencies and hint precision counters, the maintenance loop exports
// rebuild durations and model-size gauges (the runtime analogue of
// Figure 4's storage comparison), and long simulator replays report
// progress instead of running silent.
//
// # Concurrency
//
// Counter, Gauge, and Histogram updates are single atomic operations
// and safe for unsynchronized concurrent use; WritePrometheus may run
// concurrently with updates and renders an approximate but
// internally-consistent snapshot (histogram _count always equals the
// +Inf bucket). Registration takes the registry mutex and is intended
// for startup, not hot paths.
//
// All constructors are nil-registry safe: calling Counter, Gauge, or
// Histogram on a nil *Registry returns a working, unregistered metric,
// so instrumented packages need no "is observability on?" branches.
package obs

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one metric label pair, fixed at registration time.
type Label struct {
	Name  string
	Value string
}

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative n is a programmer error and is ignored so a
// counter never goes backwards.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatGauge is a gauge holding a float64, for quantities that are
// genuinely fractional — ratios, rates, quantiles in seconds. Set and
// Value are single atomic operations on the float's bit pattern.
type FloatGauge struct {
	bits atomic.Uint64
}

// Set stores the current value.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// funcMetric is a metric whose value is computed by a callback at
// render time — the exposition's view of derived quantities (rolling
// ratios, burn rates) that have no meaningful stored state. The
// callback runs during WritePrometheus with no registry lock held and
// must be safe for concurrent use and cheap.
type funcMetric struct {
	fn func() float64
}

// metricKind discriminates exposition TYPE lines.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// entry is one registered metric instance (a family member with its
// label set).
type entry struct {
	labels []Label
	metric any // *Counter, *Gauge, or *Histogram
}

// family groups all label variants of one metric name under a single
// HELP/TYPE pair, as the exposition format requires. labelNames pins
// the label-name set of the first registrant; every later member must
// use the same names in the same order.
type family struct {
	name       string
	help       string
	kind       metricKind
	labelNames []string
	entries    []entry
}

// Registry holds registered metrics and renders them. The zero value
// is not usable; call NewRegistry. A nil *Registry is a valid
// "observability off" registry: constructors return live, unregistered
// metrics.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelSig is a canonical key for a label set within a family.
func labelSig(labels []Label) string {
	sig := ""
	for _, l := range labels {
		sig += l.Name + "\x00" + l.Value + "\x00"
	}
	return sig
}

// register adds (or finds) the metric for name+labels. Registration is
// idempotent: re-registering the same name, kind, help, and label set
// returns the existing metric, so independently-constructed components
// can share counters. Any disagreement with the family's first
// registrant — a different kind, a different help string, or a
// different label-name set — panics instead of silently returning the
// first metric: the exposition format cannot express the conflict, and
// two call sites that disagree about what a metric means is always a
// programmer error better caught at startup than in a dashboard.
func (r *Registry) register(name, help string, kind metricKind, labels []Label, mk func() any) any {
	if err := checkMetricName(name); err != nil {
		panic(fmt.Sprintf("obs: %v", err))
	}
	names := make([]string, len(labels))
	for i, l := range labels {
		if err := checkLabelName(l.Name); err != nil {
			panic(fmt.Sprintf("obs: metric %s: %v", name, err))
		}
		names[i] = l.Name
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, labelNames: names}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s registered as both %s and %s", name, f.kind, kind))
	}
	if f.help != help {
		panic(fmt.Sprintf("obs: metric %s re-registered with conflicting help %q (family has %q)",
			name, help, f.help))
	}
	if !slices.Equal(f.labelNames, names) {
		panic(fmt.Sprintf("obs: metric %s re-registered with label names %v (family has %v)",
			name, names, f.labelNames))
	}
	sig := labelSig(labels)
	for _, e := range f.entries {
		if labelSig(e.labels) == sig {
			return e.metric
		}
	}
	m := mk()
	f.entries = append(f.entries, entry{labels: append([]Label(nil), labels...), metric: m})
	return m
}

// Counter registers (or finds) a counter. Safe on a nil registry.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return &Counter{}
	}
	return r.register(name, help, kindCounter, labels, func() any { return &Counter{} }).(*Counter)
}

// Gauge registers (or finds) a gauge. Safe on a nil registry.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	return r.register(name, help, kindGauge, labels, func() any { return &Gauge{} }).(*Gauge)
}

// FloatGauge registers (or finds) a float gauge. Safe on a nil
// registry.
func (r *Registry) FloatGauge(name, help string, labels ...Label) *FloatGauge {
	if r == nil {
		return &FloatGauge{}
	}
	m := r.register(name, help, kindGauge, labels, func() any { return &FloatGauge{} })
	fg, ok := m.(*FloatGauge)
	if !ok {
		panic(fmt.Sprintf("obs: metric %s already registered with a different gauge value type", name))
	}
	return fg
}

// GaugeFunc registers a gauge whose value is computed by fn at render
// time. Re-registering the same name and label set keeps the first
// callback. Safe (a no-op) on a nil registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.register(name, help, kindGauge, labels, func() any { return &funcMetric{fn: fn} })
}

// CounterFunc registers a counter whose value is computed by fn at
// render time; fn must be monotonically non-decreasing (e.g. a runtime
// cumulative statistic). Re-registering the same name and label set
// keeps the first callback. Safe (a no-op) on a nil registry.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.register(name, help, kindCounter, labels, func() any { return &funcMetric{fn: fn} })
}

// Histogram registers (or finds) a duration histogram over bounds;
// nil bounds selects DefaultLatencyBounds. Safe on a nil registry.
// Within one family every member shares the first registrant's bounds.
func (r *Registry) Histogram(name, help string, bounds []time.Duration, labels ...Label) *Histogram {
	if r == nil {
		return NewHistogram(bounds)
	}
	return r.register(name, help, kindHistogram, labels, func() any { return NewHistogram(bounds) }).(*Histogram)
}

// snapshot returns copies of the families sorted by name with entries
// in registration order, for rendering. Each family's entries are
// copied under the lock, so a render never reads a list that a
// concurrent registration is appending to.
func (r *Registry) snapshot() []family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]family, 0, len(r.families))
	for _, f := range r.families {
		cp := *f
		cp.entries = slices.Clone(f.entries)
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// checkMetricName enforces the exposition grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func checkMetricName(name string) error {
	if name == "" {
		return fmt.Errorf("empty metric name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return fmt.Errorf("invalid metric name %q", name)
		}
	}
	return nil
}

// checkLabelName enforces [a-zA-Z_][a-zA-Z0-9_]* and reserves the
// double-underscore prefix, per the exposition format.
func checkLabelName(name string) error {
	if name == "" {
		return fmt.Errorf("empty label name")
	}
	if len(name) >= 2 && name[0] == '_' && name[1] == '_' {
		return fmt.Errorf("reserved label name %q", name)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return fmt.Errorf("invalid label name %q", name)
		}
	}
	return nil
}
