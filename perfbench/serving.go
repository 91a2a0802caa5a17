package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"pbppm/internal/quality"
)

// plan fixes one serving workload's offered rates: clicks per second,
// absolute per workload and never derived from a run's own capacity.
// The warm pool follows from each rate (see generator), and most clicks
// are served from the clients' caches, so the servers see only a share
// of them.
type plan struct {
	coldShare float64
	// A warm-up at low fills the clients' caches before any
	// measurement. The capacity staircase starts at high.
	low, high float64
}

var kindNames = map[kind]string{kindWarm: "warm-browse", kindCold: "routed-cold", kindChurn: "publish-churn"}

var plans = map[kind]plan{
	kindWarm:  {low: 2000, high: 4000},
	kindCold:  {low: 600, high: 1200, coldShare: 0.5},
	kindChurn: {low: 800, high: 1600},
}

// Gates and validity bounds.
const (
	// latencyLimitMs is the p99 limit a staircase step must meet.
	latencyLimitMs = 10.0
	// maxLagUs bounds the generator's p90 dispatch lag at the fixed
	// rates; a run beyond it is invalid, not slow. A generator that
	// cannot keep up falls further behind with every arrival, which
	// moves the p90; the machine's short stalls, which the latencies
	// timed from due time already show, move only the p99.
	maxLagUs = 20000.0
	// coarseSamples and fineSamples are how many server-reaching clicks
	// a staircase step aims for while searching for the failing rate and
	// while bisecting, so every p99 has well over ten samples beyond it
	// and the steps near the limit are measured most precisely.
	coarseSamples = 1500
	fineSamples   = 15000
	setups        = 9
)

// runServing boots the deployment (setups times, reporting the median
// set-up time), fills the clients' caches, then measures the low and
// high fixed rates, checking every response and the server-count
// conservation on every phase. In a --trace 1 invocation both of its
// passes also run the capacity staircase.
func runServing(k kind, o options, traced bool) (*outcome, error) {
	pl := plans[k]
	out := &outcome{endToEnd: map[string]float64{}, layers: map[string]float64{}, info: map[string]any{}}
	var (
		setupS []float64
		dep    *deployment
		gen    *generator
	)
	for i := 0; i < setups; i++ {
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		t0 := time.Now()
		d, err := boot(k, tr)
		if err != nil {
			return nil, err
		}
		g, err := newGenerator(d, pl.coldShare, o.seed)
		if err != nil {
			d.close()
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if i < setups-1 {
			g.close()
			d.close()
			continue
		}
		dep, gen = d, g
	}
	defer dep.close()
	defer gen.close()
	conns0, _ := gen.dials.stats()
	hop0, _ := hopDials.stats()

	// Without the staircase the fixed rates get the time, the low rate
	// most, for steadier end-to-end figures.
	warmDur, lowDur, highDur := o.seconds/10, o.seconds*7/10, o.seconds/5
	if o.trace {
		warmDur, lowDur, highDur = o.seconds*3/20, o.seconds*4/20, o.seconds*3/20
	}
	rt := newRuntimeSampler(traced)
	warm := gen.run(pl.low, warmDur)
	q0, err := gen.qualityNow()
	if err != nil {
		return nil, err
	}
	var from, to int64
	if traced {
		from = dep.tr.since(time.Now())
	}
	rt.begin()
	low := gen.run(pl.low, lowDur)
	q1, err := gen.qualityNow()
	if err != nil {
		return nil, err
	}
	high := gen.run(pl.high, highDur)
	rt.end()
	if traced {
		to = dep.tr.since(time.Now())
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	sessionsOpen := dep.sessionsOpen()

	var (
		best  *phase
		steps []*phase
	)
	if o.trace {
		best, steps = gen.staircase(pl.high, o.seconds-warmDur-lowDur-highDur, high)
		if best == nil {
			// Capacity is below every rate tried: a finding about the
			// machine and the program, not a wrong output.
			out.info["staircase_note"] = "no step met the gate; load.demand_rps_max reads 0"
			best = &phase{dur: time.Second}
		}
	}

	for i, p := range append([]*phase{warm, low, high}, steps...) {
		out.attempted += p.arrivals
		out.failed += p.failed
		if got := p.served(); got != p.completions {
			out.problem("phase %d: generator saw %d responses, servers counted %d", i, p.completions, got)
		}
	}
	for _, p := range []*phase{warm, low, high} {
		if p.failed > 0 || p.transportErrors > 0 {
			out.problem("%d clicks and %d requests failed at the fixed rate %.0f/s", p.failed, p.transportErrors, p.rate)
		}
		if lag, _ := percentile(p.lagUs, 0.9); lag > maxLagUs {
			out.problem("generator p90 dispatch lag %.0fµs at %.0f/s exceeds %.0fµs: the run is invalid", lag, p.rate, maxLagUs)
		}
	}
	for _, s := range steps {
		if _, ok := windowedP99(s.latencyMs); !ok {
			out.problem("staircase step %.0f/s gated on %d samples, fewer than %d", s.rate, len(s.latencyMs), minWindowSamples)
		}
	}
	if k == kindChurn {
		if err := dep.finishChurn(); err != nil {
			out.problem("%v", err)
		}
	}
	bad, problems := gen.check.report()
	if bad > 0 {
		out.problem("%d responses failed their checks, e.g. %v", bad, problems)
	}
	conns, maxOpen := gen.dials.stats()
	hops, hopMax := hopDials.stats()
	if maxOpen > connCap() || hopMax > connCap() {
		out.problem("opened %d/%d connections to one address at once, cap is %d", maxOpen, hopMax, connCap())
	}

	q := sub(q1, q0)
	out.endToEnd["setup_s"] = median(setupS)
	// Every request a server handled, over the CPU the whole process
	// used, the generator's share included (see README).
	out.endToEnd["served_per_cpu_s"] = float64(low.served()+high.served()) / (low.cpu + high.cpu).Seconds()
	out.endToEnd["p50_ms"] = out.pct("p50 at low", low.latencyMs, 0.5)
	out.endToEnd["hit_ratio"] = q.HitRatio()
	out.endToEnd["precision"] = q.Precision()
	out.endToEnd["traffic_increase"] = q.TrafficIncrease()
	out.endToEnd["heap_mb"] = float64(mem.HeapAlloc) / 1e6
	out.info["rates_per_s"] = map[string]float64{"low": pl.low, "high": pl.high}
	out.info["think_ms"] = ms(gen.think)
	out.info["clients_created"] = gen.created
	for name, p := range map[string]*phase{"low": low, "high": high} {
		lag, _ := percentile(p.lagUs, 0.99)
		lag90, _ := percentile(p.lagUs, 0.9)
		tail, _ := windowedP99(p.latencyMs)
		out.info[name] = map[string]any{
			"pool":                  p.pool,
			"server_share":          p.serverShare(),
			"server_demand_samples": len(p.latencyMs),
			"p50_ms":                p50(p.latencyMs),
			"p99_ms":                tail,
			"demand_per_s":          p.demandPerSec(),
			"served_per_s":          float64(p.served()) / p.dur.Seconds(),
			"cache_served_per_s":    float64(p.sources[srcCache]) / p.dur.Seconds(),
			"prefetch_served_per_s": float64(p.sources[srcPrefetch]) / p.dur.Seconds(),
			"dispatch_lag_us_p99":   lag,
			"dispatch_lag_us_p90":   lag90,
		}
	}
	out.info["failed_share"] = float64(out.failed) / float64(out.attempted)

	if o.trace {
		stairs := make([]string, len(steps))
		for i, s := range steps {
			tail, _ := windowedP99(s.latencyMs)
			stairs[i] = fmt.Sprintf("%.0f/s: pool %d, %.0f demand/s, p99 %.2fms on %d, backlog %d, failed %d+%d, pass %v",
				s.rate, s.pool, s.demandPerSec(), tail, len(s.latencyMs), s.backlog, s.failed, s.transportErrors, passes(s))
		}
		out.info["staircase"] = stairs
		out.demandRPSMax = best.demandPerSec()
		// The generator-side figures. In a --trace 1 invocation the plain
		// pass's values are the ones reported.
		out.load = map[string]float64{
			"load.demand_rps_max":        out.demandRPSMax,
			"load.demand_rps_low":        low.demandPerSec(),
			"load.demand_rps_high":       high.demandPerSec(),
			"load.cache_served_per_s":    float64(low.sources[srcCache]) / low.dur.Seconds(),
			"load.prefetch_served_per_s": float64(low.sources[srcPrefetch]) / low.dur.Seconds(),
			"load.p99_ms_low":            out.p99("p99 at low", low.latencyMs),
			"load.p50_ms_high":           out.pct("p50 at high", high.latencyMs, 0.5),
			"load.p99_ms_high":           out.p99("p99 at high", high.latencyMs),
			"load.failed_share":          float64(out.failed) / float64(out.attempted),
			"load.dispatch_lag_us_p99":   p99(append(append([]float64(nil), low.lagUs...), high.lagUs...)),
		}
	}

	if traced {
		l := out.layers
		fillZeroLayers(l)
		l["nethttp.conns_opened"] = float64(conns - conns0 + hops - hop0)
		l["server.sessions_open"] = float64(sessionsOpen)
		rt.fill(l, low, high)
		if err := serverLayers(out, dep, from, to); err != nil {
			return nil, err
		}
		if err := dep.tr.writeSpans(spanPath(kindNames[k], o.seed), dep.tr.spans()); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// staircase raises the rate from start by 25% while steps pass, lowers
// it by 25% while they fail, then bisects between the best pass and the
// lowest failure until they are within 4% or the budget of scheduled
// time is spent. A failing step is run twice before it counts. Each step is sized from the share of clicks that
// reached a server in the step before; bisection steps are longer. It returns the passing step with the highest
// server-counted demand rate.
func (g *generator) staircase(start float64, budget time.Duration, prev *phase) (*phase, []*phase) {
	var (
		best   *phase
		steps  []*phase
		used   time.Duration
		lo, hi float64
	)
	r := start
	for {
		samples := coarseSamples
		if lo > 0 && hi > 0 {
			samples = fineSamples
		}
		dur := stepDur(r, prev.serverShare(), samples)
		if used+dur > budget {
			break
		}
		p := g.run(r, dur)
		used += dur
		steps = append(steps, p)
		if !passes(p) && used+dur <= budget {
			// A failure is confirmed by a second try at the same rate, so
			// one scheduling stall of the shared machine cannot end the
			// search.
			p = g.run(r, dur)
			used += dur
			steps = append(steps, p)
		}
		prev = p
		if passes(p) {
			lo = math.Max(lo, r)
			if best == nil || p.demandPerSec() > best.demandPerSec() {
				best = p
			}
		} else if hi == 0 || r < hi {
			hi = r
		}
		switch {
		case hi == 0:
			r *= 1.25
		case lo == 0:
			r /= 1.25
		case hi/lo <= 1.04:
			return best, steps
		default:
			r = math.Sqrt(lo * hi)
		}
	}
	return best, steps
}

// stepDur sizes a step so it collects about samples server-reaching
// clicks at the measured share of clicks that reach a server.
func stepDur(rate, share float64, samples int) time.Duration {
	if share <= 0 {
		share = 0.1
	}
	d := time.Duration(float64(samples) / (rate * share) * float64(time.Second))
	return max(time.Second, min(d, 5*time.Second))
}

// passes applies the capacity gate: no failed click or request, the
// p99 of server-reaching demand latency (windowedP99) within the limit,
// and a backlog no larger than the limit allows.
func passes(p *phase) bool {
	if p.failed > 0 || p.transportErrors > 0 || len(p.latencyMs) == 0 {
		return false
	}
	v, _ := windowedP99(p.latencyMs)
	return v <= latencyLimitMs && float64(p.backlog) <= p.rate*latencyLimitMs/1000+float64(4*connCap())
}

// sub returns a−b field by field.
func sub(a, b quality.Snapshot) quality.Snapshot {
	return quality.Snapshot{
		Requests:         a.Requests - b.Requests,
		CacheHits:        a.CacheHits - b.CacheHits,
		PrefetchHits:     a.PrefetchHits - b.PrefetchHits,
		PrefetchedDocs:   a.PrefetchedDocs - b.PrefetchedDocs,
		TransferredBytes: a.TransferredBytes - b.TransferredBytes,
		UsefulBytes:      a.UsefulBytes - b.UsefulBytes,
		PrefetchedBytes:  a.PrefetchedBytes - b.PrefetchedBytes,
	}
}

// finishChurn stops the maintenance loop, waits for the follower to
// install the publisher's last version, and checks that no snapshot
// swap failed.
func (d *deployment) finishChurn() error {
	d.stopMaintainer()
	deadline := time.Now().Add(5 * time.Second)
	for d.fol.Version() != d.pub.Version() {
		if time.Now().After(deadline) {
			return fmt.Errorf("follower ended at version %d, publisher at %d", d.fol.Version(), d.pub.Version())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := promSum(d.folReg, "pbppm_snapshot_swap_failures_total"); n != 0 {
		return fmt.Errorf("%v snapshot swaps failed", n)
	}
	return nil
}
