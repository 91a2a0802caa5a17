// Command loadbench drives open-loop HTTP load against a running
// prefetchd and reports latency under load, error rates, the server's
// /debug/slo verdicts, and — with -find-max — the highest steady
// request rate the server sustains under an SLO gate.
//
// The generator is open-loop: arrivals fire on a fixed schedule
// whether or not earlier requests completed, and every latency is
// measured from the request's *scheduled* arrival time, so a stalling
// server shows up as latency and timeouts instead of silently slowing
// the generator down (coordinated omission). The generator watches its
// own schedule lag (pbppm_loadgen_lag_seconds); -max-lag-p99 turns
// that into an exit-code gate so a saturated load generator is never
// reported as a slow server.
//
// Virtual clients are protocol-coherent: they walk the same synthetic
// site the server was booted with (popular session heads, primary-link
// continuations, hub returns) and follow X-Prefetch hints into a
// browser cache, so the measured latency distribution includes the
// prefetching wins the paper claims.
//
// Usage:
//
//	loadbench -server http://127.0.0.1:8080 [-admin http://127.0.0.1:8081]
//	          [-profile nasa|ucbcs] [-pages N]
//	          [-seed N] [-clients N]
//	          [-timeout 5s] [-self-admin addr]
//	          -mode steady|sweep|burst|diurnal
//	          [-rps 50] [-duration 60s] [-slot 10s]
//	          [-start 10 -step 10 -target 100]
//	          [-burst-mult 4 -burst-shift 50 -burst-cold 0.5]
//	          [-diurnal-slots 12] [-cold 0]
//	          [-find-max] [-fm-start 25] [-fm-trial 10s] [-fm-max-rps 0]
//	          [-gate-quantile 0.99] [-gate-latency 250ms]
//	          [-gate-errors 0.01] [-gate-lag 50ms]
//	          [-max-lag-p99 0] [-bench-out BENCH_capacity.json]
//	          [-bench-robust] [-compare baseline.json]
//	          [-tol-wall 0.5] [-tol-metric 0.05] [-workload-name name]
//
// -server may be any deployment that speaks the prefetching protocol:
// one prefetchd, or cmd/prefetchrouter in front of several. -profile
// and -pages must match the flags the servers were booted with, or the
// virtual clients walk a different site and 404.
//
// Exit codes: 0 ok, 1 run error, 2 bad flags, 3 regression vs the
// -compare baseline, 4 the -max-lag-p99 self-gate tripped, 5 the
// -find-max search was generator-limited before finding a failure.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"net/http"

	"pbppm/internal/benchreport"
	"pbppm/internal/loadgen"
	"pbppm/internal/metrics"
	"pbppm/internal/obs"
	"pbppm/internal/tracegen"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		serverURL = flag.String("server", "http://127.0.0.1:8080", "prefetching server root URL")
		adminURL  = flag.String("admin", "", "server admin root URL; polls /debug/slo at slot boundaries when set")
		profile   = flag.String("profile", "nasa", "site profile the server was booted with: nasa or ucbcs")
		pages     = flag.Int("pages", 0, "override the profile's page count (must match the server's -pages)")
		seed      = flag.Int64("seed", 1, "RNG seed for the request sequence (same seed = same sequence)")
		clients   = flag.Int("clients", 100, "warm virtual-client pool size")
		timeout   = flag.Duration("timeout", 5*time.Second, "per-request timeout")
		selfAdmin = flag.String("self-admin", "", "serve the generator's own /metrics on this address; empty disables")

		mode     = flag.String("mode", "steady", "scenario: steady, sweep, burst, or diurnal")
		rps      = flag.Float64("rps", 50, "arrival rate (steady base, burst base, diurnal peak)")
		duration = flag.Duration("duration", 60*time.Second, "total steady duration")
		slotDur  = flag.Duration("slot", 10*time.Second, "reporting slot length")

		sweepStart  = flag.Float64("start", 10, "sweep: first step's rate")
		sweepStep   = flag.Float64("step", 10, "sweep: rate increment per step")
		sweepTarget = flag.Float64("target", 100, "sweep: last step's rate")

		burstMult  = flag.Float64("burst-mult", 4, "burst: peak multiplier over -rps")
		burstShift = flag.Int("burst-shift", 50, "burst: popularity ranks the entry set shifts down during the burst")
		burstCold  = flag.Float64("burst-cold", 0.5, "burst: fraction of burst arrivals from never-seen clients")
		diSlots    = flag.Int("diurnal-slots", 12, "diurnal: slots per compressed day")
		coldShare  = flag.Float64("cold", 0, "fraction of arrivals from never-seen clients (all modes)")

		findMax  = flag.Bool("find-max", false, "binary-search the max sustainable RPS instead of running -mode")
		fmStart  = flag.Float64("fm-start", 25, "find-max: starting rate")
		fmTrial  = flag.Duration("fm-trial", 10*time.Second, "find-max: measured duration per trial")
		fmMaxRPS = flag.Float64("fm-max-rps", 0, "find-max: rate cap (0 = unbounded, stops on the lag gate)")

		gateQ   = flag.Float64("gate-quantile", 0.99, "gate: latency/lag quantile to read")
		gateLat = flag.Duration("gate-latency", 250*time.Millisecond, "gate: max on-schedule latency at the quantile")
		gateErr = flag.Float64("gate-errors", 0.01, "gate: max error rate")
		gateLag = flag.Duration("gate-lag", 50*time.Millisecond, "gate: max generator schedule lag at the quantile")

		maxLagP99 = flag.Duration("max-lag-p99", 0, "fail (exit 4) when the run's overall lag p99 exceeds this; 0 disables")

		benchOut    = flag.String("bench-out", "", "write a BENCH_*.json capacity artifact to this file")
		benchRobust = flag.Bool("bench-robust", false, "record only machine-robust metrics (rates, error rate) in the artifact, omitting latency quantiles — for cross-machine CI gates")
		compareTo   = flag.String("compare", "", "compare against a baseline BENCH_*.json and fail (exit 3) on regression")
		tolWall     = flag.Float64("tol-wall", 0.5, "allowed relative wall-time/throughput change for -compare")
		tolMetric   = flag.Float64("tol-metric", 0.05, "allowed relative metric change for -compare")
		workload    = flag.String("workload-name", "", "workload label in the artifact; defaults to the profile name")
	)
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "loadbench: %v\n", err)
		return 1
	}

	var p tracegen.Profile
	switch *profile {
	case "nasa":
		p = tracegen.NASA()
	case "ucbcs":
		p = tracegen.UCBCS()
	default:
		fmt.Fprintf(os.Stderr, "loadbench: unknown profile %q\n", *profile)
		return 2
	}
	if *pages > 0 {
		p.Pages = *pages
	}
	site, err := tracegen.BuildSite(p)
	if err != nil {
		return fail(err)
	}

	buildScenario := func() (loadgen.Scenario, error) {
		var sc loadgen.Scenario
		switch *mode {
		case "steady":
			sc = loadgen.Steady(*rps, *duration, *slotDur)
		case "sweep":
			sc = loadgen.Sweep(*sweepStart, *sweepStep, *sweepTarget, *slotDur)
		case "burst":
			sc = loadgen.Burst(*rps, *burstMult, *slotDur, *burstShift, *burstCold)
		case "diurnal":
			sc = loadgen.Diurnal(*rps, *diSlots, *slotDur)
		default:
			return sc, fmt.Errorf("unknown mode %q", *mode)
		}
		if *coldShare > 0 {
			for i := range sc.Slots {
				if sc.Slots[i].ColdShare == 0 {
					sc.Slots[i].ColdShare = *coldShare
				}
			}
		}
		return sc, nil
	}

	reg := obs.NewRegistry()
	if *selfAdmin != "" {
		mux := obs.NewAdminMux(reg, nil)
		go func() {
			if err := http.ListenAndServe(*selfAdmin, mux); err != nil {
				fmt.Fprintf(os.Stderr, "loadbench: self-admin: %v\n", err)
			}
		}()
	}

	gen, err := loadgen.New(loadgen.Config{
		ServerURL: *serverURL,
		AdminURL:  *adminURL,
		Site:      site,
		Profile:   p,
		Clients:   *clients,
		Seed:      *seed,
		Timeout:   *timeout,
		Obs:       reg,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "loadbench: "+format+"\n", args...)
		},
	})
	if err != nil {
		return fail(err)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	gate := loadgen.Gate{
		Quantile: *gateQ, MaxLatency: *gateLat,
		MaxErrorRate: *gateErr, MaxLag: *gateLag, MaxRPS: *fmMaxRPS,
	}

	report := benchreport.New("loadbench", "")
	wname := *workload
	if wname == "" {
		wname = p.Name
	}

	var (
		overallLag time.Duration
		runResult  *loadgen.Result
		fm         *loadgen.FindMaxResult
		experiment string
	)
	m, err := benchreport.Measure(func() error {
		if *findMax {
			experiment = "capacity-findmax"
			var err error
			fm, err = gen.FindMax(ctx, *fmStart, *fmTrial, gate)
			return err
		}
		experiment = "capacity-" + *mode
		sc, err := buildScenario()
		if err != nil {
			return err
		}
		runResult, err = gen.Run(ctx, sc)
		return err
	})
	if err != nil {
		return fail(err)
	}

	rec := benchreport.Record{
		Experiment:  experiment,
		Workload:    wname,
		WallSeconds: m.Wall.Seconds(),
		AllocBytes:  m.AllocBytes,
		Metrics:     map[string]float64{},
	}

	if fm != nil {
		printFindMax(fm)
		rec.Metrics["max_sustainable_rps"] = fm.MaxSustainableRPS
		for _, t := range fm.Trials {
			overallLag = maxDur(overallLag, t.Result.Lag.Quantile(0.999))
		}
		if fm.GeneratorLimited {
			fmt.Fprintln(os.Stderr, "loadbench: search was GENERATOR-LIMITED: the reported capacity is a lower bound")
			return 5
		}
	} else {
		printRun(runResult)
		lat, lag := runResult.Latency(), runResult.Lag()
		rec.Events = runResult.Completed()
		if m.Wall > 0 {
			rec.EventsPerSec = float64(runResult.Completed()) / m.Wall.Seconds()
		}
		rec.Metrics["achieved_rps"] = runResult.AchievedRPS()
		rec.Metrics["error_rate"] = runResult.ErrorRate()
		if !*benchRobust {
			rec.Metrics["latency_p50_seconds"] = lat.Quantile(0.50).Seconds()
			rec.Metrics["latency_p99_seconds"] = lat.Quantile(0.99).Seconds()
			rec.Metrics["latency_p999_seconds"] = lat.Quantile(0.999).Seconds()
			rec.Metrics["lag_p99_seconds"] = lag.Quantile(0.99).Seconds()
		}
		overallLag = lag.Quantile(0.99)
	}
	report.Add(rec)

	if *benchOut != "" {
		if err := benchreport.WriteFile(*benchOut, report); err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "loadbench: capacity artifact written to %s\n", *benchOut)
	}
	if *compareTo != "" {
		baseline, err := benchreport.ReadFile(*compareTo)
		if err != nil {
			return fail(err)
		}
		cmp := benchreport.Compare(baseline, report,
			benchreport.Tolerances{WallTime: *tolWall, Metric: *tolMetric})
		fmt.Print(cmp)
		if !cmp.OK() {
			fmt.Fprintf(os.Stderr, "loadbench: %d metrics regressed beyond tolerance vs %s\n",
				len(cmp.Regressions()), *compareTo)
			return 3
		}
	}
	if *maxLagP99 > 0 && overallLag > *maxLagP99 {
		fmt.Fprintf(os.Stderr, "loadbench: schedule lag p99 %v exceeds -max-lag-p99 %v: the generator could not hold the schedule\n",
			overallLag, *maxLagP99)
		return 4
	}
	return 0
}

func maxDur(a, b time.Duration) time.Duration {
	if b > a {
		return b
	}
	return a
}

// printRun renders the per-slot table: the latency staircase a sweep
// produces is the capacity story at a glance.
func printRun(res *loadgen.Result) {
	tb := &metrics.Table{
		Title: fmt.Sprintf("Open-loop load: %s scenario", res.Scenario),
		Headers: []string{"slot", "target", "achieved", "disp", "ok", "err",
			"cache+pf", "p50", "p99", "p999", "lag p99", "slo"},
	}
	for _, s := range res.Slots {
		slo := "-"
		if s.SLO != nil {
			slo = s.SLO.State
		}
		tb.AddRow(s.Slot.Label,
			fmt.Sprintf("%.4g", s.Slot.RPS),
			fmt.Sprintf("%.4g", s.AchievedRPS()),
			fmt.Sprintf("%d", s.Dispatched),
			fmt.Sprintf("%d", s.Completed),
			fmt.Sprintf("%d", s.Errors()),
			fmt.Sprintf("%d", s.CacheHits+s.PrefetchHits),
			fmtDur(s.Latency.Quantile(0.50)),
			fmtDur(s.Latency.Quantile(0.99)),
			fmtDur(s.Latency.Quantile(0.999)),
			fmtDur(s.Lag.Quantile(0.99)),
			slo)
	}
	fmt.Print(tb)
	fmt.Printf("overall: %.4g rps achieved, %d/%d ok, error rate %.4f, latency p99 %v, lag p99 %v\n",
		res.AchievedRPS(), res.Completed(), res.Dispatched(), res.ErrorRate(),
		fmtDurD(res.Latency().Quantile(0.99)), fmtDurD(res.Lag().Quantile(0.99)))
}

// printFindMax renders the trial ladder and the headline capacity.
func printFindMax(fm *loadgen.FindMaxResult) {
	tb := &metrics.Table{
		Title:   "Max-sustainable-RPS search",
		Headers: []string{"trial", "rps", "verdict", "achieved", "err rate", "p99", "reason"},
	}
	for i, t := range fm.Trials {
		verdict := "FAIL"
		if t.Pass {
			verdict = "pass"
		}
		tb.AddRow(fmt.Sprintf("%d", i+1),
			fmt.Sprintf("%.4g", t.RPS),
			verdict,
			fmt.Sprintf("%.4g", t.Result.AchievedRPS()),
			fmt.Sprintf("%.4f", t.Result.ErrorRate()),
			fmtDur(t.Result.Latency.Quantile(0.99)),
			t.Reason)
	}
	fmt.Print(tb)
	note := ""
	if fm.CeilingReached {
		note = " (search ceiling: true capacity is at least this)"
	}
	if fm.GeneratorLimited {
		note = " (generator-limited: true capacity is at least this)"
	}
	fmt.Printf("max_sustainable_rps: %.4g%s\n", fm.MaxSustainableRPS, note)
}

func fmtDur(d time.Duration) string { return fmtDurD(d).String() }
func fmtDurD(d time.Duration) time.Duration {
	return d.Round(10 * time.Microsecond)
}
