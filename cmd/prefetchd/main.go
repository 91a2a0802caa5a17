// Command prefetchd runs a live HTTP prefetching server over a
// synthetic site: it pre-trains a popularity-based PPM model from a
// generated history, serves documents with X-Prefetch hints, and keeps
// learning from live traffic. Maintenance is incremental: sessions
// observed since the last update are delta-merged into the live model
// every -delta-interval, and a full compaction (window trim, popularity
// re-ranking, from-scratch retrain) runs every -compact-interval.
// -delta-interval 0 leaves only the compactions.
//
// Usage:
//
//	prefetchd [-addr :8080] [-admin-addr :8081] [-profile nasa|ucbcs]
//	          [-delta-interval 1m] [-compact-interval 30m]
//	          [-trace-sample N] [-log-level info]
//	          [-slo "name=...,kind=...,target=..."] [-slo-file path]
//	          [-live-window 5m] [-warm-days 3]
//	          [-pages N] [-sessions-per-day N] [-max-hints N]
//	          [-router-addr host]
//	          [-snapshot-addr URL] [-snapshot-poll 5s]
//
// -pages, -sessions-per-day, and -warm-days shrink the synthetic site
// and warm history for fast boots under load benchmarks (cmd/loadbench
// must be given the same -pages so its walkers navigate the same
// site).
//
// -router-addr names the one upstream host allowed to assert
// X-Client-ID (a cmd/prefetchrouter or an outer load balancer); unset,
// any peer may assert it.
//
// Sharded deployments run one process per shard and distribute the
// model over the snapshot channel. The training process (the publisher) serves its current
// frozen model on the admin listener at /snapshot — versioned, ETagged,
// long-pollable, checksummed. A process started with -snapshot-addr
// pointing at a publisher's /snapshot runs as a follower: it trains
// nothing, polls the publisher (pacing retries with -snapshot-poll),
// validates each downloaded image end to end, and installs the model
// and its popularity ranking atomically — a corrupt or truncated
// download keeps the previous model live. Put cmd/prefetchrouter in
// front of the followers, each booted with -router-addr naming the
// router's host, to consistent-hash clients across them.
//
// The admin listener serves /metrics (Prometheus text exposition),
// /healthz, /debug/pprof, /debug/stats, /debug/traces, and /debug/slo
// away from end-user traffic. The exposition carries the live paper
// metrics — pbppm_live_precision, pbppm_live_hit_ratio, and
// pbppm_live_traffic_increase, scored online from hint-lifecycle
// events and client hit reports over the -live-window rolling window —
// and /debug/slo evaluates the -slo objectives with multi-window burn
// rates, annotated with model-publish markers. The process shuts down
// gracefully on SIGINT or SIGTERM, draining in-flight requests and
// logging final stats, quality, and SLO snapshots.
//
// Try it:
//
//	curl -i -H 'X-Client-ID: me' http://localhost:8080/d0/page0000.html
//	curl http://localhost:8081/metrics
//	curl http://localhost:8081/debug/slo
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pbppm/internal/obs"
)

func main() {
	var cfg appConfig
	flag.StringVar(&cfg.addr, "addr", ":8080", "serving listen address")
	flag.StringVar(&cfg.adminAddr, "admin-addr", ":8081", "admin listen address for /metrics, /healthz, /debug; empty disables")
	flag.StringVar(&cfg.profileName, "profile", "nasa", "site profile: nasa or ucbcs")
	flag.DurationVar(&cfg.deltaEvery, "delta-interval", time.Minute, "incremental delta-merge interval (0 = compactions only)")
	flag.DurationVar(&cfg.compactNear, "compact-interval", 30*time.Minute, "full compaction (rebuild) interval")
	flag.IntVar(&cfg.traceSample, "trace-sample", 0, "sample 1 in N demand requests for predict-path tracing (0 = off)")
	flag.StringVar(&cfg.slo, "slo", defaultSLO, "service objectives: ';'-separated key=value lists (kind=latency|precision|hit_ratio)")
	flag.StringVar(&cfg.sloFile, "slo-file", "", "file of objectives, one per line, same grammar as -slo; overrides -slo")
	flag.DurationVar(&cfg.liveWindow, "live-window", 5*time.Minute, "rolling window for the live paper-metric gauges")
	flag.IntVar(&cfg.warmDays, "warm-days", 3, "days of generated history the warm-start model trains on")
	flag.IntVar(&cfg.pages, "pages", 0, "override the profile's page count (load generators must match)")
	flag.IntVar(&cfg.sessionsPerDay, "sessions-per-day", 0, "override the profile's mean sessions per day of warm history")
	flag.IntVar(&cfg.maxHints, "max-hints", 0, "override the per-response X-Prefetch hint cap (0 = server default)")
	flag.StringVar(&cfg.routerAddr, "router-addr", "", "trusted upstream host allowed to assert X-Client-ID (empty trusts any peer)")
	flag.StringVar(&cfg.snapshotAddr, "snapshot-addr", "", "snapshot publisher endpoint to follow, e.g. http://10.0.0.1:8081/snapshot; set, this process trains nothing and installs the publisher's models")
	flag.DurationVar(&cfg.snapshotPoll, "snapshot-poll", 5*time.Second, "snapshot follower poll interval")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, or error")
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "prefetchd: bad -log-level %q\n", *logLevel)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, level)

	a, err := newApp(cfg, logger)
	if err != nil {
		fmt.Fprintf(os.Stderr, "prefetchd: %v\n", err)
		os.Exit(1)
	}

	// Shut down on SIGINT/SIGTERM: stop the maintenance loops, drain
	// in-flight requests, and log the final snapshots.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := a.run(ctx); err != nil {
		os.Exit(1)
	}
}
