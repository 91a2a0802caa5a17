// Command perfbench is the repository's benchmark. It assembles each
// deployment in one process the way cmd/prefetchd and
// cmd/prefetchrouter do (maintain.New → Observe → Rebuild with the
// core factory, server.New, cluster.NewRouter, maintain.Publisher and
// maintain.Follower on loopback listeners), drives a workload against
// it, checks every response, and prints the metrics as one JSON line.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload warm-browse --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line carries the end-to-end metrics, measured
// without instrumentation. With --trace 1 the workload runs twice, once
// plain and once with every layer wrapped, and the last line carries the
// per-layer metrics plus the tracing overhead (traced minus plain).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"pbppm/internal/benchreport"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line inputs every workload receives.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// outcome is what one workload run produces: the end-to-end metrics
// (always), the per-layer metrics (traced runs only), the request
// accounting, and every failed output check.
type outcome struct {
	endToEnd  map[string]float64
	layers    map[string]float64
	attempted int64
	failed    int64
	problems  []string
	// info is printed as a header line before the result: the rates,
	// percentile sample counts, and other context a reader needs.
	info map[string]any
	// demandRPSMax is the capacity staircase's result, and load the
	// generator-side figures, measured in both passes of a --trace 1
	// invocation.
	demandRPSMax float64
	load         map[string]float64
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// pct returns the exact q-quantile of xs and records a problem unless
// at least ten samples lie beyond it.
func (o *outcome) pct(what string, xs []float64, q float64) float64 {
	v, ok := percentile(xs, q)
	if !ok {
		o.problem("%s: %d samples leave fewer than ten beyond the percentile", what, len(xs))
	}
	return v
}

// p99 returns windowedP99 of xs and records a problem when it has too
// few samples.
func (o *outcome) p99(what string, xs []float64) float64 {
	v, ok := windowedP99(xs)
	if !ok {
		o.problem("%s: %d samples, fewer than %d", what, len(xs), minWindowSamples)
	}
	return v
}

// workload runs one named traffic mix; BENCHMARK.json gives each one's
// reason. traced selects the instrumented variant; only the traced
// variant fills outcome.layers.
type workload func(opts options, traced bool) (*outcome, error)

var workloads = map[string]workload{
	"warm-browse":   serving(kindWarm),
	"routed-cold":   serving(kindCold),
	"publish-churn": serving(kindChurn),
	"paper-replay":  runReplay,
}

func serving(k kind) workload {
	return func(o options, traced bool) (*outcome, error) { return runServing(k, o, traced) }
}

// endToEndUnits lists every end-to-end metric with its unit; each
// workload fills all of them.
var endToEndUnits = map[string]string{
	"setup_s":          "s",
	"served_per_cpu_s": "1/cpu-s",
	"p50_ms":           "ms",
	"hit_ratio":        "ratio",
	"precision":        "ratio",
	"traffic_increase": "ratio",
	"heap_mb":          "MB",
}

// gcPercent is the process's GC target (GOGC).
const gcPercent = 400

func main() { os.Exit(mainErr()) }

func mainErr() int {
	name := flag.String("workload", "", "workload: warm-browse, routed-cold, publish-churn or paper-replay")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 20, "measured seconds of one run")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --seconds must be positive\n")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	// The generator shares the process and its CPUs with the servers,
	// and its clicks allocate as much as the servers do. A larger GC
	// target keeps collections, which delay the dispatcher, rare enough
	// for its lag to stay small; runtime.gc_* report the GC cost.
	debug.SetGCPercent(gcPercent)
	capDefaultTransport()

	opts := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	plain, err := run(opts, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	res := result{Metrics: map[string]metric{}}
	out := plain
	if opts.trace {
		traced, err := run(opts, true)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s traced: %v\n", *name, err)
			return 1
		}
		// The program's own figures come from the plain pass; the traced
		// pass gives only the tracing overhead.
		for k, v := range plain.load {
			traced.layers[k] = v
		}
		traced.layers["trace.overhead_p50_ms"] = traced.endToEnd["p50_ms"] - plain.endToEnd["p50_ms"]
		traced.layers["trace.overhead_demand_rps_max"] = traced.demandRPSMax - plain.demandRPSMax
		traced.problems = append(traced.problems, plain.problems...)
		traced.attempted += plain.attempted
		traced.failed += plain.failed
		out = traced
		for _, l := range perLayer {
			v, ok := out.layers[l.name]
			if !ok {
				fmt.Fprintf(os.Stderr, "perfbench: %s: per-layer metric %s missing\n", *name, l.name)
				return 1
			}
			res.Metrics[l.name] = metric{Value: v, Unit: l.unit}
		}
	} else {
		for n, unit := range endToEndUnits {
			v, ok := out.endToEnd[n]
			if !ok {
				fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s missing\n", *name, n)
				return 1
			}
			res.Metrics[n] = metric{Value: v, Unit: unit}
		}
	}
	res.Correct = len(out.problems) == 0
	res.Attempted = out.attempted
	res.Failed = out.failed
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Correct = false
		out.problem("no operation attempted")
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", *name, p)
	}

	info := map[string]any{
		"workload": *name,
		"seed":     *seed,
		"seconds":  *seconds,
		"trace":    *trace,
		"env":      benchreport.CaptureEnvironment(),
	}
	for k, v := range out.info {
		info[k] = v
	}
	if err := printJSON(info); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := printJSON(res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// printJSON writes v as one line on standard output; map keys come
// out sorted, so lines diff cleanly between runs.
func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("encoding output: %w", err)
	}
	_, err = fmt.Println(string(b))
	return err
}

// median returns the median of xs (0 for none); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
