package benchreport

import (
	"fmt"
	"sort"
	"strings"

	"pbppm/internal/metrics"
)

// Class is Compare's verdict for one metric.
type Class int

const (
	// ClassUnchanged: within tolerance of the baseline.
	ClassUnchanged Class = iota
	// ClassImproved: moved beyond tolerance in the good direction.
	ClassImproved
	// ClassRegressed: moved beyond tolerance in the bad direction, or
	// the record disappeared from the current run.
	ClassRegressed
	// ClassAdded: present in the current run but not the baseline;
	// informational, never a failure.
	ClassAdded
)

// String returns the verdict word used in the table.
func (c Class) String() string {
	switch c {
	case ClassImproved:
		return "improved"
	case ClassRegressed:
		return "REGRESSED"
	case ClassAdded:
		return "added"
	default:
		return "unchanged"
	}
}

// Tolerances bounds the relative change Compare accepts before it
// classifies a metric as moved. All are fractions: 0.5 allows +50%.
type Tolerances struct {
	// WallTime bounds wall-clock growth, allocation growth, and
	// events/sec loss — the run-cost metrics, which are noisy across
	// machines and need loose bounds in CI.
	WallTime float64
	// Metric bounds headline-metric movement in the bad direction
	// (hit ratio down, traffic increase up, nodes up, ...). These are
	// deterministic given one seed, so the bound can be tight.
	Metric float64
}

// DefaultTolerances suit same-machine comparisons: half again as slow
// fails, headline numbers may drift 5%.
func DefaultTolerances() Tolerances {
	return Tolerances{WallTime: 0.5, Metric: 0.05}
}

// Row is one compared metric.
type Row struct {
	Experiment string
	Workload   string
	Metric     string
	Baseline   float64
	Current    float64
	// Delta is the relative change (current-baseline)/baseline, or the
	// absolute change when the baseline value is zero.
	Delta float64
	Class Class
}

// Comparison is the verdict of one run against a baseline.
type Comparison struct {
	Rows []Row
}

// lowerIsBetter reports the good direction for a metric name. Cost
// metrics (time, bytes, node counts, traffic, allocations) should
// fall; accuracy and throughput metrics should rise.
func lowerIsBetter(metric string) bool {
	switch {
	case metric == "wall_seconds" || metric == "alloc_bytes":
		return true
	case strings.HasPrefix(metric, "traffic_increase"):
		return true
	case strings.HasPrefix(metric, "nodes") || strings.HasSuffix(metric, "_nodes"):
		return true
	case strings.HasSuffix(metric, "_bytes") || strings.HasSuffix(metric, "_seconds"):
		return true
	case strings.HasSuffix(metric, "_allocs_per_op") || strings.HasSuffix(metric, "_ns_per_op"):
		return true
	default:
		return false
	}
}

// classify compares one value pair under a tolerance.
func classify(metric string, base, cur, tol float64) (delta float64, class Class) {
	if base == cur {
		return 0, ClassUnchanged
	}
	if base != 0 {
		delta = (cur - base) / base
	} else {
		// No baseline magnitude to scale by: apply the tolerance to the
		// absolute change instead (traffic_increase is legitimately 0).
		delta = cur - base
	}
	bad := delta > 0
	if !lowerIsBetter(metric) {
		bad = delta < 0
	}
	mag := delta
	if mag < 0 {
		mag = -mag
	}
	if mag <= tol {
		return delta, ClassUnchanged
	}
	if bad {
		return delta, ClassRegressed
	}
	return delta, ClassImproved
}

// Compare classifies every run-cost and headline metric of current
// against baseline. Records present only in the baseline regress (the
// run lost coverage); records present only in current are reported as
// added. Both reports must already be validated (ReadFile/Decode do).
func Compare(baseline, current *Report, tol Tolerances) *Comparison {
	cmp := &Comparison{}
	add := func(rec *Record, metric string, base, cur, t float64) {
		delta, class := classify(metric, base, cur, t)
		cmp.Rows = append(cmp.Rows, Row{
			Experiment: rec.Experiment,
			Workload:   rec.Workload,
			Metric:     metric,
			Baseline:   base,
			Current:    cur,
			Delta:      delta,
			Class:      class,
		})
	}

	for i := range baseline.Records {
		base := &baseline.Records[i]
		cur := current.Find(base.Experiment, base.Workload)
		if cur == nil {
			cmp.Rows = append(cmp.Rows, Row{
				Experiment: base.Experiment,
				Workload:   base.Workload,
				Metric:     "(record)",
				Class:      ClassRegressed,
			})
			continue
		}
		add(base, "wall_seconds", base.WallSeconds, cur.WallSeconds, tol.WallTime)
		add(base, "alloc_bytes", float64(base.AllocBytes), float64(cur.AllocBytes), tol.WallTime)
		if base.EventsPerSec > 0 || cur.EventsPerSec > 0 {
			add(base, "events_per_sec", base.EventsPerSec, cur.EventsPerSec, tol.WallTime)
		}
		for _, name := range sortedKeys(base.Metrics) {
			cv, ok := cur.Metrics[name]
			if !ok {
				cmp.Rows = append(cmp.Rows, Row{
					Experiment: base.Experiment, Workload: base.Workload,
					Metric: name, Baseline: base.Metrics[name], Class: ClassRegressed,
				})
				continue
			}
			add(base, name, base.Metrics[name], cv, tol.Metric)
		}
	}
	for i := range current.Records {
		cur := &current.Records[i]
		if baseline.Find(cur.Experiment, cur.Workload) == nil {
			cmp.Rows = append(cmp.Rows, Row{
				Experiment: cur.Experiment,
				Workload:   cur.Workload,
				Metric:     "(record)",
				Current:    cur.WallSeconds,
				Class:      ClassAdded,
			})
		}
	}
	return cmp
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	// Stable row order keeps verdict tables diffable run to run.
	sort.Strings(keys)
	return keys
}

// Regressions returns the rows classified as regressed.
func (c *Comparison) Regressions() []Row {
	var out []Row
	for _, r := range c.Rows {
		if r.Class == ClassRegressed {
			out = append(out, r)
		}
	}
	return out
}

// OK reports whether nothing regressed.
func (c *Comparison) OK() bool { return len(c.Regressions()) == 0 }

// String renders the verdict table.
func (c *Comparison) String() string {
	tb := &metrics.Table{
		Title:   "Benchmark comparison vs baseline",
		Headers: []string{"experiment", "workload", "metric", "baseline", "current", "delta", "verdict"},
	}
	for _, r := range c.Rows {
		delta := fmt.Sprintf("%+.1f%%", r.Delta*100)
		if r.Metric == "(record)" {
			delta = "-"
		}
		tb.AddRow(r.Experiment, r.Workload, r.Metric,
			formatValue(r.Metric, r.Baseline), formatValue(r.Metric, r.Current),
			delta, r.Class.String())
	}
	verdict := "PASS"
	if n := len(c.Regressions()); n > 0 {
		verdict = fmt.Sprintf("FAIL (%d regressed)", n)
	}
	return tb.String() + "verdict: " + verdict + "\n"
}

// formatValue keeps big counters readable and ratios precise.
func formatValue(metric string, v float64) string {
	switch {
	case metric == "alloc_bytes":
		return fmt.Sprintf("%.1fMB", v/(1<<20))
	case metric == "events_per_sec" || strings.HasPrefix(metric, "nodes"):
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}
