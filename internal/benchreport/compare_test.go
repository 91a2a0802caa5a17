package benchreport

import (
	"strings"
	"testing"
)

// twoRunReports returns a baseline and an identical current run.
func twoRunReports() (*Report, *Report) {
	mk := func() *Report {
		r := New("reproduce", "small")
		r.Add(Record{
			Experiment: "fig2", Workload: "nasa",
			WallSeconds: 2.0, AllocBytes: 100 << 20,
			Events: 40000, EventsPerSec: 30000,
			Metrics: map[string]float64{
				"popular_share_pb": 0.93,
				"utilization_pb":   0.71,
			},
		})
		return r
	}
	return mk(), mk()
}

// TestCompareIdenticalRunPasses: the acceptance case — an identical
// run must pass the gate with every row unchanged.
func TestCompareIdenticalRunPasses(t *testing.T) {
	base, cur := twoRunReports()
	cmp := Compare(base, cur, DefaultTolerances())
	if !cmp.OK() {
		t.Fatalf("identical run flagged as regressed:\n%s", cmp)
	}
	for _, r := range cmp.Rows {
		if r.Class != ClassUnchanged {
			t.Errorf("row %s/%s %s = %v, want unchanged", r.Experiment, r.Workload, r.Metric, r.Class)
		}
	}
	if !strings.Contains(cmp.String(), "verdict: PASS") {
		t.Errorf("verdict table missing PASS:\n%s", cmp)
	}
}

// TestCompareFlagsInjectedSlowdown: the acceptance case — a 2×
// wall-clock slowdown must fail the gate.
func TestCompareFlagsInjectedSlowdown(t *testing.T) {
	base, cur := twoRunReports()
	cur.Records[0].WallSeconds = base.Records[0].WallSeconds * 2

	cmp := Compare(base, cur, DefaultTolerances())
	if cmp.OK() {
		t.Fatalf("2x slowdown passed the gate:\n%s", cmp)
	}
	regs := cmp.Regressions()
	if len(regs) != 1 || regs[0].Metric != "wall_seconds" {
		t.Fatalf("Regressions = %+v, want exactly wall_seconds", regs)
	}
	if regs[0].Delta < 0.99 || regs[0].Delta > 1.01 {
		t.Errorf("Delta = %v, want 1.0 (=+100%%)", regs[0].Delta)
	}
	if !strings.Contains(cmp.String(), "REGRESSED") || !strings.Contains(cmp.String(), "FAIL") {
		t.Errorf("verdict table missing failure markers:\n%s", cmp)
	}
}

// TestCompareDirections: movement classification must respect each
// metric's good direction and the tolerance.
func TestCompareDirections(t *testing.T) {
	cases := []struct {
		metric    string
		base, cur float64
		want      Class
	}{
		// Accuracy up = improved; down beyond 5% = regressed.
		{"popular_share_pb", 0.80, 0.90, ClassImproved},
		{"popular_share_pb", 0.80, 0.70, ClassRegressed},
		{"popular_share_pb", 0.80, 0.79, ClassUnchanged},
		// Cost metrics invert.
		{"traffic_increase_pb", 0.30, 0.20, ClassImproved},
		{"traffic_increase_pb", 0.30, 0.40, ClassRegressed},
		{"nodes_pb", 1000, 1200, ClassRegressed},
		{"nodes_pb", 1000, 900, ClassImproved},
		// Zero baseline falls back to absolute change.
		{"traffic_increase_pb", 0, 0.2, ClassRegressed},
		{"traffic_increase_pb", 0, 0.01, ClassUnchanged},
		// Serving-path cost metrics: fewer allocations and faster
		// predictions are improvements; the zero-alloc gate relies on
		// any growth from 0 classifying as a regression.
		{"predict_allocs_per_op", 0, 2, ClassRegressed},
		{"predict_allocs_per_op", 3, 0, ClassImproved},
		{"predict_ns_per_op", 400, 900, ClassRegressed},
		// Any *_seconds metric is a cost: a rise is a regression.
		{"lag_p99_seconds", 0.002, 0.2, ClassRegressed},
	}
	for _, c := range cases {
		base, cur := twoRunReports()
		base.Records[0].Metrics = map[string]float64{c.metric: c.base}
		cur.Records[0].Metrics = map[string]float64{c.metric: c.cur}
		cmp := Compare(base, cur, DefaultTolerances())
		var got *Row
		for i := range cmp.Rows {
			if cmp.Rows[i].Metric == c.metric {
				got = &cmp.Rows[i]
			}
		}
		if got == nil {
			t.Fatalf("%s: no comparison row", c.metric)
		}
		if got.Class != c.want {
			t.Errorf("%s %v -> %v: class %v, want %v", c.metric, c.base, c.cur, got.Class, c.want)
		}
	}
}

// TestCompareThroughputDropRegresses: events/sec is higher-is-better
// under the WallTime tolerance.
func TestCompareThroughputDropRegresses(t *testing.T) {
	base, cur := twoRunReports()
	cur.Records[0].EventsPerSec = base.Records[0].EventsPerSec / 3
	cmp := Compare(base, cur, DefaultTolerances())
	regs := cmp.Regressions()
	if len(regs) != 1 || regs[0].Metric != "events_per_sec" {
		t.Fatalf("Regressions = %+v, want events_per_sec", regs)
	}
}

// TestCompareCoverage: a record missing from the current run regresses;
// a new record is reported as added without failing the gate.
func TestCompareCoverage(t *testing.T) {
	base, cur := twoRunReports()
	cur.Records[0].Experiment = "fig3" // fig2 vanishes, fig3 appears

	cmp := Compare(base, cur, DefaultTolerances())
	if cmp.OK() {
		t.Fatal("lost record passed the gate")
	}
	var missing, added bool
	for _, r := range cmp.Rows {
		if r.Metric == "(record)" && r.Experiment == "fig2" && r.Class == ClassRegressed {
			missing = true
		}
		if r.Metric == "(record)" && r.Experiment == "fig3" && r.Class == ClassAdded {
			added = true
		}
	}
	if !missing || !added {
		t.Errorf("missing=%v added=%v, want both:\n%s", missing, added, cmp)
	}

	// Added-only difference must not fail.
	base2, cur2 := twoRunReports()
	cur2.Add(Record{Experiment: "fig4", Workload: "nasa", WallSeconds: 1})
	if cmp2 := Compare(base2, cur2, DefaultTolerances()); !cmp2.OK() {
		t.Errorf("added record failed the gate:\n%s", cmp2)
	}
}

// TestCompareMissingMetricRegresses: a headline metric that disappears
// from a record is a coverage loss, not a silent pass.
func TestCompareMissingMetricRegresses(t *testing.T) {
	base, cur := twoRunReports()
	delete(cur.Records[0].Metrics, "utilization_pb")
	cmp := Compare(base, cur, DefaultTolerances())
	regs := cmp.Regressions()
	if len(regs) != 1 || regs[0].Metric != "utilization_pb" {
		t.Fatalf("Regressions = %+v, want utilization_pb", regs)
	}
}
