package obs

import (
	"strings"
	"testing"
)

func TestRegisterBuildInfoAndRuntimeMetrics(t *testing.T) {
	reg := NewRegistry()
	RegisterBuildInfo(reg)
	RegisterRuntimeMetrics(reg)
	// Idempotent: the admin mux and an explicit call may both register.
	RegisterBuildInfo(reg)
	RegisterRuntimeMetrics(reg)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if err := ValidateExposition(text); err != nil {
		t.Fatalf("runtime exposition invalid: %v\n%s", err, text)
	}
	for _, want := range []string{
		"pbppm_build_info{go_version=",
		"pbppm_go_goroutines ",
		"pbppm_go_heap_alloc_bytes ",
		"pbppm_go_gc_cycles_total ",
		`pbppm_go_gc_pause_seconds{q="0.99"}`,
		`pbppm_go_sched_latency_seconds{q="0.999"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Runtime telemetry is live: a process always has goroutines.
	if strings.Contains(text, "pbppm_go_goroutines 0\n") {
		t.Error("goroutine gauge reads 0; collector not sampling")
	}
	// Nil registry: all no-ops.
	RegisterBuildInfo(nil)
	RegisterRuntimeMetrics(nil)
}

func TestFuncMetrics(t *testing.T) {
	reg := NewRegistry()
	reg.GaugeFunc("app_derived", "A derived gauge.", func() float64 { return 2.5 })
	reg.CounterFunc("app_events_total", "A derived counter.", func() float64 { return 42 })

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if err := ValidateExposition(text); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, text)
	}
	for _, want := range []string{
		"app_derived 2.5\n",
		"app_events_total 42\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	// Nil registry constructors stay safe.
	var nilReg *Registry
	nilReg.GaugeFunc("x", "h", func() float64 { return 0 })
	nilReg.CounterFunc("x_total", "h", func() float64 { return 0 })
}

func TestValidateExpositionNamingConventions(t *testing.T) {
	for _, tc := range []struct {
		name string
		text string
		ok   bool
	}{
		{"counter with _total", "# HELP a_total h\n# TYPE a_total counter\na_total 1\n", true},
		{"counter missing _total", "# HELP a h\n# TYPE a counter\na 1\n", false},
		{"gauge plain", "# HELP g h\n# TYPE g gauge\ng 1\n", true},
		{"gauge with _total", "# HELP g_total h\n# TYPE g_total gauge\ng_total 1\n", false},
		{"gauge with _count", "# HELP g_count h\n# TYPE g_count gauge\ng_count 1\n", false},
		{"histogram reserved suffix", "# HELP h_sum h\n# TYPE h_sum histogram\n", false},
	} {
		err := ValidateExposition(tc.text)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: invalid exposition accepted", tc.name)
		}
	}
}
