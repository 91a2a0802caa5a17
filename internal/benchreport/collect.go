package benchreport

import (
	"runtime"
	"sort"
	"time"

	"pbppm/internal/markov"
	"pbppm/internal/sim"
)

// Measurement is the cost of one measured section.
type Measurement struct {
	Wall time.Duration
	// AllocBytes is the heap allocated while f ran (TotalAlloc delta):
	// allocation pressure, which tracks GC cost, not peak residency.
	AllocBytes uint64
}

// Measure runs f and returns its wall time and allocation delta along
// with f's error. The MemStats reads cost two stop-the-world pauses,
// which is noise at experiment granularity but makes Measure wrong for
// per-request use — it belongs around whole experiments.
func Measure(f func() error) (Measurement, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := f()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	return Measurement{Wall: wall, AllocBytes: after.TotalAlloc - before.TotalAlloc}, err
}

// NewRecord assembles one experiment's record from its measurement,
// phase clock, trained-model statistics, and headline metrics. Any of
// clock, models, and metrics may be nil/empty. Events per second are
// computed over the simulate phase only, so a slow training pass does
// not masquerade as slow replay throughput.
//
// The clock's phase totals are sums of per-run wall times. Because
// sim.Compare and the experiment sweeps run their models and windows
// concurrently, train + simulate can exceed WallSeconds, and
// EventsPerSec is per-run replay throughput, not the experiment's.
func NewRecord(experiment, workload string, m Measurement, clock *sim.PhaseClock,
	models map[string]markov.TreeStats, metrics map[string]float64) Record {
	rec := Record{
		Experiment:  experiment,
		Workload:    workload,
		WallSeconds: m.Wall.Seconds(),
		AllocBytes:  m.AllocBytes,
		Metrics:     metrics,
	}
	if totals := clock.Totals(); len(totals) > 0 {
		rec.Phases = make(map[string]float64, len(totals))
		for phase, d := range totals {
			rec.Phases[phase] = d.Seconds()
		}
	}
	rec.Events = clock.Events()
	if secs := clock.Total(sim.PhaseSimulate).Seconds(); secs > 0 && rec.Events > 0 {
		rec.EventsPerSec = float64(rec.Events) / secs
	}
	if len(models) > 0 {
		names := make([]string, 0, len(models))
		for name := range models {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			rec.Models = append(rec.Models, ModelStatsFrom(name, models[name]))
		}
	}
	return rec
}
