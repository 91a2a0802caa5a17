package popularity

import (
	"fmt"
	"time"
)

// WindowedRanking ranks URL popularity over a sliding window of day
// buckets — the paper's "popularities of different URLs can be ranked
// by a server dynamically from time to time", with stale days aging
// out. The zero value is not usable; construct with NewWindowedRanking.
//
// Observations are bucketed by day; Advance drops buckets older than
// the window. Grades and relative popularity are computed over the
// live buckets only.
type WindowedRanking struct {
	days    int
	buckets []map[string]int64 // ring, one per day
	starts  []time.Time        // bucket day starts; zero time = empty
	head    int                // index of the newest bucket
	// agg caches the aggregated view; rebuilt lazily.
	agg   *Ranking
	dirty bool
}

// NewWindowedRanking returns a ranking over the trailing `days` days.
// It panics if days < 1: a windowless ranking is a programmer error
// (use Ranking).
func NewWindowedRanking(days int) *WindowedRanking {
	if days < 1 {
		panic(fmt.Sprintf("popularity: window of %d days", days))
	}
	return &WindowedRanking{
		days:    days,
		buckets: make([]map[string]int64, days),
		starts:  make([]time.Time, days),
	}
}

// dayStart truncates t to its UTC day.
func dayStart(t time.Time) time.Time {
	u := t.UTC()
	return time.Date(u.Year(), u.Month(), u.Day(), 0, 0, 0, 0, time.UTC)
}

// Observe records one access to url at time t. Observations may arrive
// slightly out of order; anything older than the live window is
// dropped.
func (wr *WindowedRanking) Observe(url string, t time.Time) {
	day := dayStart(t)
	wr.dirty = true
	// Find or open the bucket for this day.
	for i := range wr.buckets {
		if wr.starts[i].Equal(day) {
			wr.buckets[i][url]++
			return
		}
	}
	// New day: advance the ring if this day is newer than the head.
	if !wr.starts[wr.head].IsZero() && day.Before(wr.starts[wr.head]) {
		// Older than every live bucket: outside the window, drop.
		return
	}
	wr.head = (wr.head + 1) % wr.days
	wr.buckets[wr.head] = map[string]int64{url: 1}
	wr.starts[wr.head] = day
	wr.expire(day)
}

// Advance drops buckets older than the window relative to now; callers
// invoke it on day boundaries (Observe does so implicitly when a new
// day opens).
func (wr *WindowedRanking) Advance(now time.Time) {
	wr.expire(dayStart(now))
	wr.dirty = true
}

func (wr *WindowedRanking) expire(newest time.Time) {
	cutoff := newest.AddDate(0, 0, -(wr.days - 1))
	for i := range wr.buckets {
		if !wr.starts[i].IsZero() && wr.starts[i].Before(cutoff) {
			wr.buckets[i] = nil
			wr.starts[i] = time.Time{}
		}
	}
}

// aggregate rebuilds the flat view.
func (wr *WindowedRanking) aggregate() *Ranking {
	if !wr.dirty && wr.agg != nil {
		return wr.agg
	}
	agg := NewRanking()
	for i, b := range wr.buckets {
		if wr.starts[i].IsZero() {
			continue
		}
		for u, c := range b {
			agg.Observe(u, c)
		}
	}
	wr.agg = agg
	wr.dirty = false
	return agg
}

// GradeOf implements Grader over the live window.
func (wr *WindowedRanking) GradeOf(url string) Grade { return wr.aggregate().GradeOf(url) }

// Relative returns RP(url) over the live window.
func (wr *WindowedRanking) Relative(url string) float64 { return wr.aggregate().Relative(url) }

// Count returns the accesses to url within the window.
func (wr *WindowedRanking) Count(url string) int64 { return wr.aggregate().Count(url) }

// Len returns the number of distinct URLs in the window.
func (wr *WindowedRanking) Len() int { return wr.aggregate().Len() }

// Top returns the n most popular URLs of the window.
func (wr *WindowedRanking) Top(n int) []string { return wr.aggregate().Top(n) }

// Snapshot returns an independent flat Ranking of the window, suitable
// for handing to a model build.
func (wr *WindowedRanking) Snapshot() *Ranking { return wr.aggregate().Clone() }

var _ Grader = (*WindowedRanking)(nil)
