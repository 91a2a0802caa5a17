package obs

import (
	"testing"
	"time"
)

func TestBucketIndex(t *testing.T) {
	bounds := []time.Duration{time.Millisecond, 10 * time.Millisecond}
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{time.Millisecond, 0},
		{time.Millisecond + 1, 1},
		{10 * time.Millisecond, 1},
		{time.Second, 2},
	}
	for _, c := range cases {
		if got := BucketIndex(bounds, c.d); got != c.want {
			t.Errorf("BucketIndex(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

// TestQuantileEdgeCases pins the Quantile contract at its edges: empty
// histogram, single observation, and q=0 / q=1.
func TestQuantileEdgeCases(t *testing.T) {
	h := NewHistogram(nil)
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile(0.5) = %v, want 0", got)
	}
	if got := h.Quantile(0); got != 0 {
		t.Errorf("empty Quantile(0) = %v, want 0", got)
	}
	if got := h.Quantile(1); got != 0 {
		t.Errorf("empty Quantile(1) = %v, want 0", got)
	}

	// A single observation answers every quantile with its bucket bound.
	h.Observe(3 * time.Millisecond) // falls in the 5ms bucket
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := h.Quantile(q); got != 5*time.Millisecond {
			t.Errorf("single-observation Quantile(%v) = %v, want 5ms", q, got)
		}
	}

	// With a spread, q=0 is the first non-empty bucket and q=1 the last.
	h.Observe(400 * time.Millisecond)
	if got := h.Quantile(0); got != 5*time.Millisecond {
		t.Errorf("Quantile(0) = %v, want 5ms", got)
	}
	if got := h.Quantile(1); got != 500*time.Millisecond {
		t.Errorf("Quantile(1) = %v, want 500ms", got)
	}

	// Overflow observations report twice the final bound.
	h.Observe(time.Minute)
	if got := h.Quantile(1); got != 20*time.Second {
		t.Errorf("overflow Quantile(1) = %v, want 20s", got)
	}
}

func TestHistogramCountSum(t *testing.T) {
	h := NewHistogram([]time.Duration{time.Second})
	h.Observe(250 * time.Millisecond)
	h.Observe(2 * time.Second)
	if got := h.Count(); got != 2 {
		t.Errorf("Count = %d, want 2", got)
	}
	if got := h.Sum(); got != 2250*time.Millisecond {
		t.Errorf("Sum = %v, want 2.25s", got)
	}
}

func TestQuantileOverCountsEmptyAndZeroCounts(t *testing.T) {
	bounds := []time.Duration{time.Millisecond}
	if got := QuantileOverCounts(bounds, []int64{0, 0}, 0.99); got != 0 {
		t.Errorf("all-zero counts Quantile = %v, want 0", got)
	}
}

func TestNewHistogramPanicsOnUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on unsorted bounds")
		}
	}()
	NewHistogram([]time.Duration{time.Second, time.Millisecond})
}
