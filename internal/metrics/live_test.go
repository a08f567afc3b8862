package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
			c.Add(2)
		}()
	}
	wg.Wait()
	if got := c.Load(); got != 8*1002 {
		t.Fatalf("counter = %d, want %d", got, 8*1002)
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 2, 50, 1e6} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	wantCounts := []int64{2, 1, 1, 1} // (..1], (1..10], (10..100], (100..Inf)
	if len(snap) != len(wantCounts) {
		t.Fatalf("snapshot has %d buckets, want %d", len(snap), len(wantCounts))
	}
	for i, b := range snap {
		if b.Count != wantCounts[i] {
			t.Fatalf("bucket %d count %d, want %d", i, b.Count, wantCounts[i])
		}
	}
	if !math.IsInf(snap[len(snap)-1].UpperBound, 1) {
		t.Fatal("last bucket must be +Inf")
	}
	if h.N() != 5 {
		t.Fatalf("N = %d, want 5", h.N())
	}
}

func TestHistogramMeanAndQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	for i := 0; i < 100; i++ {
		h.Observe(1.5) // all in the (1,2] bucket
	}
	if m := h.Mean(); math.Abs(m-1.5) > 1e-9 {
		t.Fatalf("mean = %v, want 1.5", m)
	}
	// the median must interpolate inside the (1,2] bucket
	if q := h.Quantile(0.5); q <= 1 || q > 2 {
		t.Fatalf("median %v outside the sample bucket", q)
	}
	// quantiles are monotone
	prev := 0.0
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 1} {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile(%v) = %v below quantile of smaller q (%v)", q, v, prev)
		}
		prev = v
	}
	empty := NewHistogram(nil)
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(nil)
	var wg sync.WaitGroup
	const workers, per = 8, 2000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w))
			}
		}(w)
	}
	wg.Wait()
	if h.N() != workers*per {
		t.Fatalf("N = %d, want %d", h.N(), workers*per)
	}
	var cum int64
	for _, b := range h.Snapshot() {
		cum += b.Count
	}
	if cum != workers*per {
		t.Fatalf("bucket sum %d, want %d", cum, workers*per)
	}
}

func TestHistogramObserveDoesNotAllocate(t *testing.T) {
	h := NewHistogram(nil)
	if allocs := testing.AllocsPerRun(1000, func() { h.Observe(3.7) }); allocs != 0 {
		t.Fatalf("Observe allocates %v per call, want 0", allocs)
	}
}

func TestHistogramExpose(t *testing.T) {
	h := NewHistogram([]float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(500)
	text := h.Expose("percival_serve_latency_ms")
	for _, want := range []string{
		`percival_serve_latency_ms_bucket{le="1"} 1`,
		`percival_serve_latency_ms_bucket{le="10"} 2`,
		`percival_serve_latency_ms_bucket{le="+Inf"} 3`,
		"percival_serve_latency_ms_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	var c Counter
	c.Add(7)
	if got := ExposeCounter("percival_serve_shed_total", &c); got != "percival_serve_shed_total 7\n" {
		t.Fatalf("counter exposition = %q", got)
	}
}

// TestStripedCellsAggregate forces multi-stripe mode (single-CPU machines
// collapse stripeMask to 0) and checks that reads aggregate across every
// padded cell: counters, bucket counts, totals, sums, quantiles, and the
// Prometheus rendering all see the union of stripes.
func TestStripedCellsAggregate(t *testing.T) {
	old := stripeMask
	stripeMask = stripeCount - 1
	defer func() { stripeMask = old }()

	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
			c.Add(-2)
		}()
	}
	wg.Wait()
	if got := c.Load(); got != 8*998 {
		t.Fatalf("striped counter = %d, want %d", got, 8*998)
	}

	// The histogram must be built after the mask flip so its stripe count
	// matches the index space stripeIdx draws from.
	h := NewHistogram([]float64{1, 10})
	for i := 0; i < 300; i++ {
		h.Observe(0.5) // bucket 0
	}
	for i := 0; i < 200; i++ {
		h.Observe(5) // bucket 1
	}
	for i := 0; i < 100; i++ {
		h.Observe(50) // +Inf bucket
	}
	if got := h.N(); got != 600 {
		t.Fatalf("N = %d, want 600", got)
	}
	want := 300*0.5 + 200*5 + 100*50
	if got := h.Sum(); math.Abs(got-want) > 1e-6 {
		t.Fatalf("Sum = %v, want %v", got, want)
	}
	if q := h.Quantile(0.25); q <= 0 || q > 1 {
		t.Fatalf("Quantile(0.25) = %v, want in bucket 0", q)
	}
	snap := h.Snapshot()
	if len(snap) != 3 || snap[0].Count != 300 || snap[1].Count != 200 || snap[2].Count != 100 || !math.IsInf(snap[2].UpperBound, 1) {
		t.Fatalf("Snapshot = %+v", snap)
	}
	if !strings.Contains(h.Expose("x"), "x_count 600") {
		t.Fatalf("Expose missing aggregated count:\n%s", h.Expose("x"))
	}
}
