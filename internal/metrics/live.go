// Live (concurrency-safe) metrics for the serving path. Unlike Confusion
// and Latencies — offline accumulators for the paper's evaluation figures —
// these are updated from many goroutines on the hot request path, so every
// write is a single atomic op and Observe never allocates.
package metrics

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Hot-path writes are striped: a single atomic.Int64 shared by 8 submitting
// cores bounces one cache line between them on every Inc/Observe, and the
// core-sweep bench showed the serve counters doing exactly that. Each
// Counter (and each Histogram's total/sum pair) therefore spreads its
// writes across stripeCount cache-line-padded cells, picking a cell via the
// runtime's per-P cheap random (math/rand/v2's top-level functions), and
// readers sum the cells. On single-CPU machines striping buys nothing, so
// stripeMask collapses to cell 0 and skips the random draw.
const stripeCount = 8

var stripeMask = func() uint64 {
	if runtime.NumCPU() < 2 {
		return 0
	}
	return stripeCount - 1
}()

func stripeIdx() uint64 {
	if stripeMask == 0 {
		return 0
	}
	return rand.Uint64() & stripeMask
}

// counterCell is one padded stripe: the value plus enough padding to keep
// adjacent cells on distinct 64-byte cache lines.
type counterCell struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing concurrency-safe counter. The zero
// value is ready to use; writes stripe across padded cells so concurrent
// writers on different cores do not serialize on one cache line.
type Counter struct {
	cells [stripeCount]counterCell
}

// Inc adds one.
func (c *Counter) Inc() { c.cells[stripeIdx()].v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.cells[stripeIdx()].v.Add(n) }

// Load returns the current value (the sum across stripes; monitoring-grade
// consistency under concurrent writes, same as before striping).
func (c *Counter) Load() int64 {
	var s int64
	for i := range c.cells {
		s += c.cells[i].v.Load()
	}
	return s
}

// DefaultLatencyBucketsMS is the exponential bucket ladder used for serving
// latency histograms, in milliseconds. The top bucket is implicit (+Inf).
var DefaultLatencyBucketsMS = []float64{
	0.05, 0.1, 0.2, 0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000,
}

// histSumCell is one padded stripe of a histogram's sample-count/sum pair.
type histSumCell struct {
	total    atomic.Int64
	sumMicro atomic.Int64
	_        [48]byte
}

// Histogram is a fixed-bucket concurrency-safe histogram. Observe is a
// bucket search plus striped atomic adds: safe to call from every request
// goroutine with zero allocation and no shared cache line between writers
// on different cores (see the striping note above Counter).
type Histogram struct {
	bounds []float64 // upper bounds, ascending; last bucket is +Inf
	// counts holds stripes× rows of per-bucket counters; each row is padded
	// to a whole number of cache lines so stripes never share one.
	counts  []atomic.Int64
	stride  int // padded row length: len(bounds)+1 rounded up to 8
	stripes int
	sums    []histSumCell // one padded total/sum pair per stripe
}

// NewHistogram builds a histogram over the given ascending upper bounds
// (nil uses DefaultLatencyBucketsMS).
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBucketsMS
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("metrics: histogram bounds must be ascending")
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	stripes := int(stripeMask) + 1
	stride := (len(b) + 1 + 7) &^ 7
	return &Histogram{
		bounds:  b,
		counts:  make([]atomic.Int64, stripes*stride),
		stride:  stride,
		stripes: stripes,
		sums:    make([]histSumCell, stripes),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// linear scan: the ladder is short and the common buckets come first
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	s := stripeIdx()
	h.counts[int(s)*h.stride+i].Add(1)
	cell := &h.sums[s]
	cell.total.Add(1)
	cell.sumMicro.Add(int64(v * 1e3))
}

// bucketCount sums bucket i across stripes.
func (h *Histogram) bucketCount(i int) int64 {
	var s int64
	for st := 0; st < h.stripes; st++ {
		s += h.counts[st*h.stride+i].Load()
	}
	return s
}

// N returns the number of recorded samples.
func (h *Histogram) N() int64 {
	var s int64
	for i := range h.sums {
		s += h.sums[i].total.Load()
	}
	return s
}

// Sum returns the sum of all recorded samples.
func (h *Histogram) Sum() float64 {
	var s int64
	for i := range h.sums {
		s += h.sums[i].sumMicro.Load()
	}
	return float64(s) / 1e3
}

// Mean returns the sample mean, or 0 for an empty histogram.
func (h *Histogram) Mean() float64 {
	n := h.N()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Quantile estimates the q-th quantile (0..1) by linear interpolation within
// the containing bucket. The +Inf bucket reports its lower bound.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.N()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(n)
	var cum int64
	for i := 0; i <= len(h.bounds); i++ {
		c := h.bucketCount(i)
		if float64(cum+c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			if i >= len(h.bounds) {
				return lo // open-ended top bucket
			}
			hi := h.bounds[i]
			if c == 0 {
				return hi
			}
			frac := (rank - float64(cum)) / float64(c)
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

// EWMA is a concurrency-safe exponentially weighted moving average with a
// companion mean-absolute-deviation estimate — the cheap streaming latency
// model the fleet health layer uses per peer: Value tracks the typical
// chunk latency, Deviation its spread, and together they derive the
// tail-quantile hedge delay without keeping samples.
type EWMA struct {
	mu    sync.Mutex
	alpha float64
	mean  float64
	dev   float64
	n     int64
}

// NewEWMA builds an estimator with the given smoothing factor in (0, 1]
// (higher = faster adaptation); alpha <= 0 defaults to 0.2.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.2
	}
	return &EWMA{alpha: alpha}
}

// Observe folds one sample into the average. The first sample seeds the
// mean directly so the estimate never warms up from zero.
func (e *EWMA) Observe(v float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.n == 0 {
		e.mean = v
	} else {
		d := v - e.mean
		if d < 0 {
			d = -d
		}
		e.dev += e.alpha * (d - e.dev)
		e.mean += e.alpha * (v - e.mean)
	}
	e.n++
}

// Value returns the current average (0 before any sample).
func (e *EWMA) Value() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.mean
}

// Deviation returns the smoothed mean absolute deviation (0 before two
// samples). For roughly normal samples, sigma ~= 1.25 * Deviation.
func (e *EWMA) Deviation() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dev
}

// N returns the number of samples observed.
func (e *EWMA) N() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.n
}

// Reset discards the estimate (a peer re-admitted after eviction should
// not hedge off its pre-eviction latency).
func (e *EWMA) Reset() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.mean, e.dev, e.n = 0, 0, 0
}

// HistogramBucket is one row of a snapshot.
type HistogramBucket struct {
	UpperBound float64 // math.Inf(1) for the top bucket
	Count      int64
}

// Snapshot returns the bucket counts. Concurrent Observe calls may land
// between bucket reads; totals are internally consistent enough for
// monitoring, which is all a live histogram promises.
func (h *Histogram) Snapshot() []HistogramBucket {
	out := make([]HistogramBucket, len(h.bounds)+1)
	for i := range out {
		ub := math.Inf(1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		out[i] = HistogramBucket{UpperBound: ub, Count: h.bucketCount(i)}
	}
	return out
}

// Expose renders the histogram in Prometheus text exposition format
// (cumulative le buckets, sum, count) under the given metric name.
func (h *Histogram) Expose(name string) string {
	var sb strings.Builder
	var cum int64
	for _, b := range h.Snapshot() {
		cum += b.Count
		le := "+Inf"
		if !math.IsInf(b.UpperBound, 1) {
			le = fmt.Sprintf("%g", b.UpperBound)
		}
		fmt.Fprintf(&sb, "%s_bucket{le=%q} %d\n", name, le, cum)
	}
	fmt.Fprintf(&sb, "%s_sum %g\n", name, h.Sum())
	fmt.Fprintf(&sb, "%s_count %d\n", name, h.N())
	return sb.String()
}

// ExposeCounter renders one counter in Prometheus text exposition format.
func ExposeCounter(name string, c *Counter) string {
	return fmt.Sprintf("%s %d\n", name, c.Load())
}
