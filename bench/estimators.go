package main

import (
	"math"
	"sort"
	"time"
)

// The estimators are the harness's defence against the shared box: every
// gated number is a median or a minimum, never a mean over raw samples and
// never a tail (see README.md, "Noise rules").

// median returns the middle value of xs (mean of the two middle values for
// an even count), 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentileFloor returns the p-quantile (0 < p < 1, nearest rank) of the
// samples, lowered until at least `beyond` samples lie above the returned
// rank and never below the median rank: a p99 of 50 samples would be one
// sample's luck, so it degrades towards the median instead. It also reports
// the quantile actually used.
func percentileFloor(xs []float64, p float64, beyond int) (value, used float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(n))) // 1-based
	if hi := n - beyond; rank > hi {
		rank = hi
	}
	if mid := (n + 1) / 2; rank < mid {
		rank = mid
	}
	return s[rank-1], float64(rank) / float64(n)
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between order statistics, 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return s[n-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// op is one completed operation of a closed-loop phase: when it completed
// (offset from the start of the phase) and how long its caller was blocked.
type op struct {
	done  time.Duration
	latMS float64
}

// blockStats cuts a phase's operations, in completion order, into about
// `blocks` runs of equal count and returns each run's throughput (its count
// over the time it spanned) and its median latency. Equal-count blocks keep
// the rates continuous where a count per fixed window is not (a one-second
// window at 33 frames/s can only read 32, 33 or 34). Operations that complete
// together — a batch resolves all its callers at once — stay in one block:
// a boundary falling inside such a group moves to its end, or a short block
// would count a whole batch for a fraction of its time.
func blockStats(ops []op, blocks int) (rates, medLatMS []float64) {
	n := len(ops)
	if n < 2 {
		return nil, nil
	}
	s := append([]op(nil), ops...)
	sort.Slice(s, func(i, j int) bool { return s[i].done < s[j].done })
	if blocks > n-1 {
		blocks = n - 1
	}
	if blocks < 1 {
		blocks = 1
	}
	// "together" is within a tenth of the mean spacing
	eps := (s[n-1].done - s[0].done) / time.Duration(10*(n-1))
	snap := func(i int) int {
		for i < n-1 && s[i+1].done-s[i].done < eps {
			i++
		}
		return i
	}
	// block b covers operations (lo, hi]; its clock starts when operation lo
	// completed
	lo := snap(0)
	for b := 1; b <= blocks; b++ {
		hi := snap(b * (n - 1) / blocks)
		dt := (s[hi].done - s[lo].done).Seconds()
		if hi <= lo || dt <= 0 {
			continue
		}
		rates = append(rates, float64(hi-lo)/dt)
		lat := make([]float64, 0, hi-lo)
		for _, o := range s[lo+1 : hi+1] {
			lat = append(lat, o.latMS)
		}
		medLatMS = append(medLatMS, median(lat))
		lo = hi
	}
	return rates, medLatMS
}

// quietestRate and quietestLatency are the closed-loop estimators: the
// throughput and the median latency of the least-disturbed quarter second.
// On this box interference comes in bursts of a fraction of a second to a
// few seconds, slows anything from a fifth to more than half of a 10-second
// run by 15–50%, and only ever adds time: across six runs of identical code
// the whole-run median latency ranged over 13%, the lower quartile of block
// medians over 8%, the smallest block median over 4%. The median inside the
// block keeps one lucky operation from setting the result; the best block
// across the run is minOfK for a stream.
func quietestRate(rates []float64) float64 {
	best := 0.0
	for _, r := range rates {
		if r > best {
			best = r
		}
	}
	return best
}

func quietestLatency(medLatMS []float64) float64 { return minOfK(medLatMS) }

// minOfK returns the smallest of one page's repetitions. Interference on a
// shared box only ever adds time, so the minimum is the least-disturbed
// repetition.
func minOfK(reps []float64) float64 {
	if len(reps) == 0 {
		return 0
	}
	m := reps[0]
	for _, v := range reps[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// minOfKMean is the render estimator: the mean over pages of each page's
// min-of-k repetitions.
func minOfKMean(perPage [][]float64) float64 {
	if len(perPage) == 0 {
		return 0
	}
	sum := 0.0
	for _, reps := range perPage {
		sum += minOfK(reps)
	}
	return sum / float64(len(perPage))
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(values, n=4) (the default exclusive method) does, so
// selfcheck's spreads are the numbers the accepting driver computes. It
// needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// iqrShare is the inter-quartile range of xs as a share of their median —
// the run-to-run spread the benchmark contract bounds.
func iqrShare(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

// worsening reports by what share of a's median b's median is worse, in the
// metric's own direction (negative when b is better).
func worsening(a, b []float64, higherIsBetter bool) float64 {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return 0
	}
	if higherIsBetter {
		return (ma - mb) / math.Abs(ma)
	}
	return (mb - ma) / math.Abs(ma)
}

// disagreement is the two-set repeatability number: how much worse either
// set's median is than the other's, whichever is larger. Two sets of runs of
// identical code must keep it within the metric's bound.
func disagreement(a, b []float64, higherIsBetter bool) float64 {
	return math.Max(worsening(a, b, higherIsBetter), worsening(b, a, higherIsBetter))
}
