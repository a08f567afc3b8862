// Package metrics implements the evaluation arithmetic used throughout the
// paper's Section 5: binary confusion matrices with accuracy / precision /
// recall / F1, latency distributions with percentiles and CDFs (Fig. 14),
// and fixed-width table rendering for paper-style result figures.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Confusion is a binary confusion matrix for the ad-blocking task. The
// positive class is "ad"; a true positive is an ad correctly blocked, a
// false positive is content incorrectly blocked (§5.3's definitions).
type Confusion struct {
	TP, TN, FP, FN int
}

// Add records one prediction (true = flagged as ad) against ground truth.
func (c *Confusion) Add(predictedAd, actualAd bool) {
	switch {
	case predictedAd && actualAd:
		c.TP++
	case predictedAd && !actualAd:
		c.FP++
	case !predictedAd && actualAd:
		c.FN++
	default:
		c.TN++
	}
}

// Total returns the number of recorded predictions.
func (c *Confusion) Total() int { return c.TP + c.TN + c.FP + c.FN }

// Accuracy returns (TP+TN)/total, or 0 for an empty matrix.
func (c *Confusion) Accuracy() float64 {
	if c.Total() == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(c.Total())
}

// Precision returns TP/(TP+FP), or 0 when nothing was predicted positive.
func (c *Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN), or 0 when there were no positives.
func (c *Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (c *Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// String renders the matrix compactly.
func (c *Confusion) String() string {
	return fmt.Sprintf("acc=%.4f P=%.4f R=%.4f F1=%.4f (TP=%d TN=%d FP=%d FN=%d)",
		c.Accuracy(), c.Precision(), c.Recall(), c.F1(), c.TP, c.TN, c.FP, c.FN)
}

// Latencies accumulates duration samples (in milliseconds) and answers
// distribution queries.
type Latencies struct {
	samples []float64
	sorted  bool
}

// Add records one sample.
func (l *Latencies) Add(ms float64) {
	l.samples = append(l.samples, ms)
	l.sorted = false
}

// N returns the sample count.
func (l *Latencies) N() int { return len(l.samples) }

func (l *Latencies) ensureSorted() {
	if !l.sorted {
		sort.Float64s(l.samples)
		l.sorted = true
	}
}

// Percentile returns the p-th percentile (0 <= p <= 100) by linear
// interpolation; it panics on an empty set.
func (l *Latencies) Percentile(p float64) float64 {
	if len(l.samples) == 0 {
		panic("metrics: percentile of empty latency set")
	}
	l.ensureSorted()
	if p <= 0 {
		return l.samples[0]
	}
	if p >= 100 {
		return l.samples[len(l.samples)-1]
	}
	pos := p / 100 * float64(len(l.samples)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return l.samples[lo]*(1-frac) + l.samples[hi]*frac
}

// Median returns the 50th percentile. Fig. 15 reports median render times.
func (l *Latencies) Median() float64 { return l.Percentile(50) }

// Table renders rows of cells in fixed-width columns, the format used for
// the paper-style figures printed by percival-eval.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	all := append([][]string{t.Header}, t.Rows...)
	widths := map[int]int{}
	for _, row := range all {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(row []string) {
		for i, c := range row {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		sb.WriteString("\n")
	}
	if len(t.Header) > 0 {
		writeRow(t.Header)
		total := 0
		for i := range t.Header {
			total += widths[i] + 2
		}
		sb.WriteString(strings.Repeat("-", total))
		sb.WriteString("\n")
	}
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}

// Pct formats a fraction as a percentage with two decimals ("96.76%").
func Pct(f float64) string { return fmt.Sprintf("%.2f%%", f*100) }

// F3 formats a ratio with three decimals ("0.784").
func F3(f float64) string { return fmt.Sprintf("%.3f", f) }
