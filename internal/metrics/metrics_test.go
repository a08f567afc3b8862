package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// Mean returns the arithmetic mean.
func (l *Latencies) Mean() float64 {
	if len(l.samples) == 0 {
		return 0
	}
	var s float64
	for _, v := range l.samples {
		s += v
	}
	return s / float64(len(l.samples))
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	ValueMS float64
	Frac    float64
}

// CDF returns the empirical distribution sampled at n evenly spaced
// fractions, the form plotted in Fig. 14.
func (l *Latencies) CDF(n int) []CDFPoint {
	if len(l.samples) == 0 || n < 2 {
		return nil
	}
	l.ensureSorted()
	out := make([]CDFPoint, n)
	for i := 0; i < n; i++ {
		f := float64(i) / float64(n-1)
		out[i] = CDFPoint{ValueMS: l.Percentile(f * 100), Frac: f}
	}
	return out
}

func TestConfusionCounts(t *testing.T) {
	var c Confusion
	c.Add(true, true)   // TP
	c.Add(true, false)  // FP
	c.Add(false, true)  // FN
	c.Add(false, false) // TN
	c.Add(true, true)   // TP
	if c.TP != 2 || c.FP != 1 || c.FN != 1 || c.TN != 1 {
		t.Fatalf("counts: %+v", c)
	}
	if c.Total() != 5 {
		t.Fatalf("total %d", c.Total())
	}
	if math.Abs(c.Accuracy()-0.6) > 1e-9 {
		t.Fatalf("acc %v", c.Accuracy())
	}
	if math.Abs(c.Precision()-2.0/3) > 1e-9 {
		t.Fatalf("P %v", c.Precision())
	}
	if math.Abs(c.Recall()-2.0/3) > 1e-9 {
		t.Fatalf("R %v", c.Recall())
	}
	if math.Abs(c.F1()-2.0/3) > 1e-9 {
		t.Fatalf("F1 %v", c.F1())
	}
}

func TestConfusionEmptyAndDegenerate(t *testing.T) {
	var c Confusion
	if c.Accuracy() != 0 || c.Precision() != 0 || c.Recall() != 0 || c.F1() != 0 {
		t.Fatal("empty matrix should be all zeros")
	}
	c.Add(false, false)
	if c.Precision() != 0 || c.Recall() != 0 {
		t.Fatal("no positives: P and R must be 0, not NaN")
	}
	if !strings.Contains(c.String(), "TN=1") {
		t.Fatalf("String() = %q", c.String())
	}
}

// Property: F1 is bounded by min and max of P and R.
func TestF1BoundedProperty(t *testing.T) {
	f := func(tp, tn, fp, fn uint8) bool {
		c := Confusion{TP: int(tp), TN: int(tn), FP: int(fp), FN: int(fn)}
		p, r, f1 := c.Precision(), c.Recall(), c.F1()
		lo, hi := math.Min(p, r), math.Max(p, r)
		return f1 >= lo-1e-9 && f1 <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyPercentiles(t *testing.T) {
	var l Latencies
	for i := 1; i <= 100; i++ {
		l.Add(float64(i))
	}
	if l.N() != 100 {
		t.Fatalf("N=%d", l.N())
	}
	if m := l.Median(); math.Abs(m-50.5) > 1e-9 {
		t.Fatalf("median %v", m)
	}
	if p := l.Percentile(0); p != 1 {
		t.Fatalf("p0 %v", p)
	}
	if p := l.Percentile(100); p != 100 {
		t.Fatalf("p100 %v", p)
	}
	if mean := l.Mean(); math.Abs(mean-50.5) > 1e-9 {
		t.Fatalf("mean %v", mean)
	}
}

func TestLatencyPercentileEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var l Latencies
	l.Percentile(50)
}

func TestCDFMonotone(t *testing.T) {
	var l Latencies
	vals := []float64{5, 1, 9, 3, 7, 2, 8}
	for _, v := range vals {
		l.Add(v)
	}
	cdf := l.CDF(11)
	if len(cdf) != 11 {
		t.Fatalf("len %d", len(cdf))
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i].ValueMS < cdf[i-1].ValueMS || cdf[i].Frac < cdf[i-1].Frac {
			t.Fatalf("CDF not monotone at %d: %+v", i, cdf)
		}
	}
	if cdf[0].ValueMS != 1 || cdf[10].ValueMS != 9 {
		t.Fatalf("CDF endpoints %v %v", cdf[0], cdf[10])
	}
	var empty Latencies
	if empty.CDF(10) != nil {
		t.Fatal("empty CDF should be nil")
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{Header: []string{"Language", "Accuracy"}}
	tab.AddRow("Arabic", "81.3%")
	tab.AddRow("Spanish", "95.1%")
	out := tab.String()
	if !strings.Contains(out, "Language") || !strings.Contains(out, "Arabic") {
		t.Fatalf("table output missing rows:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, rule, 2 rows
		t.Fatalf("expected 4 lines, got %d:\n%s", len(lines), out)
	}
	// columns aligned: "Accuracy" must start at the same offset in all rows
	off := strings.Index(lines[0], "Accuracy")
	if !strings.HasPrefix(lines[2][off:], "81.3%") {
		t.Fatalf("misaligned columns:\n%s", out)
	}
}

func TestFormatHelpers(t *testing.T) {
	if Pct(0.9676) != "96.76%" {
		t.Fatalf("Pct = %q", Pct(0.9676))
	}
	if F3(0.784) != "0.784" {
		t.Fatalf("F3 = %q", F3(0.784))
	}
}
