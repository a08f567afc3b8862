package eval

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"percival/internal/dataset"
	"percival/internal/metrics"
	"percival/internal/synth"
)

func crawlStyleForTest() synth.Style { return synth.CrawlStyle() }

// settledGoroutines waits up to 5 s for the goroutine count to fall to want
// (a goroutine that finished its work still takes a moment to exit) and
// returns the last count.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// evaluateStyle classifies a generated dataset and returns its confusion.
func (h *Harness) evaluateStyle(style synth.Style, nAds, nNonAds int) (metrics.Confusion, error) {
	net, err := h.Model()
	if err != nil {
		return metrics.Confusion{}, err
	}
	d := dataset.GenerateUnbalanced(h.Seed+int64(len(style.Name))*31, style, nAds, nNonAds)
	return dataset.Evaluate(net, h.Res, 0.5, d), nil
}

var (
	testOnce sync.Once
	testH    *Harness
)

// testHarness shares one small trained model across the package's tests.
func testHarness(t *testing.T) *Harness {
	t.Helper()
	if testing.Short() {
		t.Skip("eval experiments need a trained model")
	}
	testOnce.Do(func() {
		testH = NewHarness(nil)
		testH.Scale = 0.3
		testH.TrainSamples = 450
		testH.Epochs = 6
	})
	if _, err := testH.Model(); err != nil {
		t.Fatal(err)
	}
	return testH
}

func TestExperimentRegistryComplete(t *testing.T) {
	if len(Experiments()) != 15 {
		t.Fatalf("%d experiments", len(Experiments()))
	}
	for _, id := range Experiments() {
		if Title(id) == "" {
			t.Fatalf("experiment %s has no title", id)
		}
	}
	if len(SortedTitles()) != len(Experiments()) {
		t.Fatal("SortedTitles incomplete")
	}
}

func TestAdversarialProbeShape(t *testing.T) {
	h := testHarness(t)
	r, err := h.Adversarial()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("%d epsilon levels", len(r.Rows))
	}
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].Epsilon <= r.Rows[i-1].Epsilon {
			t.Fatal("epsilons must increase")
		}
		// evasion is (weakly) monotone in perturbation budget
		if r.Rows[i].EvasionRate+0.11 < r.Rows[i-1].EvasionRate {
			t.Fatalf("evasion dropped sharply with larger epsilon: %+v", r.Rows)
		}
	}
	// the largest budget must achieve meaningful evasion (the §7 threat is real)
	if last := r.Rows[len(r.Rows)-1]; last.EvasionRate == 0 && last.MeanDrop <= 0 {
		t.Fatalf("FGSM had no effect at eps=%.3f", last.Epsilon)
	}
	if !strings.Contains(r.Table(), "FGSM") {
		t.Fatal("table malformed")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	h := NewHarness(nil)
	if _, err := h.Run("fig99"); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestFig3SizesMatchPaperShape(t *testing.T) {
	h := NewHarness(nil) // fig3 needs no trained model
	r, err := h.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if r.ForkSizeMB >= 2 {
		t.Fatalf("fork %.2f MB, paper requires <2", r.ForkSizeMB)
	}
	if r.OriginalSizeMB < 4 || r.OriginalSizeMB > 6 {
		t.Fatalf("original %.2f MB, paper says ~4.8", r.OriginalSizeMB)
	}
	if r.CompressionVsSentinel < 74 {
		t.Fatalf("compression %.0fx, paper reports 74x", r.CompressionVsSentinel)
	}
	if !strings.Contains(r.Table(), "PERCIVAL fork") {
		t.Fatal("table missing fork row")
	}
}

func TestFig4SalienceDiffersAcrossClasses(t *testing.T) {
	h := testHarness(t)
	r, err := h.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if r.AdDeep == nil || r.NonAdDeep == nil || r.AdShallow == nil {
		t.Fatal("missing heatmaps")
	}
	// the ad map must carry salience mass (the model fires on ad cues)
	var adMass, nonMass float64
	for _, v := range r.AdDeep.Data {
		adMass += v
	}
	for _, v := range r.NonAdDeep.Data {
		nonMass += v
	}
	if adMass <= 0 {
		t.Fatal("ad heatmap empty")
	}
	if !strings.Contains(r.Table(), "Grad-CAM") {
		t.Fatal("table malformed")
	}
	_ = nonMass
}

func TestFig6CoverageNearPaper(t *testing.T) {
	h := NewHarness(nil) // no model needed
	h.Scale = 0.3
	r, err := h.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	css := float64(r.CSSMatched) / float64(r.CSSElements)
	net := float64(r.NetMatched) / float64(r.NetRequests)
	// paper: 20.2% and 31.1%; allow a generous band — lists cover a
	// minority of elements but a larger share of requests
	if css < 0.10 || css > 0.35 {
		t.Fatalf("css coverage %.3f outside plausible band", css)
	}
	if net < 0.18 || net > 0.45 {
		t.Fatalf("network coverage %.3f outside plausible band", net)
	}
	if net <= css {
		t.Fatalf("network coverage (%.3f) should exceed CSS coverage (%.3f), as in Fig. 6", net, css)
	}
}

func TestFig7ReplicatesEasyList(t *testing.T) {
	h := testHarness(t)
	r, err := h.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if r.Images == 0 || r.AdsIdentified == 0 {
		t.Fatal("empty evaluation set")
	}
	// paper: 96.76% with a full training run; the test harness trains a
	// much smaller model, so only the gross shape is asserted here (the
	// default-scale numbers live in EXPERIMENTS.md)
	if acc := r.Confusion.Accuracy(); acc < 0.78 {
		t.Fatalf("replication accuracy %.3f too low", acc)
	}
	if p := r.Confusion.Precision(); p < 0.65 {
		t.Fatalf("precision %.3f too low", p)
	}
}

func TestFig8ExternalGeneralization(t *testing.T) {
	h := testHarness(t)
	r, err := h.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	// paper: 0.877 accuracy across a distribution shift
	if acc := r.Confusion.Accuracy(); acc < 0.7 {
		t.Fatalf("external accuracy %.3f too low", acc)
	}
	if r.AvgTimeMS <= 0 || r.SizeMB <= 0 {
		t.Fatalf("degenerate report %+v", r)
	}
	// the distribution shift must cost accuracy relative to in-distribution
	crawl, err := h.evaluateStyle(crawlStyleForTest(), 150, 150)
	if err != nil {
		t.Fatal(err)
	}
	if r.Confusion.Accuracy() > crawl.Accuracy()+0.05 {
		t.Fatalf("external (%.3f) should not beat in-distribution (%.3f)",
			r.Confusion.Accuracy(), crawl.Accuracy())
	}
}

func TestFig9LanguageShape(t *testing.T) {
	h := testHarness(t)
	r, err := h.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("%d language rows", len(r.Rows))
	}
	acc := map[string]float64{}
	for _, row := range r.Rows {
		acc[row.Language] = row.Confusion.Accuracy()
		if row.Confusion.Accuracy() < 0.5 {
			t.Fatalf("%s below chance", row.Language)
		}
	}
	// the paper's ordering: Latin-script languages beat CJK and Arabic
	if acc["spanish"] <= acc["korean"] || acc["french"] <= acc["chinese"] {
		t.Fatalf("language ordering violated: %+v", acc)
	}
}

func TestFig10FacebookShape(t *testing.T) {
	h := testHarness(t)
	r, err := h.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	c := r.Confusion
	if c.Total() == 0 {
		t.Fatal("no feed units")
	}
	// feed is ad-light, like the paper's 354 vs 1830
	if c.TP+c.FN >= c.TN+c.FP {
		t.Fatal("feed should contain more organic than sponsored units")
	}
	// recall is limited by organic-looking sponsored posts (paper: 0.7)
	if rec := c.Recall(); rec > 0.95 {
		t.Fatalf("facebook recall %.3f implausibly high — hard ads not hard", rec)
	}
	if acc := c.Accuracy(); acc < 0.75 {
		t.Fatalf("facebook accuracy %.3f too low", acc)
	}
}

func TestFig13SearchIntentOrdering(t *testing.T) {
	h := testHarness(t)
	r, err := h.Fig13()
	if err != nil {
		t.Fatal(err)
	}
	blocked := map[string]int{}
	for _, row := range r.Rows {
		blocked[row.Query.Name] = row.Blocked
		if row.Blocked+row.Rendered != 100 {
			t.Fatalf("%s: %d+%d != 100", row.Query.Name, row.Blocked, row.Rendered)
		}
	}
	// high-intent queries must be blocked far more than low-intent ones
	if blocked["Advertisement"] <= blocked["Obama"] {
		t.Fatal("Advertisement should block more than Obama")
	}
	if blocked["Advertisement"] < 70 {
		t.Fatalf("Advertisement blocked only %d/100", blocked["Advertisement"])
	}
	if blocked["Obama"] > 30 {
		t.Fatalf("Obama blocked %d/100 — too many false positives", blocked["Obama"])
	}
	if !strings.Contains(r.Table(), "-") {
		t.Fatal("unlabeled queries should print '-' for FP/FN")
	}
}

func TestFig14And15OverheadShape(t *testing.T) {
	h := testHarness(t)
	f14, err := h.Fig14()
	if err != nil {
		t.Fatal(err)
	}
	if len(f14.Conditions) != 4 {
		t.Fatalf("%d conditions", len(f14.Conditions))
	}
	// The shape is asserted in counts, not wall-clock ratios (at res 32 the
	// classifier's in-path cost is within a slow minute's noise): Brave's
	// list blocks requests and Chromium has none, the two +PERCIVAL
	// conditions show frames to their inspector and the baselines show none.
	med := map[string]float64{}
	for _, c := range f14.Conditions {
		if c.Latencies.N() != f14.PagesEach {
			t.Fatalf("%s measured %d pages, want %d", c.Name, c.Latencies.N(), f14.PagesEach)
		}
		med[c.Name] = c.Latencies.Median()
		if brave := strings.HasPrefix(c.Name, "Brave"); brave != (c.ListBlocked > 0) {
			t.Errorf("%s: list blocked %d requests", c.Name, c.ListBlocked)
		}
		if percival := strings.HasSuffix(c.Name, "+PERCIVAL"); percival != (c.Inspected > 0) {
			t.Errorf("%s: inspector shown %d frames", c.Name, c.Inspected)
		}
	}
	f15, err := h.Fig15(f14)
	if err != nil {
		t.Fatal(err)
	}
	if len(f15.Rows) != 2 {
		t.Fatalf("%d overhead rows", len(f15.Rows))
	}
	for _, row := range f15.Rows {
		if want := med[row.Treatment] - med[row.Baseline]; row.OverheadMS != want {
			t.Errorf("%s vs %s: overhead %v ms, want the medians' difference %v", row.Treatment, row.Baseline, row.OverheadMS, want)
		}
	}
}

func TestCrawlComparisonShape(t *testing.T) {
	h := testHarness(t)
	r, err := h.CrawlComparison()
	if err != nil {
		t.Fatal(err)
	}
	if r.TraditionalStats.Whitespace == 0 {
		t.Fatal("traditional crawler should race some iframes at 400ms")
	}
	if r.PipelineStats.Whitespace != 0 {
		t.Fatal("pipeline crawler cannot produce whitespace")
	}
	if r.PipelineKept <= 0 || r.TraditionalKept <= 0 {
		t.Fatal("degenerate kept counts")
	}
}

func TestAsyncMemoizationShape(t *testing.T) {
	h := testHarness(t)
	before := runtime.NumGoroutine()
	r, err := h.AsyncMemoization()
	if err != nil {
		t.Fatal(err)
	}
	// render-first's whole point: the model never runs on the rendering
	// path. Synchronous mode runs it inside InspectFrame for every frame;
	// under render-first core classifies nothing and serve's shard loops run
	// every model pass. (Counts, not the in-path milliseconds, which are
	// wall-clock sums at the scheduler's mercy.)
	if s := r.SyncStats; s.Classified == 0 {
		t.Fatal("synchronous pass classified nothing in-path")
	}
	if a := r.AsyncStats; a.Classified != 0 {
		t.Fatalf("render-first: core ran the model %d times, want none", a.Classified)
	}
	// every submission resolved exactly one way, and nothing is left running
	if s := r.Serve; s.Classified == 0 || s.Submitted != s.CacheHits+s.Coalesced+s.Classified+s.Shed {
		t.Fatalf("serve counters %+v: submissions and resolutions disagree", s)
	}
	if n := settledGoroutines(before); n > before {
		t.Fatalf("%d goroutines left running after the experiment, %d before", n, before)
	}
	if r.FirstVisitAds == 0 {
		t.Fatal("async first visits must render some ads")
	}
	if r.SecondVisitAds >= r.FirstVisitAds {
		t.Fatalf("memoization ineffective: %d ads on revisit vs %d first visit",
			r.SecondVisitAds, r.FirstVisitAds)
	}
	if r.CacheHitsSecond == 0 {
		t.Fatal("revisit produced no cache hits")
	}
}

func TestObfuscationAttackShape(t *testing.T) {
	h := testHarness(t)
	r, err := h.Obfuscation()
	if err != nil {
		t.Fatal(err)
	}
	if r.AdsClean == 0 || r.AdsAttacked == 0 {
		t.Fatal("no ads probed")
	}
	// the §2.2/§7 claim: the overlay attack must hurt the element-based
	// blocker substantially more than it hurts PERCIVAL
	elementDrop := r.CleanElement - r.AttackedElement
	percivalDrop := r.CleanPercival - r.AttackedPercival
	if elementDrop < 0.2 {
		t.Fatalf("overlay attack barely moved the element blocker: clean %.2f attacked %.2f",
			r.CleanElement, r.AttackedElement)
	}
	if percivalDrop > elementDrop/2 {
		t.Fatalf("percival degraded too much under the attack: drop %.2f vs element %.2f",
			percivalDrop, elementDrop)
	}
}

func TestQuantParityAndSpeed(t *testing.T) {
	h := testHarness(t)
	r, err := h.Quant()
	if err != nil {
		t.Fatal(err)
	}
	if r.SampleCount == 0 {
		t.Fatal("empty evaluation set")
	}
	// The INT8 engine must stay within a small accuracy delta of FP32 and
	// agree on nearly every verdict. The parity gate may legitimately fall
	// back to FP32 on a marginally-trained harness model, but only near the
	// threshold — a deep disagreement would mean broken quantization.
	if !r.Active {
		if r.ParityGate < 0.95 {
			t.Fatalf("parity gate agreement %.3f: quantization badly broken", r.ParityGate)
		}
		t.Skipf("parity gate fell back to FP32 at agreement %.3f (within tolerance)", r.ParityGate)
	}
	// The reduced-scale harness model leaves many samples near the decision
	// boundary, so the bounds here are loose; the default-scale numbers
	// (+0.006 accuracy, 99% agreement when last measured) come from
	// `percival-eval -experiment quant`.
	if d := r.INT8.Accuracy() - r.FP32.Accuracy(); d < -0.06 {
		t.Fatalf("INT8 accuracy regressed by %.4f", -d)
	}
	if r.Agreement < 0.90 {
		t.Fatalf("verdict agreement %.3f too low", r.Agreement)
	}
	if r.INT8MB <= 0 || r.INT8MB >= r.FP32MB {
		t.Fatalf("INT8 model %.3f MB should be below FP32 %.3f MB", r.INT8MB, r.FP32MB)
	}
}

func TestRunAllProducesEveryTable(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite")
	}
	h := testHarness(t)
	var buf bytes.Buffer
	if err := h.RunAll(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, id := range Experiments() {
		if !strings.Contains(out, Title(id)) {
			t.Fatalf("output missing section %q", Title(id))
		}
	}
}

func TestHarnessScaling(t *testing.T) {
	h := NewHarness(nil)
	h.Scale = 2
	if h.n(10) != 20 {
		t.Fatalf("n(10) = %d", h.n(10))
	}
	h.Scale = 0.0001
	if h.n(10) != 8 {
		t.Fatalf("minimum clamp: %d", h.n(10))
	}
}
