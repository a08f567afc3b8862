package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"
	"time"

	"percival/internal/imaging"
)

func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(1) // what main() does before any workload runs
	os.Exit(m.Run())
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianAndQuantile(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	xs := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.25, 20}, {0.5, 30}, {0.75, 40}, {1, 50}, {0.125, 15}} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// Two clients whose operations complete together in batches of two, 20 ms a
// batch, with three of the ten seconds slowed fourfold: the whole-run mean is
// far off, the quietest block reads the undisturbed rate and latency — and a
// block boundary never splits a batch, which would credit a short block with
// a whole batch for half its time.
func TestQuietestBlockIgnoresDisturbedBlocks(t *testing.T) {
	var byClient [2][]op
	now := time.Duration(0)
	for now < 10*time.Second {
		ms := 20.0
		if now >= 3*time.Second && now < 6*time.Second {
			ms = 80
		}
		now += time.Duration(ms * float64(time.Millisecond))
		byClient[0] = append(byClient[0], op{done: now, latMS: ms - 1})
		byClient[1] = append(byClient[1], op{done: now + 3*time.Microsecond, latMS: ms - 1})
	}
	ops := append(byClient[0], byClient[1]...) // merged client by client, unsorted
	for _, blocks := range []int{10, 39, 40, 41, 77} {
		rates, lat := blockStats(ops, blocks)
		if len(rates) == 0 || len(rates) != len(lat) || len(rates) > blocks {
			t.Fatalf("%d blocks asked: %d rates, %d medians", blocks, len(rates), len(lat))
		}
		if got := quietestRate(rates); math.Abs(got-100) > 0.01 {
			t.Errorf("%d blocks: quietest rate %v, want 100 (2 operations per 20 ms)", blocks, got)
		}
		if got := quietestLatency(lat); got != 19 {
			t.Errorf("%d blocks: quietest latency %v, want 19", blocks, got)
		}
	}
	if mean := float64(len(ops)) / now.Seconds(); mean > 85 {
		t.Errorf("test premise: whole-run mean rate %v should sit well below 100", mean)
	}
	if r, l := blockStats(ops[:1], 10); r != nil || l != nil {
		t.Errorf("one operation gave blocks %v %v", r, l)
	}
	if got := quietestRate(nil); got != 0 {
		t.Errorf("quietestRate(nil) = %v", got)
	}
}

func TestMinOfKPageMean(t *testing.T) {
	pages := [][]float64{{52, 50, 71}, {30, 33, 31}, {44}}
	if got, want := minOfKMean(pages), (50.0+30+44)/3; !near(got, want) {
		t.Errorf("minOfKMean = %v, want %v", got, want)
	}
	if got := minOfKMean(nil); got != 0 {
		t.Errorf("minOfKMean(nil) = %v", got)
	}
	if got := minOfK(nil); got != 0 {
		t.Errorf("minOfK(nil) = %v", got)
	}
}

func TestPercentileFloor(t *testing.T) {
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, used := percentileFloor(xs, 0.99, 10); v != 1980 || !near(used, 0.99) {
		t.Errorf("p99 of 2000 = %v (used %v), want 1980 at 0.99", v, used)
	}
	// 100 samples leave only one beyond p99: the rank drops until ten do
	if v, used := percentileFloor(xs[:100], 0.99, 10); v != 90 || !near(used, 0.90) {
		t.Errorf("p99 of 100 = %v (used %v), want 90 at 0.90", v, used)
	}
	// 8 samples cannot support any tail: the median rank is the floor
	if v, used := percentileFloor(xs[:8], 0.99, 10); v != 4 || !near(used, 0.5) {
		t.Errorf("p99 of 8 = %v (used %v), want 4 at 0.5", v, used)
	}
	if v, _ := percentileFloor(nil, 0.9, 10); v != 0 {
		t.Errorf("empty = %v", v)
	}
}

// Reference values from Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{33.1, 34.2, 30.6, 34.0, 35.0, 34.3, 33.9, 34.1, 29.9, 34.4}, 32.475, 34.325},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got, want := iqrShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5/5.5; !near(got, want) {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
}

func TestTwoSetDisagreement(t *testing.T) {
	a := []float64{100, 101, 99}
	b := []float64{110, 111, 109}
	// lower is better: b is 10% worse than a, a is 9.09% better than b
	if got := worsening(a, b, false); !near(got, 0.10) {
		t.Errorf("worsening(a,b,lower) = %v, want 0.10", got)
	}
	if got := worsening(b, a, false); got >= 0 {
		t.Errorf("worsening(b,a,lower) = %v, want negative", got)
	}
	if got := disagreement(a, b, false); !near(got, 0.10) {
		t.Errorf("disagreement lower = %v, want 0.10", got)
	}
	// higher is better: a is the worse set, by 10/110 of b
	if got := disagreement(a, b, true); !near(got, 10.0/110) {
		t.Errorf("disagreement higher = %v, want %v", got, 10.0/110)
	}
	if got := disagreement(a, a, true); got != 0 {
		t.Errorf("identical sets disagree by %v", got)
	}
}

// BENCHMARK.json is what the accepting driver reads; spec.go is what the
// harness prints. They must name the same things, within the contract's
// limits.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(doc.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v vs spec %q", i, doc.Workloads[i], w.Name)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 || seen[w.Name] {
			t.Errorf("workload %q breaks the contract's limits (why is %d chars)", w.Name, len(w.Why))
		}
		seen[w.Name] = true
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts: json %d/%d, spec %d/%d", len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	hasSetup := false
	for i, m := range endToEnd {
		j := doc.EndToEnd[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better || j.Bound != m.Bound {
			t.Errorf("end_to_end %d: %+v vs spec %+v", i, j, m)
		}
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 || seen[m.Name] {
			t.Errorf("end_to_end %q breaks the contract's limits", m.Name)
		}
		seen[m.Name] = true
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, m := range perLayer {
		j := doc.PerLayer[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better {
			t.Errorf("per_layer %d: %+v vs spec %+v", i, j, m)
		}
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("per_layer %q breaks the contract's limits", m.Name)
		}
		seen[m.Name] = true
	}
}

// The seed changes what the inputs look like and never how much work they
// are.
func TestInputsAreStratifiedAndSeeded(t *testing.T) {
	a, err := stratifiedFrames(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := stratifiedFrames(7, 2)
	c, _ := stratifiedFrames(8, 2)
	if len(a) != 2*len(frameSizes) {
		t.Fatalf("%d frames, want %d", len(a), 2*len(frameSizes))
	}
	differs := false
	for i := range a {
		want := frameSizes[i/2]
		if a[i].W != want.W || a[i].H != want.H || c[i].W != want.W || c[i].H != want.H {
			t.Errorf("frame %d is %dx%d, want %dx%d on every seed", i, a[i].W, a[i].H, want.W, want.H)
		}
		if imaging.ContentKey(a[i]) != imaging.ContentKey(b[i]) {
			t.Errorf("frame %d differs between two draws of seed 7", i)
		}
		differs = differs || imaging.ContentKey(a[i]) != imaging.ContentKey(c[i])
	}
	if !differs {
		t.Error("seeds 7 and 8 drew identical frames")
	}
	for _, cl := range splitClients(a, 2, 2, 7) {
		if len(cl) != len(frameSizes) {
			t.Errorf("client got %d frames, want one per size class (%d)", len(cl), len(frameSizes))
		}
	}

	_, pages, err := selectPages(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, again, _ := selectPages(7, 3)
	for i, p := range pages {
		if p.URL != again[i].URL {
			t.Errorf("page %d differs between two draws of seed 7", i)
		}
		if len(p.Frames) != pageContentImgs+pageAdSlots || len(p.Page.Images) != len(p.Frames) {
			t.Errorf("page %s has %d creatives, want %d", p.URL, len(p.Frames), pageContentImgs+pageAdSlots)
		}
	}
}

// checkMetrics asserts a result carries exactly the named metrics, each
// finite, and no failed operation.
func checkMetrics(t *testing.T, res *result, specs []metricSpec, positive bool) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(specs) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(specs))
	}
	for _, s := range specs {
		v, ok := res.Metrics[s.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", s.Name)
		case v.Unit != s.Unit:
			t.Errorf("metric %s in %q, want %q", s.Name, v.Unit, s.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("metric %s = %v", s.Name, v.Value)
		case positive && v.Value <= 0:
			t.Errorf("metric %s = %v, an end-to-end metric is never 0", s.Name, v.Value)
		}
	}
}

// Each workload, 1-second phase, one set-up: every end-to-end metric
// present, finite and positive, no failed operation.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := runWorkload(runConfig{workload: w.Name, seed: 3, seconds: 1, setups: 1}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, endToEnd, true)
		})
	}
}

// One traced run: every per-layer metric present, the span file written and
// parseable, the ladder's rungs ordered the way the layers nest.
func TestSmokeTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("the traced run climbs the whole ladder (~10 s)")
	}
	dir := t.TempDir()
	res, err := runWorkload(runConfig{workload: "serve_rotation", seed: 3, seconds: 2, trace: true, outDir: dir}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	checkMetrics(t, res, perLayer, false)
	v := func(name string) float64 { return res.Metrics[name].Value }
	if !(v("serve.submit_1c_ms") > v("engine.infer_b1_ms")*0.9 && v("engine.infer_b1_ms") > v("nn.forward_fp32_ms")*0.9 &&
		v("nn.forward_fp32_ms") > v("tensor.gemm_stem_ms") && v("tensor.gemm_stem_ms") > 0) {
		t.Errorf("ladder out of order: submit %v, infer %v, forward %v, stem gemm %v",
			v("serve.submit_1c_ms"), v("engine.infer_b1_ms"), v("nn.forward_fp32_ms"), v("tensor.gemm_stem_ms"))
	}
	if got := v("serve.cache_hit_share"); got < 0.99 {
		t.Errorf("serve_rotation cache hit share %v, want ~1", got)
	}
	data, err := os.ReadFile(filepath.Join(dir, "trace-serve_rotation.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workload string
		Spans    []span
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for i, s := range file.Spans {
		names[s.Name]++
		if s.End < s.Start || s.Parent >= i {
			t.Fatalf("span %d %+v: ends before it starts or names a later parent", i, s)
		}
	}
	for _, want := range []string{"serve.Submit", "ladder.step", "nn.forward_fp32", "tensor.gemm_stem", "browser.Render/sync", "core.InspectFrame", "engine.wire_probe_rtt"} {
		if names[want] == 0 {
			t.Errorf("no %q span in the trace", want)
		}
	}
}
