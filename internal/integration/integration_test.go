// Package integration exercises the full system end-to-end: synthetic web →
// browser rendering pipeline → PERCIVAL classification → blocking, across
// module boundaries, the way the paper deploys it.
package integration

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"percival/internal/browser"
	"percival/internal/core"
	"percival/internal/dataset"
	"percival/internal/easylist"
	"percival/internal/imaging"
	"percival/internal/metrics"
	"percival/internal/nn"
	"percival/internal/serve"
	"percival/internal/squeezenet"
	"percival/internal/synth"
	"percival/internal/webgen"
)

var (
	trainOnce sync.Once
	trainNet  *nn.Sequential
	trainArch squeezenet.Config
	trainErr  error
)

// trainedModel trains a shared 32px model once for the whole package.
func trainedModel(t *testing.T) (*nn.Sequential, squeezenet.Config) {
	t.Helper()
	if testing.Short() {
		t.Skip("integration tests train a model")
	}
	trainOnce.Do(func() {
		trainArch = squeezenet.SmallConfig(32)
		ds := dataset.Generate(300, synth.CrawlStyle(), 650)
		ds.Dedup(2)
		ds.Balance(rand.New(rand.NewSource(301)))
		cfg := dataset.FastTraining(trainArch, 8)
		trainNet, trainErr = dataset.Train(cfg, ds)
	})
	if trainErr != nil {
		t.Fatal(trainErr)
	}
	return trainNet, trainArch
}

func service(t *testing.T) *core.Percival {
	t.Helper()
	net, arch := trainedModel(t)
	svc, err := core.New(net, arch, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestEndToEndBlockingInBrowser is the headline integration: render the
// synthetic web with PERCIVAL attached and verify most ads are blocked while
// most content survives.
func TestEndToEndBlockingInBrowser(t *testing.T) {
	svc := service(t)
	corpus := webgen.NewCorpus(55, 12)
	b, err := browser.New(browser.Config{Profile: browser.Chromium(), Corpus: corpus, Inspector: svc})
	if err != nil {
		t.Fatal(err)
	}
	var c metrics.Confusion
	for _, site := range corpus.TopSites(12) {
		res, err := b.Render(site.PageURLs[0], 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, ri := range res.Images {
			c.Add(ri.BlockedByInspector, ri.Spec.IsAd)
		}
	}
	if c.Total() < 30 {
		t.Fatalf("too few images rendered: %d", c.Total())
	}
	if rec := c.Recall(); rec < 0.6 {
		t.Fatalf("blocked only %.0f%% of ads in the browser (%s)", rec*100, c.String())
	}
	if prec := c.Precision(); prec < 0.6 {
		t.Fatalf("too much content blocked (%s)", c.String())
	}
}

// TestLayeredBlocking verifies the paper's deployment story: PERCIVAL "can
// be run in addition to an existing ad blocker, as a last-step measure to
// block whatever slips through its filters" (§1). With shields on, the list
// takes listed networks and PERCIVAL sweeps up first-party and unlisted ads.
func TestLayeredBlocking(t *testing.T) {
	svc := service(t)
	corpus := webgen.NewCorpus(56, 12)
	list, errs := easylist.Parse(corpus.SyntheticEasyList())
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	b, err := browser.New(browser.Config{Profile: browser.Brave(list), Corpus: corpus, Inspector: svc})
	if err != nil {
		t.Fatal(err)
	}
	var adsTotal, byList, byModel int
	for _, site := range corpus.TopSites(12) {
		for _, u := range site.PageURLs {
			res, err := b.Render(u, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, ri := range res.Images {
				if !ri.Spec.IsAd {
					continue
				}
				adsTotal++
				switch {
				case ri.BlockedByList:
					byList++
				case ri.BlockedByInspector:
					byModel++
				}
			}
		}
	}
	if byList == 0 || byModel == 0 {
		t.Fatalf("both layers must block: list=%d model=%d", byList, byModel)
	}
	coverage := float64(byList+byModel) / float64(adsTotal)
	if coverage < 0.8 {
		t.Fatalf("layered coverage %.2f too low (list %d + model %d of %d)",
			coverage, byList, byModel, adsTotal)
	}
}

// TestModelRoundTripPreservesVerdicts saves the trained model (compressed),
// reloads it, and checks verdict agreement on fresh creatives.
func TestModelRoundTripPreservesVerdicts(t *testing.T) {
	net, arch := trainedModel(t)
	var buf bytes.Buffer
	if err := nn.SaveCompressed(&buf, net); err != nil {
		t.Fatal(err)
	}
	reloaded, err := squeezenet.Build(arch)
	if err != nil {
		t.Fatal(err)
	}
	if err := nn.Load(&buf, reloaded); err != nil {
		t.Fatal(err)
	}
	orig, _ := core.New(net, arch, core.Options{})
	rest, _ := core.New(reloaded, arch, core.Options{})
	g := synth.NewGenerator(77, synth.CrawlStyle())
	agree := 0
	const n = 60
	for i := 0; i < n; i++ {
		img, _ := g.Sample()
		if orig.IsAd(img) == rest.IsAd(img) {
			agree++
		}
	}
	// fp16 quantization may flip borderline frames, nothing more
	if agree < n-3 {
		t.Fatalf("only %d/%d verdicts agree after fp16 round-trip", agree, n)
	}
}

// TestAsyncModeBlocksOnRevisitEndToEnd drives the paper's render-first mode
// (§6) through the browser and the serving stack. The first visit finds an
// empty verdict store, so it blocks nothing; it returns with every verdict
// stored, and the revisit then blocks exactly the static creatives the
// synchronous inspector blocks on the same pixels — serve's batched scores
// are the bits Classify computes.
func TestAsyncModeBlocksOnRevisitEndToEnd(t *testing.T) {
	svc := service(t)
	corpus := webgen.NewCorpus(57, 6)
	url := corpus.Sites[0].PageURLs[0]
	srv, err := serve.New(svc, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	b, err := browser.New(browser.Config{Profile: browser.Chromium(), Corpus: corpus, AsyncServe: srv, RenderFirst: true})
	if err != nil {
		t.Fatal(err)
	}

	first, err := b.Render(url, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, ri := range first.Images {
		if ri.BlockedByInspector {
			t.Fatalf("first visit blocked %s, whose verdict the store did not hold", ri.Spec.URL)
		}
	}

	second, err := b.Render(url, 0)
	if err != nil {
		t.Fatal(err)
	}
	static, blocked := 0, 0
	for _, ri := range second.Images {
		if ri.BlockedByList || ri.Spec.RefreshMS > 0 {
			continue // a rotated creative is new content on every visit
		}
		static++
		if want := svc.InspectFrame(ri.Spec.URL, ri.Spec.Render(0)); ri.BlockedByInspector != want {
			t.Errorf("revisit: %s blocked=%v, synchronous inspector blocks=%v", ri.Spec.URL, ri.BlockedByInspector, want)
		}
		if ri.BlockedByInspector {
			blocked++
		}
	}
	t.Logf("revisit blocked %d of %d static creatives", blocked, static)
	if blocked == 0 {
		t.Fatal("revisit blocked no static creative: the page does not exercise the store")
	}
}

// TestClassifierAgreesWithDatasetEvaluate cross-checks the two inference
// paths (service single-frame vs batched dataset evaluation).
func TestClassifierAgreesWithDatasetEvaluate(t *testing.T) {
	net, arch := trainedModel(t)
	svc, _ := core.New(net, arch, core.Options{})
	d := dataset.Generate(88, synth.CrawlStyle(), 40)
	c := dataset.Evaluate(net, arch.InputRes, 0.5, d)
	var c2 metrics.Confusion
	for _, s := range d.Samples {
		c2.Add(svc.IsAd(s.Image), s.Label == dataset.Ad)
	}
	if c != c2 {
		t.Fatalf("paths disagree: %s vs %s", c.String(), c2.String())
	}
}

// TestBlockedSlotsAreVisuallyBlank confirms the §3.3 user-visible effect:
// blocked creatives leave blank space in the rendered surface.
func TestBlockedSlotsAreVisuallyBlank(t *testing.T) {
	svc := service(t)
	corpus := webgen.NewCorpus(58, 8)
	withP, _ := browser.New(browser.Config{Profile: browser.Chromium(), Corpus: corpus, Inspector: svc})
	without, _ := browser.New(browser.Config{Profile: browser.Chromium(), Corpus: corpus})
	var differs bool
	for _, site := range corpus.TopSites(8) {
		u := site.PageURLs[0]
		a, err := withP.Render(u, 0)
		if err != nil {
			t.Fatal(err)
		}
		bRes, err := without.Render(u, 0)
		if err != nil {
			t.Fatal(err)
		}
		if a.Stats.Blocked > 0 {
			if imaging.ContentKey(a.Surface) != imaging.ContentKey(bRes.Surface) {
				differs = true
			}
		}
	}
	if !differs {
		t.Fatal("blocking never changed a rendered surface")
	}
}
