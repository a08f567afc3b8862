package browser

import (
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"percival/internal/core"
	"percival/internal/easylist"
	"percival/internal/engine"
	"percival/internal/imaging"
	"percival/internal/raster"
	"percival/internal/serve"
	"percival/internal/squeezenet"
	"percival/internal/webgen"
)

func corpusAndList(t *testing.T, seed int64, sites int) (*webgen.Corpus, *easylist.List) {
	t.Helper()
	c := webgen.NewCorpus(seed, sites)
	list, errs := easylist.Parse(c.SyntheticEasyList())
	if len(errs) > 0 {
		t.Fatalf("list errors: %v", errs)
	}
	return c, list
}

func firstPage(c *webgen.Corpus) string { return c.Sites[0].PageURLs[0] }

// countingInspector flags every ad creative via ground truth (an oracle
// classifier) and counts invocations.
type countingInspector struct {
	corpus   *webgen.Corpus
	inspects atomic.Int64
}

func (ci *countingInspector) InspectFrame(src string, frame *imaging.Bitmap) bool {
	ci.inspects.Add(1)
	spec, ok := ci.corpus.Image(src)
	return ok && spec.IsAd
}

func TestRenderBaselineChromium(t *testing.T) {
	c, _ := corpusAndList(t, 1, 5)
	b, err := New(Config{Profile: Chromium(), Corpus: c})
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.Render(firstPage(c), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Surface == nil || res.DocHeight <= 0 {
		t.Fatal("no surface rendered")
	}
	if res.RenderTimeMS <= res.NetworkMS || res.NetworkMS <= 0 {
		t.Fatalf("timing wrong: render %v network %v", res.RenderTimeMS, res.NetworkMS)
	}
	if len(res.Images) == 0 {
		t.Fatal("no images considered")
	}
	for _, ri := range res.Images {
		if ri.BlockedByList {
			t.Fatal("chromium profile must not block requests")
		}
	}
}

func TestRenderUnknownURL(t *testing.T) {
	c, _ := corpusAndList(t, 2, 2)
	b, _ := New(Config{Profile: Chromium(), Corpus: c})
	if _, err := b.Render("http://nope.example/x.html", 0); err == nil {
		t.Fatal("expected error")
	}
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(Config{Profile: Chromium()}); err == nil {
		t.Fatal("nil corpus must fail")
	}
	c, _ := corpusAndList(t, 3, 2)
	if _, err := New(Config{Profile: Profile{Name: "Brave", Shields: true}, Corpus: c}); err == nil {
		t.Fatal("shields without list must fail")
	}
}

func TestBraveShieldsBlockListedRequests(t *testing.T) {
	c, list := corpusAndList(t, 4, 20)
	brave, _ := New(Config{Profile: Brave(list), Corpus: c})
	chromium, _ := New(Config{Profile: Chromium(), Corpus: c})

	var listBlocked, totalListedAds int
	for _, site := range c.TopSites(20) {
		for _, u := range site.PageURLs {
			res, err := brave.Render(u, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, ri := range res.Images {
				if ri.Spec.Kind == webgen.KindAdImg || ri.Spec.Kind == webgen.KindAdFrame {
					if isListed(c, ri.Spec.Network) {
						totalListedAds++
						if ri.BlockedByList {
							listBlocked++
						}
					}
				}
				if ri.Spec.Kind == webgen.KindFirstPartyAd && ri.BlockedByList {
					t.Fatal("list should not catch first-party ads")
				}
				if ri.Spec.Kind == webgen.KindContent && ri.BlockedByList {
					t.Fatal("list should not block content")
				}
			}
			// same page in chromium must fetch strictly more images
			cres, err := chromium.Render(u, 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Decodes > cres.Stats.Decodes {
				t.Fatal("brave should decode fewer or equal images than chromium")
			}
		}
	}
	if totalListedAds == 0 {
		t.Fatal("no listed ads in corpus")
	}
	if listBlocked != totalListedAds {
		t.Fatalf("shields blocked %d/%d listed ads", listBlocked, totalListedAds)
	}
}

func isListed(c *webgen.Corpus, network string) bool {
	for _, n := range c.Networks {
		if n.Domain == network {
			return n.Listed
		}
	}
	return false
}

func TestInspectorBlocksAdsAtRasterTime(t *testing.T) {
	c, _ := corpusAndList(t, 5, 10)
	oracle := &countingInspector{corpus: c}
	b, _ := New(Config{Profile: Chromium(), Corpus: c, Inspector: oracle})
	var adFrames, blocked int
	for _, site := range c.TopSites(10) {
		res, err := b.Render(site.PageURLs[0], 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, ri := range res.Images {
			if ri.Spec.IsAd {
				adFrames++
				if ri.BlockedByInspector {
					blocked++
				}
			} else if ri.BlockedByInspector {
				t.Fatalf("content %s blocked by oracle", ri.Spec.URL)
			}
		}
	}
	if adFrames == 0 {
		t.Fatal("no ads rendered")
	}
	if blocked != adFrames {
		t.Fatalf("oracle blocked %d/%d ads", blocked, adFrames)
	}
}

func TestInspectorSeesFirstPartyAdsThatListsMiss(t *testing.T) {
	// The paper's headline capability: PERCIVAL blocks first-party ads that
	// slip through Brave's shields.
	c, list := corpusAndList(t, 6, 15)
	oracle := &countingInspector{corpus: c}
	b, _ := New(Config{Profile: Brave(list), Corpus: c, Inspector: oracle})
	var firstPartySeen, firstPartyBlocked int
	for _, site := range c.TopSites(15) {
		for _, u := range site.PageURLs {
			res, err := b.Render(u, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, ri := range res.Images {
				if ri.Spec.Kind == webgen.KindFirstPartyAd {
					firstPartySeen++
					if ri.BlockedByInspector {
						firstPartyBlocked++
					}
					if ri.BlockedByList {
						t.Fatal("list unexpectedly caught first-party ad")
					}
				}
			}
		}
	}
	if firstPartySeen == 0 {
		t.Fatal("no first-party ads in corpus")
	}
	if firstPartyBlocked != firstPartySeen {
		t.Fatalf("inspector blocked %d/%d first-party ads", firstPartyBlocked, firstPartySeen)
	}
}

func TestCosmeticHidingReducesContainers(t *testing.T) {
	c, list := corpusAndList(t, 7, 10)
	brave, _ := New(Config{Profile: Brave(list), Corpus: c})
	hiddenTotal := 0
	for _, site := range c.TopSites(10) {
		res, err := brave.Render(site.PageURLs[0], 0)
		if err != nil {
			t.Fatal(err)
		}
		hiddenTotal += res.HiddenContainers
	}
	if hiddenTotal == 0 {
		t.Fatal("cosmetic rules hid nothing across 10 sites")
	}
}

func TestRenderTimeIncludesNetworkCriticalPath(t *testing.T) {
	c, _ := corpusAndList(t, 8, 3)
	b, _ := New(Config{Profile: Chromium(), Corpus: c})
	res, err := b.Render(firstPage(c), 0)
	if err != nil {
		t.Fatal(err)
	}
	var maxDelay float64
	for _, ri := range res.Images {
		if !ri.BlockedByList && ri.ChainDelayMS > maxDelay {
			maxDelay = ri.ChainDelayMS
		}
	}
	if res.NetworkMS < maxDelay {
		t.Fatalf("network %v < slowest image %v", res.NetworkMS, maxDelay)
	}
}

// TestComputeExcludesSimulatedEncoding checks ComputeMS leaves out what the
// simulation spends drawing and encoding the page's creatives — bytes a real
// browser gets from the network — so the gap between Render's wall time and
// ComputeMS must cover most of that work, measured here on its own (the best
// of three, so a noisy box only makes the gap look larger by comparison).
func TestComputeExcludesSimulatedEncoding(t *testing.T) {
	c, _ := corpusAndList(t, 8, 3)
	b, _ := New(Config{Profile: Chromium(), Corpus: c})
	url := firstPage(c)
	warm, err := b.Render(url, 0)
	if err != nil {
		t.Fatal(err)
	}
	encode := time.Duration(math.MaxInt64)
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		for _, ri := range warm.Images {
			if _, err := imaging.Encode(ri.Spec.Render(0), ri.Spec.Format); err != nil {
				t.Fatal(err)
			}
		}
		encode = min(encode, time.Since(start))
	}
	start := time.Now()
	res, err := b.Render(url, 0)
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	compute := time.Duration(res.ComputeMS * float64(time.Millisecond))
	if gap := wall - compute; gap < encode/2 {
		t.Fatalf("Render took %v and reports %v of compute: the %v gap does not cover the %v spent encoding %d creatives",
			wall, compute, gap, encode, len(warm.Images))
	}
}

func TestEpochChangesRotatingCreatives(t *testing.T) {
	c, _ := corpusAndList(t, 9, 15)
	b, _ := New(Config{Profile: Chromium(), Corpus: c})
	var url string
	for _, site := range c.TopSites(15) {
		for _, u := range site.PageURLs {
			p, _ := c.Page(u)
			for _, s := range p.Images {
				if s.RefreshMS > 0 {
					url = u
				}
			}
		}
	}
	if url == "" {
		t.Skip("no rotating creative in this corpus draw")
	}
	r0, err := b.Render(url, 0)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := b.Render(url, 1)
	if err != nil {
		t.Fatal(err)
	}
	if imaging.ContentKey(r0.Surface) == imaging.ContentKey(r1.Surface) {
		t.Fatal("rotating creative should change the rendered surface across epochs")
	}
}

var _ raster.FrameInspector = (*countingInspector)(nil)

func TestHostOf(t *testing.T) {
	cases := map[string]string{
		"http://a.com/x?y=1": "a.com",
		"https://b.c.com":    "b.c.com",
		"noscheme/path":      "noscheme/path",
	}
	for in, want := range cases {
		if got := hostOf(in); got != want && !strings.Contains(in, "/") {
			t.Fatalf("hostOf(%q) = %q want %q", in, got, want)
		}
	}
	if hostOf("http://x.com/path") != "x.com" {
		t.Fatal("path not stripped")
	}
}

// TestAsyncServeInspectionMatchesDirectVerdicts renders with the
// micro-batching service in asynchronous inspection mode and checks that
// the set of inspector-blocked creatives is exactly the set the service
// itself flags as ads: the future-resolving inspector must not drop or
// invent verdicts while classification overlaps rasterization.
func TestAsyncServeInspectionMatchesDirectVerdicts(t *testing.T) {
	c, _ := corpusAndList(t, 9, 6)
	arch := squeezenet.SmallConfig(16)
	net, err := squeezenet.Build(arch)
	if err != nil {
		t.Fatal(err)
	}
	squeezenet.PretrainedInit(net, 1)
	svc, err := core.New(net, arch, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(svc, serve.Options{Shards: 2, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	b, err := New(Config{Profile: Chromium(), Corpus: c, AsyncServe: srv})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, site := range c.TopSites(6) {
		res, err := b.Render(site.PageURLs[0], 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Inspects == 0 {
			t.Fatalf("%s: async inspector never consulted", res.URL)
		}
		for _, ri := range res.Images {
			if ri.BlockedByList {
				continue
			}
			// the render submitted these exact pixels, so this resolves from
			// the sharded cache with the identical score
			direct := srv.Submit(ri.Spec.Render(0))
			if direct.Status != serve.StatusCached {
				t.Fatalf("%s: verdict for %s not memoized (status %v)", res.URL, ri.Spec.URL, direct.Status)
			}
			if ri.BlockedByInspector != direct.Ad {
				t.Fatalf("%s: %s blocked=%v but service verdict ad=%v",
					res.URL, ri.Spec.URL, ri.BlockedByInspector, direct.Ad)
			}
			checked++
		}
	}
	if checked < 10 {
		t.Fatalf("only %d creatives checked", checked)
	}
	if srv.Metrics().Submitted.Load() == 0 {
		t.Fatal("render submitted nothing to the service")
	}
}

// everyFrameAnAd is a model that calls every frame an ad after a fixed
// latency per batch.
type everyFrameAnAd struct {
	latency time.Duration
	scored  atomic.Int64
}

func (b *everyFrameAnAd) Name() string              { return "every-frame-an-ad" }
func (b *everyFrameAnAd) InputRes() int             { return 16 }
func (b *everyFrameAnAd) Replicate() engine.Backend { return b }
func (b *everyFrameAnAd) Warm(int)                  {}
func (b *everyFrameAnAd) Close()                    {}
func (b *everyFrameAnAd) Stats() engine.Stats       { return engine.Stats{} }

func (b *everyFrameAnAd) InferBatchInto(frames []*imaging.Bitmap, out []float64) []float64 {
	time.Sleep(b.latency)
	b.scored.Add(int64(len(frames)))
	out = out[:len(frames)]
	for i := range out {
		out[i] = 1
	}
	return out
}

// TestRenderFirstBlocksOnlyStoredVerdicts: with RenderFirst, raster blocks
// a frame only if the server's store held its verdict when the page was
// submitted, whether the model answers at once (every verdict is ready
// before raster needs it) or slowly; and Render returns with every
// submission resolved once, every verdict stored and nothing left running.
func TestRenderFirstBlocksOnlyStoredVerdicts(t *testing.T) {
	c, _ := corpusAndList(t, 9, 6)
	arch := squeezenet.SmallConfig(16)
	net, err := squeezenet.Build(arch)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := core.New(net, arch, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, latency := range []time.Duration{0, 50 * time.Millisecond} {
		t.Run(latency.String(), func(t *testing.T) {
			model := &everyFrameAnAd{latency: latency}
			srv, err := serve.New(svc, serve.Options{Shards: 2, MaxBatch: 8, Backend: model})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			b, err := New(Config{Profile: Chromium(), Corpus: c, AsyncServe: srv, RenderFirst: true})
			if err != nil {
				t.Fatal(err)
			}
			url := firstPage(c)

			before := runtime.NumGoroutine()
			first, err := b.Render(url, 0)
			if err != nil {
				t.Fatal(err)
			}
			if first.Stats.Inspects == 0 || first.Stats.Blocked != 0 {
				t.Fatalf("first visit: %d frames inspected, %d blocked; want some, none blocked",
					first.Stats.Inspects, first.Stats.Blocked)
			}
			for _, ri := range first.Images {
				if _, ok := srv.Cache().LookupVerdict(imaging.ContentKey(ri.Spec.Render(0))); !ri.BlockedByList && !ok {
					t.Fatalf("Render returned before %s's verdict was stored", ri.Spec.URL)
				}
			}
			m := srv.Metrics()
			if s, r := m.Submitted.Load(), m.CacheHits.Load()+m.Coalesced.Load()+m.Classified.Load()+m.Shed.Load(); s == 0 || s != r {
				t.Fatalf("%d submissions, %d resolutions", s, r)
			}
			if n := svc.Stats().Classified; n != 0 || model.scored.Load() == 0 {
				t.Fatalf("core classified %d frames, the shards' model %d: the model must run only in the shards",
					n, model.scored.Load())
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Fatalf("%d goroutines after the render, %d before", n, before)
			}

			second, err := b.Render(url, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, ri := range second.Images {
				if !ri.BlockedByList && !ri.BlockedByInspector {
					t.Errorf("revisit rendered %s, whose ad verdict the first visit stored", ri.Spec.URL)
				}
			}
		})
	}
}

// TestAsyncServeConfigValidation: Inspector and AsyncServe are exclusive,
// and RenderFirst needs AsyncServe.
func TestAsyncServeConfigValidation(t *testing.T) {
	c, _ := corpusAndList(t, 10, 2)
	ci := &countingInspector{corpus: c}
	arch := squeezenet.SmallConfig(16)
	net, _ := squeezenet.Build(arch)
	squeezenet.PretrainedInit(net, 1)
	svc, _ := core.New(net, arch, core.Options{})
	srv, err := serve.New(svc, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := New(Config{Profile: Chromium(), Corpus: c, Inspector: ci, AsyncServe: srv}); err == nil {
		t.Fatal("Inspector+AsyncServe must be rejected")
	}
	if _, err := New(Config{Profile: Chromium(), Corpus: c, Inspector: ci, RenderFirst: true}); err == nil {
		t.Fatal("RenderFirst without AsyncServe must be rejected")
	}
}
