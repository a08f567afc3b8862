// Package browser simulates the renderer process the paper instruments
// (§2.1, §3): it fetches a document from the synthetic web, builds the DOM,
// resolves sub-documents (iframes) and images through a latency-modelled
// network, lays the page out, and rasterizes it on a worker pool with
// PERCIVAL's frame inspector installed at the decode/raster choke point.
//
// Two profiles mirror the §5.7 evaluation: a Chromium profile (no request
// blocking) and a Brave profile (filter-list "shields" that drop matching
// requests before fetch and hide matching containers before layout).
//
// Render time is reported the way the paper measures it — the
// domLoading→domComplete interval — as simulated network milliseconds plus
// measured compute milliseconds for parse, layout, decode, classification
// and raster.
package browser

import (
	"fmt"
	"strings"
	"time"

	"percival/internal/dom"
	"percival/internal/easylist"
	"percival/internal/imaging"
	"percival/internal/layout"
	"percival/internal/raster"
	"percival/internal/serve"
	"percival/internal/webgen"
)

// Profile selects the browser configuration under test.
type Profile struct {
	// Name labels the profile in reports ("Chromium", "Brave").
	Name string
	// Shields enables filter-list request blocking and element hiding.
	Shields bool
	// List is the active filter list when Shields is on.
	List *easylist.List
}

// Chromium returns the stock profile: no request blocking.
func Chromium() Profile { return Profile{Name: "Chromium"} }

// Brave returns the shields-on profile backed by the given list.
func Brave(list *easylist.List) Profile {
	return Profile{Name: "Brave", Shields: true, List: list}
}

// Config assembles a browser instance.
type Config struct {
	Profile Profile
	Corpus  *webgen.Corpus
	// Inspector is PERCIVAL's hook; nil renders the baseline.
	Inspector raster.FrameInspector
	// AsyncServe selects the asynchronous inspection mode: every image is
	// submitted to the (possibly sharded) micro-batching classification
	// service the moment its pixels are materialized — before layout — so
	// classification runs concurrently with layout and rasterization, and
	// the raster-time inspector merely resolves the in-flight verdict.
	// Deployment shape (shard count, backend selection, adaptive batching)
	// is the server's own serve.Options; the browser is agnostic to it —
	// including when the server's dispatch shards proxy forward passes to
	// remote model processes (serve.Options.Backend = engine.RemoteBackend
	// or a Fleet, the `percival-serve -peers` topology). Shed verdicts
	// fail open (the frame renders), and a remote transport failure
	// surfaces the same way: verdict unknown, frame rendered, never a
	// blocked page. Mutually exclusive with Inspector.
	AsyncServe *serve.Server
	// RenderFirst is the paper's asynchronous mode (§6) on AsyncServe:
	// raster blocks a frame only if the server already held its verdict
	// when the page submitted it, and every other frame renders while its
	// classification lands in the server's store for the next sighting.
	// Render returns once every verdict it asked for is stored. Valid only
	// with AsyncServe.
	RenderFirst bool
	// RasterWorkers sizes the raster thread pool (default 4, Chromium's
	// desktop default).
	RasterWorkers int
	// ViewportW defaults to layout.DefaultViewportW.
	ViewportW int
}

// Browser is a configured renderer-process simulator.
type Browser struct {
	cfg Config
}

// New constructs a Browser.
func New(cfg Config) (*Browser, error) {
	if cfg.Corpus == nil {
		return nil, fmt.Errorf("browser: config needs a corpus")
	}
	if cfg.Profile.Shields && cfg.Profile.List == nil {
		return nil, fmt.Errorf("browser: shields profile needs a filter list")
	}
	if cfg.Inspector != nil && cfg.AsyncServe != nil {
		return nil, fmt.Errorf("browser: Inspector and AsyncServe are mutually exclusive")
	}
	if cfg.RenderFirst && cfg.AsyncServe == nil {
		return nil, fmt.Errorf("browser: RenderFirst needs AsyncServe")
	}
	if cfg.RasterWorkers == 0 {
		cfg.RasterWorkers = 4
	}
	if cfg.ViewportW == 0 {
		cfg.ViewportW = layout.DefaultViewportW
	}
	return &Browser{cfg: cfg}, nil
}

// RenderedImage records the fate of one image resource during a render.
type RenderedImage struct {
	Spec *webgen.ImageSpec
	// ChainDelayMS is the virtual time from navigation start until the
	// image's pixels were available (frame fetch + image fetch for iframe
	// creatives).
	ChainDelayMS float64
	// BlockedByList marks requests dropped by shields before fetch.
	BlockedByList bool
	// BlockedByInspector marks frames cleared by PERCIVAL at raster time.
	BlockedByInspector bool
}

// RenderResult is the outcome of one page render.
type RenderResult struct {
	URL     string
	Surface *imaging.Bitmap
	// RenderTimeMS is the domLoading→domComplete interval: NetworkMS +
	// ComputeMS.
	RenderTimeMS float64
	// NetworkMS is the simulated fetch critical path.
	NetworkMS float64
	// ComputeMS is measured parse/layout/decode/classify/raster time. It
	// excludes the simulation's own work of drawing and encoding the page's
	// creatives, which a real browser receives from the network.
	ComputeMS float64
	// Images lists every image resource considered.
	Images []RenderedImage
	// HiddenContainers counts elements removed by cosmetic rules.
	HiddenContainers int
	// Stats carries raster-stage counters.
	Stats raster.DecodeStats
	// DocHeight is the laid-out document height.
	DocHeight int
}

// hostOf extracts the host from a URL.
func hostOf(url string) string {
	rest := url
	if i := strings.Index(rest, "://"); i >= 0 {
		rest = rest[i+3:]
	}
	if i := strings.IndexAny(rest, "/?"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// htmlLatencyMS models the document fetch time.
func htmlLatencyMS(url string) float64 {
	// deterministic per-URL jitter in [60, 360)
	h := 0
	for i := 0; i < len(url); i++ {
		h = h*31 + int(url[i])
	}
	if h < 0 {
		h = -h
	}
	return 60 + float64(h%300)
}

// Render loads and renders the page at url. epoch selects creative rotations
// for refreshing ad iframes (0 on first visit).
func (b *Browser) Render(url string, epoch int) (*RenderResult, error) {
	page, ok := b.cfg.Corpus.Page(url)
	if !ok {
		return nil, fmt.Errorf("browser: no such page %q", url)
	}
	res := &RenderResult{URL: url}
	pageDomain := hostOf(url)

	// --- network phase (virtual time) ---
	res.NetworkMS = htmlLatencyMS(url)
	computeStart := time.Now()
	doc := dom.Parse(page.HTML)

	// shields: element hiding strips matched containers before layout
	if b.cfg.Profile.Shields {
		res.HiddenContainers = hideElements(doc, b.cfg.Profile.List, pageDomain)
	}

	// resolve frames and images
	type fetched struct {
		spec  *webgen.ImageSpec
		chain float64
	}
	resolve := map[string]fetched{} // src -> spec+timing
	var maxChain float64

	blockReq := func(spec *webgen.ImageSpec, frameURL string, reqType easylist.RequestType) bool {
		if !b.cfg.Profile.Shields {
			return false
		}
		target := spec.URL
		if reqType == easylist.TypeSubdocument {
			target = frameURL
		}
		req := easylist.Request{
			URL:        target,
			Domain:     hostOf(target),
			PageDomain: pageDomain,
			Type:       reqType,
		}
		return b.cfg.Profile.List.ShouldBlock(req)
	}

	// direct images on the main document
	for _, node := range doc.ByTag("img") {
		src := node.Attrs["src"]
		spec, ok := b.cfg.Corpus.Image(src)
		if !ok {
			continue
		}
		ri := RenderedImage{Spec: spec, ChainDelayMS: spec.LoadDelayMS}
		if blockReq(spec, "", easylist.TypeImage) {
			ri.BlockedByList = true
			node.Attrs["src"] = "" // request dropped; slot collapses
		} else {
			resolve[src] = fetched{spec, spec.LoadDelayMS}
			if spec.LoadDelayMS > maxChain {
				maxChain = spec.LoadDelayMS
			}
		}
		res.Images = append(res.Images, ri)
	}
	// iframes: fetch the sub-document, then its creative
	for _, node := range doc.ByTag("iframe") {
		frameURL := node.Attrs["src"]
		sub, ok := b.cfg.Corpus.Page(frameURL)
		if !ok || len(sub.Images) == 0 {
			continue
		}
		spec := sub.Images[0]
		chain := spec.LoadDelayMS // frame latency folded into creative delay
		ri := RenderedImage{Spec: spec, ChainDelayMS: chain}
		if blockReq(spec, frameURL, easylist.TypeSubdocument) || blockReq(spec, "", easylist.TypeImage) {
			ri.BlockedByList = true
			node.Attrs["src"] = ""
		} else {
			// rewrite the frame slot into the creative image for rasterization
			node.Attrs["src"] = spec.URL
			resolve[spec.URL] = fetched{spec, chain}
			if chain > maxChain {
				maxChain = chain
			}
		}
		res.Images = append(res.Images, ri)
	}
	res.NetworkMS += maxChain

	// Materialize encoded bytes with the compute clock stopped: drawing a
	// creative and encoding it are artifacts of the simulation, not browser
	// work, so their time is taken out of ComputeMS below.
	simStart := time.Now()
	encoded := map[string][]byte{}
	dims := map[string][2]int{}
	bitmaps := make(map[string]*imaging.Bitmap, len(resolve))
	for src, f := range resolve {
		bm := f.spec.Render(epoch)
		data, err := imaging.Encode(bm, f.spec.Format)
		if err != nil {
			return nil, fmt.Errorf("browser: encode %s: %w", src, err)
		}
		encoded[src] = data
		dims[src] = [2]int{bm.W, bm.H}
		bitmaps[src] = bm
	}
	simulated := time.Since(simStart)
	// async inspection: classification is in flight from the moment pixels
	// exist, overlapping layout and rasterization below — submitted only now,
	// so none of it hides in the stopped-clock section above
	var futures map[string]*serve.Future
	if b.cfg.AsyncServe != nil {
		futures = make(map[string]*serve.Future, len(bitmaps))
		for src, bm := range bitmaps {
			futures[src] = b.cfg.AsyncServe.SubmitAsync(bm)
		}
	}

	// --- compute phase (measured) ---
	sizer := func(src string) (int, int, bool) {
		d, ok := dims[src]
		if !ok {
			return 0, 0, false
		}
		return d[0], d[1], true
	}
	box := layout.Layout(doc, b.cfg.ViewportW, sizer)
	items := layout.BuildDisplayList(box)
	// drop image items whose request was blocked (src cleared above)
	kept := items[:0]
	for _, it := range items {
		if it.Kind == layout.ItemImage && it.Src == "" {
			continue
		}
		kept = append(kept, it)
	}
	items = kept

	fetchFn := func(src string) ([]byte, bool) {
		data, ok := encoded[src]
		return data, ok
	}
	inspector := b.cfg.Inspector
	if futures != nil {
		inspector = &futureInspector{futures: futures, renderFirst: b.cfg.RenderFirst}
	}
	r := raster.NewRasterizer(b.cfg.RasterWorkers, fetchFn, inspector)
	h := box.H
	if h < 1 {
		h = 1
	}
	surface, stats, err := r.Raster(items, b.cfg.ViewportW, h)
	if err != nil {
		return nil, fmt.Errorf("browser: raster %s: %w", url, err)
	}
	res.ComputeMS = float64((time.Since(computeStart) - simulated).Microseconds()) / 1000
	res.Surface = surface
	res.Stats = stats
	res.DocHeight = box.H
	res.RenderTimeMS = res.NetworkMS + res.ComputeMS
	if b.cfg.RenderFirst {
		// the page is drawn; the verdicts it did not wait for still land
		for _, f := range futures {
			f.Wait()
		}
	}

	// mark inspector-blocked creatives
	if stats.Blocked > 0 {
		for i := range res.Images {
			ri := &res.Images[i]
			if ri.BlockedByList {
				continue
			}
			if b.wasCleared(r, ri.Spec.URL) {
				ri.BlockedByInspector = true
			}
		}
	}
	return res, nil
}

// futureInspector is the raster.FrameInspector installed in asynchronous
// inspection mode: the frame's classification has been in flight since its
// pixels were materialized, so raster workers only resolve the verdict
// future — in-path time is the residual wait, not a model run. A shed
// verdict (service overloaded) fails open and the frame renders. With
// renderFirst it never waits: only a verdict resolved at submission, one
// the server's store already held, can block the frame.
type futureInspector struct {
	futures     map[string]*serve.Future
	renderFirst bool
}

func (fi *futureInspector) InspectFrame(src string, frame *imaging.Bitmap) bool {
	fut, ok := fi.futures[src]
	if !ok {
		return false
	}
	if fi.renderFirst {
		res, _ := fut.Immediate()
		return res.Ad
	}
	return fut.Wait().Ad
}

// wasCleared asks the rasterizer's decode cache whether the frame ended up
// blocked.
func (b *Browser) wasCleared(r *raster.Rasterizer, src string) bool {
	return r.WasBlocked(src)
}

// hideElements removes containers matched by the list's cosmetic rules,
// returning how many were dropped.
func hideElements(doc *dom.Node, list *easylist.List, pageDomain string) int {
	selectors := list.HideSelectors(pageDomain)
	hidden := 0
	for _, sel := range selectors {
		for _, n := range doc.QuerySelectorAll(sel) {
			if n.Parent == nil {
				continue
			}
			siblings := n.Parent.Children
			for i, c := range siblings {
				if c == n {
					n.Parent.Children = append(siblings[:i], siblings[i+1:]...)
					hidden++
					break
				}
			}
		}
	}
	return hidden
}
