package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"percival/internal/browser"
	"percival/internal/core"
	"percival/internal/dom"
	"percival/internal/engine"
	"percival/internal/imaging"
	"percival/internal/layout"
	"percival/internal/nn"
	"percival/internal/raster"
	"percival/internal/serve"
	"percival/internal/tensor"
	"percival/internal/webgen"
)

// The layer ladder times each layer's public entry point from outside the
// program, outermost first, on the workload's own frames: Submit → Classify →
// InferBatchInto → {resize, to-tensor, forward} → GEMM. A rung minus the
// rungs it calls is that layer's self time. Every traced run climbs the whole
// ladder (and a two-page render ladder, and one wire hop), so each workload
// reports every per-layer metric from the same seed's inputs.

// GEMM shapes of the paper-scale network: the 7×7/2 stem over 112×112 output
// positions, and the largest fire 3×3 expand (fire5/6: 64→256 channels at
// 13×13).
const (
	stemM, stemK, stemN       = 96, 196, 12544
	expandM, expandK, expandN = 256, 576, 169
)

const (
	ladderPages = 2
	ladderReps  = 3
)

// rungs collects one duration sample per rung per ladder step.
type rungs struct {
	tr     *tracer
	ms     map[string][]float64
	parent int
	req    int64
}

// time runs fn as a child span of the current step.
func (r *rungs) time(name string, fn func()) {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	r.tr.add(name, t0, t1, r.parent, r.req)
	r.ms[name] = append(r.ms[name], float64(t1.Sub(t0).Nanoseconds())/1e6)
}

// med is a rung's estimate: the lower quartile of its samples. Interference
// only adds time, and rungs are subtracted from one another, so each should
// describe its undisturbed calls; the minimum would instead describe the
// smallest frame.
func (r *rungs) med(name string) float64 { return quantile(r.ms[name], 0.25) }

// runLadder climbs the ladder over frames (at least 8, for INT8 calibration)
// and returns the per-layer metrics it is the source of.
func runLadder(seed int64, frames []*imaging.Bitmap, tr *tracer) (map[string]float64, error) {
	if len(frames) < 8 {
		return nil, fmt.Errorf("ladder: %d frames, need 8", len(frames))
	}
	fp32, err := buildService(nil)
	if err != nil {
		return nil, err
	}
	q8, err := buildService(frames[:8])
	if err != nil {
		return nil, err
	}
	fb, _ := fp32.Backends().Get(engine.FP32Name)
	qb, _ := q8.Backends().Get(engine.Int8Name)
	net := fb.(*engine.FP32Backend).Net()
	qnet := qb.(*engine.Int8Backend).QNet()
	be := fp32.Engine().Replicate()
	defer be.Close()
	qbe := q8.Engine().Replicate()
	defer qbe.Close()

	miss, err := serve.New(fp32, serve.Options{DisableCache: true, MaxBatch: serveMaxBatch})
	if err != nil {
		return nil, fmt.Errorf("ladder: serve.New: %w", err)
	}
	defer miss.Close()
	miss.Warm()
	hit, err := serve.New(fp32, serve.Options{MaxBatch: serveMaxBatch})
	if err != nil {
		return nil, fmt.Errorf("ladder: serve.New: %w", err)
	}
	defer hit.Close()
	for _, f := range frames {
		hit.Submit(f)
	}
	wire, err := newWireRig(fp32, 1)
	if err != nil {
		return nil, err
	}
	defer wire.close()
	remote := wire.remotes[0]
	wire0 := wire.counters(nil)

	res := fp32.InputRes()
	per := 4 * res * res
	arena := tensor.NewArena()
	scaled := imaging.NewBitmap(res, res)
	x1 := tensor.New(1, 4, res, res)
	x2 := tensor.New(2, 4, res, res)
	one := make([]*imaging.Bitmap, 1)
	out := make([]float64, 1)

	rng := rand.New(rand.NewSource(seed))
	stemA, stemB, stemC := randF32(rng, stemM*stemK), randF32(rng, stemK*stemN), make([]float32, stemM*stemN)
	expA, expB, expC := randF32(rng, expandM*expandK), randF32(rng, expandK*expandN), make([]float32, expandM*expandN)
	qA, qB, qC := make([]int8, stemM*stemK), make([]uint8, stemK*stemN), make([]int32, stemM*stemN)
	for i := range qA {
		qA[i] = int8(rng.Intn(255) - 127)
	}
	for i := range qB {
		qB[i] = uint8(rng.Intn(tensor.QMaxU8 + 1))
	}

	r := &rungs{tr: tr, ms: map[string][]float64{}}
	step := func(i int, f *imaging.Bitmap) {
		t0 := time.Now()
		r.req = int64(i)
		r.parent = tr.reserve("ladder.step", t0, -1, r.req)
		one[0] = f
		// FP32 rungs back to back, outermost first, so each finds the weights
		// the one before left in cache; then INT8; then the model-free rungs
		r.time("serve.submit_1c", func() { miss.Submit(f) })
		r.time("core.classify", func() { fp32.Classify(f) })
		r.time("engine.infer_b1", func() { be.InferBatchInto(one, out) })
		r.time("imaging.resize", func() { imaging.ResizeBilinearInto(f, scaled) })
		r.time("imaging.to_tensor", func() { imaging.ToTensorInto(scaled, x1.Data) })
		copy(x2.Data[:per], x1.Data)
		copy(x2.Data[per:], x1.Data)
		r.time("nn.forward_fp32", func() { arena.PutTensor(nn.PredictArena(net, x1, arena)) })
		r.time("nn.forward_fp32_b2", func() { arena.PutTensor(nn.PredictArena(net, x2, arena)) })
		r.time("engine.int8_infer_b1", func() { qbe.InferBatchInto(one, out) })
		r.time("nn.forward_int8", func() { arena.PutTensor(qnet.PredictArena(x1, arena)) })
		r.time("nn.forward_int8_b2", func() { arena.PutTensor(qnet.PredictArena(x2, arena)) })
		r.time("serve.hit", func() { hit.Submit(f) })
		r.time("imaging.content_key", func() { imaging.ContentKey(f) })
		r.time("tensor.gemm_stem", func() { tensor.Gemm(stemA, stemB, stemC, stemM, stemK, stemN) })
		r.time("tensor.gemm_expand3x3", func() { tensor.Gemm(expA, expB, expC, expandM, expandK, expandN) })
		r.time("tensor.qgemm_stem", func() { tensor.QGemm(qA, qB, qC, stemM, stemK, stemN) })
		tr.finish(r.parent, time.Now())
	}
	// one untimed step faults every buffer in; its samples are dropped
	step(-1, frames[0])
	r.ms = map[string][]float64{}
	for i, f := range frames {
		step(i, f)
	}
	// the wire hop sees each frame for the first time (pixels cross, the
	// peer's model runs), then again (a 40-byte probe hits the peer's cache)
	for i, f := range frames {
		one[0] = f
		r.req, r.parent = int64(i), -1
		r.time("engine.wire_cold_rtt", func() { remote.InferBatchInto(one, out) })
		r.time("engine.wire_probe_rtt", func() { remote.InferBatchInto(one, out) })
	}
	wc := wire.counters(nil).since(wire0)

	var m0, m1 runtime.MemStats
	const allocRuns = 5
	runtime.ReadMemStats(&m0)
	for i := 0; i < allocRuns; i++ {
		arena.PutTensor(nn.PredictArena(net, x1, arena))
	}
	runtime.ReadMemStats(&m1)

	m := map[string]float64{
		"tensor.gemm_stem_ms":             r.med("tensor.gemm_stem"),
		"tensor.gemm_expand3x3_ms":        r.med("tensor.gemm_expand3x3"),
		"tensor.qgemm_stem_ms":            r.med("tensor.qgemm_stem"),
		"nn.forward_fp32_ms":              r.med("nn.forward_fp32"),
		"nn.forward_fp32_b2_ms_per_frame": r.med("nn.forward_fp32_b2") / 2,
		"nn.forward_int8_ms":              r.med("nn.forward_int8"),
		"nn.forward_int8_b2_ms_per_frame": r.med("nn.forward_int8_b2") / 2,
		"nn.forward_allocs":               float64(m1.Mallocs-m0.Mallocs) / allocRuns,
		"imaging.resize_ms":               r.med("imaging.resize"),
		"imaging.to_tensor_ms":            r.med("imaging.to_tensor"),
		"imaging.content_key_ms":          r.med("imaging.content_key"),
		"engine.infer_b1_ms":              r.med("engine.infer_b1"),
		"engine.int8_infer_b1_ms":         r.med("engine.int8_infer_b1"),
		"engine.wire_cold_rtt_ms":         r.med("engine.wire_cold_rtt"),
		"engine.wire_probe_rtt_ms":        r.med("engine.wire_probe_rtt"),
		"core.classify_ms":                r.med("core.classify"),
		"serve.submit_1c_ms":              r.med("serve.submit_1c"),
		"serve.hit_ms":                    r.med("serve.hit"),
	}
	if ms := m["tensor.gemm_stem_ms"]; ms > 0 {
		m["tensor.gemm_stem_gflops"] = 2 * stemM * stemK * stemN / (ms * 1e6)
	}
	m["engine.infer_self_ms"] = m["engine.infer_b1_ms"] - m["imaging.resize_ms"] - m["imaging.to_tensor_ms"] - m["nn.forward_fp32_ms"]
	m["core.classify_self_ms"] = m["core.classify_ms"] - m["engine.infer_b1_ms"]
	m["serve.self_ms"] = m["serve.submit_1c_ms"] - m["engine.infer_b1_ms"]
	m["serve.hit_self_ms"] = m["serve.hit_ms"] - m["imaging.content_key_ms"]
	wireMetrics(m, wc)

	if err := pageLadder(seed, fp32, tr, m); err != nil {
		return nil, err
	}
	return m, nil
}

// wireMetrics fills the wire counters' per-layer metrics.
func wireMetrics(m map[string]float64, wc *wireCounters) {
	m["engine.fleet_hedges"] = float64(wc.hedges)
	m["engine.fleet_fallbacks"] = float64(wc.fallbacks)
	m["engine.errors"] = float64(wc.errors)
	if n := wc.framesPixels + wc.framesDedup; n > 0 {
		m["engine.wire_bytes_out_per_frame"] = float64(wc.bytesOut) / float64(n)
		m["engine.wire_dedup_share"] = float64(wc.framesDedup) / float64(n)
	}
}

func randF32(rng *rand.Rand, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(rng.NormFloat64())
	}
	return out
}

// pageLadder renders two of the seed's pages base, sync (through a timing
// inspector) and async, and walks the same pages through dom, layout, decode
// and raster by hand.
func pageLadder(seed int64, svc *core.Percival, tr *tracer, m map[string]float64) error {
	corpus, pages, err := selectPages(seed, ladderPages)
	if err != nil {
		return err
	}
	async, err := serve.New(svc, serve.Options{DisableCache: true, MaxBatch: pageMaxBatch})
	if err != nil {
		return fmt.Errorf("ladder: serve.New: %w", err)
	}
	defer async.Close()
	async.Warm()
	ti := &timingInspector{inner: svc, tr: tr}
	cfg := browser.Config{Profile: browser.Chromium(), Corpus: corpus, RasterWorkers: pageRasterWorkers}
	conds := []condition{{name: "base"}, {name: "sync", ti: ti}, {name: "async"}}
	for i := range conds {
		c := cfg
		switch conds[i].name {
		case "sync":
			c.Inspector = ti
		case "async":
			c.AsyncServe = async
		}
		if conds[i].b, err = browser.New(c); err != nil {
			return fmt.Errorf("ladder: browser.New: %w", err)
		}
	}
	inpath0 := svc.Stats().InPathMS
	obs := renderSet(pages, conds, ladderReps, tr)
	syncN, asyncN := comparePages(obs, 1), comparePages(obs, 2)
	m["browser.page_base_ms"] = syncN.baseMS
	m["browser.render_overhead_sync_ms"] = syncN.overheadMS
	m["browser.render_overhead_async_ms"] = asyncN.overheadMS
	m["browser.render_overhead_paper_pct"] = syncN.paperPct
	m["browser.frames_inspected"] = float64(syncN.inspected)
	m["browser.inspect_inpath_p50_ms"] = median(ti.callMS)
	if n := len(ti.callMS); n > 0 {
		m["core.inpath_ms_per_frame"] = (svc.Stats().InPathMS - inpath0) / float64(n)
	}
	var inpath, overhead float64
	for i := range obs {
		b, okB := best(obs[i][0])
		s, okS := best(obs[i][1])
		if okB && okS {
			inpath += s.inpathMS
			overhead += s.computeMS - b.computeMS
		}
	}
	if overhead > 0 {
		m["browser.overhead_explained_share"] = inpath / overhead
	}

	r := &rungs{tr: tr, ms: map[string][]float64{}, parent: -1}
	for rep := 0; rep < ladderReps; rep++ {
		for i, p := range pages {
			r.req = int64(i)
			if err := pipelineRungs(r, corpus, p); err != nil {
				return err
			}
		}
	}
	m["dom.parse_ms"] = r.med("dom.parse")
	m["layout.layout_ms"] = r.med("layout.layout")
	m["raster.raster_ms"] = r.med("raster.raster")
	m["imaging.decode_ms"] = r.med("imaging.decode")
	return nil
}

// pipelineRungs walks one page through the render pipeline's stages the way
// browser.Render strings them together, timing each stage per page: parse,
// layout (with display list), decode of all its images, raster (which decodes
// them again — raster minus decode is raster's own time).
func pipelineRungs(r *rungs, corpus *webgen.Corpus, p benchPage) error {
	var doc *dom.Node
	r.time("dom.parse", func() { doc = dom.Parse(p.Page.HTML) })
	// what Render does between parse and layout: iframes become their creative
	for _, node := range doc.ByTag("iframe") {
		if sub, ok := corpus.Page(node.Attrs["src"]); ok && len(sub.Images) > 0 {
			node.Attrs["src"] = sub.Images[0].URL
		}
	}
	encoded := map[string][]byte{}
	dims := map[string][2]int{}
	for j, spec := range p.Page.Images {
		data, err := imaging.Encode(p.Frames[j], spec.Format)
		if err != nil {
			return fmt.Errorf("ladder: encode %s: %w", spec.URL, err)
		}
		encoded[spec.URL] = data
		dims[spec.URL] = [2]int{p.Frames[j].W, p.Frames[j].H}
	}
	var box *layout.Box
	var items []layout.DisplayItem
	r.time("layout.layout", func() {
		box = layout.Layout(doc, layout.DefaultViewportW, func(src string) (int, int, bool) {
			d, ok := dims[src]
			return d[0], d[1], ok
		})
		items = layout.BuildDisplayList(box)
	})
	var decodeErr error
	r.time("imaging.decode", func() {
		for _, data := range encoded {
			if _, _, err := imaging.Decode(data); err != nil {
				decodeErr = err
			}
		}
	})
	if decodeErr != nil {
		return fmt.Errorf("ladder: decode: %w", decodeErr)
	}
	var rasterErr error
	r.time("raster.raster", func() {
		rz := raster.NewRasterizer(pageRasterWorkers, func(src string) ([]byte, bool) {
			data, ok := encoded[src]
			return data, ok
		}, nil)
		_, _, rasterErr = rz.Raster(items, layout.DefaultViewportW, box.H)
	})
	if rasterErr != nil {
		return fmt.Errorf("ladder: raster: %w", rasterErr)
	}
	return nil
}
