package main

// metricSpec is one row of BENCHMARK.json's end_to_end or per_layer table.
// TestBenchmarkJSONMatchesSpec keeps the two in step.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: tolerated relative worsening
}

func (m metricSpec) higherIsBetter() bool { return m.Better == "higher" }

// endToEnd are the metrics a user of the system sees. Every workload reports
// every one of them (the accepting driver requires it), so the names are
// generic: what "a frame" and "blocking" mean per workload is in README.md.
var endToEnd = []metricSpec{
	{"frames_per_s", "frames/s", "higher", 0.25},
	{"frame_p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced run's metrics, outside-in. They carry no bound.
var perLayer = []metricSpec{
	// tensor
	{"tensor.gemm_stem_ms", "ms", "lower", 0},
	{"tensor.gemm_stem_gflops", "GFLOP/s", "higher", 0},
	{"tensor.gemm_expand3x3_ms", "ms", "lower", 0},
	{"tensor.qgemm_stem_ms", "ms", "lower", 0},
	// nn
	{"nn.forward_fp32_ms", "ms", "lower", 0},
	{"nn.forward_fp32_b2_ms_per_frame", "ms", "lower", 0},
	{"nn.forward_int8_ms", "ms", "lower", 0},
	{"nn.forward_int8_b2_ms_per_frame", "ms", "lower", 0},
	{"nn.forward_allocs", "count", "lower", 0},
	// imaging
	{"imaging.resize_ms", "ms", "lower", 0},
	{"imaging.to_tensor_ms", "ms", "lower", 0},
	{"imaging.content_key_ms", "ms", "lower", 0},
	{"imaging.decode_ms", "ms", "lower", 0},
	// engine
	{"engine.infer_b1_ms", "ms", "lower", 0},
	{"engine.int8_infer_b1_ms", "ms", "lower", 0},
	{"engine.infer_self_ms", "ms", "lower", 0},
	{"engine.wire_probe_rtt_ms", "ms", "lower", 0},
	{"engine.wire_cold_rtt_ms", "ms", "lower", 0},
	{"engine.wire_bytes_out_per_frame", "bytes", "lower", 0},
	{"engine.wire_dedup_share", "share", "higher", 0},
	{"engine.fleet_hedges", "count", "lower", 0},
	{"engine.fleet_fallbacks", "count", "lower", 0},
	{"engine.errors", "count", "lower", 0},
	// core
	{"core.classify_ms", "ms", "lower", 0},
	{"core.classify_self_ms", "ms", "lower", 0},
	{"core.inpath_ms_per_frame", "ms", "lower", 0},
	// serve
	{"serve.submit_1c_ms", "ms", "lower", 0},
	{"serve.self_ms", "ms", "lower", 0},
	{"serve.hit_ms", "ms", "lower", 0},
	{"serve.hit_self_ms", "ms", "lower", 0},
	{"serve.batch_fill_mean", "frames", "higher", 0},
	{"serve.cache_hit_share", "share", "higher", 0},
	{"serve.coalesced_share", "share", "higher", 0},
	{"serve.shed", "count", "lower", 0},
	{"serve.lane_busy_share", "share", "lower", 0},
	{"serve.frame_p90_ms", "ms", "lower", 0},
	{"serve.frame_p99_ms", "ms", "lower", 0},
	// browser, raster, dom, layout
	{"dom.parse_ms", "ms", "lower", 0},
	{"layout.layout_ms", "ms", "lower", 0},
	{"raster.raster_ms", "ms", "lower", 0},
	{"browser.page_base_ms", "ms", "lower", 0},
	{"browser.render_overhead_sync_ms", "ms", "lower", 0},
	{"browser.render_overhead_async_ms", "ms", "lower", 0},
	{"browser.render_overhead_paper_pct", "%", "lower", 0},
	{"browser.inspect_inpath_p50_ms", "ms", "lower", 0},
	{"browser.frames_inspected", "count", "higher", 0},
	{"browser.overhead_explained_share", "share", "higher", 0},
	// process
	{"proc.cpu_ms_per_frame", "ms", "lower", 0},
	{"proc.model_cpu_share", "share", "lower", 0},
	{"proc.alloc_bytes_per_frame", "bytes", "lower", 0},
	{"proc.gc_count", "count", "lower", 0},
	{"calib.ref_ms", "ms", "lower", 0},
	{"trace.overhead_share", "share", "lower", 0},
}

// workloadSpec names one workload and why it exists (BENCHMARK.json's
// `workloads`).
type workloadSpec struct {
	Name string
	Why  string
	new  func(seed int64) (rig, error)
}

// The order is the order a driver that walks the list runs them in. The
// first run compiles the harness on both vCPUs, and for some minutes after
// such a burst this box runs compute-bound code up to 8% slower; the
// workloads the model does not touch go first and ride that out.
var workloads = []workloadSpec{
	{"serve_rotation", "2 clients cycle creatives through a pre-warmed default cache: content hash and sharded cache do all the work, the model none, so nn/tensor changes must not move it", newServeRotation},
	{"remote_wire", "front server over socket wire v2 to two in-process peers with warm verdict caches: encode, framing, socket RTT, fleet routing and peer cache probe dominate, model idle", newRemoteWire},
	{"serve_unique", "2 closed-loop clients, never-cached frames, FP32: nn+tensor forward and engine pre-processing do all the work, the cache none", newServeUnique},
	{"serve_unique_int8", "same stream on the INT8 engine: the tensor/nn/arena code used the other way (QGemm, Im2colU8, requantize), so a gain for one engine that costs the other shows", newServeUniqueInt8},
	{"page_render_async", "same pages through AsyncServe: a page's ~7 frames reach serve's batched FP32 path at once, the only workload that fills batches past 2", newPageAsync},
	{"page_render_sync", "the paper's experiment: pages rendered with the classifier in the raster task; the only place browser/raster/dom/layout/decode and core's single-frame FP32 path do real work", newPageSync},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
