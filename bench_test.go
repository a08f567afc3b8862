package percival_test

// Benchmarks regenerating every table and figure in the paper's evaluation,
// plus ablations of the design choices DESIGN.md calls out. Each BenchmarkFigN
// drives the same runner as `percival-eval -experiment figN`; slow experiment
// benches naturally run a single iteration under the default -benchtime.
//
// Run everything:  go test -bench=. -benchmem
// One experiment:  go test -bench=BenchmarkFig7 -benchtime=1x

import (
	"math/rand"
	"net"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"percival/internal/browser"
	"percival/internal/core"
	"percival/internal/crawler"
	"percival/internal/dataset"
	"percival/internal/easylist"
	"percival/internal/engine"
	"percival/internal/eval"
	"percival/internal/imaging"
	"percival/internal/nn"
	"percival/internal/serve"
	"percival/internal/squeezenet"
	"percival/internal/synth"
	"percival/internal/tensor"
	"percival/internal/webgen"
	"percival/internal/zoo"
)

var (
	benchOnce    sync.Once
	benchHarness *eval.Harness
)

// harness returns the shared reduced-scale evaluation harness (the model
// trains once for the whole bench run).
func harness(b *testing.B) *eval.Harness {
	b.Helper()
	benchOnce.Do(func() {
		benchHarness = eval.NewHarness(nil)
		benchHarness.Scale = 0.5
		benchHarness.TrainSamples = 500
		benchHarness.Epochs = 6
	})
	if _, err := benchHarness.Model(); err != nil {
		b.Fatal(err)
	}
	return benchHarness
}

func runExperiment(b *testing.B, id string) {
	h := harness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Run(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3ModelSize regenerates the architecture/size comparison.
func BenchmarkFig3ModelSize(b *testing.B) { runExperiment(b, eval.ExpFig3) }

// BenchmarkFig4GradCAM regenerates the salience maps.
func BenchmarkFig4GradCAM(b *testing.B) { runExperiment(b, eval.ExpFig4) }

// BenchmarkFig6EasyList regenerates the filter-list coverage table.
func BenchmarkFig6EasyList(b *testing.B) { runExperiment(b, eval.ExpFig6) }

// BenchmarkFig7Replication regenerates the EasyList-replication row
// (paper: 96.76% accuracy).
func BenchmarkFig7Replication(b *testing.B) { runExperiment(b, eval.ExpFig7) }

// BenchmarkFig8External regenerates the external-dataset validation.
func BenchmarkFig8External(b *testing.B) { runExperiment(b, eval.ExpFig8) }

// BenchmarkFig9Languages regenerates the five-language table.
func BenchmarkFig9Languages(b *testing.B) { runExperiment(b, eval.ExpFig9) }

// BenchmarkFig10Facebook regenerates the first-party blocking row.
func BenchmarkFig10Facebook(b *testing.B) { runExperiment(b, eval.ExpFig10) }

// BenchmarkFig13Search regenerates the image-search probe table.
func BenchmarkFig13Search(b *testing.B) { runExperiment(b, eval.ExpFig13) }

// BenchmarkFig14RenderCDF regenerates the four render-time distributions.
func BenchmarkFig14RenderCDF(b *testing.B) { runExperiment(b, eval.ExpFig14) }

// BenchmarkFig15Overhead regenerates the median-overhead table (paper:
// +4.55% Chromium, +19.07% Brave).
func BenchmarkFig15Overhead(b *testing.B) { runExperiment(b, eval.ExpFig15) }

// BenchmarkCrawlComparison regenerates the §4.4 crawler-methodology table.
func BenchmarkCrawlComparison(b *testing.B) { runExperiment(b, eval.ExpCrawl) }

// BenchmarkAsyncMemoization regenerates the sync-vs-async deployment table.
func BenchmarkAsyncMemoization(b *testing.B) { runExperiment(b, eval.ExpAsync) }

// --- micro-benchmarks and ablations ---

// paperNet builds the paper-scale PERCIVAL fork with the deterministic
// warm-start initialization (weights are random but fixed; benchmark
// latency does not depend on training).
func paperNet() *nn.Sequential {
	net, err := squeezenet.Build(squeezenet.PaperConfig())
	if err != nil {
		panic(err)
	}
	squeezenet.PretrainedInit(net, 1)
	return net
}

// paperQuantNet builds and calibrates the paper-scale INT8 engine shared by
// the Int8 benchmarks.
func paperQuantNet() *nn.QuantizedSequential {
	rng := rand.New(rand.NewSource(2))
	calib := make([]*tensor.Tensor, 2)
	for i := range calib {
		x := tensor.New(1, 4, 224, 224)
		for j := range x.Data {
			x.Data[j] = float32(rng.Float64())
		}
		calib[i] = x
	}
	qnet, err := nn.Quantize(paperNet(), calib)
	if err != nil {
		panic(err)
	}
	return qnet
}

// paperFrames returns n seeded frames at paper resolution, uniform in [0,1)
// like a decoded bitmap. The inference benchmarks time these, not the
// all-zero tensor.New leaves: zero activations never mispredict a compare and
// all take one side of every ReLU, which once hid a scalar loop's real cost.
func paperFrames(n int) *tensor.Tensor {
	rng := rand.New(rand.NewSource(5))
	x := tensor.New(n, 4, 224, 224)
	for i := range x.Data {
		x.Data[i] = rng.Float32()
	}
	return x
}

// benchForward times predict over a batch of n paper-resolution frames on a
// warm arena, reporting allocations and, for n > 1, ms/frame.
func benchForward(b *testing.B, n int, predict func(x *tensor.Tensor, a *tensor.Arena) *tensor.Tensor) {
	x := paperFrames(n)
	a := tensor.NewArena()
	a.PutTensor(predict(x, a)) // warm the arena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.PutTensor(predict(x, a))
	}
	if n > 1 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n)/1e6, "ms/frame")
	}
}

func benchForwardFP32(b *testing.B, n int) {
	net := paperNet()
	benchForward(b, n, func(x *tensor.Tensor, a *tensor.Arena) *tensor.Tensor { return nn.PredictArena(net, x, a) })
}

func benchForwardInt8(b *testing.B, n int) {
	benchForward(b, n, paperQuantNet().PredictArena)
}

// BenchmarkInferSingle measures raw single-frame inference latency at paper
// resolution on the arena fast path (model forward only, no harness
// training): the per-frame cost PERCIVAL adds to the rendering critical
// path. Steady state should report 0 allocs/op.
func BenchmarkInferSingle(b *testing.B) { benchForwardFP32(b, 1) }

// BenchmarkInferBatch measures batched inference throughput (8 frames per
// forward pass) on the arena fast path, the ClassifyBatch workload.
func BenchmarkInferBatch(b *testing.B) { benchForwardFP32(b, 8) }

// BenchmarkInferSingleInt8 measures single-frame inference latency at paper
// resolution on the quantized arena path — the INT8 counterpart of
// BenchmarkInferSingle. Steady state should report 0 allocs/op.
func BenchmarkInferSingleInt8(b *testing.B) { benchForwardInt8(b, 1) }

// BenchmarkInferBatchInt8 measures batched quantized throughput (8 frames
// per forward pass) — the quantized ClassifyBatch workload.
func BenchmarkInferBatchInt8(b *testing.B) { benchForwardInt8(b, 8) }

// BenchmarkWarm16 is the set-up cost and the footprint of one backend at the
// daemon's default MaxBatch: a cold state sized for a 16-frame chunk and one
// blank frame run in it, and the bytes that state then keeps (state-MB).
func BenchmarkWarm16(b *testing.B) {
	net := paperNet()
	var state int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		be := engine.NewFP32(net, 224)
		be.Warm(16)
		state = be.Stats().StateBytes
		be.Close()
	}
	b.ReportMetric(float64(state)/(1<<20), "state-MB")
}

// BenchmarkEngineInferInt8 is one synth frame through the INT8 backend —
// resize, input table, forward — the per-frame cost serve pays on that
// engine. BenchmarkInferSingleInt8 enters through the float API and so times
// a quantize pass the backend no longer runs.
func BenchmarkEngineInferInt8(b *testing.B) {
	benchEngineInfer(b, engine.NewInt8(paperQuantNet(), 224))
}

// BenchmarkEngineInferFP32 is its FP32 twin — resize, ToTensorInto, forward
// through engine.NewFP32: where BenchmarkInferSingle times the forward pass
// alone, this is what the backend does with a decoded frame.
func BenchmarkEngineInferFP32(b *testing.B) { benchEngineInfer(b, engine.NewFP32(paperNet(), 224)) }

// benchEngineInfer times one synth frame (not 224×224, so it is resized)
// through be's InferBatchInto on a warm state.
func benchEngineInfer(b *testing.B, be engine.Backend) {
	defer be.Close()
	frames := synth.SampleFrames(7, 1)
	out := make([]float64, 1)
	be.InferBatchInto(frames, out) // warm the state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		be.InferBatchInto(frames, out)
	}
}

// BenchmarkQuantizeSetup32 is the INT8 set-up as the daemon runs it:
// core.New with Quantized on 32 sample frames — one FP32 calibration pass a
// frame, whose probabilities are the parity gate's FP32 scores, weight
// quantization, and the gate's INT8 pass a frame — and the bytes it
// allocates on the way (alloc-MB).
func BenchmarkQuantizeSetup32(b *testing.B) {
	net, cfg := paperNet(), squeezenet.PaperConfig()
	opts := core.Options{Quantized: true, CalibFrames: synth.SampleFrames(101, 32)}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.New(net, cfg, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/float64(b.N)/(1<<20), "alloc-MB")
}

// The two serving paths on which the model is idle, one frame at a time from
// one closed-loop client at one P (pinned before the server sizes its worker
// set, so the rows compare however the run was started): what is left is the content hash, the cache or the
// wire, and the batcher around them. `make profile` profiles both — the bar
// that is tall on these paths (SHA-256) is invisible in a profile of the
// forward pass.

// smallService is a classifier over the small net; the warm serving paths
// never reach it after the cold pass.
func smallService(b *testing.B) *core.Percival {
	cfg := squeezenet.SmallConfig(32)
	net, err := squeezenet.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	squeezenet.PretrainedInit(net, 1)
	svc, err := core.New(net, cfg, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return svc
}

// benchSubmit times Submit over frames the server has already seen once:
// ns/op is ns a frame.
func benchSubmit(b *testing.B, srv *serve.Server, frames []*imaging.Bitmap) {
	for _, f := range frames { // cold pass: fills whichever cache answers from here on
		if r := srv.Submit(f); r.Status != serve.StatusClassified {
			b.Fatalf("cold pass resolved %v", r.Status)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := srv.Submit(frames[i%len(frames)]); r.Status == serve.StatusShed {
			b.Fatal("warm frame shed")
		}
	}
}

// BenchmarkServeCacheHit is a Submit answered by serve's own verdict cache:
// one content hash, one sharded-map lookup (the repo benchmark's
// serve_rotation path).
func BenchmarkServeCacheHit(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	srv, err := serve.New(smallService(b), serve.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	benchSubmit(b, srv, synth.SampleFrames(7, 32))
}

// BenchmarkServeWireWarm is a Submit on a front with no cache of its own,
// over a fleet of one loopback wire peer whose verdict cache is warm: one
// content hash, the batcher, fleet dispatch, and a probe round trip the peer
// answers without its model (the repo benchmark's remote_wire path).
func BenchmarkServeWireWarm(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	svc := smallService(b)
	peer := svc.Engine().Replicate()
	defer peer.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ws := engine.NewWireServer(engine.WireServerOptions{Backend: peer, Cache: engine.NewVerdictMap(0)})
	go ws.Serve(ln) // returns when ws.Close closes the listener
	defer ws.Close()
	ts := httptest.NewServer(engine.ModelzHandlerID(nil, peer, svc.Threshold(), ln.Addr().String(), ""))
	defer ts.Close()
	rb, err := engine.NewRemote(ts.URL, engine.RemoteOptions{ExpectRes: svc.InputRes()})
	if err != nil {
		b.Fatal(err)
	}
	fleet, err := engine.NewFleet([]*engine.RemoteBackend{rb}, engine.FleetOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer fleet.Close()
	srv, err := serve.New(svc, serve.Options{DisableCache: true, Backend: fleet})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	srv.Warm()
	frames := synth.SampleFrames(7, 32)
	benchSubmit(b, srv, frames)
	if st := rb.TransportStats(); st.FramesPixels != int64(len(frames)) {
		b.Fatalf("%d frames crossed as pixels, want the cold pass's %d and none after", st.FramesPixels, len(frames))
	}
}

// BenchmarkClassifySingleFrame measures the per-frame model latency the
// paper quotes as 11 ms at 224px (ours runs at the harness resolution).
func BenchmarkClassifySingleFrame(b *testing.B) {
	h := harness(b)
	svc, err := h.Service()
	if err != nil {
		b.Fatal(err)
	}
	g := synth.NewGenerator(1, synth.CrawlStyle())
	frame := g.Ad()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc.Classify(frame)
	}
}

// BenchmarkAblationArchitecture contrasts the fork against the original
// SqueezeNet it was cut down from (the Fig. 3 latency motivation), each on
// the inference path a deployed model runs: ForwardInfer on a warm arena.
func BenchmarkAblationArchitecture(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	frame := func(c int) *tensor.Tensor {
		x := tensor.New(1, c, 224, 224)
		for i := range x.Data {
			x.Data[i] = rng.Float32()
		}
		return x
	}
	x224x3, x224x4 := frame(3), frame(4)
	run := func(b *testing.B, net *nn.Sequential, x *tensor.Tensor) {
		a := tensor.NewArena()
		a.PutTensor(net.ForwardInfer(x, a)) // warm the arena
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.PutTensor(net.ForwardInfer(x, a))
		}
	}
	b.Run("percival-fork", func(b *testing.B) {
		net, _ := squeezenet.Build(squeezenet.PaperConfig())
		squeezenet.PretrainedInit(net, 1)
		run(b, net, x224x4)
	})
	b.Run("original-squeezenet", func(b *testing.B) {
		net := squeezenet.BuildOriginal(squeezenet.OriginalSqueezeNet())
		nn.InitHe(net, rand.New(rand.NewSource(1)))
		run(b, net, x224x3)
	})
	b.Run("yolo-class-standin", func(b *testing.B) {
		run(b, zoo.BuildStandIn(zoo.StandInYOLOClass, 4), x224x4)
	})
}

// BenchmarkAblationConvAlgo contrasts three ways to run a representative fork
// layer: the production forward, which packs GEMM panels straight from the
// image; im2col into a column matrix followed by a dense GEMM — the reference
// the production path is tested against bit for bit, and the form
// ConvBackward still needs; and a direct nested-loop convolution.
func BenchmarkAblationConvAlgo(b *testing.B) {
	spec := tensor.ConvSpec{InC: 64, OutC: 64, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	rng := rand.New(rand.NewSource(2))
	x := tensor.New(1, 64, 28, 28)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	k := spec.InC * 9
	w := make([]float32, spec.OutC*k)
	for i := range w {
		w[i] = float32(rng.NormFloat64())
	}
	oh, ow := spec.OutSize(28, 28)
	y := tensor.New(1, spec.OutC, oh, ow)
	b.Run("packed-direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.ConvForwardInto(x, w, nil, spec, y, 0, false)
		}
	})
	b.Run("im2col+gemm", func(b *testing.B) {
		col := make([]float32, k*oh*ow)
		for i := 0; i < b.N; i++ {
			tensor.Im2col(x.Data, spec.InC, 28, 28, spec, col)
			tensor.Gemm(w, col, y.Data, spec.OutC, k, oh*ow)
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			directConv(x, w, spec)
		}
	})
}

// directConv is the naive reference convolution used by the ablation.
func directConv(x *tensor.Tensor, w []float32, s tensor.ConvSpec) *tensor.Tensor {
	n, c, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := s.OutSize(h, wd)
	y := tensor.New(n, s.OutC, oh, ow)
	for i := 0; i < n; i++ {
		for oc := 0; oc < s.OutC; oc++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var sum float32
					for ic := 0; ic < c; ic++ {
						for ky := 0; ky < s.KH; ky++ {
							iy := oy*s.StrideH - s.PadH + ky
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < s.KW; kx++ {
								ix := ox*s.StrideW - s.PadW + kx
								if ix < 0 || ix >= wd {
									continue
								}
								sum += w[((oc*c+ic)*s.KH+ky)*s.KW+kx] * x.Data[((i*c+ic)*h+iy)*wd+ix]
							}
						}
					}
					y.Data[((i*s.OutC+oc)*oh+oy)*ow+ox] = sum
				}
			}
		}
	}
	return y
}

// BenchmarkAblationRasterWorkers sweeps the raster pool size to show the
// §3.1 parallelism win (one classifier instance per raster worker).
func BenchmarkAblationRasterWorkers(b *testing.B) {
	h := harness(b)
	svc, err := h.Service()
	if err != nil {
		b.Fatal(err)
	}
	corpus := webgen.NewCorpus(99, 6)
	url := corpus.Sites[0].PageURLs[0]
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(workerName(workers), func(b *testing.B) {
			br, err := browser.New(browser.Config{
				Profile: browser.Chromium(), Corpus: corpus,
				Inspector: svc, RasterWorkers: workers,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := br.Render(url, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRenderPage is the base render the paper's overhead divides by:
// browser.Render of webgen front pages with no inspector attached — parse,
// layout, decode and raster — one page per op in rotation. compute-ms/page
// is the mean ComputeMS, which leaves out drawing and encoding the creatives
// (the simulation's stand-in for the network); ns/op and allocs/op include
// them. `make profile` profiles it: the decode and raster bars are invisible
// in every model-side profile.
func BenchmarkRenderPage(b *testing.B) {
	corpus := webgen.NewCorpus(99, 6)
	br, err := browser.New(browser.Config{Profile: browser.Chromium(), Corpus: corpus, RasterWorkers: 2})
	if err != nil {
		b.Fatal(err)
	}
	var urls []string
	for _, s := range corpus.TopSites(6) {
		urls = append(urls, s.PageURLs[0])
	}
	var computeMS float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := br.Render(urls[i%len(urls)], 0)
		if err != nil {
			b.Fatal(err)
		}
		computeMS += res.ComputeMS
	}
	b.ReportMetric(computeMS/float64(b.N), "compute-ms/page")
}

func workerName(n int) string {
	return string(rune('0'+n)) + "-workers"
}

// BenchmarkAblationHookPoint contrasts the two data-access strategies from
// §2.2/§4.4: element screenshots (race-prone) versus in-pipeline frames.
func BenchmarkAblationHookPoint(b *testing.B) {
	corpus := webgen.NewCorpus(123, 8)
	list, errs := easylist.Parse(corpus.SyntheticEasyList())
	if len(errs) > 0 {
		b.Fatal(errs[0])
	}
	var pages []string
	for _, s := range corpus.Sites {
		pages = append(pages, s.PageURLs[0])
	}
	b.Run("element-screenshot", func(b *testing.B) {
		tc := &crawler.Traditional{Corpus: corpus, List: list, ScreenshotDelayMS: 400}
		for i := 0; i < b.N; i++ {
			if _, _, _, err := tc.Crawl(pages); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pipeline-frames", func(b *testing.B) {
		pc := &crawler.Pipeline{Corpus: corpus, Labeler: crawler.GroundTruthLabeler{Corpus: corpus}}
		for i := 0; i < b.N; i++ {
			if _, _, err := pc.Crawl(pages, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMemoizationHitRate measures the async cache's effect on repeated
// creatives (the §1 "speeding up the classification process" claim).
func BenchmarkMemoizationHitRate(b *testing.B) {
	h := harness(b)
	g := synth.NewGenerator(5, synth.CrawlStyle())
	frames := make([]*imaging.Bitmap, 10)
	for i := range frames {
		frames[i], _ = g.Sample()
	}
	b.Run("cold-every-frame", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			svc, err := h.Service()
			if err != nil {
				b.Fatal(err)
			}
			for _, f := range frames {
				svc.InspectFrame("x", f)
			}
		}
	})
	b.Run("warm-cache", func(b *testing.B) {
		svc, err := h.Service()
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range frames {
			svc.InspectFrame("x", f)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, f := range frames {
				svc.InspectFrame("x", f)
			}
		}
	})
}

// BenchmarkTrainingEpoch measures one SGD epoch at the harness scale
// (§4.3's training recipe on this engine).
func BenchmarkTrainingEpoch(b *testing.B) {
	arch := squeezenet.SmallConfig(32)
	ds := dataset.Generate(7, synth.CrawlStyle(), 96)
	cfg := dataset.FastTraining(arch, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.Train(cfg, ds); err != nil {
			b.Fatal(err)
		}
	}
}
