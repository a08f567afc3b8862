package core

import (
	"image/color"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"percival/internal/dataset"
	"percival/internal/engine"
	"percival/internal/imaging"
	"percival/internal/squeezenet"
	"percival/internal/synth"
)

// testService builds a PERCIVAL around an untrained (but initialized)
// small network; verdict correctness is covered by integration tests, these
// tests exercise the service mechanics.
func testService(t *testing.T, opts Options) *Percival {
	t.Helper()
	cfg := squeezenet.SmallConfig(16)
	net, err := squeezenet.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	squeezenet.PretrainedInit(net, 1)
	p, err := New(net, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func adLike(t *testing.T) *imaging.Bitmap {
	t.Helper()
	g := synth.NewGenerator(7, synth.CrawlStyle())
	return g.Ad()
}

func TestNewValidation(t *testing.T) {
	cfg := squeezenet.SmallConfig(16)
	net, _ := squeezenet.Build(cfg)
	if _, err := New(nil, cfg, Options{}); err == nil {
		t.Fatal("nil net must fail")
	}
	if _, err := New(net, cfg, Options{Threshold: 1.5}); err == nil {
		t.Fatal("threshold out of range must fail")
	}
	p, err := New(net, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Threshold() != 0.5 {
		t.Fatalf("default threshold %v", p.Threshold())
	}
}

func TestClassifyReturnsProbability(t *testing.T) {
	p := testService(t, Options{})
	prob := p.Classify(adLike(t))
	if prob < 0 || prob > 1 {
		t.Fatalf("probability %v", prob)
	}
	s := p.Stats()
	if s.Classified != 1 || s.AvgClassifyMS <= 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestClassifyBatchMatchesSingle(t *testing.T) {
	p := testService(t, Options{})
	g := synth.NewGenerator(3, synth.CrawlStyle())
	frames := []*imaging.Bitmap{g.Ad(), g.NonAd(), g.Ad()}
	batch := p.ClassifyBatch(frames)
	for i, f := range frames {
		single := p.Classify(f)
		if diff := batch[i] - single; diff > 1e-4 || diff < -1e-4 {
			t.Fatalf("frame %d: batch %v single %v", i, batch[i], single)
		}
	}
	if p.ClassifyBatch(nil) != nil {
		t.Fatal("empty batch should be nil")
	}
}

func TestSynchronousInspectBlocksAndMemoizes(t *testing.T) {
	p := testService(t, Options{Mode: Synchronous})
	frame := adLike(t)
	verdict1 := p.InspectFrame("http://x/a.png", frame.Clone())
	hits0 := p.Stats().CacheHits
	verdict2 := p.InspectFrame("http://y/b.png", frame.Clone()) // same pixels, new URL
	if verdict1 != verdict2 {
		t.Fatal("same content must get same verdict")
	}
	if p.Stats().CacheHits != hits0+1 {
		t.Fatal("second sighting should hit the content-hash cache")
	}
	if p.Stats().Classified != 1 {
		t.Fatalf("classified %d, want 1 (memoized)", p.Stats().Classified)
	}
}

func TestAsynchronousModeRendersFirstBlocksLater(t *testing.T) {
	p := testService(t, Options{Mode: Asynchronous})
	frame := adLike(t)
	// first sighting always renders (returns false) in async mode
	if p.InspectFrame("http://x/a.png", frame.Clone()) {
		t.Fatal("async first sighting must not block")
	}
	p.Drain()
	// second sighting uses the memoized verdict, whatever it is
	verdict := p.InspectFrame("http://x/a.png", frame.Clone())
	want := p.Classify(frame) >= p.Threshold()
	if verdict != want {
		t.Fatalf("memoized verdict %v, classifier says %v", verdict, want)
	}
	if p.Stats().CacheHits != 1 {
		t.Fatalf("cache hits %d", p.Stats().CacheHits)
	}
}

func TestTinyFramesSkipped(t *testing.T) {
	p := testService(t, Options{Mode: Synchronous})
	pixel := imaging.NewBitmap(1, 1)
	if p.InspectFrame("http://t/pixel.gif", pixel) {
		t.Fatal("tracking pixel blocked")
	}
	if p.Stats().Classified != 0 {
		t.Fatal("tiny frame should not be classified")
	}
}

func TestInspectFrameConcurrentSafety(t *testing.T) {
	p := testService(t, Options{Mode: Synchronous})
	g := synth.NewGenerator(5, synth.CrawlStyle())
	frames := make([]*imaging.Bitmap, 8)
	for i := range frames {
		frames[i], _ = g.Sample()
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				p.InspectFrame("src", frames[(w+i)%len(frames)].Clone())
			}
		}(w)
	}
	wg.Wait()
	// Concurrent first sightings of the same content may classify more than
	// once (the raster layer, not core, provides per-resource singleflight),
	// but once the cache is warm no further model work happens.
	warm := p.Stats().Classified
	if warm > 80 {
		t.Fatalf("classified %d of 80 inspections — memoization ineffective", warm)
	}
	for _, f := range frames {
		p.InspectFrame("src", f.Clone())
	}
	if p.Stats().Classified != warm {
		t.Fatal("warm cache should serve all repeat sightings")
	}
}

// TestVerdictCacheEviction: InspectFrame's memo is bounded by CacheSize,
// evicts the oldest creative first, and keeps the model's score, so a hit
// is the bits a fresh classification would produce.
func TestVerdictCacheEviction(t *testing.T) {
	p := testService(t, Options{Mode: Synchronous, CacheSize: 3})
	frames := synth.SampleFrames(43, 5)
	for _, f := range frames {
		p.InspectFrame("src", f)
	}
	if n := p.Cache().Len(); n != 3 {
		t.Fatalf("memo holds %d scores, want 3 (bounded)", n)
	}
	// oldest (0, 1) evicted; 2, 3, 4 remain
	if _, ok := p.Cache().LookupVerdict(imaging.ContentKey(frames[0])); ok {
		t.Fatal("frame 0 should be evicted")
	}
	got, ok := p.Cache().LookupVerdict(imaging.ContentKey(frames[4]))
	if want := p.Classify(frames[4]); !ok || math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("frame 4 memoized (%v, %v), model scores %v", got, ok, want)
	}
	classified, hits := p.Stats().Classified, p.Stats().CacheHits
	p.InspectFrame("src", frames[4])
	if s := p.Stats(); s.Classified != classified || s.CacheHits != hits+1 {
		t.Fatalf("memoized frame re-ran the model (%+v)", s)
	}
	p.InspectFrame("src", frames[0])
	if s := p.Stats(); s.Classified != classified+1 {
		t.Fatalf("evicted frame did not re-run the model (%+v)", s)
	}
}

func TestModelSizeUnder2MB(t *testing.T) {
	cfg := squeezenet.PaperConfig()
	net, err := squeezenet.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(net, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.ModelSizeBytes() >= 2<<20 {
		t.Fatalf("model %d bytes, paper requires <2MB", p.ModelSizeBytes())
	}
	if p.InputRes() != 224 {
		t.Fatalf("input res %d", p.InputRes())
	}
}

// TestTrainedServiceSeparatesClasses is the package's end-to-end check: a
// quickly-trained model must block generated ads and pass generated content
// well above chance.
func TestTrainedServiceSeparatesClasses(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	arch := squeezenet.SmallConfig(32)
	train := dataset.Generate(42, synth.CrawlStyle(), 360)
	// 6 epochs, not 5: at 5 this recipe is still mid-descent and the final
	// accuracy swings ±0.1 with the FP32 kernel tier's rounding (the AVX-512
	// 8×32 tile folds edge tiles differently than the 6×16 tile); one more
	// epoch converges to ~0.90 under every tier.
	cfg := dataset.FastTraining(arch, 6)
	net, err := dataset.Train(cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(net, arch, Options{Mode: Synchronous})
	if err != nil {
		t.Fatal(err)
	}
	g := synth.NewGenerator(77, synth.CrawlStyle())
	correct, total := 0, 120
	for i := 0; i < total; i++ {
		img, label := g.Sample()
		if p.IsAd(img) == (label == dataset.Ad) {
			correct++
		}
	}
	if acc := float64(correct) / float64(total); acc < 0.8 {
		t.Fatalf("trained service accuracy %v < 0.8", acc)
	}
}

func TestBlockedFrameClearedByRaster(t *testing.T) {
	// document the §3.3 contract: core flags, raster clears
	b := imaging.NewBitmap(4, 4)
	b.Fill(color.RGBA{1, 2, 3, 255})
	b.Clear()
	if !b.IsCleared() {
		t.Fatal("clear failed")
	}
}

// TestClassifyZeroAllocSteadyState verifies the warm-arena classify path:
// after the first frame builds the arena, classification allocates nothing
// (GOMAXPROCS pinned to 1 so the GEMM fan-out stays inline; multi-core runs
// add only the worker-pool's per-call scheduling allocations).
func TestClassifyZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	p := testService(t, Options{})
	frame := adLike(t)
	p.Classify(frame) // warm the arena and scaled-frame buffer
	allocs := testing.AllocsPerRun(10, func() { p.Classify(frame) })
	if allocs != 0 {
		t.Fatalf("steady-state Classify allocates %v times per frame, want 0", allocs)
	}
}

// TestClassifyConcurrentConsistent hammers Classify from many goroutines
// (each checks out its own pooled inference state) and checks every score
// matches the serial result; run under -race to verify the state pooling.
func TestClassifyConcurrentConsistent(t *testing.T) {
	p := testService(t, Options{})
	frame := adLike(t)
	want := p.Classify(frame)
	var wg sync.WaitGroup
	errs := make(chan float64, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if got := p.Classify(frame); got != want {
					errs <- got
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if got, bad := <-errs; bad {
		t.Fatalf("concurrent Classify returned %v, serial %v", got, want)
	}
}

// TestClassifyBatchChunking checks batches larger than the internal chunk
// size (16) still score every frame identically to single-frame classify.
func TestClassifyBatchChunking(t *testing.T) {
	p := testService(t, Options{})
	g := synth.NewGenerator(9, synth.CrawlStyle())
	frames := make([]*imaging.Bitmap, 2*engine.BatchChunk+3)
	for i := range frames {
		frames[i], _ = g.Sample()
	}
	batch := p.ClassifyBatch(frames)
	if len(batch) != len(frames) {
		t.Fatalf("got %d scores for %d frames", len(batch), len(frames))
	}
	for _, i := range []int{0, engine.BatchChunk - 1, engine.BatchChunk, len(frames) - 1} {
		single := p.Classify(frames[i])
		if diff := batch[i] - single; diff > 1e-4 || diff < -1e-4 {
			t.Fatalf("frame %d: batch %v single %v", i, batch[i], single)
		}
	}
}

// TestVerdictCacheZeroAndNegativeCapacity pins the one capacity rule: a
// CacheSize of 0 is the default store, a negative one is refused by New with
// an error that names it, and DisableCache is the off switch — no store,
// every sighting runs the model.
func TestVerdictCacheZeroAndNegativeCapacity(t *testing.T) {
	cfg := squeezenet.SmallConfig(16)
	net, err := squeezenet.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{-1, -4096} {
		_, err := New(net, cfg, Options{CacheSize: size})
		if err == nil || !strings.Contains(err.Error(), strconv.Itoa(size)) {
			t.Fatalf("CacheSize %d: New returned %v, want an error naming the size", size, err)
		}
	}
	f := adLike(t)
	p := testService(t, Options{Mode: Synchronous})
	p.InspectFrame("src", f)
	p.InspectFrame("src", f)
	if s := p.Stats(); s.Classified != 1 || s.CacheHits != 1 || p.Cache().Len() != 1 {
		t.Fatalf("default cache: %+v, %d memoized; want 1 model run and 1 hit", s, p.Cache().Len())
	}
	off := testService(t, Options{Mode: Synchronous, DisableCache: true})
	off.InspectFrame("src", f)
	off.InspectFrame("src", f)
	if s := off.Stats(); s.Classified != 2 || s.CacheHits != 0 || off.Cache() != nil {
		t.Fatalf("DisableCache: %+v, store %v; want 2 model runs, no hit, no store", s, off.Cache())
	}
}

// TestVerdictCacheFIFOOrderDeterministic drives the memo's ring through
// several wrap-arounds and checks that eviction is exactly insertion-ordered:
// after inspecting frames 0..n-1 with a capacity of c, precisely the last c
// are memoized, each under its model score, for every prefix length.
func TestVerdictCacheFIFOOrderDeterministic(t *testing.T) {
	const capacity = 4
	p := testService(t, Options{Mode: Synchronous, CacheSize: capacity})
	frames := synth.SampleFrames(47, 3*capacity+1)
	want := make([]float64, len(frames))
	for i, f := range frames {
		want[i] = p.Classify(f)
	}
	for i, f := range frames {
		p.InspectFrame("src", f)
		oldest := max(i+1-capacity, 0)
		for j := 0; j <= i; j++ {
			v, ok := p.Cache().LookupVerdict(imaging.ContentKey(frames[j]))
			if j < oldest {
				if ok {
					t.Fatalf("after %d inspections: frame %d should be FIFO-evicted", i+1, j)
				}
				continue
			}
			if !ok {
				t.Fatalf("after %d inspections: frame %d missing (oldest live %d)", i+1, j, oldest)
			}
			if math.Float64bits(v) != math.Float64bits(want[j]) {
				t.Fatalf("frame %d memoized %v, model scores %v", j, v, want[j])
			}
		}
	}
}

// TestClassifyBatchIntoReusesCallerSlice checks the zero-alloc batched entry
// point used by the serve dispatch workers: scores land in the provided
// slice and match ClassifyBatch.
func TestClassifyBatchIntoReusesCallerSlice(t *testing.T) {
	p := testService(t, Options{DisableCache: true})
	g := synth.NewGenerator(41, synth.CrawlStyle())
	frames := make([]*imaging.Bitmap, 5)
	for i := range frames {
		frames[i], _ = g.Sample()
	}
	out := make([]float64, 8)
	got := p.ClassifyBatchInto(frames, out)
	if len(got) != len(frames) {
		t.Fatalf("got %d scores, want %d", len(got), len(frames))
	}
	if &got[0] != &out[0] {
		t.Fatal("ClassifyBatchInto must write into the caller's slice")
	}
	want := p.ClassifyBatch(frames)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("score %d: into=%v batch=%v", i, got[i], want[i])
		}
	}
	if n := p.ClassifyBatchInto(nil, out); len(n) != 0 {
		t.Fatal("empty batch must return an empty slice")
	}
}
