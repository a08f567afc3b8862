package core

import (
	"runtime"
	"sync"
	"sync/atomic"
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

// TestSynchronousInspectClassifiesEverySighting: InspectFrame is classify
// and threshold — the same pixels get the same verdict under any URL, and
// each sighting runs the model (serve, not core, memoizes).
func TestSynchronousInspectClassifiesEverySighting(t *testing.T) {
	p := testService(t, Options{})
	frame := adLike(t)
	verdict1 := p.InspectFrame("http://x/a.png", frame.Clone())
	verdict2 := p.InspectFrame("http://y/b.png", frame.Clone()) // same pixels, new URL
	if verdict1 != verdict2 || verdict1 != p.IsAd(frame) {
		t.Fatal("same content must get the classifier's verdict")
	}
	if s := p.Stats(); s.Classified != 3 {
		t.Fatalf("classified %d, want 3 (one model run per sighting)", s.Classified)
	}
}

func TestTinyFramesSkipped(t *testing.T) {
	p := testService(t, Options{})
	pixel := imaging.NewBitmap(1, 1)
	if p.InspectFrame("http://t/pixel.gif", pixel) {
		t.Fatal("tracking pixel blocked")
	}
	if p.Stats().Classified != 0 {
		t.Fatal("tiny frame should not be classified")
	}
}

func TestInspectFrameConcurrentSafety(t *testing.T) {
	p := testService(t, Options{})
	g := synth.NewGenerator(5, synth.CrawlStyle())
	frames := make([]*imaging.Bitmap, 8)
	want := make([]bool, len(frames))
	for i := range frames {
		frames[i], _ = g.Sample()
		want[i] = p.IsAd(frames[i])
	}
	serial := p.Stats()
	var wg sync.WaitGroup
	var wrong atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				j := (w + i) % len(frames)
				if p.InspectFrame("src", frames[j].Clone()) != want[j] {
					wrong.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d of 80 concurrent inspections disagree with the serial verdict", n)
	}
	// every inspection is one model run; none is lost or doubled
	if s := p.Stats(); s.Classified-serial.Classified != 80 {
		t.Fatalf("classified %d frames for 80 inspections", s.Classified-serial.Classified)
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
	// accuracy swings ±0.1 with the FP32 products' rounding; one more epoch
	// converges to ~0.90.
	cfg := dataset.FastTraining(arch, 6)
	net, err := dataset.Train(cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(net, arch, Options{})
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

// TestClassifyBatchIntoReusesCallerSlice checks the zero-alloc batched entry
// point used by the serve dispatch workers: scores land in the provided
// slice and match ClassifyBatch.
func TestClassifyBatchIntoReusesCallerSlice(t *testing.T) {
	p := testService(t, Options{})
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
