package core

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"percival/internal/imaging"
	"percival/internal/squeezenet"
	"percival/internal/synth"
)

func calibFrames(n int) []*imaging.Bitmap {
	g := synth.NewGenerator(41, synth.CrawlStyle())
	frames := make([]*imaging.Bitmap, n)
	for i := range frames {
		frames[i], _ = g.Sample()
	}
	return frames
}

// TestQuantizedModeClassifies checks the quantized service activates behind
// the parity gate and produces scores close to the FP32 service on fresh
// frames.
func TestQuantizedModeClassifies(t *testing.T) {
	frames := calibFrames(32)
	fp := testService(t, Options{})
	q := testService(t, Options{Quantized: true, CalibFrames: frames})
	if q.ParityAgreement() == 0 {
		t.Fatal("parity agreement not measured")
	}
	if !q.QuantizedActive() {
		t.Skipf("parity gate kept FP32 (agreement %.3f) — valid fallback, nothing to compare", q.ParityAgreement())
	}
	if q.QuantizedModelSizeBytes() == 0 || q.QuantizedModelSizeBytes() >= q.ModelSizeBytes() {
		t.Fatalf("INT8 model %d B should be below FP32 %d B", q.QuantizedModelSizeBytes(), q.ModelSizeBytes())
	}
	g := synth.NewGenerator(42, synth.CrawlStyle())
	for i := 0; i < 16; i++ {
		f, _ := g.Sample()
		pf := fp.Classify(f)
		pq := q.Classify(f)
		if math.Abs(pf-pq) > 0.2 {
			t.Fatalf("frame %d: fp32 %.4f int8 %.4f", i, pf, pq)
		}
	}
	// batched path routes through the same engine
	batch := q.ClassifyBatch([]*imaging.Bitmap{frames[0], frames[1]})
	for i, f := range frames[:2] {
		if math.Abs(batch[i]-q.Classify(f)) > 1e-4 {
			t.Fatalf("batch[%d]=%v single=%v", i, batch[i], q.Classify(f))
		}
	}
}

// TestQuantizedModeRequiresCalibration checks the calibration-frame
// precondition fails loudly.
func TestQuantizedModeRequiresCalibration(t *testing.T) {
	cfg := squeezenet.SmallConfig(16)
	net, err := squeezenet.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	squeezenet.PretrainedInit(net, 1)
	if _, err := New(net, cfg, Options{Quantized: true}); err == nil {
		t.Fatal("quantized mode without calibration frames must fail")
	}
}

// TestQuantizedParityGateFallback checks an impossible parity bar falls back
// to FP32 instead of serving a model that failed its accuracy check.
func TestQuantizedParityGateFallback(t *testing.T) {
	p := testService(t, Options{Quantized: true, CalibFrames: calibFrames(8), ParityMinAgreement: 1.1})
	if p.QuantizedActive() {
		t.Fatal("unreachable parity bar must leave FP32 active")
	}
	if prob := p.Classify(adLike(t)); prob < 0 || prob > 1 {
		t.Fatalf("fallback service must still classify, got %v", prob)
	}
}

// TestQuantizedNewLeavesNoGateState: the parity gate scores the calibration
// frames on both engines, and a backend keeps its warm states for life — New
// must not leave the gate's states in either registered backend, where
// nothing asked for them.
func TestQuantizedNewLeavesNoGateState(t *testing.T) {
	p := testService(t, Options{Quantized: true, CalibFrames: calibFrames(8)})
	for _, name := range p.Backends().Names() {
		be, _ := p.Backends().Get(name)
		if got := be.Stats().StateBytes; got != 0 {
			t.Errorf("%s backend retains %d state bytes after New, want 0", name, got)
		}
	}
}

// TestQuantizedGateBuildsNoFP32Replica: the parity gate's FP32 scores are
// the probabilities of the calibration pass, which runs the plan the FP32
// backend serves, so set-up scores no frame twice on FP32 and builds no FP32
// backend besides the registered one. At a profile rate of 1 the heap
// profile records every allocation with its stack, and none made under
// enableQuantized may come from engine.NewFP32.
func TestQuantizedGateBuildsNoFP32Replica(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	testService(t, Options{Quantized: true, CalibFrames: calibFrames(8)})
	for i := 0; i < 3; i++ {
		runtime.GC() // the profile publishes an allocation cycles after it
	}
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+256)
	n, ok := runtime.MemProfile(recs, true)
	if !ok {
		t.Fatalf("heap profile grew past %d records while read", len(recs))
	}
	for _, r := range recs[:n] {
		var gate, fp32 bool
		frames := runtime.CallersFrames(r.Stack())
		for more := true; more; {
			var f runtime.Frame
			f, more = frames.Next()
			gate = gate || strings.HasSuffix(f.Function, "core.(*Percival).enableQuantized")
			fp32 = fp32 || strings.HasSuffix(f.Function, "engine.NewFP32")
		}
		if gate && fp32 {
			t.Fatalf("enableQuantized built an FP32 backend (%d bytes allocated under engine.NewFP32)", r.AllocBytes)
		}
	}
}

// TestQuantizedZeroAllocSteadyState checks the quantized Classify path keeps
// the zero-allocation property of the FP32 path.
func TestQuantizedZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	p := testService(t, Options{Quantized: true, CalibFrames: calibFrames(16)})
	if !p.QuantizedActive() {
		t.Skipf("parity gate kept FP32 (agreement %.3f)", p.ParityAgreement())
	}
	f := adLike(t)
	p.Classify(f) // warm the pooled state
	allocs := testing.AllocsPerRun(10, func() { p.Classify(f) })
	// Classify draws state from a sync.Pool; allow the occasional pool miss.
	if allocs > 1 {
		t.Fatalf("steady-state quantized Classify allocates %v times per call", allocs)
	}
}

// TestQuantizedSetupAllocationDoesNotScale: on the paper net at 224 px, New
// with Quantized allocates under 24 MB whether it calibrates on 8 frames or
// on the daemon's 32 (it was 152 and 510 MB, then 18.8 and 9.1 MB while the
// gate scored every frame again on an FP32 replica) — frames stream through
// one scaled bitmap, one input tensor and a calibrator that holds one
// frame's activations and whose pass gives the gate its FP32 scores, and the
// gate scores a frame at a time on INT8. The gate's verdict is the one the
// batch-at-once set-up reached on the same frames.
func TestQuantizedSetupAllocationDoesNotScale(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // the GEMM fan-out allocates
	cfg := squeezenet.PaperConfig()
	net, err := squeezenet.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	squeezenet.PretrainedInit(net, 1)
	for _, n := range []int{8, 32} {
		frames := synth.SampleFrames(101, n)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		p, err := New(net, cfg, Options{Quantized: true, CalibFrames: frames, ParityMinAgreement: 0.01})
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		if grew := (m1.TotalAlloc - m0.TotalAlloc) >> 20; grew >= 24 {
			t.Errorf("%d calibration frames: New allocated %d MB, want < 24", n, grew)
		}
		if !p.QuantizedActive() || p.ParityAgreement() != 1 {
			t.Errorf("%d calibration frames: active=%v parity=%v, want the INT8 engine at parity 1", n, p.QuantizedActive(), p.ParityAgreement())
		}
	}
}
