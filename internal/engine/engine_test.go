package engine

import (
	"math"
	"sync"
	"testing"

	"percival/internal/imaging"
	"percival/internal/nn"
	"percival/internal/squeezenet"
	"percival/internal/synth"
	"percival/internal/tensor"
)

// testNet builds a deterministic untrained small network; engine tests
// exercise the dispatch machinery, not verdict quality.
func testNet(t testing.TB, res int) (*nn.Sequential, int) {
	t.Helper()
	cfg := squeezenet.SmallConfig(res)
	net, err := squeezenet.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	squeezenet.PretrainedInit(net, 1)
	return net, cfg.InputRes
}

// TestFP32MatchesPredictArena anchors the extracted backend to the path it
// was extracted from: scores must match a direct nn.PredictArena run over
// the same pre-processing.
func TestFP32MatchesPredictArena(t *testing.T) {
	net, res := testNet(t, 16)
	b := NewFP32(net, res)
	defer b.Close()
	frames := synth.SampleFrames(3, 6)
	out := make([]float64, len(frames))
	b.InferBatchInto(frames, out)
	a := tensor.GetArena()
	defer tensor.PutArena(a)
	for i, f := range frames {
		x := imaging.PrepareInput(f, res)
		probs := nn.PredictArena(net, x, a)
		want := float64(probs.Data[1])
		a.PutTensor(probs)
		if math.Abs(out[i]-want) > 1e-6 {
			t.Fatalf("frame %d: backend score %v, direct score %v", i, out[i], want)
		}
	}
	if s := b.Stats(); s.Frames != int64(len(frames)) || s.Batches == 0 {
		t.Fatalf("stats not recorded: %+v", s)
	}
}

// TestInt8BackendRuns covers the quantized implementation end to end.
func TestInt8BackendRuns(t *testing.T) {
	net, res := testNet(t, 16)
	calib := []*tensor.Tensor{imaging.PrepareInput(synth.SampleFrames(5, 1)[0], res)}
	qnet, err := nn.Quantize(net, calib)
	if err != nil {
		t.Fatal(err)
	}
	b := NewInt8(qnet, res)
	defer b.Close()
	if b.Name() != Int8Name || b.InputRes() != res {
		t.Fatalf("identity: name=%q res=%d", b.Name(), b.InputRes())
	}
	frames := synth.SampleFrames(7, 4)
	out := b.InferBatchInto(frames, make([]float64, len(frames)))
	for i, s := range out {
		if s < 0 || s > 1 || math.IsNaN(s) {
			t.Fatalf("frame %d: score %v outside [0,1]", i, s)
		}
	}
}

// TestReplicateSharesWeightsOwnsState: a replica must produce identical
// scores (same weights) while keeping its own stats and warm states.
func TestReplicateSharesWeightsOwnsState(t *testing.T) {
	net, res := testNet(t, 16)
	b := NewFP32(net, res)
	defer b.Close()
	rep := b.Replicate()
	defer rep.Close()
	frames := synth.SampleFrames(11, 3)
	a := b.InferBatchInto(frames, make([]float64, len(frames)))
	r := rep.InferBatchInto(frames, make([]float64, len(frames)))
	for i := range a {
		if a[i] != r[i] {
			t.Fatalf("frame %d: replica score %v != original %v", i, r[i], a[i])
		}
	}
	if rs := rep.Stats(); rs.Frames != int64(len(frames)) {
		t.Fatalf("replica stats %+v should count only its own traffic", rs)
	}
	if bs := b.Stats(); bs.Frames != int64(len(frames)) {
		t.Fatalf("original stats %+v polluted by replica", bs)
	}
}

// TestWarmMakesInferZeroAlloc is the arena-ownership gate: after Warm, the
// steady-state InferBatchInto must not allocate at any chunk size.
func TestWarmMakesInferZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	net, res := testNet(t, 16)
	b := NewFP32(net, res)
	defer b.Close()
	b.Warm(4)
	frames := synth.SampleFrames(13, 4)
	out := make([]float64, len(frames))
	for n := 1; n <= len(frames); n++ {
		allocs := testing.AllocsPerRun(10, func() {
			b.InferBatchInto(frames[:n], out[:n])
		})
		if allocs >= 1 {
			t.Fatalf("batch %d: steady-state InferBatchInto allocates %.2f/op", n, allocs)
		}
	}
}

// TestConcurrentInfer exercises the state list under parallel callers.
func TestConcurrentInfer(t *testing.T) {
	net, res := testNet(t, 16)
	b := NewFP32(net, res)
	defer b.Close()
	frames := synth.SampleFrames(17, 8)
	want := b.InferBatchInto(frames, make([]float64, len(frames)))
	one := b.Stats().StateBytes // the serial call left exactly one state
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]float64, len(frames))
			for i := 0; i < 4; i++ {
				b.InferBatchInto(frames, out)
				b.Stats()
				for j := range out {
					if out[j] != want[j] {
						t.Errorf("frame %d: concurrent score %v != %v", j, out[j], want[j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	// Every state saw the same batch, so the list holds at most one per
	// goroutine and the gauge is that many times the first.
	if n := int64(len(b.states)); one <= 0 || n < 1 || n > 8 || b.Stats().StateBytes != n*one {
		t.Fatalf("%d idle states of %d bytes each, StateBytes %d", n, one, b.Stats().StateBytes)
	}
}

// TestRegistrySelectionAndFallback covers the named-version lookup rules:
// first registration defaults, Select falls back on unknown names, and
// SetDefault re-routes.
func TestRegistrySelectionAndFallback(t *testing.T) {
	net, res := testNet(t, 16)
	fp := NewFP32(net, res)
	r := NewRegistry()
	if r.Default() != nil {
		t.Fatal("empty registry must have no default")
	}
	if err := r.Register(FP32Name, fp); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(FP32Name, fp); err == nil {
		t.Fatal("duplicate registration must fail")
	}
	if r.DefaultName() != FP32Name {
		t.Fatalf("first registration must default, got %q", r.DefaultName())
	}
	rep := fp.Replicate()
	if err := r.Register("fp32@2", rep); err != nil {
		t.Fatal(err)
	}
	if got := r.Select("fp32@2"); got != rep {
		t.Fatal("Select must return the named backend")
	}
	if got := r.Select("no-such-model"); got != fp {
		t.Fatal("Select must fall back to the default on unknown names")
	}
	if got := r.Select(""); got != fp {
		t.Fatal("Select must fall back to the default on empty names")
	}
	if err := r.SetDefault("no-such-model"); err == nil {
		t.Fatal("SetDefault must reject unregistered names")
	}
	if err := r.SetDefault("fp32@2"); err != nil {
		t.Fatal(err)
	}
	if r.Default() != rep {
		t.Fatal("SetDefault did not re-route the default")
	}
	if got := r.Names(); len(got) != 2 || got[0] != FP32Name || got[1] != "fp32@2" {
		t.Fatalf("Names order %v", got)
	}
	fp.Close()
	rep.Close()
}
