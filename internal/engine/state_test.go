package engine

import (
	"math/rand"
	"runtime"
	"testing"

	"percival/internal/imaging"
	"percival/internal/nn"
	"percival/internal/squeezenet"
	"percival/internal/synth"
	"percival/internal/tensor"
)

// paperBackends builds both engines over the paper net at 224 px: the warm-
// state tests below are about the footprint of the network that ships.
func paperBackends(t *testing.T) []Backend {
	t.Helper()
	cfg := squeezenet.PaperConfig()
	net, err := squeezenet.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	squeezenet.PretrainedInit(net, 1)
	calib := []*tensor.Tensor{imaging.PrepareInput(synth.SampleFrames(5, 1)[0], cfg.InputRes)}
	qnet, err := nn.Quantize(net, calib)
	if err != nil {
		t.Fatal(err)
	}
	return []Backend{NewFP32(net, cfg.InputRes), NewInt8(qnet, cfg.InputRes)}
}

// TestWarmStateSurvivesGC: a backend that sits idle across collections — a
// classifier between page loads — must still hold its warm state, so the
// next batch allocates nothing at all. A sync.Pool would have been emptied
// by the second collection; every buffer of a pass, scratch included, sits
// in the state's arena, which the backend's own list keeps.
func TestWarmStateSurvivesGC(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // the GEMM fan-out allocates
	frames := synth.SampleFrames(19, 4)
	out := make([]float64, len(frames))
	for _, f := range frames {
		// The scaler computes its tables once per pair of sizes, kept for
		// the process: not a state's, and not this test's subject.
		imaging.ResizeBilinear(f, 224, 224)
	}
	for _, b := range paperBackends(t) {
		b.Warm(len(frames))
		warm := b.Stats().StateBytes
		if warm <= 0 {
			t.Fatalf("%s: StateBytes %d after Warm, want > 0", b.Name(), warm)
		}
		for i := 0; i < 3; i++ {
			runtime.GC()
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		b.InferBatchInto(frames, out)
		runtime.ReadMemStats(&m1)
		if got := b.Stats().StateBytes; got != warm {
			t.Errorf("%s: StateBytes %d after three collections and a batch, want the warm %d", b.Name(), got, warm)
		}
		if grew := m1.TotalAlloc - m0.TotalAlloc; grew != 0 {
			t.Errorf("%s: first batch after three collections allocated %d bytes (%d allocations), want 0: the %d-byte state should hold every buffer",
				b.Name(), grew, m1.Mallocs-m0.Mallocs, warm)
		}
		b.Close()
		if got := b.Stats().StateBytes; got != 0 {
			t.Errorf("%s: StateBytes %d after Close, want 0", b.Name(), got)
		}
	}
}

// TestWarmOnceCoversEveryBatchSize pins Warm's argument: a state sized for
// the largest batch runs every smaller batch, whatever order the sizes
// arrive in, without allocating or growing, and for FP32 that arena is the
// plan's peak — input, pooled stem output and the stem's scratch, about 2 MB
// a frame and 3.2 MB — not one copy of every activation per batch size.
// Warm's own blank frame is no batch a caller asked for: Stats count
// nothing until the first real one.
func TestWarmOnceCoversEveryBatchSize(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const maxBatch = 8
	frames := synth.SampleFrames(23, maxBatch)
	out := make([]float64, maxBatch)
	asc := make([]int, maxBatch)
	for i := range asc {
		asc[i] = i + 1
	}
	desc := make([]int, maxBatch)
	for i := range desc {
		desc[i] = maxBatch - i
	}
	shuffled := rand.New(rand.NewSource(29)).Perm(maxBatch)
	for i := range shuffled {
		shuffled[i]++
	}
	for _, b := range paperBackends(t) {
		b.Warm(maxBatch)
		if st := b.Stats(); st.Batches != 0 || st.Frames != 0 {
			t.Errorf("%s: Stats after Warm(%d) read %d batches, %d frames, want 0 and 0", b.Name(), maxBatch, st.Batches, st.Frames)
		}
		warm := b.Stats().StateBytes
		// 20,779,840 bytes is what the state held before the stem's scratch
		// moved into it (15,916,032) plus what that scratch, then in
		// tensor's sync.Pools, regrew to after a collection (4,863,808).
		if limit := int64(20779840); b.Name() == FP32Name && warm > limit {
			t.Errorf("fp32: %d state bytes after Warm(%d), want <= %d (the old state plus its pooled scratch)", warm, maxBatch, limit)
		}
		for _, order := range [][]int{asc, desc, shuffled} {
			for _, n := range order {
				allocs := testing.AllocsPerRun(2, func() { b.InferBatchInto(frames[:n], out[:n]) })
				if allocs >= 1 {
					t.Errorf("%s: batch %d in order %v allocates %.1f/op after Warm(%d)", b.Name(), n, order, allocs, maxBatch)
				}
				if got := b.Stats().StateBytes; got != warm {
					t.Fatalf("%s: StateBytes %d after batch %d in order %v, want the %d Warm(%d) left", b.Name(), got, n, order, warm, maxBatch)
				}
			}
		}
		b.Close()
	}
}

// TestInt8FramesEnterAsBytes pins the INT8 backend's input path: frames are
// resized straight into the input region and read by the stem through the
// network's input table, which must score exactly what the float tensor
// scores through the float entry point — and, with no float input to sit out
// the pass, no scaled frame beside it and pool1 fused into the stem, the
// warm state after Warm(8) is exactly the slabs of the INT8 plan for 8
// frames and fits 0.6 MB a frame (2.4 MB with the float planes in it, 1.64
// MB with the stem's output materialized).
func TestInt8FramesEnterAsBytes(t *testing.T) {
	b := paperBackends(t)[1].(*Int8Backend)
	defer b.Close()
	frames := synth.SampleFrames(41, 5)
	got := b.InferBatchInto(frames, make([]float64, len(frames)))
	a := tensor.NewArena()
	for i, f := range frames {
		probs := b.QNet().PredictArena(imaging.PrepareInput(f, b.InputRes()), a)
		if want := float64(probs.Data[1]); got[i] != want {
			t.Errorf("frame %d: %v from bytes, %v from the float tensor", i, got[i], want)
		}
		a.PutTensor(probs)
	}
	const maxBatch = 8
	rep := b.Replicate()
	defer rep.Close()
	rep.Warm(maxBatch)
	if warm, limit := rep.Stats().StateBytes, int64(maxBatch*6<<20/10+1<<20); warm > limit {
		t.Errorf("int8: %d state bytes after Warm(%d), want <= %d (0.6 MB a frame + 1 MB)", warm, maxBatch, limit)
	}
	slabs := tensor.NewArena()
	b.QNet().InputArenaU8(slabs, maxBatch, b.InputRes(), b.InputRes())
	if warm, want := rep.Stats().StateBytes, int64(slabs.Bytes()); warm != want {
		t.Errorf("int8: %d state bytes after Warm(%d), want the plan's %d slab bytes", warm, maxBatch, want)
	}
}
