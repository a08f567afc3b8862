package nn

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"percival/internal/tensor"
)

// calibSet builds a small random calibration set matching the test network's
// input shape.
func calibSet(rng *rand.Rand, n, c, h, w, count int) []*tensor.Tensor {
	set := make([]*tensor.Tensor, count)
	for i := range set {
		x := tensor.New(n, c, h, w)
		for j := range x.Data {
			x.Data[j] = float32(rng.Float64()) // [0,1), like decoded RGBA planes
		}
		set[i] = x
	}
	return set
}

// TestQuantizedMatchesFloat checks the INT8 path tracks the FP32 path: class
// probabilities within quantization tolerance and ≥99% top-1 agreement over
// a random input set.
func TestQuantizedMatchesFloat(t *testing.T) {
	net := buildTestNet(t)
	rng := rand.New(rand.NewSource(21))
	qnet, err := Quantize(net, calibSet(rng, 4, 3, 12, 12, 4))
	if err != nil {
		t.Fatal(err)
	}
	a := tensor.NewArena()
	agree, total := 0, 0
	for trial := 0; trial < 25; trial++ {
		x := tensor.New(2, 3, 12, 12)
		for j := range x.Data {
			x.Data[j] = float32(rng.Float64())
		}
		want := Predict(net, x)
		got := qnet.PredictArena(x, a)
		n, c := want.Shape[0], want.Shape[1]
		for i := 0; i < n; i++ {
			total++
			if tensor.Argmax(want.Data[i*c:(i+1)*c]) == tensor.Argmax(got.Data[i*c:(i+1)*c]) {
				agree++
			}
			for j := 0; j < c; j++ {
				d := math.Abs(float64(want.Data[i*c+j] - got.Data[i*c+j]))
				if d > 0.15 {
					t.Fatalf("trial %d sample %d: prob[%d] fp32 %.4f int8 %.4f (diff %.4f)",
						trial, i, j, want.Data[i*c+j], got.Data[i*c+j], d)
				}
			}
		}
		a.PutTensor(got)
	}
	if frac := float64(agree) / float64(total); frac < 0.99 {
		t.Fatalf("top-1 agreement %.3f < 0.99 (%d/%d)", frac, agree, total)
	}
}

// TestQuantizedForwardZeroAllocSteadyState verifies the quantized forward
// pass performs no heap allocation once the arena is warm.
func TestQuantizedForwardZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	net := buildTestNet(t)
	rng := rand.New(rand.NewSource(22))
	qnet, err := Quantize(net, calibSet(rng, 1, 3, 12, 12, 2))
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, 3, 12, 12)
	a := tensor.NewArena()
	warm := qnet.PredictArena(x, a)
	a.PutTensor(warm)
	allocs := testing.AllocsPerRun(10, func() {
		probs := qnet.PredictArena(x, a)
		a.PutTensor(probs)
	})
	if allocs != 0 {
		t.Fatalf("steady-state quantized PredictArena allocates %v times per pass, want 0", allocs)
	}
}

// TestQuantizedConcurrentArenas runs quantized inference from several
// goroutines, each with its own pooled arena (exercised under -race by make
// check), checking results stay bit-identical across goroutines; then 8
// goroutines make their first pass on a never-run engine at once, each on a
// fresh arena at its own batch size, so whatever the first pass at a shape
// builds is built concurrently.
func TestQuantizedConcurrentArenas(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	net := buildTestNet(t)
	rng := rand.New(rand.NewSource(23))
	calib := calibSet(rng, 2, 3, 12, 12, 2)
	qnet, err := Quantize(net, calib)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(3, 3, 12, 12)
	for i := range x.Data {
		x.Data[i] = float32(i%17) / 17
	}
	x1 := tensor.FromSlice(x.Data[:3*12*12], 1, 3, 12, 12)
	ref := tensor.NewArena()
	wantT := qnet.PredictArena(x1, ref)
	want := append([]float32(nil), wantT.Data...)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for iter := 0; iter < 20; iter++ {
				a := tensor.GetArena()
				probs := qnet.PredictArena(x1, a)
				for i := range want {
					if probs.Data[i] != want[i] {
						done <- errMismatch
						return
					}
				}
				a.PutTensor(probs)
				tensor.PutArena(a)
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	// First use at a new shape, on an engine quantized afresh from the same
	// calibration set: it scores what qnet does.
	batches := []int{1, 3, 2, 3, 1, 2, 3, 1}
	wants := map[int][]float32{}
	for _, n := range batches {
		xn := tensor.FromSlice(x.Data[:n*3*12*12], n, 3, 12, 12)
		wants[n] = append([]float32(nil), qnet.PredictArena(xn, tensor.NewArena()).Data...)
	}
	shared, err := Quantize(net, calib)
	if err != nil {
		t.Fatal(err)
	}
	var start sync.WaitGroup
	start.Add(1)
	for _, n := range batches {
		go func() {
			xn := tensor.FromSlice(x.Data[:n*3*12*12], n, 3, 12, 12)
			a := tensor.NewArena()
			start.Wait()
			probs := shared.PredictArena(xn, a)
			for i, w := range wants[n] {
				if math.Float32bits(probs.Data[i]) != math.Float32bits(w) {
					done <- errMismatch
					return
				}
			}
			done <- nil
		}()
	}
	start.Done()
	for range batches {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestQuantizeRejectsUnsupported checks topology validation: networks that
// do not match the inference vocabulary are refused rather than silently
// misquantized.
func TestQuantizeRejectsUnsupported(t *testing.T) {
	calib := calibSet(rand.New(rand.NewSource(24)), 1, 3, 8, 8, 1)
	if _, err := Quantize(NewSequential(NewReLU("r"), NewGlobalAvgPool("gap")), calib); err == nil {
		t.Fatal("expected error for network without classifier conv")
	}
	net := NewSequential(
		NewConv2D("c", tensor.ConvSpec{InC: 3, OutC: 2, KH: 1, KW: 1, StrideH: 1, StrideW: 1}),
		NewReLU("r"),
	)
	if _, err := Quantize(net, calib); err == nil {
		t.Fatal("expected error for network not ending in GlobalAvgPool")
	}
	ok := NewSequential(
		NewConv2D("c", tensor.ConvSpec{InC: 3, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}),
		NewReLU("r"),
		NewConv2D("head", tensor.ConvSpec{InC: 4, OutC: 2, KH: 1, KW: 1, StrideH: 1, StrideW: 1}),
		NewGlobalAvgPool("gap"),
	)
	InitHe(ok, rand.New(rand.NewSource(25)))
	if _, err := Quantize(ok, calib); err != nil {
		t.Fatalf("minimal conv+head network should quantize: %v", err)
	}
	if _, err := Quantize(ok, nil); err == nil {
		t.Fatal("expected error for empty calibration set")
	}
	// The stem reads one pixel's channels as one 4-byte quad, so a first
	// convolution over more than 4 channels — or a network that does not
	// start with a convolution — is refused with the reason.
	wide := NewSequential(
		NewConv2D("wide", tensor.ConvSpec{InC: 5, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}),
		NewReLU("r"),
		NewConv2D("head", tensor.ConvSpec{InC: 4, OutC: 2, KH: 1, KW: 1, StrideH: 1, StrideW: 1}),
		NewGlobalAvgPool("gap"),
	)
	if _, err := Quantize(wide, calibSet(rand.New(rand.NewSource(28)), 1, 5, 8, 8, 1)); err == nil ||
		!strings.Contains(err.Error(), "5 input channels") || !strings.Contains(err.Error(), "at most 4") {
		t.Fatalf("first convolution over 5 channels: error %v, want one naming the 5 channels and the limit of 4", err)
	}
	// After the stem every activation is quad planes: a convolution that is
	// not a fire's (nor the classifier) and a padded pool are refused by
	// name, with what the INT8 engine requires and the FP32 fallback.
	padded := NewMaxPool("padded", 3, 2)
	padded.Spec.Pad = 1
	for _, bad := range []struct {
		layer Layer
		want  string
	}{
		{NewConv2D("mid", tensor.ConvSpec{InC: 4, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}), "fire squeezes and expands"},
		{padded, "pools only without padding"},
	} {
		layers := []Layer{
			NewConv2D("c", tensor.ConvSpec{InC: 3, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}),
			NewReLU("r"),
			NewFire("fire", 4, 2, 2, 2),
			bad.layer,
		}
		if _, ok := bad.layer.(*Conv2D); ok {
			layers = append(layers, NewReLU("mid_relu"))
		}
		net := NewSequential(append(layers,
			NewConv2D("head", tensor.ConvSpec{InC: 4, OutC: 2, KH: 1, KW: 1, StrideH: 1, StrideW: 1}),
			NewGlobalAvgPool("gap"))...)
		InitHe(net, rand.New(rand.NewSource(29)))
		_, err := Quantize(net, calib)
		if err == nil || !strings.Contains(err.Error(), bad.layer.Name()) || !strings.Contains(err.Error(), bad.want) ||
			!strings.Contains(err.Error(), "FP32 engine still serves") {
			t.Fatalf("network with %s after a fire: error %v, want one naming it, %q and the FP32 engine", bad.layer.Name(), err, bad.want)
		}
	}
	// Every INT8 pool runs in the epilogue of the stem or a fire's expands,
	// so a pool behind a pool is refused the same way.
	twice := NewSequential(
		NewConv2D("c", tensor.ConvSpec{InC: 3, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}),
		NewReLU("r"),
		NewMaxPool("pool1", 2, 2),
		NewMaxPool("pool2", 2, 2),
		NewConv2D("head", tensor.ConvSpec{InC: 4, OutC: 2, KH: 1, KW: 1, StrideH: 1, StrideW: 1}),
		NewGlobalAvgPool("gap"))
	InitHe(twice, rand.New(rand.NewSource(30)))
	if _, err := Quantize(twice, calib); err == nil || !strings.Contains(err.Error(), "pool2") ||
		!strings.Contains(err.Error(), "neither the first convolution nor a fire") || !strings.Contains(err.Error(), "FP32 engine still serves") {
		t.Fatalf("network with a pool after a pool: error %v, want one naming pool2, where INT8 pools run and the FP32 engine", err)
	}
	for _, net := range []*Sequential{
		NewSequential(NewMaxPool("p", 2, 2), NewConv2D("head", tensor.ConvSpec{InC: 3, OutC: 2, KH: 1, KW: 1, StrideH: 1, StrideW: 1}), NewGlobalAvgPool("gap")),
		NewSequential(NewConv2D("head", tensor.ConvSpec{InC: 3, OutC: 2, KH: 1, KW: 1, StrideH: 1, StrideW: 1}), NewGlobalAvgPool("gap")),
	} {
		if _, err := Quantize(net, calib); err == nil || !strings.Contains(err.Error(), "reads its input through a convolution") {
			t.Fatalf("network starting with %s: error %v, want the stem's requirement", net.Layers[0].Name(), err)
		}
	}
}

// TestQuantizedBatchMatchesSingle checks batched quantized inference agrees
// with per-sample inference (the ClassifyBatch path).
func TestQuantizedBatchMatchesSingle(t *testing.T) {
	net := buildTestNet(t)
	rng := rand.New(rand.NewSource(26))
	qnet, err := Quantize(net, calibSet(rng, 2, 3, 12, 12, 3))
	if err != nil {
		t.Fatal(err)
	}
	const batch = 3
	xb := tensor.New(batch, 3, 12, 12)
	for i := range xb.Data {
		xb.Data[i] = float32(rng.Float64())
	}
	a := tensor.NewArena()
	got := qnet.PredictArena(xb, a).Clone() // the next pass on a reuses its place
	per := 3 * 12 * 12
	for i := 0; i < batch; i++ {
		x1 := tensor.FromSlice(append([]float32(nil), xb.Data[i*per:(i+1)*per]...), 1, 3, 12, 12)
		p1 := qnet.PredictArena(x1, a)
		for j := 0; j < got.Shape[1]; j++ {
			if d := math.Abs(float64(p1.Data[j] - got.Data[i*got.Shape[1]+j])); d > 1e-6 {
				t.Fatalf("sample %d class %d: batch %v single %v", i, j, got.Data[i*got.Shape[1]+j], p1.Data[j])
			}
		}
		a.PutTensor(p1)
	}
}

// TestCalibratorBatchEqualsFrames pins the stream: observing one [3,C,H,W]
// tensor and observing its three frames one by one calibrate the same
// engine — same input parameters, same logits to the bit — so a caller that
// feeds frames as it produces them loses nothing against one that holds the
// set. Also: a calibrator shown nothing, or the wrong channel count,
// reports it instead of building an engine.
func TestCalibratorBatchEqualsFrames(t *testing.T) {
	net := buildTestNet(t)
	rng := rand.New(rand.NewSource(27))
	const frames, per = 3, 3 * 12 * 12
	batch := calibSet(rng, frames, 3, 12, 12, 1)[0]

	whole, err := NewCalibrator(net)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := whole.Quantize(); err == nil {
		t.Fatal("Quantize before any Observe: expected an error")
	}
	if err := whole.Observe(tensor.New(1, 4, 12, 12)); err == nil {
		t.Fatal("Observe with 4 channels on a 3-channel network: expected an error")
	}
	if err := whole.Observe(batch); err != nil {
		t.Fatal(err)
	}
	byFrame, err := NewCalibrator(net)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < frames; i++ {
		if err := byFrame.Observe(tensor.FromSlice(batch.Data[i*per:(i+1)*per], 1, 3, 12, 12)); err != nil {
			t.Fatal(err)
		}
	}
	qw, err := whole.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	qf, err := byFrame.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	if qw.InputQuant() != qf.InputQuant() {
		t.Fatalf("input params %+v from the batch, %+v from its frames", qw.InputQuant(), qf.InputQuant())
	}
	x := calibSet(rng, 2, 3, 12, 12, 1)[0]
	a := tensor.NewArena()
	lw := qw.ForwardInfer(x, a).Clone() // qf's pass on a reuses its place
	lf := qf.ForwardInfer(x, a)
	for i := range lw.Data {
		if math.Float32bits(lw.Data[i]) != math.Float32bits(lf.Data[i]) {
			t.Errorf("logit %d: %v calibrated on the batch, %v on its frames", i, lw.Data[i], lf.Data[i])
		}
	}
}

// TestQuantizedOnePixelOnFreshArena runs a net whose second fire and
// classifier see 1×1 activations — two quad planes of one pixel are 8 bytes
// — on fresh arenas, batch 1 and 3, with the second fire's expands 2 and 4
// wide: every INT8 activation buffer is viewed as 32-bit words however small
// it is (the alignment itself is TestU8BuffersAreWordAligned's), and the
// classifier reads a concatenation padded mid-way at one pixel. Batch 3 must
// score each frame as batch 1 does. make race runs it under the race
// detector.
func TestQuantizedOnePixelOnFreshArena(t *testing.T) {
	net := NewSequential(
		NewConv2D("conv1", tensor.ConvSpec{InC: 3, OutC: 6, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}),
		NewReLU("relu1"),
		NewMaxPool("pool1", 2, 2),
		NewFire("fire1", 6, 6, 3, 3),
		NewMaxPool("pool2", 2, 2),
		NewFire("fire2", 6, 5, 2, 4),
		NewConv2D("conv_final", tensor.ConvSpec{InC: 6, OutC: 2, KH: 1, KW: 1, StrideH: 1, StrideW: 1}),
		NewGlobalAvgPool("gap"),
	)
	InitHe(net, rand.New(rand.NewSource(30)))
	rng := rand.New(rand.NewSource(31))
	qnet, err := Quantize(net, calibSet(rng, 2, 3, 4, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	x := calibSet(rng, 3, 3, 4, 4, 1)[0]
	batch := qnet.ForwardInfer(x, tensor.NewArena())
	for i := 0; i < 3; i++ {
		one := qnet.ForwardInfer(tensor.FromSlice(x.Data[i*48:(i+1)*48], 1, 3, 4, 4), tensor.NewArena())
		for j, v := range one.Data {
			if math.Float32bits(v) != math.Float32bits(batch.Data[i*2+j]) {
				t.Fatalf("frame %d logit %d: %v alone, %v in the batch", i, j, v, batch.Data[i*2+j])
			}
		}
	}
}

// TestQuantizeRefusesDecreasingRequant pins the precondition the INT8 pools
// rest on: a stage's requantization must never decrease as its accumulator
// grows. A hand-built Requant with a multiplier of −1 — or NaN — on one
// channel is refused with the stage's and the channel's name; 0, a constant
// map, is allowed.
func TestQuantizeRefusesDecreasingRequant(t *testing.T) {
	for _, bad := range []float32{-1, float32(math.NaN())} {
		rq := tensor.Requant{Mult: []float32{0.5, 0, bad, 0.25}, Beta: make([]float32, 4), ZOut: 3, ReLU: true}
		err := checkMonotonic("fire3/expand3", rq)
		if err == nil {
			t.Fatalf("multiplier %v accepted", bad)
		}
		if msg := err.Error(); !strings.Contains(msg, "fire3/expand3") || !strings.Contains(msg, "channel 2") {
			t.Fatalf("multiplier %v: error %q does not name the stage and the channel", bad, msg)
		}
	}
	if err := checkMonotonic("conv1", tensor.Requant{Mult: []float32{0, 1e-9, 3}}); err != nil {
		t.Fatalf("non-negative multipliers refused: %v", err)
	}
}
