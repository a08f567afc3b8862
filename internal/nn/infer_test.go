package nn

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"percival/internal/tensor"
)

// buildTestNet assembles a miniature PERCIVAL-style stack covering every
// layer type the infer path special-cases: stem conv+ReLU, max pool, a fire
// module, dropout, classifier conv, and global average pooling.
func buildTestNet(t *testing.T) *Sequential {
	t.Helper()
	net := NewSequential(
		NewConv2D("conv1", tensor.ConvSpec{InC: 3, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}),
		NewReLU("relu1"),
		NewMaxPool("pool1", 2, 2),
		NewFire("fire1", 8, 4, 6, 6),
		NewDropout("drop", 0.5, 7),
		NewConv2D("conv_final", tensor.ConvSpec{InC: 12, OutC: 2, KH: 1, KW: 1, StrideH: 1, StrideW: 1}),
		NewGlobalAvgPool("gap"),
	)
	InitHe(net, rand.New(rand.NewSource(3)))
	return net
}

// inferTopologies are the nets TestForwardInferMatchesForward runs: the
// paper-like stack, plus one for each place where the inference path decides
// something the layer walk does not — what fuses with a convolution, what
// may be written in place, where a stage's input lives.
func inferTopologies(t *testing.T) []struct {
	name string
	net  *Sequential
} {
	conv := func(name string, in, out, k int) *Conv2D {
		return NewConv2D(name, tensor.ConvSpec{InC: in, OutC: out, KH: k, KW: k, StrideH: 1, StrideW: 1, PadH: k / 2, PadW: k / 2})
	}
	paddedPool := NewMaxPool("pool_padded", 3, 2)
	paddedPool.Spec.Pad = 1
	nets := []struct {
		name string
		net  *Sequential
	}{
		{"paper-like", buildTestNet(t)},
		{"conv+pool without relu", NewSequential(conv("c1", 3, 6, 3), NewMaxPool("p1", 2, 2), conv("c2", 6, 2, 1), NewGlobalAvgPool("gap"))},
		{"padded pool after conv+relu", NewSequential(conv("c1", 3, 6, 3), NewReLU("r1"), paddedPool, conv("c2", 6, 2, 1), NewGlobalAvgPool("gap"))},
		{"head relu", NewSequential(NewReLU("r0"), conv("c1", 3, 4, 1), NewReLU("r1"), conv("c2", 4, 2, 3), NewGlobalAvgPool("gap"))},
		{"fire pool fire", NewSequential(conv("c1", 3, 8, 3), NewReLU("r1"), NewFire("f1", 8, 4, 6, 6), NewMaxPool("p1", 2, 2),
			NewFire("f2", 12, 4, 5, 7), conv("c2", 12, 2, 1), NewGlobalAvgPool("gap"))},
		{"dropout between stages", NewSequential(conv("c1", 3, 6, 3), NewReLU("r1"), NewDropout("d1", 0.5, 1), conv("c2", 6, 4, 3),
			NewDropout("d2", 0.3, 2), NewReLU("r2"), conv("c3", 4, 2, 1), NewGlobalAvgPool("gap"))},
		{"nested sequential", NewSequential(NewSequential(conv("c1", 3, 8, 3), NewReLU("r1")), NewMaxPool("p1", 2, 2),
			NewSequential(NewFire("f1", 8, 4, 3, 5), NewSequential(NewDropout("d1", 0.5, 3))), conv("c2", 8, 2, 1), NewGlobalAvgPool("gap"))},
		// The pool reads no element of the fire's row or column 11: its
		// expands must still pool only the windows' elements.
		{"fire ragged pool", NewSequential(conv("c1", 3, 8, 3), NewReLU("r1"), NewFire("f1", 8, 4, 6, 6), NewMaxPool("p1", 3, 2),
			conv("c2", 12, 2, 1), NewGlobalAvgPool("gap"))},
	}
	for i := range nets {
		InitHe(nets[i].net, rand.New(rand.NewSource(int64(40+i))))
	}
	return nets
}

// TestForwardInferMatchesForward checks the arena path (fused conv+ReLU+pool,
// direct-to-concat fire branches pooled in their epilogue, arena scratch)
// is bit for bit the reference Layer.Forward path on every topology of
// inferTopologies, at batch 1 and 3, and leaves the caller's input as it
// was.
func TestForwardInferMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, tc := range inferTopologies(t) {
		for _, batch := range []int{1, 3} {
			x := tensor.New(batch, 3, 12, 12)
			for i := range x.Data {
				x.Data[i] = float32(rng.NormFloat64())
			}
			orig := append([]float32(nil), x.Data...)
			want := tc.net.Forward(x.Clone(), false)
			a := tensor.NewArena()
			got := tc.net.ForwardInfer(x, a)
			if !slices.Equal(got.Shape, want.Shape) {
				t.Fatalf("%s batch %d: shape %v want %v", tc.name, batch, got.Shape, want.Shape)
			}
			for i := range got.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("%s batch %d: y[%d]=%v want %v", tc.name, batch, i, got.Data[i], want.Data[i])
				}
			}
			for i, v := range x.Data {
				if math.Float32bits(v) != math.Float32bits(orig[i]) {
					t.Fatalf("%s batch %d: caller input mutated at %d: %v -> %v", tc.name, batch, i, orig[i], v)
				}
			}
		}
	}
}

// TestPooledFireMatchesLayerForward holds a fire whose max pool runs in its
// expands' epilogue to the naive oracle — Fire.Forward, then MaxPool.Forward,
// each layer's own reference pass composed by hand — bit for bit, at the
// sizes the shipped nets pool a fire at: the paper net's fires 2 and 4 (55 →
// 27 and 27 → 13 under 3×3/2, their own channel widths) and SmallConfig's
// fires at even widths under 2×2/2 (res 32 and 64), at batch 1 and 3. It
// runs on the process's FP32 tier; `make test-avx2` runs it again on the
// AVX2 one.
func TestPooledFireMatchesLayerForward(t *testing.T) {
	cases := []struct {
		name              string
		inC, sq, e1, e3   int
		hw, poolK, stride int
	}{
		{"paper fire2 55→27", 128, 16, 64, 64, 55, 3, 2},
		{"paper fire4 27→13", 256, 32, 128, 128, 27, 3, 2},
		{"small(64) fire2 32→16", 16, 8, 8, 8, 32, 2, 2},
		{"small(32) fire2 16→8", 16, 8, 8, 8, 16, 2, 2},
		{"small(32) fire4 8→4", 24, 12, 12, 12, 8, 2, 2},
	}
	rng := rand.New(rand.NewSource(22))
	for ci, tc := range cases {
		fire := NewFire("fire", tc.inC, tc.sq, tc.e1, tc.e3)
		pool := NewMaxPool("pool", tc.poolK, tc.stride)
		net := NewSequential(fire, pool)
		InitHe(net, rand.New(rand.NewSource(int64(60+ci))))
		for _, batch := range []int{1, 3} {
			x := tensor.New(batch, tc.inC, tc.hw, tc.hw)
			for i := range x.Data {
				x.Data[i] = float32(rng.NormFloat64())
			}
			want := pool.Forward(fire.Forward(x.Clone(), false), false)
			got := net.ForwardInfer(x, tensor.NewArena())
			if !slices.Equal(got.Shape, want.Shape) {
				t.Fatalf("%s batch %d: shape %v want %v", tc.name, batch, got.Shape, want.Shape)
			}
			for i := range got.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("%s batch %d on %s: y[%d]=%v want %v", tc.name, batch, tensor.GemmKernelName(), i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// TestPredictMatchesPredictArena checks the two public prediction paths
// agree and that Predict's returned tensor is caller-owned (mutating it must
// not corrupt later predictions).
func TestPredictMatchesPredictArena(t *testing.T) {
	net := buildTestNet(t)
	rng := rand.New(rand.NewSource(5))
	x := tensor.New(2, 3, 12, 12)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	p1 := Predict(net, x)
	for i := range p1.Data { // caller-owned: scribbling must be harmless
		p1.Data[i] = -99
	}
	a := tensor.NewArena()
	p2 := PredictArena(net, x, a)
	p3 := Predict(net, x)
	for i := range p3.Data {
		if math.Abs(float64(p2.Data[i]-p3.Data[i])) > 1e-6 {
			t.Fatalf("probs[%d]: arena %v predict %v", i, p2.Data[i], p3.Data[i])
		}
	}
}

// TestForwardInferZeroAllocSteadyState verifies that once the arena is warm,
// a forward pass performs no heap allocation. GOMAXPROCS is pinned to 1 so
// the GEMM worker fan-out (which allocates a closure per call) stays inline;
// multi-core runs add a handful of small scheduling allocations per pass.
func TestForwardInferZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	net := buildTestNet(t)
	x := tensor.New(1, 3, 12, 12)
	a := tensor.NewArena()
	warm := PredictArena(net, x, a)
	a.PutTensor(warm)
	allocs := testing.AllocsPerRun(10, func() {
		probs := PredictArena(net, x, a)
		a.PutTensor(probs)
	})
	if allocs != 0 {
		t.Fatalf("steady-state PredictArena allocates %v times per pass, want 0", allocs)
	}
}

// TestForwardInferConcurrentArenas runs inference from several goroutines,
// each with its own pooled arena, and then has 8 goroutines make their first
// pass on a never-run net at once, each on a fresh arena at its own batch
// size, so whatever the first pass at a shape builds is built concurrently
// (run under -race).
func TestForwardInferConcurrentArenas(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	net := buildTestNet(t)
	x := tensor.New(3, 3, 12, 12)
	for i := range x.Data {
		x.Data[i] = float32(i%13) / 13
	}
	x1 := tensor.FromSlice(x.Data[:3*12*12], 1, 3, 12, 12)
	want := Predict(net, x1)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for iter := 0; iter < 20; iter++ {
				a := tensor.GetArena()
				probs := PredictArena(net, x1, a)
				for i := range want.Data {
					if math.Abs(float64(probs.Data[i]-want.Data[i])) > 1e-6 {
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

	// First use at a new shape: the reference runs on an identical net, so
	// the shared one is untouched until the goroutines start together.
	batches := []int{1, 3, 2, 3, 1, 2, 3, 1}
	wants := map[int][]float32{}
	ref := buildTestNet(t)
	for _, n := range batches {
		xn := tensor.FromSlice(x.Data[:n*3*12*12], n, 3, 12, 12)
		wants[n] = append([]float32(nil), PredictArena(ref, xn, tensor.NewArena()).Data...)
	}
	shared := buildTestNet(t)
	var start sync.WaitGroup
	start.Add(1)
	for _, n := range batches {
		go func() {
			xn := tensor.FromSlice(x.Data[:n*3*12*12], n, 3, 12, 12)
			a := tensor.NewArena()
			start.Wait()
			probs := PredictArena(shared, xn, a)
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

var errMismatch = errorString("concurrent inference mismatch")

type errorString string

func (e errorString) Error() string { return string(e) }

// TestForwardInferValidatesConvInput checks the arena path rejects
// channel-mismatched inputs just like Layer.Forward does, instead of
// silently computing on a reinterpreted buffer.
func TestForwardInferValidatesConvInput(t *testing.T) {
	net := buildTestNet(t)
	x := tensor.New(1, 8, 12, 12) // stem expects 3 channels
	a := tensor.NewArena()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on channel-mismatched input")
		}
	}()
	net.ForwardInfer(x, a)
}

// TestForwardInferLeavesCallerInputUntouched checks a head-of-network
// in-place layer (ReLU) does not scribble on the caller-owned input.
func TestForwardInferLeavesCallerInputUntouched(t *testing.T) {
	net := NewSequential(NewReLU("relu"), NewGlobalAvgPool("gap"))
	x := tensor.New(1, 2, 3, 3)
	for i := range x.Data {
		x.Data[i] = float32(i) - 9 // half negative
	}
	orig := append([]float32(nil), x.Data...)
	a := tensor.NewArena()
	net.ForwardInfer(x, a)
	for i, v := range x.Data {
		if v != orig[i] {
			t.Fatalf("caller input mutated at %d: %v -> %v", i, orig[i], v)
		}
	}
}
