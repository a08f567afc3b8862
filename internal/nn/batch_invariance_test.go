package nn_test

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"percival/internal/nn"
	"percival/internal/squeezenet"
	"percival/internal/tensor"
)

// TestForwardInferBatchInvariant pins what serve's coalescing and the
// benchmark's correctness check both assume: on the paper net, a frame's
// logits do not depend on what else shares its batch. Each image is its own
// GEMM with its own blocking, so a [3,4,224,224] pass must equal three
// [1,4,224,224] passes bit for bit — and, once the arena is warm, allocate
// nothing.
func TestForwardInferBatchInvariant(t *testing.T) {
	old := runtime.GOMAXPROCS(1) // the worker fan-out allocates; see TestForwardInferZeroAllocSteadyState
	defer runtime.GOMAXPROCS(old)
	net, err := squeezenet.Build(squeezenet.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	squeezenet.PretrainedInit(net, 1)
	const batch, frame = 3, 4 * 224 * 224
	rng := rand.New(rand.NewSource(6))
	x := tensor.New(batch, 4, 224, 224)
	for i := range x.Data {
		x.Data[i] = rng.Float32()
	}
	a := tensor.NewArena()
	inBatch := append([]float32(nil), mustLogits(t, net, x, a, batch)...)
	for i := 0; i < batch; i++ {
		one := tensor.FromSlice(x.Data[i*frame:(i+1)*frame], 1, 4, 224, 224)
		poisonArena(a) // the batch-3 buffers serve batch 1: stale bytes must not leak in
		for c, v := range mustLogits(t, net, one, a, 1) {
			if w := inBatch[i*2+c]; math.Float32bits(v) != math.Float32bits(w) {
				t.Errorf("frame %d class %d: alone %v (%#x), in batch of %d %v (%#x)",
					i, c, v, math.Float32bits(v), batch, w, math.Float32bits(w))
			}
		}
	}
	if nn.RaceEnabled {
		return // race instrumentation allocates
	}
	if allocs := testing.AllocsPerRun(3, func() { a.PutTensor(net.ForwardInfer(x, a)) }); allocs != 0 {
		t.Errorf("warm batch-%d ForwardInfer allocates %v times per pass, want 0", batch, allocs)
	}
}

// mustLogits runs one arena forward pass and returns the [n,2] logits; the
// tensor goes back to the arena, so the slice is only valid until the next
// pass.
func mustLogits(t *testing.T, net *nn.Sequential, x *tensor.Tensor, a *tensor.Arena, n int) []float32 {
	t.Helper()
	y := net.ForwardInfer(x, a)
	if len(y.Shape) != 2 || y.Shape[0] != n || y.Shape[1] != 2 {
		t.Fatalf("logits shape %v, want [%d 2]", y.Shape, n)
	}
	a.PutTensor(y)
	return y.Data
}
