package nn_test

import (
	"math"
	"math/rand"
	"testing"

	"percival/internal/nn"
	"percival/internal/squeezenet"
	"percival/internal/tensor"
)

// poisonArena overwrites every free buffer of a, end to end, with values no
// kernel could mistake for its own output: NaN floats, 0xFF bytes, -1
// accumulators.
func poisonArena(a *tensor.Arena) {
	poisonFree(a, a.Get, a.Put, float32(math.NaN()))
	poisonFree(a, a.GetU8, a.PutU8, 0xFF)
	poisonFree(a, a.GetI32, a.PutI32, -1)
}

// poisonFree drains one of a's free lists through get(1) — a draw that
// grows Bytes was a miss, so the list is empty — fills each buffer to its
// capacity with v and puts it back.
func poisonFree[T any](a *tensor.Arena, get func(int) []T, put func([]T), v T) {
	var drained [][]T
	for before := a.Bytes(); ; {
		b := get(1)
		if a.Bytes() != before {
			break
		}
		b = b[:cap(b)]
		for i := range b {
			b[i] = v
		}
		drained = append(drained, b)
	}
	for _, b := range drained {
		put(b)
	}
}

// TestForwardInferIgnoresArenaGarbage pins the property a best-fit arena
// leans on: buffers come back holding another layer's or another batch
// size's bytes, inside [:n] and beyond it, so no kernel may read what it did
// not write. Each engine runs on an arena warmed at batch 3 and then
// poisoned, at batch 3 and at batch 1 (every buffer larger than its
// request), and must reproduce a fresh arena's output bit for bit.
func TestForwardInferIgnoresArenaGarbage(t *testing.T) {
	net, err := squeezenet.Build(squeezenet.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	squeezenet.PretrainedInit(net, 1)
	rng := rand.New(rand.NewSource(8))
	draw := func(n int) *tensor.Tensor {
		x := tensor.New(n, 4, 224, 224)
		for i := range x.Data {
			x.Data[i] = rng.Float32()
		}
		return x
	}
	qnet, err := nn.Quantize(net, []*tensor.Tensor{draw(1), draw(1)})
	if err != nil {
		t.Fatal(err)
	}
	// Each engine returns an arena tensor; its values are copied out before
	// it goes back.
	engines := []struct {
		name string
		run  func(x *tensor.Tensor, a *tensor.Arena) *tensor.Tensor
	}{
		{"fp32", net.ForwardInfer},
		{"fp32-arena-input", func(x *tensor.Tensor, a *tensor.Arena) *tensor.Tensor {
			in := a.GetTensor(x.Shape...)
			copy(in.Data, x.Data)
			return nn.PredictArenaOwned(net, in, a)
		}},
		{"int8", qnet.ForwardInfer},
	}
	x3 := draw(3)
	x1 := tensor.FromSlice(x3.Data[4*224*224:2*4*224*224], 1, 4, 224, 224)
	for _, e := range engines {
		bits := func(x *tensor.Tensor, a *tensor.Arena) []uint32 {
			y := e.run(x, a)
			out := make([]uint32, len(y.Data))
			for i, v := range y.Data {
				out[i] = math.Float32bits(v)
			}
			a.PutTensor(y)
			return out
		}
		a := tensor.NewArena()
		bits(x3, a) // warm at the largest batch
		for _, x := range []*tensor.Tensor{x3, x1} {
			want := bits(x, tensor.NewArena())
			poisonArena(a)
			got := bits(x, a)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s batch %d: output[%d] %#x on a poisoned warm arena, %#x on a fresh one",
						e.name, x.Shape[0], i, got[i], want[i])
				}
			}
		}
	}
}
