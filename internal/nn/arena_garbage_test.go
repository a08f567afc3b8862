package nn_test

import (
	"math"
	"math/rand"
	"testing"

	"percival/internal/nn"
	"percival/internal/squeezenet"
	"percival/internal/tensor"
)

// poisonArena overwrites a's slabs, end to end, with values no kernel could
// mistake for its own output: NaN floats, 0xFF bytes, -1 accumulators.
func poisonArena(a *tensor.Arena) {
	f, u, i := a.Slabs(0, 0, 0)
	for j := range f {
		f[j] = float32(math.NaN())
	}
	for j := range u {
		u[j] = 0xFF
	}
	for j := range i {
		i[j] = -1
	}
}

// TestForwardInferIgnoresArenaGarbage pins the property a forward plan
// leans on: its regions hold another stage's, another batch size's or
// another network's bytes, inside what a pass uses and beyond it, so no
// kernel may read what it did not write. Each engine runs on an arena warmed
// at batch 3 and then poisoned whole, at batch 3 and at batch 1 (every
// region larger than the pass uses), and must reproduce a fresh arena's
// output bit for bit.
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
			in, _ := nn.InputArena(net, a, x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3])
			copy(in.Data, x.Data)
			return nn.PredictArena(net, in, a)
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
