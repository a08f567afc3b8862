package tensor_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"percival/internal/nn"
	"percival/internal/squeezenet"
	"percival/internal/tensor"
)

// TestAlphaFoldKeepsPaperNetScores runs the seeded paper net's forward plan
// — whose stem folds the alpha plane of every opaque column block — with the
// fold on and off, on every alpha kind at batch 1 and at batch 3, and
// demands the same logits and probabilities, every bit; the unpacked
// Layer.Forward path, which never folds, must agree too. It runs on the
// process's FP32 tier; `make test-avx2` runs it again on the AVX2 one.
func TestAlphaFoldKeepsPaperNetScores(t *testing.T) {
	defer tensor.SetAlphaFold(true)
	net, err := squeezenet.Build(squeezenet.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	squeezenet.PretrainedInit(net, 1)
	const res, frame = 224, 4 * 224 * 224
	rng := rand.New(rand.NewSource(62))
	a := tensor.NewArena()
	bits := func(x *tensor.Tensor, fold bool) []uint32 {
		tensor.SetAlphaFold(fold)
		var out []uint32
		logits := net.ForwardInfer(x, a)
		for _, v := range logits.Data {
			out = append(out, math.Float32bits(v))
		}
		for _, v := range nn.PredictArena(net, x, a).Data {
			out = append(out, math.Float32bits(v))
		}
		return out
	}
	kinds := tensor.AlphaKinds
	for ki, kind := range kinds {
		for _, batch := range []int{1, 3} {
			x := tensor.New(batch, 4, res, res)
			for i := 0; i < batch; i++ {
				tensor.AlphaFrame(rng, x.Data[i*frame:(i+1)*frame], res, res, kinds[(ki+i)%len(kinds)])
			}
			name := fmt.Sprintf("%s batch %d", kind, batch)
			folded, unfolded := bits(x, true), bits(x, false)
			for i := range folded {
				if folded[i] != unfolded[i] {
					t.Fatalf("%s: score %d = %#x folded, %#x unfolded", name, i, folded[i], unfolded[i])
				}
			}
			if batch == 1 {
				for i, v := range net.Forward(x.Clone(), false).Data {
					if math.Float32bits(v) != folded[i] {
						t.Fatalf("%s: logit %d = %#x by Layer.Forward, %#x by the plan", name, i, math.Float32bits(v), folded[i])
					}
				}
			}
		}
	}
}
