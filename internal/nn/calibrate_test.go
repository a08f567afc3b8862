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

// TestObserveReturnsServedProbabilities: the probabilities Observe returns
// are PredictArena's for the same input bit for bit — on the paper net and
// a SmallConfig net, batch 1 and 3 — so a caller that calibrates on frames
// has the FP32 scores of those frames without a second pass.
func TestObserveReturnsServedProbabilities(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, cfg := range []squeezenet.Config{squeezenet.PaperConfig(), squeezenet.SmallConfig(32)} {
		net, err := squeezenet.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		squeezenet.PretrainedInit(net, 1)
		res := cfg.InputRes
		rng := rand.New(rand.NewSource(8))
		c, err := nn.NewCalibrator(net)
		if err != nil {
			t.Fatal(err)
		}
		a := tensor.NewArena()
		for _, n := range []int{1, 3} {
			x := tensor.New(n, 4, res, res)
			for i := range x.Data {
				x.Data[i] = rng.Float32()
			}
			got, err := c.Observe(x)
			if err != nil {
				t.Fatal(err)
			}
			want := nn.PredictArena(net, x, a)
			if len(got.Shape) != 2 || got.Shape[0] != n || got.Shape[1] != want.Shape[1] {
				t.Fatalf("res %d batch %d: Observe returned shape %v, PredictArena %v", res, n, got.Shape, want.Shape)
			}
			for i, v := range want.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(v) {
					t.Errorf("res %d batch %d: probability %d is %v from Observe, %v from PredictArena", res, n, i, got.Data[i], v)
				}
			}
		}
	}
}
