package nn_test

import (
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"testing"

	"percival/internal/squeezenet"
	"percival/internal/tensor"
)

var updateFP32Golden = flag.Bool("update-fp32-golden", false, "rewrite the FP32 logit golden in testdata")

const fp32GoldenPath = "testdata/fp32_logits_golden.json"

// fp32Golden pins the seeded paper net's FP32 logits bit for bit: an opaque
// frame, one with a translucent corner badge and one with a random alpha
// plane, scored one at a time and again as one batch of three.
type fp32Golden struct {
	Batch1 []uint32 `json:"batch1_logit_bits"` // [frame][class]
	Batch3 []uint32 `json:"batch3_logit_bits"`
}

// TestFP32LogitsGolden holds the FP32 forward plan to the logits the file
// records. The file has one entry, for every FMA tier: each computes every
// product element as one k-ordered FMA chain from +0, whatever its tile, so
// `make test` (AVX-512 on hosts that have it) and `make test-avx2` must
// both match it. The portable Go tile rounds each product apart from its
// sum, so it skips. -update-fp32-golden rewrites the entry.
func TestFP32LogitsGolden(t *testing.T) {
	if tensor.GemmKernelName() == "portable-6x16" && !*updateFP32Golden {
		t.Skip("the portable kernel is not an FMA chain")
	}
	net, err := squeezenet.Build(squeezenet.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	squeezenet.PretrainedInit(net, 1)
	const res, plane = 224, 224 * 224
	rng := rand.New(rand.NewSource(18))
	x := tensor.New(3, 4, res, res)
	for f := 0; f < 3; f++ {
		img := x.Data[f*4*plane : (f+1)*4*plane]
		for i := range img[:3*plane] {
			img[i] = rng.Float32()
		}
		alpha := img[3*plane:]
		for i := range alpha {
			switch f {
			case 0, 1:
				alpha[i] = 1
			default:
				alpha[i] = rng.Float32()
			}
		}
		if f == 1 { // a 14×14 AdChoices-style box at alpha 230, top right
			for y := 1; y < 15; y++ {
				for c := res - 15; c < res-1; c++ {
					alpha[y*res+c] = float32(uint8(230)) * (float32(1) / 255)
				}
			}
		}
	}
	a := tensor.NewArena()
	logitBits := func(x *tensor.Tensor) []uint32 {
		var out []uint32
		for _, v := range net.ForwardInfer(x, a).Data {
			out = append(out, math.Float32bits(v))
		}
		return out
	}
	var got fp32Golden
	for f := 0; f < 3; f++ {
		got.Batch1 = append(got.Batch1, logitBits(tensor.FromSlice(x.Data[f*4*plane:(f+1)*4*plane], 1, 4, res, res))...)
	}
	got.Batch3 = logitBits(x)

	if *updateFP32Golden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fp32GoldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(fp32GoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want fp32Golden
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want []uint32
	}{{"batch 1", got.Batch1, want.Batch1}, {"batch 3", got.Batch3, want.Batch3}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: %d logits, golden has %d", c.name, len(c.got), len(c.want))
		}
		for i := range c.want {
			if c.got[i] != c.want[i] {
				t.Errorf("%s logit %d: %v (%#x), golden %v (%#x)", c.name, i,
					math.Float32frombits(c.got[i]), c.got[i], math.Float32frombits(c.want[i]), c.want[i])
			}
		}
	}
}
