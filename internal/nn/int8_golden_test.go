package nn_test

import (
	"encoding/json"
	"flag"
	"io"
	"math"
	"math/rand"
	"os"
	"testing"

	"percival/internal/nn"
	"percival/internal/squeezenet"
	"percival/internal/tensor"
)

var updateInt8Golden = flag.Bool("update-int8-golden", false, "rewrite testdata/int8_logits_golden.json")

const int8GoldenPath = "testdata/int8_logits_golden.json"

// int8Golden pins the paper net's INT8 logits bit for bit: four seeded
// frames scored one at a time, and frames 1..3 again as one batch of three.
// Calibration replays the FP32 network, whose edge-tile rounding depends on
// the kernel tier, so each entry names the tier it was written under and the
// file holds one entry per tier, back to back.
type int8Golden struct {
	FP32Tier string   `json:"fp32_tier"`
	Batch1   []uint32 `json:"batch1_logit_bits"` // [frame][class], 4×2
	Batch3   []uint32 `json:"batch3_logit_bits"` // frames 1..3, 3×2
}

// TestInt8LogitsGolden holds the INT8 engine to the logits recorded before
// its data path was rewritten: integer arithmetic and requantization must
// not move a bit, whatever packs the panels. It compares against the entry
// of the FP32 tier the process runs (avx512-8x32, or avx2-6x16 under
// PERCIVAL_NO_AVX512=1) and skips only on a tier the file has none for;
// -update-int8-golden rewrites that tier's entry and keeps the others.
func TestInt8LogitsGolden(t *testing.T) {
	net, err := squeezenet.Build(squeezenet.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	squeezenet.PretrainedInit(net, 1)
	const frames, frame = 4, 4 * 224 * 224
	rng := rand.New(rand.NewSource(17))
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
	x := draw(frames)
	a := tensor.NewArena()
	bits := func(in *tensor.Tensor) []uint32 {
		y := qnet.ForwardInfer(in, a)
		out := make([]uint32, len(y.Data))
		for i, v := range y.Data {
			out[i] = math.Float32bits(v)
		}
		a.PutTensor(y)
		return out
	}
	got := int8Golden{FP32Tier: tensor.GemmKernelName()}
	for i := 0; i < frames; i++ {
		got.Batch1 = append(got.Batch1, bits(tensor.FromSlice(x.Data[i*frame:(i+1)*frame], 1, 4, 224, 224))...)
	}
	got.Batch3 = bits(tensor.FromSlice(x.Data[frame:], 3, 4, 224, 224))

	entries, err := readInt8Golden()
	if err != nil && !(*updateInt8Golden && os.IsNotExist(err)) {
		t.Fatal(err)
	}
	at := -1
	for i, e := range entries {
		if e.FP32Tier == got.FP32Tier {
			at = i
		}
	}
	if *updateInt8Golden {
		if at < 0 {
			entries = append(entries, got)
		} else {
			entries[at] = got
		}
		var buf []byte
		for _, e := range entries {
			b, err := json.MarshalIndent(e, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			buf = append(append(buf, b...), '\n')
		}
		if err := os.WriteFile(int8GoldenPath, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if at < 0 {
		t.Skipf("golden has no entry for FP32 tier %s: calibration ranges differ by tier", got.FP32Tier)
	}
	want := entries[at]
	same := func(name string, g, w []uint32) {
		if len(g) != len(w) {
			t.Fatalf("%s: %d logits, golden has %d", name, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Errorf("%s logit %d: %v (%#x), golden %v (%#x)", name, i,
					math.Float32frombits(g[i]), g[i], math.Float32frombits(w[i]), w[i])
			}
		}
	}
	same("batch 1", got.Batch1, want.Batch1)
	same("batch 3", got.Batch3, want.Batch3)
}

// readInt8Golden decodes the golden file's entries, one per FP32 tier.
func readInt8Golden() ([]int8Golden, error) {
	f, err := os.Open(int8GoldenPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var entries []int8Golden
	for dec := json.NewDecoder(f); ; {
		var e int8Golden
		if err := dec.Decode(&e); err == io.EOF {
			return entries, nil
		} else if err != nil {
			return nil, err
		}
		entries = append(entries, e)
	}
}
