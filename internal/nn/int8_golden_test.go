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

var updateInt8Golden = flag.Bool("update-int8-golden", false, "rewrite the running FP32 tier's entries of the INT8 logit goldens in testdata")

const (
	int8GoldenPath       = "testdata/int8_logits_golden.json"
	int8PaddedGoldenPath = "testdata/int8_padded_concat_golden.json"
)

// int8Golden pins one net's INT8 logits bit for bit: four seeded frames
// scored one at a time, and frames 1..3 again as one batch of three.
// Calibration replays the FP32 network, so each entry names the FP32 tier it
// was written under and a file holds one entry per net and tier, back to
// back. Every FMA tier now computes the FP32 network to the same bits, so a
// net's entries are equal; the key stays so a tier that ever rounds
// differently shows as its own entry, not as a failure on one host only.
type int8Golden struct {
	// Net names the network in a file that pins more than one; empty in
	// int8_logits_golden.json, which holds the paper net alone.
	Net      string   `json:"net,omitempty"`
	FP32Tier string   `json:"fp32_tier"`
	Batch1   []uint32 `json:"batch1_logit_bits"` // [frame][class]
	Batch3   []uint32 `json:"batch3_logit_bits"` // frames 1..3
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
	got := int8Golden{FP32Tier: tensor.GemmKernelName()}
	for i := 0; i < frames; i++ {
		got.Batch1 = append(got.Batch1, int8Bits(qnet, tensor.FromSlice(x.Data[i*frame:(i+1)*frame], 1, 4, 224, 224), a)...)
	}
	got.Batch3 = int8Bits(qnet, tensor.FromSlice(x.Data[frame:], 3, 4, 224, 224), a)

	checkInt8Golden(t, int8GoldenPath, []int8Golden{got})
}

// int8Bits scores x on qnet through ForwardInfer and returns the logits'
// bit patterns.
func int8Bits(qnet *nn.QuantizedSequential, x *tensor.Tensor, a *tensor.Arena) []uint32 {
	y := qnet.ForwardInfer(x, a)
	out := make([]uint32, len(y.Data))
	for i, v := range y.Data {
		out[i] = math.Float32bits(v)
	}
	a.PutTensor(y)
	return out
}

// checkInt8Golden compares each entry of got, all of the running FP32 tier,
// with the file's entry for the same net and tier, bit for bit. It skips
// only when the file has no entry for the tier; -update-int8-golden rewrites
// the tier's entries and keeps the others.
func checkInt8Golden(t *testing.T, path string, got []int8Golden) {
	t.Helper()
	entries, err := readInt8Golden(path)
	if err != nil && !(*updateInt8Golden && os.IsNotExist(err)) {
		t.Fatal(err)
	}
	find := func(g int8Golden) int {
		for i, e := range entries {
			if e.Net == g.Net && e.FP32Tier == g.FP32Tier {
				return i
			}
		}
		return -1
	}
	if *updateInt8Golden {
		for _, g := range got {
			if at := find(g); at < 0 {
				entries = append(entries, g)
			} else {
				entries[at] = g
			}
		}
		var buf []byte
		for _, e := range entries {
			b, err := json.MarshalIndent(e, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			buf = append(append(buf, b...), '\n')
		}
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
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
	for _, g := range got {
		at := find(g)
		if at < 0 {
			t.Skipf("%s has no entry for net %q on FP32 tier %s: calibration ranges differ by tier", path, g.Net, g.FP32Tier)
		}
		same(g.Net+" batch 1", g.Batch1, entries[at].Batch1)
		same(g.Net+" batch 3", g.Batch3, entries[at].Batch3)
	}
}

// TestInt8PaddedConcatGolden pins, bit for bit, two nets the paper net's
// golden does not reach: the package's test net, whose fire expands are 6
// wide, so the classifier reads a concatenation whose first half does not
// fill its last 4-channel group; and SmallConfig(32), whose stem and fires
// are 16, 8 and 12 wide and whose pools halve odd sizes. Four seeded frames
// scored one at a time, and frames 1..3 again as one batch of three, after
// calibrating on two more; one entry per net and FP32 tier, as
// TestInt8LogitsGolden's file holds.
func TestInt8PaddedConcatGolden(t *testing.T) {
	small, err := squeezenet.Build(squeezenet.SmallConfig(32))
	if err != nil {
		t.Fatal(err)
	}
	squeezenet.PretrainedInit(small, 1)
	var got []int8Golden
	for _, tc := range []struct {
		name    string
		net     *nn.Sequential
		c, h, w int
	}{
		{"test-net", nn.BuildTestNet(t), 3, 12, 12},
		{"small-32", small, 4, 32, 32},
	} {
		rng := rand.New(rand.NewSource(19))
		frame := tc.c * tc.h * tc.w
		draw := func(n int) *tensor.Tensor {
			x := tensor.New(n, tc.c, tc.h, tc.w)
			for i := range x.Data {
				x.Data[i] = rng.Float32()
			}
			return x
		}
		qnet, err := nn.Quantize(tc.net, []*tensor.Tensor{draw(1), draw(1)})
		if err != nil {
			t.Fatal(err)
		}
		x := draw(4)
		a := tensor.NewArena()
		g := int8Golden{Net: tc.name, FP32Tier: tensor.GemmKernelName()}
		for i := 0; i < 4; i++ {
			g.Batch1 = append(g.Batch1, int8Bits(qnet, tensor.FromSlice(x.Data[i*frame:(i+1)*frame], 1, tc.c, tc.h, tc.w), a)...)
		}
		g.Batch3 = int8Bits(qnet, tensor.FromSlice(x.Data[frame:], 3, tc.c, tc.h, tc.w), a)
		got = append(got, g)
	}
	checkInt8Golden(t, int8PaddedGoldenPath, got)
}

// readInt8Golden decodes a golden file's entries, one per net and FP32 tier.
func readInt8Golden(path string) ([]int8Golden, error) {
	f, err := os.Open(path)
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
