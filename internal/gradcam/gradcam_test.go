package gradcam

import (
	"math/rand"
	"strings"
	"testing"

	"percival/internal/nn"
	"percival/internal/tensor"
)

// buildNet makes a tiny conv net whose first conv is the CAM target.
func buildNet(t *testing.T, seed int64) *nn.Sequential {
	t.Helper()
	net := nn.NewSequential(
		nn.NewConv2D("c1", tensor.ConvSpec{InC: 1, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}),
		nn.NewReLU("r1"),
		nn.NewMaxPool("p1", 2, 2),
		nn.NewConv2D("c2", tensor.ConvSpec{InC: 4, OutC: 2, KH: 1, KW: 1, StrideH: 1, StrideW: 1}),
		nn.NewGlobalAvgPool("gap"),
	)
	nn.InitHe(net, rand.New(rand.NewSource(seed)))
	return net
}

func TestComputeShapeAndRange(t *testing.T) {
	net := buildNet(t, 1)
	x := tensor.New(1, 1, 8, 8)
	for i := range x.Data {
		x.Data[i] = float32(i%7) / 7
	}
	hm, err := Compute(net, x, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if hm.W != 8 || hm.H != 8 {
		t.Fatalf("heatmap %dx%d", hm.W, hm.H)
	}
	for _, v := range hm.Data {
		if v < 0 || v > 1 {
			t.Fatalf("salience %v out of [0,1]", v)
		}
	}
}

func TestComputeValidation(t *testing.T) {
	net := buildNet(t, 2)
	x := tensor.New(1, 1, 8, 8)
	if _, err := Compute(net, x, 99, 1); err == nil {
		t.Fatal("bad layer must error")
	}
	if _, err := Compute(net, x, 0, 7); err == nil {
		t.Fatal("bad class must error")
	}
	batch := tensor.New(2, 1, 8, 8)
	if _, err := Compute(net, batch, 0, 1); err == nil {
		t.Fatal("batch input must error")
	}
	// non-spatial layer (gap output) must error
	if _, err := Compute(net, x, 4, 1); err == nil {
		t.Fatal("non-spatial layer must error")
	}
}

// TestSalienceTracksDiscriminativeRegion trains a toy net where class 1 is
// "bright top-left quadrant" and verifies the CAM highlights that quadrant.
func TestSalienceTracksDiscriminativeRegion(t *testing.T) {
	net := buildNet(t, 3)
	opt := nn.NewSGD(net.Params(), 0.05, 0.9, 0)
	rng := rand.New(rand.NewSource(4))
	makeBatch := func(n int) (*tensor.Tensor, []int) {
		x := tensor.New(n, 1, 8, 8)
		labels := make([]int, n)
		for i := 0; i < n; i++ {
			labels[i] = rng.Intn(2)
			for y := 0; y < 8; y++ {
				for xx := 0; xx < 8; xx++ {
					v := float32(rng.NormFloat64() * 0.1)
					if labels[i] == 1 && y < 4 && xx < 4 {
						v += 1.2
					}
					x.Data[(i*8+y)*8+xx] = v
				}
			}
		}
		return x, labels
	}
	for step := 0; step < 150; step++ {
		x, labels := makeBatch(16)
		nn.TrainStep(net, opt, x, labels)
	}
	// a positive example
	x := tensor.New(1, 1, 8, 8)
	for y := 0; y < 4; y++ {
		for xx := 0; xx < 4; xx++ {
			x.Data[y*8+xx] = 1.2
		}
	}
	hm, err := Compute(net, x, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	inside := hm.MeanSalience(0, 0, 4, 4)
	outside := hm.MeanSalience(4, 4, 8, 8)
	if inside <= outside {
		t.Fatalf("salience should concentrate on the cue: inside %v outside %v\n%s", inside, outside, hm.ASCII())
	}
}

func TestUpsampleDimensions(t *testing.T) {
	hm := &Heatmap{W: 2, H: 2, Data: []float64{0, 1, 1, 0}}
	up := hm.Upsample(8, 8)
	if up.W != 8 || up.H != 8 {
		t.Fatalf("upsample %dx%d", up.W, up.H)
	}
	if up.At(7, 0) < 0.9 || up.At(0, 0) > 0.1 {
		t.Fatalf("corner values wrong: %v %v", up.At(7, 0), up.At(0, 0))
	}
	// interior is interpolated
	mid := up.At(4, 4)
	if mid <= 0 || mid >= 1 {
		t.Fatalf("midpoint %v should be interpolated", mid)
	}
}

func TestASCIIRamp(t *testing.T) {
	hm := &Heatmap{W: 3, H: 2, Data: []float64{0, 0.5, 1, 1, 0.5, 0}}
	art := hm.ASCII()
	lines := strings.Split(strings.TrimRight(art, "\n"), "\n")
	if len(lines) != 2 || len(lines[0]) != 3 {
		t.Fatalf("ascii shape wrong:\n%s", art)
	}
	if lines[0][0] != ' ' || lines[0][2] != '@' {
		t.Fatalf("ascii ramp wrong: %q", lines[0])
	}
}

func TestMeanSalienceBounds(t *testing.T) {
	hm := &Heatmap{W: 2, H: 2, Data: []float64{1, 1, 0, 0}}
	if hm.MeanSalience(0, 0, 2, 1) != 1 {
		t.Fatal("top row mean")
	}
	if hm.MeanSalience(-5, -5, 0, 0) != 0 {
		t.Fatal("empty region should be 0")
	}
}
