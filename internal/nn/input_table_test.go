package nn_test

import (
	"math"
	"slices"
	"testing"

	"percival/internal/imaging"
	"percival/internal/nn"
	"percival/internal/squeezenet"
	"percival/internal/synth"
	"percival/internal/tensor"
)

// TestInputTableMatchesFloatPath pins the byte input path against the float
// one it replaces. A frame's float tensor holds p·(1/255) for a pixel byte p
// and the network quantizes that; the table is the composition, so for any
// input parameters it must map every byte in every channel to what
// QuantizeU8 makes of ToTensor's float, and on the paper net PredictArenaU8
// over the scaled bitmaps' bytes must score bit for bit what PredictArena
// scores over the float tensor.
func TestInputTableMatchesFloatPath(t *testing.T) {
	// 256 pixels; channel c of pixel i is i+64c mod 256, so every channel
	// plane holds every byte.
	all := imaging.NewBitmap(16, 16)
	for i := 0; i < 256; i++ {
		for c := 0; c < 4; c++ {
			all.Pix[i*4+c] = uint8(i + 64*c)
		}
	}
	floats := imaging.ToTensor(all)
	for _, zero := range []int32{0, 17, 127} {
		// 1/127 is what frames calibrate to ([0,1] over 127 steps); the
		// other two put the range's ends inside and far outside [0,1].
		for _, scale := range []float32{1.0 / 127, 0.0031, 0.05} {
			q := tensor.QuantParams{Scale: scale, Zero: zero}
			want := make([]uint8, len(floats.Data))
			tensor.QuantizeU8(want, floats.Data, q)
			lut := nn.InputTable(q)
			for i := range want {
				if p := all.Pix[i%256*4+i/256]; lut[p] != want[i] {
					t.Fatalf("%+v: byte %d → %d through the table, %d through ToTensor+QuantizeU8", q, p, lut[p], want[i])
				}
			}
		}
	}

	cfg := squeezenet.PaperConfig()
	net, err := squeezenet.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	squeezenet.PretrainedInit(net, 1)
	res := cfg.InputRes
	var calib []*tensor.Tensor
	for _, f := range synth.SampleFrames(31, 2) {
		calib = append(calib, imaging.PrepareInput(f, res))
	}
	qnet, err := nn.Quantize(net, calib)
	if err != nil {
		t.Fatal(err)
	}
	const batch = 3
	per := 4 * res * res
	var scaled []*imaging.Bitmap
	for _, f := range synth.SampleFrames(37, batch) {
		scaled = append(scaled, imaging.ResizeBilinear(f, res, res))
	}
	a := tensor.NewArena()
	for _, n := range []int{1, batch} {
		want := qnet.PredictArena(imaging.BatchToTensor(scaled[:n]), a).Clone() // the next pass on a reuses its place
		pix := qnet.InputArenaU8(a, n, res, res)
		for i, b := range scaled[:n] {
			copy(pix[i*per:(i+1)*per], b.Pix)
		}
		got := qnet.PredictArenaU8(pix, n, res, res, a)
		if !slices.Equal(got.Shape, want.Shape) {
			t.Fatalf("batch %d: shape %v from bytes, %v from floats", n, got.Shape, want.Shape)
		}
		for i := range want.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Errorf("batch %d: prob %d = %v from bytes, %v from floats", n, i, got.Data[i], want.Data[i])
			}
		}
		a.PutTensor(got)
	}
}
