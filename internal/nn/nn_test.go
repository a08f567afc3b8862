package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"percival/internal/tensor"
)

func randInput(rng *rand.Rand, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	return x
}

func TestConv2DShapes(t *testing.T) {
	c := NewConv2D("c1", tensor.ConvSpec{InC: 3, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1})
	rng := rand.New(rand.NewSource(1))
	InitHe(c, rng)
	x := randInput(rng, 2, 3, 8, 8)
	y := c.Forward(x, false)
	want := []int{2, 8, 8, 8}
	for i := range want {
		if y.Shape[i] != want[i] {
			t.Fatalf("shape %v want %v", y.Shape, want)
		}
	}
}

func TestConv2DRejectsWrongChannels(t *testing.T) {
	c := NewConv2D("c1", tensor.ConvSpec{InC: 3, OutC: 8, KH: 1, KW: 1, StrideH: 1, StrideW: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on channel mismatch")
		}
	}()
	c.Forward(tensor.New(1, 4, 8, 8), false)
}

func TestSequentialForwardBackwardGradientCheck(t *testing.T) {
	// Small conv->relu->pool->conv->gap network; verify dL/dW numerically.
	rng := rand.New(rand.NewSource(2))
	net := NewSequential(
		NewConv2D("c1", tensor.ConvSpec{InC: 1, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}),
		NewReLU("r1"),
		NewMaxPool("p1", 2, 2),
		NewConv2D("c2", tensor.ConvSpec{InC: 4, OutC: 2, KH: 1, KW: 1, StrideH: 1, StrideW: 1}),
		NewGlobalAvgPool("gap"),
	)
	InitHe(net, rng)
	x := randInput(rng, 2, 1, 6, 6)
	labels := []int{0, 1}

	lossAt := func() float64 {
		logits := net.Forward(x.Clone(), false)
		probs := tensor.Softmax(logits)
		loss, _ := tensor.CrossEntropyLoss(probs, labels)
		return loss
	}

	logits := net.Forward(x.Clone(), true)
	probs := tensor.Softmax(logits)
	_, dlogits := tensor.CrossEntropyLoss(probs, labels)
	for _, p := range net.Params() {
		p.ZeroGrad()
	}
	net.Backward(dlogits)

	const eps = 1e-2
	for _, p := range net.Params() {
		idxs := []int{0}
		if p.W.Len() > 3 {
			idxs = append(idxs, p.W.Len()/2, p.W.Len()-1)
		}
		for _, i := range idxs {
			orig := p.W.Data[i]
			p.W.Data[i] = orig + eps
			up := lossAt()
			p.W.Data[i] = orig - eps
			down := lossAt()
			p.W.Data[i] = orig
			num := (up - down) / (2 * eps)
			got := float64(p.Grad.Data[i])
			if math.Abs(num-got) > 2e-2*(1+math.Abs(num)) {
				t.Errorf("%s[%d]: numerical %v analytic %v", p.Name, i, num, got)
			}
		}
	}
}

func TestFireModuleShapesAndGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fire := NewFire("fire1", 4, 2, 3, 3)
	InitHe(fire, rng)
	// Nudge biases off zero: a zero bias puts ReLU pre-activations exactly at
	// the kink, where numerical differentiation is undefined.
	for _, p := range fire.Params() {
		if len(p.W.Shape) == 1 {
			for i := range p.W.Data {
				p.W.Data[i] = float32(rng.NormFloat64() * 0.3)
			}
		}
	}
	x := randInput(rng, 1, 4, 5, 5)
	y := fire.Forward(x.Clone(), false)
	if y.Shape[1] != 6 {
		t.Fatalf("fire out channels %d want 6", y.Shape[1])
	}
	if fire.OutChannels() != 6 {
		t.Fatalf("OutChannels() = %d", fire.OutChannels())
	}

	// gradient check through the module
	coef := randInput(rng, 1, 6, 5, 5)
	objective := func() float64 {
		out := fire.Forward(x.Clone(), false)
		var v float64
		for i := range out.Data {
			v += float64(coef.Data[i]) * float64(out.Data[i])
		}
		return v
	}
	fire.Forward(x.Clone(), true)
	for _, p := range fire.Params() {
		p.ZeroGrad()
	}
	fire.Backward(coef.Clone())
	const eps = 1e-2
	for _, p := range fire.Params() {
		i := p.W.Len() / 2
		orig := p.W.Data[i]
		p.W.Data[i] = orig + eps
		up := objective()
		p.W.Data[i] = orig - eps
		down := objective()
		p.W.Data[i] = orig
		num := (up - down) / (2 * eps)
		if math.Abs(num-float64(p.Grad.Data[i])) > 3e-2*(1+math.Abs(num)) {
			t.Errorf("%s: numerical %v analytic %v", p.Name, num, p.Grad.Data[i])
		}
	}
}

func TestConcatSplitRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randInput(rng, 2, 3, 4, 4)
	b := randInput(rng, 2, 5, 4, 4)
	y := concatChannels(a, b)
	a2, b2 := splitChannels(y, 3)
	for i := range a.Data {
		if a.Data[i] != a2.Data[i] {
			t.Fatal("split(a) mismatch")
		}
	}
	for i := range b.Data {
		if b.Data[i] != b2.Data[i] {
			t.Fatal("split(b) mismatch")
		}
	}
}

func TestTrainingConvergesOnToyTask(t *testing.T) {
	// Class 0: bright top half. Class 1: bright bottom half. A tiny conv net
	// must separate these in a few hundred steps.
	rng := rand.New(rand.NewSource(5))
	net := NewSequential(
		NewConv2D("c1", tensor.ConvSpec{InC: 1, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}),
		NewReLU("r1"),
		NewMaxPool("p1", 2, 2),
		NewConv2D("c2", tensor.ConvSpec{InC: 4, OutC: 2, KH: 1, KW: 1, StrideH: 1, StrideW: 1}),
		NewGlobalAvgPool("gap"),
	)
	InitHe(net, rng)
	opt := NewSGD(net.Params(), 0.05, 0.9, 0)

	makeBatch := func(n int) (*tensor.Tensor, []int) {
		x := tensor.New(n, 1, 8, 8)
		labels := make([]int, n)
		for i := 0; i < n; i++ {
			labels[i] = rng.Intn(2)
			for y := 0; y < 8; y++ {
				for xx := 0; xx < 8; xx++ {
					v := float32(rng.NormFloat64() * 0.1)
					if (labels[i] == 0 && y < 4) || (labels[i] == 1 && y >= 4) {
						v += 1
					}
					x.Data[(i*8+y)*8+xx] = v
				}
			}
		}
		return x, labels
	}

	var lastAcc float64
	for step := 0; step < 200; step++ {
		x, labels := makeBatch(16)
		_, lastAcc = TrainStep(net, opt, x, labels)
	}
	if lastAcc < 0.9 {
		t.Fatalf("training failed to converge: final batch accuracy %v", lastAcc)
	}
	// held-out check
	x, labels := makeBatch(64)
	probs := Predict(net, x)
	correct := 0
	for i, label := range labels {
		if tensor.Argmax(probs.Data[i*2:(i+1)*2]) == label {
			correct++
		}
	}
	if acc := float64(correct) / 64; acc < 0.9 {
		t.Fatalf("held-out accuracy %v < 0.9", acc)
	}
}

func TestSGDMomentumMatchesHandComputation(t *testing.T) {
	p := NewParam("w", 1)
	p.W.Data[0] = 1
	opt := NewSGD([]*Param{p}, 0.1, 0.9, 0)
	p.Grad.Data[0] = 1
	opt.Step() // v = -0.1; w = 0.9
	if math.Abs(float64(p.W.Data[0])-0.9) > 1e-6 {
		t.Fatalf("w after step1 = %v", p.W.Data[0])
	}
	opt.Step() // v = 0.9*-0.1 - 0.1 = -0.19; w = 0.71
	if math.Abs(float64(p.W.Data[0])-0.71) > 1e-6 {
		t.Fatalf("w after step2 = %v", p.W.Data[0])
	}
}

func TestSGDWeightDecay(t *testing.T) {
	p := NewParam("w", 1)
	p.W.Data[0] = 2
	opt := NewSGD([]*Param{p}, 0.1, 0, 0.5)
	opt.Step() // grad = 0 + 0.5*2 = 1; w = 2 - 0.1 = 1.9
	if math.Abs(float64(p.W.Data[0])-1.9) > 1e-6 {
		t.Fatalf("w = %v", p.W.Data[0])
	}
}

func TestStepLRSchedule(t *testing.T) {
	s := PaperSchedule()
	if s.At(0) != 0.001 || s.At(29) != 0.001 {
		t.Fatal("epoch<30 should be base lr")
	}
	if math.Abs(s.At(30)-0.0001) > 1e-12 {
		t.Fatalf("At(30) = %v", s.At(30))
	}
	if math.Abs(s.At(60)-0.00001) > 1e-13 {
		t.Fatalf("At(60) = %v", s.At(60))
	}
}

func TestDropoutTrainVsInference(t *testing.T) {
	d := NewDropout("d", 0.5, 42)
	x := tensor.New(1, 1, 32, 32)
	for i := range x.Data {
		x.Data[i] = 1
	}
	y := d.Forward(x.Clone(), false)
	for _, v := range y.Data {
		if v != 1 {
			t.Fatal("dropout must be identity at inference")
		}
	}
	y = d.Forward(x.Clone(), true)
	zeros, twos := 0, 0
	for _, v := range y.Data {
		switch v {
		case 0:
			zeros++
		case 2:
			twos++
		default:
			t.Fatalf("unexpected value %v", v)
		}
	}
	frac := float64(zeros) / float64(zeros+twos)
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("drop fraction %v not near 0.5", frac)
	}
	if zeros+twos != 1024 {
		t.Fatal("element count wrong")
	}
	_ = twos
}

func TestSerializationRoundTripFloat32(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	net := NewSequential(
		NewConv2D("c1", tensor.ConvSpec{InC: 1, OutC: 3, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}),
		NewConv2D("c2", tensor.ConvSpec{InC: 3, OutC: 2, KH: 1, KW: 1, StrideH: 1, StrideW: 1}),
	)
	InitHe(net, rng)
	var buf bytes.Buffer
	if err := Save(&buf, net); err != nil {
		t.Fatal(err)
	}
	net2 := NewSequential(
		NewConv2D("c1", tensor.ConvSpec{InC: 1, OutC: 3, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}),
		NewConv2D("c2", tensor.ConvSpec{InC: 3, OutC: 2, KH: 1, KW: 1, StrideH: 1, StrideW: 1}),
	)
	if err := Load(&buf, net2); err != nil {
		t.Fatal(err)
	}
	p1, p2 := net.Params(), net2.Params()
	for i := range p1 {
		for j := range p1[i].W.Data {
			if p1[i].W.Data[j] != p2[i].W.Data[j] {
				t.Fatalf("param %s[%d] differs", p1[i].Name, j)
			}
		}
	}
}

func TestSerializationCompressedHalvesSize(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := NewSequential(NewConv2D("c1", tensor.ConvSpec{InC: 3, OutC: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1}))
	InitHe(net, rng)
	var full, half bytes.Buffer
	if err := Save(&full, net); err != nil {
		t.Fatal(err)
	}
	if err := SaveCompressed(&half, net); err != nil {
		t.Fatal(err)
	}
	if half.Len() >= full.Len() {
		t.Fatalf("compressed %d >= full %d", half.Len(), full.Len())
	}
	net2 := NewSequential(NewConv2D("c1", tensor.ConvSpec{InC: 3, OutC: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1}))
	if err := Load(&half, net2); err != nil {
		t.Fatal(err)
	}
	// fp16 roundtrip error should be small relative to weight magnitude
	p1, p2 := net.Params()[0], net2.Params()[0]
	for i := range p1.W.Data {
		diff := math.Abs(float64(p1.W.Data[i] - p2.W.Data[i]))
		if diff > 1e-3*(1+math.Abs(float64(p1.W.Data[i]))) {
			t.Fatalf("fp16 roundtrip error too large at %d: %v vs %v", i, p1.W.Data[i], p2.W.Data[i])
		}
	}
}

func TestLoadRejectsMismatchedArchitecture(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net := NewSequential(NewConv2D("c1", tensor.ConvSpec{InC: 1, OutC: 2, KH: 1, KW: 1, StrideH: 1, StrideW: 1}))
	InitHe(net, rng)
	var buf bytes.Buffer
	if err := Save(&buf, net); err != nil {
		t.Fatal(err)
	}
	other := NewSequential(NewConv2D("cX", tensor.ConvSpec{InC: 1, OutC: 2, KH: 1, KW: 1, StrideH: 1, StrideW: 1}))
	if err := Load(&buf, other); err == nil {
		t.Fatal("expected name-mismatch error")
	}
	var buf2 bytes.Buffer
	if err := Save(&buf2, net); err != nil {
		t.Fatal(err)
	}
	shapeMismatch := NewSequential(NewConv2D("c1", tensor.ConvSpec{InC: 1, OutC: 3, KH: 1, KW: 1, StrideH: 1, StrideW: 1}))
	if err := Load(&buf2, shapeMismatch); err == nil {
		t.Fatal("expected shape-mismatch error")
	}
}

func TestLoadRejectsCorruptHeader(t *testing.T) {
	net := NewSequential(NewConv2D("c1", tensor.ConvSpec{InC: 1, OutC: 2, KH: 1, KW: 1, StrideH: 1, StrideW: 1}))
	if err := Load(bytes.NewReader([]byte("XXXX\x01\x00")), net); err == nil {
		t.Fatal("expected bad-magic error")
	}
	if err := Load(bytes.NewReader(nil), net); err == nil {
		t.Fatal("expected EOF error")
	}
}

// Property: half-precision roundtrip is within half-epsilon for values in the
// representable range.
func TestHalfRoundTripProperty(t *testing.T) {
	f := func(v float32) bool {
		if v != v { // NaN: just require NaN out
			return HalfToFloat32(Float32ToHalf(v)) != HalfToFloat32(Float32ToHalf(v))
		}
		av := math.Abs(float64(v))
		if av > 65000 || (av < 6e-5 && av != 0) {
			return true // out of fp16 normal range; skip
		}
		got := float64(HalfToFloat32(Float32ToHalf(v)))
		return math.Abs(got-float64(v)) <= math.Max(1e-3*math.Abs(float64(v)), 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestHalfSpecialValues(t *testing.T) {
	cases := []float32{0, 1, -1, 0.5, 65504, -65504, float32(math.Inf(1)), float32(math.Inf(-1))}
	for _, v := range cases {
		got := HalfToFloat32(Float32ToHalf(v))
		if math.IsInf(float64(v), 0) {
			if !math.IsInf(float64(got), int(math.Copysign(1, float64(v)))) {
				t.Fatalf("inf roundtrip: %v -> %v", v, got)
			}
			continue
		}
		if math.Abs(float64(got-v)) > 1e-3*(1+math.Abs(float64(v))) {
			t.Fatalf("roundtrip %v -> %v", v, got)
		}
	}
	// overflow clamps to inf
	if !math.IsInf(float64(HalfToFloat32(Float32ToHalf(1e10))), 1) {
		t.Fatal("overflow should produce +inf")
	}
}

func TestParamCountAndSize(t *testing.T) {
	c := NewConv2D("c", tensor.ConvSpec{InC: 3, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1})
	want := 8*3*3*3 + 8
	if ParamCount(c) != want {
		t.Fatalf("ParamCount = %d want %d", ParamCount(c), want)
	}
	if SizeBytes(c) != want*4 {
		t.Fatalf("SizeBytes = %d", SizeBytes(c))
	}
}

func TestInferenceIsGoroutineSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	net := NewSequential(
		NewConv2D("c1", tensor.ConvSpec{InC: 1, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}),
		NewReLU("r1"),
		NewFire("f1", 4, 2, 4, 4),
		NewGlobalAvgPool("gap"),
	)
	InitHe(net, rng)
	x := randInput(rng, 1, 1, 8, 8)
	want := net.Forward(x.Clone(), false)
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func() {
			ok := true
			for i := 0; i < 20; i++ {
				y := net.Forward(x.Clone(), false)
				for j := range y.Data {
					if y.Data[j] != want.Data[j] {
						ok = false
					}
				}
			}
			done <- ok
		}()
	}
	for g := 0; g < 8; g++ {
		if !<-done {
			t.Fatal("concurrent inference produced differing results")
		}
	}
}
