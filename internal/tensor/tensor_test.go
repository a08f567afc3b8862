package tensor

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewAndIndexing(t *testing.T) {
	x := New(2, 3, 4, 5)
	if x.Len() != 120 {
		t.Fatalf("Len = %d, want 120", x.Len())
	}
	x.Set(7, 1, 2, 3, 4)
	if got := x.At(1, 2, 3, 4); got != 7 {
		t.Fatalf("At = %v, want 7", got)
	}
	if got := x.Data[119]; got != 7 {
		t.Fatalf("last element = %v, want 7 (row-major layout)", got)
	}
}

func TestFromSliceAndReshape(t *testing.T) {
	data := []float32{1, 2, 3, 4, 5, 6}
	x := FromSlice(data, 2, 3)
	y := x.Reshape(3, 2)
	if y.At(2, 1) != 6 {
		t.Fatalf("reshape view broken: got %v", y.At(2, 1))
	}
	y.Set(99, 0, 0)
	if x.At(0, 0) != 99 {
		t.Fatal("Reshape must share data")
	}
	c := x.Clone()
	c.Set(-1, 0, 0)
	if x.At(0, 0) != 99 {
		t.Fatal("Clone must not share data")
	}
}

func TestFromSlicePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestNewPanicsOnNonPositiveDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 0)
}

func TestScaleFillZeroSum(t *testing.T) {
	x := New(4)
	x.Fill(2)
	x.Scale(3)
	if x.Sum() != 24 {
		t.Fatalf("Sum = %v, want 24", x.Sum())
	}
	x.Zero()
	if x.Sum() != 0 {
		t.Fatalf("Sum after Zero = %v", x.Sum())
	}
}

func TestAddInPlaceAndMaxAbs(t *testing.T) {
	x := FromSlice([]float32{1, -5, 2}, 3)
	y := FromSlice([]float32{1, 1, 1}, 3)
	x.AddInPlace(y)
	if x.Data[1] != -4 {
		t.Fatalf("AddInPlace broken: %v", x.Data)
	}
	if x.MaxAbs() != 4 {
		t.Fatalf("MaxAbs = %v, want 4", x.MaxAbs())
	}
}

func TestArgmax(t *testing.T) {
	if Argmax([]float32{0.1, 0.7, 0.2}) != 1 {
		t.Fatal("Argmax wrong")
	}
	if Argmax([]float32{-3, -1, -2}) != 1 {
		t.Fatal("Argmax wrong on negatives")
	}
}

// naiveGemm is the reference O(mnk) triple loop.
func naiveGemm(a, b []float32, m, k, n int) []float32 {
	c := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a[i*k+p] * b[p*n+j]
			}
			c[i*n+j] = s
		}
	}
	return c
}

func randSlice(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64())
	}
	return s
}

func TestGemmMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 4, 5}, {17, 9, 23}, {64, 48, 80}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := randSlice(rng, m*k)
		b := randSlice(rng, k*n)
		c := make([]float32, m*n)
		Gemm(a, b, c, m, k, n)
		want := naiveGemm(a, b, m, k, n)
		for i := range c {
			if !almostEq(float64(c[i]), float64(want[i]), 1e-3) {
				t.Fatalf("dims %v: c[%d]=%v want %v", dims, i, c[i], want[i])
			}
		}
	}
}

func TestGemmTAMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, k, n := 7, 11, 5
	a := randSlice(rng, k*m) // stored K×M
	b := randSlice(rng, k*n)
	c := make([]float32, m*n)
	GemmTA(a, b, c, m, k, n)
	// reference: transpose A then naive
	at := make([]float32, m*k)
	for p := 0; p < k; p++ {
		for i := 0; i < m; i++ {
			at[i*k+p] = a[p*m+i]
		}
	}
	want := naiveGemm(at, b, m, k, n)
	for i := range c {
		if !almostEq(float64(c[i]), float64(want[i]), 1e-3) {
			t.Fatalf("c[%d]=%v want %v", i, c[i], want[i])
		}
	}
}

func TestGemmTBMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, k, n := 6, 9, 8
	a := randSlice(rng, m*k)
	b := randSlice(rng, n*k) // stored N×K
	c := make([]float32, m*n)
	GemmTB(a, b, c, m, k, n)
	bt := make([]float32, k*n)
	for j := 0; j < n; j++ {
		for p := 0; p < k; p++ {
			bt[p*n+j] = b[j*k+p]
		}
	}
	want := naiveGemm(a, bt, m, k, n)
	for i := range c {
		if !almostEq(float64(c[i]), float64(want[i]), 1e-3) {
			t.Fatalf("c[%d]=%v want %v", i, c[i], want[i])
		}
	}
}

func TestGemmAccAccumulates(t *testing.T) {
	a := []float32{1, 0, 0, 1} // identity
	b := []float32{5, 6, 7, 8}
	c := []float32{1, 1, 1, 1}
	GemmAcc(a, b, c, 2, 2, 2)
	want := []float32{6, 7, 8, 9}
	for i := range c {
		if c[i] != want[i] {
			t.Fatalf("c=%v want %v", c, want)
		}
	}
}

// naiveConv is a direct convolution used as ground truth for the im2col path.
func naiveConv(x *Tensor, w, b []float32, s ConvSpec) *Tensor {
	n, c, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := s.OutSize(h, wd)
	y := New(n, s.OutC, oh, ow)
	for i := 0; i < n; i++ {
		for oc := 0; oc < s.OutC; oc++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var sum float32
					if b != nil {
						sum = b[oc]
					}
					for ic := 0; ic < c; ic++ {
						for ky := 0; ky < s.KH; ky++ {
							iy := oy*s.StrideH - s.PadH + ky
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < s.KW; kx++ {
								ix := ox*s.StrideW - s.PadW + kx
								if ix < 0 || ix >= wd {
									continue
								}
								wv := w[((oc*c+ic)*s.KH+ky)*s.KW+kx]
								sum += wv * x.At(i, ic, iy, ix)
							}
						}
					}
					y.Set(sum, i, oc, oy, ox)
				}
			}
		}
	}
	return y
}

func TestConvForwardMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cases := []ConvSpec{
		{InC: 3, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{InC: 2, OutC: 5, KH: 1, KW: 1, StrideH: 1, StrideW: 1},
		{InC: 3, OutC: 2, KH: 3, KW: 3, StrideH: 2, StrideW: 2},
		{InC: 1, OutC: 3, KH: 5, KW: 5, StrideH: 2, StrideW: 2, PadH: 2, PadW: 2},
	}
	for _, s := range cases {
		x := FromSlice(randSlice(rng, 2*s.InC*9*9), 2, s.InC, 9, 9)
		w := randSlice(rng, s.OutC*s.InC*s.KH*s.KW)
		b := randSlice(rng, s.OutC)
		got := ConvForward(x, w, b, s)
		want := naiveConv(x, w, b, s)
		if !got.SameShape(want) {
			t.Fatalf("spec %+v: shape %v want %v", s, got.Shape, want.Shape)
		}
		for i := range got.Data {
			if !almostEq(float64(got.Data[i]), float64(want.Data[i]), 1e-3) {
				t.Fatalf("spec %+v: y[%d]=%v want %v", s, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestConvBackwardNumerical verifies conv gradients by central differences.
func TestConvBackwardNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := ConvSpec{InC: 2, OutC: 3, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	x := FromSlice(randSlice(rng, 1*2*5*5), 1, 2, 5, 5)
	w := randSlice(rng, s.OutC*s.InC*9)
	b := randSlice(rng, s.OutC)
	oh, ow := s.OutSize(5, 5)
	col := make([]float32, s.InC*9*oh*ow)

	// scalar objective: sum of outputs weighted by fixed random coefficients
	coef := randSlice(rng, s.OutC*oh*ow)
	objective := func() float64 {
		y := ConvForward(x, w, b, s)
		var v float64
		for i, c := range coef {
			v += float64(c) * float64(y.Data[i])
		}
		return v
	}

	dy := FromSlice(append([]float32(nil), coef...), 1, s.OutC, oh, ow)
	dw := make([]float32, len(w))
	db := make([]float32, len(b))
	dx := ConvBackward(x, dy, w, dw, db, s, col)

	const eps = 1e-2
	check := func(name string, buf []float32, grad []float32, idxs []int) {
		for _, i := range idxs {
			orig := buf[i]
			buf[i] = orig + eps
			up := objective()
			buf[i] = orig - eps
			down := objective()
			buf[i] = orig
			num := (up - down) / (2 * eps)
			if !almostEq(num, float64(grad[i]), 2e-2) {
				t.Fatalf("%s[%d]: numerical %v analytic %v", name, i, num, grad[i])
			}
		}
	}
	check("dx", x.Data, dx.Data, []int{0, 7, 24, 49})
	check("dw", w, dw, []int{0, 5, 17, 53})
	check("db", b, db, []int{0, 1, 2})
}

func TestMaxPoolForwardBackward(t *testing.T) {
	x := FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	p := PoolSpec{K: 2, Stride: 2}
	y, arg := New(1, 1, 2, 2), make([]int32, 4)
	MaxPoolForwardArgmax(x, p, y, arg)
	want := []float32{6, 8, 14, 16}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Fatalf("maxpool y=%v want %v", y.Data, want)
		}
	}
	dy := FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	dx := MaxPoolBackward(dy, arg, x.Shape)
	if dx.At(0, 0, 1, 1) != 1 || dx.At(0, 0, 3, 3) != 4 {
		t.Fatalf("maxpool backward wrong: %v", dx.Data)
	}
	if dx.Sum() != 10 {
		t.Fatalf("gradient mass not conserved: %v", dx.Sum())
	}
}

func TestMaxPoolOverlappingWindows(t *testing.T) {
	// SqueezeNet uses 3x3 stride-2 overlapping max pools.
	rng := rand.New(rand.NewSource(6))
	x := FromSlice(randSlice(rng, 1*2*7*7), 1, 2, 7, 7)
	p := PoolSpec{K: 3, Stride: 2}
	oh, ow := p.OutSize(7, 7)
	if oh != 3 || ow != 3 {
		t.Fatalf("out size %d×%d", oh, ow)
	}
	y := New(1, 2, oh, ow)
	arg := make([]int32, y.Len())
	MaxPoolForwardArgmax(x, p, y, arg)
	// every argmax must point at an element >= all others in its window
	for i, a := range arg {
		if a < 0 {
			t.Fatalf("argmax[%d] unset", i)
		}
		if y.Data[i] != x.Data[a] {
			t.Fatalf("argmax/y mismatch at %d", i)
		}
	}
}

func TestGlobalAvgPool(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 10, 20, 30, 40}, 1, 2, 2, 2)
	y := GlobalAvgPoolForward(x)
	if y.Data[0] != 2.5 || y.Data[1] != 25 {
		t.Fatalf("gap = %v", y.Data)
	}
	dy := FromSlice([]float32{4, 8}, 1, 2, 1, 1)
	dx := GlobalAvgPoolBackward(dy, x.Shape)
	if dx.Data[0] != 1 || dx.Data[4] != 2 {
		t.Fatalf("gap backward = %v", dx.Data)
	}
}

func TestReLU(t *testing.T) {
	x := FromSlice([]float32{-1, 0, 2, -3}, 4)
	mask := ReLUForward(x)
	if x.Data[0] != 0 || x.Data[2] != 2 {
		t.Fatalf("relu fwd = %v", x.Data)
	}
	dy := FromSlice([]float32{1, 1, 1, 1}, 4)
	ReLUBackward(dy, mask)
	if dy.Data[0] != 0 || dy.Data[2] != 1 || dy.Data[3] != 0 {
		t.Fatalf("relu bwd = %v", dy.Data)
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	f := func(a, b, c float32) bool {
		// clamp to a sane range to avoid quick generating inf
		clamp := func(v float32) float32 {
			if v > 50 {
				return 50
			}
			if v < -50 {
				return -50
			}
			return v
		}
		x := FromSlice([]float32{clamp(a), clamp(b), clamp(c)}, 1, 3)
		y := Softmax(x)
		var sum float64
		for _, v := range y.Data {
			if v < 0 || v > 1 {
				return false
			}
			sum += float64(v)
		}
		return almostEq(sum, 1, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxStability(t *testing.T) {
	x := FromSlice([]float32{1000, 1001}, 1, 2)
	y := Softmax(x)
	for _, v := range y.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("softmax overflow: %v", y.Data)
		}
	}
	if !(y.Data[1] > y.Data[0]) {
		t.Fatal("ordering lost")
	}
}

func TestCrossEntropyLossAndGrad(t *testing.T) {
	probs := FromSlice([]float32{0.25, 0.75, 0.9, 0.1}, 2, 2)
	loss, grad := CrossEntropyLoss(probs, []int{1, 0})
	want := -(math.Log(0.75) + math.Log(0.9)) / 2
	if !almostEq(loss, want, 1e-6) {
		t.Fatalf("loss %v want %v", loss, want)
	}
	// grad = (p - onehot)/N
	if !almostEq(float64(grad.Data[0]), 0.25/2, 1e-6) ||
		!almostEq(float64(grad.Data[1]), (0.75-1)/2, 1e-6) {
		t.Fatalf("grad = %v", grad.Data)
	}
}

// Property: Col2im is the adjoint of Im2col, i.e. <im2col(x), y> == <x, col2im(y)>.
func TestIm2colCol2imAdjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		c := 1 + rng.Intn(3)
		h := 3 + rng.Intn(6)
		w := 3 + rng.Intn(6)
		s := ConvSpec{
			InC: c, OutC: 1,
			KH: 1 + rng.Intn(3), KW: 1 + rng.Intn(3),
			StrideH: 1 + rng.Intn(2), StrideW: 1 + rng.Intn(2),
			PadH: rng.Intn(2), PadW: rng.Intn(2),
		}
		if s.KH > h+2*s.PadH || s.KW > w+2*s.PadW {
			continue
		}
		oh, ow := s.OutSize(h, w)
		if oh <= 0 || ow <= 0 {
			continue
		}
		x := randSlice(rng, c*h*w)
		col := make([]float32, c*s.KH*s.KW*oh*ow)
		Im2col(x, c, h, w, s, col)
		y := randSlice(rng, len(col))
		var lhs float64
		for i := range col {
			lhs += float64(col[i]) * float64(y[i])
		}
		back := make([]float32, len(x))
		Col2im(y, c, h, w, s, back)
		var rhs float64
		for i := range x {
			rhs += float64(x[i]) * float64(back[i])
		}
		if !almostEq(lhs, rhs, 1e-2*(1+math.Abs(lhs))) {
			t.Fatalf("trial %d spec %+v: <im2col(x),y>=%v <x,col2im(y)>=%v", trial, s, lhs, rhs)
		}
	}
}

func TestConvSpecOutSize(t *testing.T) {
	s := ConvSpec{InC: 3, OutC: 8, KH: 7, KW: 7, StrideH: 2, StrideW: 2}
	oh, ow := s.OutSize(224, 224)
	if oh != 109 || ow != 109 {
		t.Fatalf("OutSize = %d,%d", oh, ow)
	}
	p := PoolSpec{K: 3, Stride: 2}
	oh, ow = p.OutSize(109, 109)
	if oh != 54 || ow != 54 {
		t.Fatalf("pool OutSize = %d,%d", oh, ow)
	}
	// The window exactly fits: one output. One short of fitting: none — the
	// negative quotient must not truncate toward zero into a phantom window.
	if oh, ow = s.OutSize(7, 8); oh != 1 || ow != 1 {
		t.Fatalf("OutSize(7,8) = %d,%d, want 1,1", oh, ow)
	}
	if oh, ow = s.OutSize(6, 6); oh != 0 || ow != 0 {
		t.Fatalf("OutSize(6,6) = %d,%d, want 0,0", oh, ow)
	}
	if oh, ow = s.OutSize(9, 5); oh != 2 || ow != 0 {
		t.Fatalf("OutSize(9,5) = %d,%d, want 2,0", oh, ow)
	}
	if oh, ow = p.OutSize(2, 2); oh != 0 || ow != 0 {
		t.Fatalf("pool OutSize(2,2) = %d,%d, want 0,0", oh, ow)
	}
	padded := ConvSpec{KH: 7, KW: 7, StrideH: 2, StrideW: 2, PadH: 3, PadW: 3}
	if oh, ow = padded.OutSize(1, 1); oh != 1 || ow != 1 {
		t.Fatalf("padded OutSize(1,1) = %d,%d, want 1,1", oh, ow)
	}
}

// TestEmptyOutputRejected checks the forward kernels refuse a window that
// does not fit its input, naming the shapes, instead of scoring a partial
// window. The INT8 stem and a pooled INT8 convolution are refused by their
// scratch sizes too, each naming its ForwardInto.
func TestEmptyOutputRejected(t *testing.T) {
	x := New(1, 1, 2, 2)
	y := New(1, 1, 1, 1)
	p := PoolSpec{K: 3, Stride: 2}
	s := ConvSpec{InC: 1, OutC: 1, KH: 3, KW: 3, StrideH: 2, StrideW: 2}
	pointwise := ConvSpec{InC: 1, OutC: 1, KH: 1, KW: 1, StrideH: 1, StrideW: 1}
	pix := make([]uint8, 16) // one 2×2 image, four bytes a pixel
	for name, c := range map[string]struct {
		fn    func()
		entry string // the function the panic names
		shape string
	}{
		"ConvForwardInto":    {func() { ConvForwardInto(x, make([]float32, 9), nil, s, y, 0, false) }, "ConvForwardInto", "[1 1 2 2]"},
		"MaxPoolForwardInto": {func() { MaxPoolForwardInto(x, p, y, nil) }, "MaxPoolForwardInto", "[1 1 2 2]"},
		// One quad plane of 2×2 pixels, four bytes each, through a 1×1
		// convolution.
		"pooled QConv":            {func() { (&QConv{Spec: pointwise, Pool: p}).ForwardInto(pix, 1, 2, 2, nil, 1, 0, nil, nil) }, "QConv.ForwardInto", "[1 1 2 2]"},
		"pooled QConv.ScratchLen": {func() { (&QConv{Spec: pointwise, Pool: p}).ScratchLen(2, 2) }, "QConv.ForwardInto", "[1 1 2 2]"},
		"QStem":                   {func() { (&QStem{Spec: s}).ForwardInto(pix, 1, 2, 2, nil, nil, nil, nil) }, "QStem.ForwardInto", "[1 1 2 2]"},
		"pooled QStem":            {func() { (&QStem{Spec: s, Pool: p}).ForwardInto(pix, 1, 2, 2, nil, nil, nil, nil) }, "QStem.ForwardInto", "[1 1 2 2]"},
		"QStem.ScratchLen":        {func() { (&QStem{Spec: s}).ScratchLen(2, 2) }, "QStem.ForwardInto", "[1 1 2 2]"},
		"pooled QStem.ScratchLen": {func() { (&QStem{Spec: s, Pool: p}).ScratchLen(2, 2) }, "QStem.ForwardInto", "[1 1 2 2]"},
	} {
		msg := panicMessage(t, name, c.fn)
		if !strings.Contains(msg, c.entry) || !strings.Contains(msg, "3×3 window") || !strings.Contains(msg, c.shape) {
			t.Errorf("%s: panic %q does not name the function and shapes", name, msg)
		}
	}
}
