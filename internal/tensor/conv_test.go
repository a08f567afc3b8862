package tensor

import (
	"math/rand"
	"strings"
	"testing"
)

// TestConvForward1x1FastPath checks the pointwise fast path (the image is the
// dense B operand) against the naive direct conv.
func TestConvForward1x1FastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	s := ConvSpec{InC: 5, OutC: 7, KH: 1, KW: 1, StrideH: 1, StrideW: 1}
	x := FromSlice(randSlice(rng, 3*5*6*4), 3, 5, 6, 4)
	w := randSlice(rng, s.OutC*s.InC)
	b := randSlice(rng, s.OutC)
	got := ConvForward(x, w, b, s)
	want := naiveConv(x, w, b, s)
	if !got.SameShape(want) {
		t.Fatalf("shape %v want %v", got.Shape, want.Shape)
	}
	for i := range got.Data {
		if !relClose(float64(got.Data[i]), float64(want.Data[i]), 1e-4) {
			t.Fatalf("y[%d]=%v want %v", i, got.Data[i], want.Data[i])
		}
	}
}

// TestConvForwardIntoChannelOffset writes two convolutions into disjoint
// channel ranges of one output tensor and checks the result equals the
// concatenation of the two standalone convolutions — the Fire-module layout.
func TestConvForwardIntoChannelOffset(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	in := FromSlice(randSlice(rng, 2*6*5*5), 2, 6, 5, 5)
	s1 := ConvSpec{InC: 6, OutC: 3, KH: 1, KW: 1, StrideH: 1, StrideW: 1}
	s3 := ConvSpec{InC: 6, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	w1 := randSlice(rng, s1.OutC*s1.InC)
	b1 := randSlice(rng, s1.OutC)
	w3 := randSlice(rng, s3.OutC*s3.InC*9)
	b3 := randSlice(rng, s3.OutC)

	y := New(2, 7, 5, 5)
	ConvForwardInto(in, w1, b1, s1, y, 0, false)
	ConvForwardInto(in, w3, b3, s3, y, 3, false)

	y1 := naiveConv(in, w1, b1, s1)
	y3 := naiveConv(in, w3, b3, s3)
	plane := 5 * 5
	for i := 0; i < 2; i++ {
		for c := 0; c < 7; c++ {
			var want []float32
			if c < 3 {
				want = y1.Data[(i*3+c)*plane : (i*3+c+1)*plane]
			} else {
				want = y3.Data[(i*4+c-3)*plane : (i*4+c-2)*plane]
			}
			got := y.Data[(i*7+c)*plane : (i*7+c+1)*plane]
			for j := range want {
				if !relClose(float64(got[j]), float64(want[j]), 1e-4) {
					t.Fatalf("n=%d c=%d j=%d: got %v want %v", i, c, j, got[j], want[j])
				}
			}
		}
	}
}

// TestConvForwardIntoFusedReLU checks the fused bias+ReLU epilogue equals
// conv followed by a separate clamp.
func TestConvForwardIntoFusedReLU(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	s := ConvSpec{InC: 3, OutC: 4, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
	x := FromSlice(randSlice(rng, 1*3*9*9), 1, 3, 9, 9)
	w := randSlice(rng, s.OutC*s.InC*9)
	b := randSlice(rng, s.OutC)
	oh, ow := s.OutSize(9, 9)

	fused := New(1, s.OutC, oh, ow)
	ConvForwardInto(x, w, b, s, fused, 0, true)

	want := naiveConv(x, w, b, s)
	for i, v := range want.Data {
		if v < 0 {
			v = 0
		}
		if !relClose(float64(fused.Data[i]), float64(v), 1e-4) {
			t.Fatalf("y[%d]=%v want %v", i, fused.Data[i], v)
		}
	}
}

// TestConvScratchValidation checks that undersized col scratch panics with a
// diagnostic message instead of silently computing on a truncated column
// matrix.
func TestConvScratchValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	s := ConvSpec{InC: 2, OutC: 3, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	x := FromSlice(randSlice(rng, 1*2*5*5), 1, 2, 5, 5)
	w := randSlice(rng, s.OutC*s.InC*9)
	short := make([]float32, 7) // far too small
	msg := panicMessage(t, "ConvBackward", func() {
		dy := New(1, s.OutC, 5, 5)
		dw := make([]float32, len(w))
		ConvBackward(x, dy, w, dw, nil, s, short)
	})
	if !strings.Contains(msg, "col scratch") {
		t.Fatalf("panic %q lacks diagnostic message", msg)
	}
}

// panicMessage runs fn, which must panic with a string, and returns it.
func panicMessage(t *testing.T, name string, fn func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s: expected a panic", name)
		}
		var ok bool
		if msg, ok = r.(string); !ok {
			t.Fatalf("%s: panic %v is not a diagnostic string", name, r)
		}
	}()
	fn()
	return ""
}

// TestConvBackward1x1FastPath verifies the pointwise backward shortcut
// (no im2col / col2im round-trip) against central differences.
func TestConvBackward1x1FastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	s := ConvSpec{InC: 3, OutC: 2, KH: 1, KW: 1, StrideH: 1, StrideW: 1}
	x := FromSlice(randSlice(rng, 1*3*4*4), 1, 3, 4, 4)
	w := randSlice(rng, s.OutC*s.InC)
	b := randSlice(rng, s.OutC)
	oh, ow := s.OutSize(4, 4)
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
	dx := ConvBackward(x, dy, w, dw, db, s, nil)

	const eps = 1e-2
	check := func(name string, buf, grad []float32, idxs []int) {
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
	check("dx", x.Data, dx.Data, []int{0, 13, 31, 47})
	check("dw", w, dw, []int{0, 3, 5})
	check("db", b, db, []int{0, 1})
}

// TestIm2colCol2imAdjointHardSpecs is the strengthened adjoint property:
// rectangular kernels, strides beyond 1, and asymmetric padding, over random
// image sizes. <Im2col(x), y> must equal <x, Col2im(y)> for every spec.
func TestIm2colCol2imAdjointHardSpecs(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 120; trial++ {
		c := 1 + rng.Intn(4)
		h := 4 + rng.Intn(9)
		w := 4 + rng.Intn(9)
		s := ConvSpec{
			InC: c, OutC: 1,
			KH: 1 + rng.Intn(4), KW: 1 + rng.Intn(4), // rectangular: KH and KW drawn independently
			StrideH: 1 + rng.Intn(3), StrideW: 1 + rng.Intn(3), // stride up to 3
			PadH: rng.Intn(3), PadW: rng.Intn(3), // asymmetric: PadH != PadW allowed
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
		if !almostEq(lhs, rhs, 1e-2*(1+lhs*lhs)) {
			t.Fatalf("trial %d spec %+v: <im2col(x),y>=%v <x,col2im(y)>=%v", trial, s, lhs, rhs)
		}
	}
}

// benchConvStage times one whole convolution stage — pack from the image,
// GEMM, bias+ReLU epilogue — on random data, so the clamp sees both signs.
func benchConvStage(b *testing.B, s ConvSpec, res int) {
	rng := rand.New(rand.NewSource(31))
	x := FromSlice(randSlice(rng, s.InC*res*res), 1, s.InC, res, res)
	w := randSlice(rng, s.OutC*s.InC*s.KH*s.KW)
	bias := randSlice(rng, s.OutC)
	oh, ow := s.OutSize(res, res)
	y := New(1, s.OutC, oh, ow)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ConvForwardInto(x, w, bias, s, y, 0, true)
	}
}

// The paper net's stem (7×7/2 over 224×224×4) and its last fire pair's 3×3
// expand (at 13×13), the two conv stages benchmarked on both engines.
var (
	stemSpec      = ConvSpec{InC: 4, OutC: 96, KH: 7, KW: 7, StrideH: 2, StrideW: 2, PadH: 3, PadW: 3}
	expand3x3Spec = ConvSpec{InC: 64, OutC: 256, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
)

// BenchmarkConvStem224 is the paper net's stem: 7×7/2 over 224×224×4.
func BenchmarkConvStem224(b *testing.B) { benchConvStage(b, stemSpec, 224) }

// BenchmarkConvStemPool224 is the paper net's whole first stage as inference
// runs it: the stem with packed weights, ReLU and the 3×3/2 pool fused into
// its epilogue — what BenchmarkConvStem224 plus BenchmarkMaxPool112x96 cost
// before the two were one pass.
func BenchmarkConvStemPool224(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	s, p := stemSpec, PoolSpec{K: 3, Stride: 2}
	x := FromSlice(randSlice(rng, s.InC*224*224), 1, s.InC, 224, 224)
	w := randSlice(rng, s.OutC*s.InC*s.KH*s.KW)
	st := ConvStage{Spec: s, W: w, Packed: PackWeights(w, s.OutC, s.InC*s.KH*s.KW), Bias: randSlice(rng, s.OutC), ReLU: true, Pool: p}
	oh, ow := s.OutSize(224, 224)
	oh, ow = p.OutSize(oh, ow)
	y := New(1, s.OutC, oh, ow)
	scratch := convScratch(&st, 224, 224)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.ForwardInto(x, y, 0, scratch)
	}
}

// BenchmarkConvExpand3x3_55 is the first fire pair's 3×3 expand at 55×55
// (16 squeeze planes in, 64 out).
func BenchmarkConvExpand3x3_55(b *testing.B) {
	benchConvStage(b, ConvSpec{InC: 16, OutC: 64, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 55)
}

// BenchmarkConvExpand3x3_27 is the second fire pair's 3×3 expand at 27×27
// (32 squeeze planes in, 128 out).
func BenchmarkConvExpand3x3_27(b *testing.B) {
	benchConvStage(b, ConvSpec{InC: 32, OutC: 128, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 27)
}

// BenchmarkConvExpand3x3_13 is the last fire pair's 3×3 expand at 13×13.
func BenchmarkConvExpand3x3_13(b *testing.B) { benchConvStage(b, expand3x3Spec, 13) }

// BenchmarkMaxPool112x96 is the paper net's first pool: 3×3/2 over the
// stem's 96 planes of 112×112.
func BenchmarkMaxPool112x96(b *testing.B) {
	rng := rand.New(rand.NewSource(32))
	x := FromSlice(randSlice(rng, 96*112*112), 1, 96, 112, 112)
	p := PoolSpec{K: 3, Stride: 2}
	oh, ow := p.OutSize(112, 112)
	y := New(1, 96, oh, ow)
	scratch := make([]float32, p.ScratchLen(112))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MaxPoolForwardInto(x, p, y, scratch)
	}
}
