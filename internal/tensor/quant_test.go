package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// DequantizeU8 and RequantizeU8 are the scalar definitions the tests hold
// the engine to; no binary calls them.

// DequantizeU8 maps quantized activations back to real values.
func DequantizeU8(dst []float32, src []uint8, q QuantParams) {
	if len(dst) < len(src) {
		panic("tensor: DequantizeU8 dst too small")
	}
	z := float32(q.Zero)
	for i, v := range src {
		dst[i] = q.Scale * (float32(v) - z)
	}
}

// RequantizeU8 converts one output-channel row of int32 accumulators into the
// next layer's u8 activation domain: q = clamp(round(acc·mult + beta), lo,
// QMaxU8). mult folds the weight, input, and output scales
// (sW·sA/sOut); beta folds the bias, the activation-zero-point compensation,
// and the output zero-point. relu raises the lower clamp to the output zero
// point, fusing the activation into the pass that already touches every
// element.
//
// acc·mult + beta is one fused multiply-add — a single rounding — wherever an
// element sits and whichever path computes it, so a byte does not depend on
// the replica's CPU. It is the portable definition, element by element
// (requantU8); the engine requantizes four channel rows at a time straight
// into quad words (requantQuads), whose vector body is VFMADD213PS.
func RequantizeU8(dst []uint8, acc []int32, mult, beta float32, zOut int32, relu bool) {
	if len(dst) < len(acc) {
		panic("tensor: RequantizeU8 dst too small")
	}
	lo := int32(0)
	if relu {
		lo = zOut
	}
	for i, a := range acc {
		dst[i] = requantU8(a, mult, beta, lo)
	}
}

// quantTier is one of the quantized engine's kernel tiers: the portable Go
// loops, the AVX2 kernel and row helpers, or AVX2 helpers with the VNNI
// kernel. quantTiers, currentQuantTier and useQuantTier are per-architecture
// (quant_amd64_test.go, quant_noasm_test.go).
type quantTier struct {
	gemmTierT      // the descriptor useQuantTier installs as qgemmTier
	asm, vnni bool // haveQuantASM under it (the byte and float helpers); a VNNI kernel
}

// qgemmRef is the naive int32 reference product for the quantized GEMM.
func qgemmRef(a []int8, b []uint8, m, k, n int) []int32 {
	c := make([]int32, m*n)
	for i := 0; i < m; i++ {
		crow := c[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av, brow := int32(a[i*k+p]), b[p*n:(p+1)*n]
			for j, bv := range brow {
				crow[j] += av * int32(bv)
			}
		}
	}
	return c
}

func randQOperands(rng *rand.Rand, m, k, n int) ([]int8, []uint8) {
	a := make([]int8, m*k)
	for i := range a {
		a[i] = int8(rng.Intn(255) - 127)
	}
	b := make([]uint8, k*n)
	for i := range b {
		b[i] = uint8(rng.Intn(QMaxU8 + 1))
	}
	return a, b
}

// TestQGemmMatchesReference exercises the blocked quantized GEMM (packing,
// edge tiles, partial quads, the assembly kernel when available) against the
// naive reference across awkward shapes. Negative weights distinguish the
// signed from the unsigned VPMADDUBSW operand, so an operand-order bug in the
// assembly cannot pass.
//
// The grid is every tile's edge classes: M around the 8-row and 4-row tiles
// and the paper net's 96 channels, N around the 16- and 32-column panels,
// 169 (a 13×13 fire) and 3025 (55×55), and K of one quad, the stem's 49,
// one kcQBlock of 128 quads, one quad past it, and a 3×3 expand's 144.
func TestQGemmMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := [][3]int{
		{1, 1, 1}, {3, 5, 7}, {4, 16, 16}, {6, 3, 33},
		{16, 96, 49}, {5, 7, 129}, {96, 196, 50}, {13, 200, 37},
		{64, 147, 121}, {2, 513, 18},
		// M past one mcQBlock, N past one ncQBlock.
		{133, 40, 20}, {5, 20, 4113},
	}
	for _, m := range []int{1, 7, 8, 9, 95, 96, 97} {
		for _, n := range []int{1, 15, 16, 17, 31, 32, 33, 169, 3025} {
			for _, quads := range []int{1, 49, 128, 129, 144} {
				if (testing.Short() || raceEnabled) && m*n*quads > 1<<20 {
					continue // the arithmetic is the same with or without -race
				}
				shapes = append(shapes, [3]int{m, 4 * quads, n})
			}
		}
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a, b := randQOperands(rng, m, k, n)
		want := qgemmRef(a, b, m, k, n)
		got := make([]int32, m*n)
		QGemm(a, b, got, m, k, n)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("QGemm %dx%dx%d: c[%d]=%d want %d", m, k, n, i, got[i], want[i])
			}
		}
	}
}

// TestQGemmQuantizedVsFloat quantizes a random float GEMM and checks the
// dequantized int8 product stays within the propagated quantization error
// bound of the float32 result.
func TestQGemmQuantizedVsFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m, k, n := 24, 96, 70
	w := make([]float32, m*k)
	for i := range w {
		w[i] = float32(rng.NormFloat64())
	}
	x := make([]float32, k*n)
	var minX, maxX float32
	for i := range x {
		x[i] = float32(rng.NormFloat64())
		if x[i] < minX {
			minX = x[i]
		}
		if x[i] > maxX {
			maxX = x[i]
		}
	}
	xq := ChooseQuantParams(minX, maxX)
	xu := make([]uint8, len(x))
	QuantizeU8(xu, x, xq)
	wq, ws, wsum := QuantizeWeightsPerChannel(w, m, k)

	want := make([]float32, m*n)
	Gemm(w, x, want, m, k, n)
	acc := make([]int32, m*n)
	QGemm(wq, xu, acc, m, k, n)

	// Per-element error bound: each of the k products carries at most
	// (sW/2)·|x| + (sX/2)·|w| + sW·sX/4 of rounding error; bound loosely
	// with max |x| ≈ 4σ, |w| ≈ 4σ.
	for oc := 0; oc < m; oc++ {
		mult := ws[oc] * xq.Scale
		bound := float64(k) * float64(ws[oc]*4+xq.Scale*4+ws[oc]*xq.Scale) / 2
		for j := 0; j < n; j++ {
			got := mult * float32(acc[oc*n+j]-xq.Zero*wsum[oc])
			diff := math.Abs(float64(got - want[oc*n+j]))
			if diff > bound {
				t.Fatalf("c[%d,%d]: int8 %v vs float %v (diff %v > bound %v)",
					oc, j, got, want[oc*n+j], diff, bound)
			}
		}
	}
}

// TestQuantizeRoundTrip is the requantize round-trip property test: for
// random ranges, quantize→dequantize must stay within half a quantization
// step of the clamped original, and the zero point must map exactly to 0.
func TestQuantizeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 50; trial++ {
		lo := float32(-rng.Float64() * 10)
		hi := float32(rng.Float64()*10 + 0.1)
		q := ChooseQuantParams(lo, hi)
		if q.Zero < 0 || q.Zero > QMaxU8 {
			t.Fatalf("zero point %d out of range", q.Zero)
		}
		// real 0 must be exactly representable
		zbuf := make([]uint8, 1)
		QuantizeU8(zbuf, []float32{0}, q)
		back := make([]float32, 1)
		DequantizeU8(back, zbuf, q)
		if back[0] != 0 {
			t.Fatalf("zero does not round-trip: %v (params %+v)", back[0], q)
		}
		vals := make([]float32, 256)
		for i := range vals {
			vals[i] = lo + (hi-lo)*float32(rng.Float64())
		}
		u := make([]uint8, len(vals))
		QuantizeU8(u, vals, q)
		rt := make([]float32, len(vals))
		DequantizeU8(rt, u, q)
		for i, v := range vals {
			clamped := v
			if min := -q.Scale * float32(q.Zero); clamped < min {
				clamped = min
			}
			if max := q.Scale * float32(QMaxU8-q.Zero); clamped > max {
				clamped = max
			}
			if diff := math.Abs(float64(rt[i] - clamped)); diff > float64(q.Scale)/2+1e-6 {
				t.Fatalf("round-trip v=%v got %v (diff %v > step/2 %v)", v, rt[i], diff, q.Scale/2)
			}
		}
	}
}

// TestQuantizeU8Saturates pins the out-of-range stance: values above the
// representable range — however far, +Inf included — quantize to QMaxU8,
// values below it to 0, NaN to the zero point. The conversion used to wrap:
// with Scale 1/127, 1e6 mapped to 127 but 1.7e7, 1e30 and +Inf to 0.
func TestQuantizeU8Saturates(t *testing.T) {
	inf := float32(math.Inf(1))
	for _, q := range []QuantParams{{Scale: 1.0 / 127, Zero: 0}, {Scale: 0.05, Zero: 31}, {Scale: 3, Zero: 127}} {
		src := []float32{1e6, 1.7e7, 1e30, math.MaxFloat32, inf, -1e6, -1.7e7, -1e30, -math.MaxFloat32, -inf, float32(math.NaN()), 0}
		want := []uint8{127, 127, 127, 127, 127, 0, 0, 0, 0, 0, uint8(q.Zero), uint8(q.Zero)}
		got := make([]uint8, len(src))
		QuantizeU8(got, src, q)
		for i := range src {
			if got[i] != want[i] {
				t.Errorf("%+v: QuantizeU8(%v) = %d, want %d", q, src[i], got[i], want[i])
			}
		}
	}
}

// TestRequantizeU8MatchesScalar holds the requantization to its contract —
// one fused multiply-add, round to nearest even, clamp — wherever an element
// sits and whichever path computes it: over 2²⁴ random draws (2²⁰ with
// -short) RequantizeU8 and the quad requantizer on every tier — its vector
// body over a whole row, and the same row in 31-column calls (ragged ends,
// the last step overlapping the one before it) — must all equal the scalar
// reference. The three tuples are draws on which the two-rounding
// acc·mult, then +beta that the tail and the portable loop used to compute
// lands one step away from the fused result.
func TestRequantizeU8MatchesScalar(t *testing.T) {
	defer useQuantTier(currentQuantTier())
	for _, c := range []struct {
		acc        int32
		mult, beta float32
		want       uint8
	}{
		{855013, 8.237385e-05, -12.930717, 57},
		{636537, 3.4848978e-05, -7.682663, 15},
		{646136, 5.1796946e-05, -4.9678707, 28},
	} {
		if got := requantRef(c.acc, c.mult, c.beta, 0); got != c.want {
			t.Fatalf("reference (%d, %v, %v) = %d, want %d", c.acc, c.mult, c.beta, got, c.want)
		}
		got := make([]uint8, 1)
		if RequantizeU8(got, []int32{c.acc}, c.mult, c.beta, 0, false); got[0] != c.want {
			t.Errorf("RequantizeU8 (%d, %v, %v) = %d, want %d", c.acc, c.mult, c.beta, got[0], c.want)
		}
		rq := Requant{Mult: []float32{c.mult}, Beta: []float32{c.beta}}
		for _, tier := range quantTiers() {
			useQuantTier(tier)
			for _, n := range []int{1, 8, 9} { // alone in a padded step, in a step, in the overlapping last step
				acc, got := make([]int32, n), make([]uint8, 4*n)
				acc[n-1] = c.acc
				requantQuads(got, acc, n, 1, n, rq, 0)
				if got[4*(n-1)] != c.want {
					t.Errorf("%s n=%d: (%d, %v, %v) = %d, want %d", tier.name, n, c.acc, c.mult, c.beta, got[4*(n-1)], c.want)
				}
			}
		}
	}

	rows, rowLen := 1<<12, 1<<12
	if testing.Short() {
		rows = 1 << 8
	}
	rng := rand.New(rand.NewSource(15))
	acc := make([]int32, rowLen)
	want, got, quads := make([]uint8, rowLen), make([]uint8, rowLen), make([]uint8, 4*rowLen)
	for r := 0; r < rows; r++ {
		for i := range acc {
			acc[i] = int32(rng.Intn(2_000_000) - 1_000_000)
		}
		mult := float32(rng.Float64() * 1e-4)
		beta := float32(rng.NormFloat64() * 10)
		zOut := int32(rng.Intn(QMaxU8))
		relu := r%2 == 0
		lo := int32(0)
		if relu {
			lo = zOut
		}
		for i, a := range acc {
			want[i] = requantRef(a, mult, beta, lo)
		}
		check := func(path string) {
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s, relu=%v: dst[%d]=%d want %d (acc=%d mult=%v beta=%v)", path, relu, i, got[i], want[i], acc[i], mult, beta)
				}
			}
		}
		clear(got)
		RequantizeU8(got, acc, mult, beta, zOut, relu)
		check("RequantizeU8")
		rq := Requant{Mult: []float32{mult}, Beta: []float32{beta}, ZOut: zOut, ReLU: relu}
		for _, tier := range quantTiers() {
			if tier.vnni {
				continue // same requantize routine as the AVX2 tier
			}
			useQuantTier(tier)
			clear(quads)
			requantQuads(quads, acc, rowLen, 1, rowLen, rq, 0)
			for i := range got {
				got[i] = quads[4*i]
			}
			check(tier.name + " whole row")
			clear(quads)
			for i := 0; i < rowLen; i += 31 {
				e := min(i+31, rowLen)
				requantQuads(quads[4*i:4*e], acc[i:e], e-i, 1, e-i, rq, 0)
			}
			for i := range got {
				got[i] = quads[4*i]
			}
			check(tier.name + " 31-column calls")
		}
	}
}

// TestQGemmConcurrentSharedPool hammers the quantized GEMM from several
// goroutines sharing the worker pool (run under -race), checking results
// stay correct under contention.
func TestQGemmConcurrentSharedPool(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	rng := rand.New(rand.NewSource(18))
	m, k, n := 32, 64, 200
	a, b := randQOperands(rng, m, k, n)
	want := qgemmRef(a, b, m, k, n)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := make([]int32, m*n)
			for iter := 0; iter < 10; iter++ {
				QGemm(a, b, c, m, k, n)
				for i := range want {
					if c[i] != want[i] {
						errs <- "concurrent QGemm mismatch"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// TestQuantizeWeightsPerChannel checks scales, row sums, and that dequantized
// weights stay within half a step per channel.
func TestQuantizeWeightsPerChannel(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	outC, k := 8, 30
	w := make([]float32, outC*k)
	for i := range w {
		w[i] = float32(rng.NormFloat64()) * float32(1+rng.Intn(5))
	}
	wq, ws, wsum := QuantizeWeightsPerChannel(w, outC, k)
	for oc := 0; oc < outC; oc++ {
		var sum int32
		for j := 0; j < k; j++ {
			q := wq[oc*k+j]
			sum += int32(q)
			diff := math.Abs(float64(float32(q)*ws[oc] - w[oc*k+j]))
			if diff > float64(ws[oc])/2+1e-6 {
				t.Fatalf("w[%d,%d]: dequant err %v > step/2", oc, j, diff)
			}
		}
		if sum != wsum[oc] {
			t.Fatalf("row sum[%d]=%d want %d", oc, wsum[oc], sum)
		}
	}
}

func BenchmarkQGemm96x196x12544(b *testing.B) {
	benchQGemm(b, 96, 196, 12544)
}

func BenchmarkQGemm64x144x3136(b *testing.B) {
	benchQGemm(b, 64, 144, 3136)
}

func BenchmarkQGemm256x64x784(b *testing.B) {
	benchQGemm(b, 256, 64, 784)
}

func benchQGemm(b *testing.B, m, k, n int) {
	rng := rand.New(rand.NewSource(20))
	wq, x := randQOperands(rng, m, k, n)
	c := make([]int32, m*n)
	b.SetBytes(int64(2 * m * k * n)) // MACs ≈ bytes/2 for ops/s readout
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		QGemm(wq, x, c, m, k, n)
	}
}

// BenchmarkRequantQuads is the requantizing epilogue of a 64-channel
// convolution over 55×55 planes (a fire's expand in the paper net): 64
// accumulator rows of 3025 into 16 quad planes, four rows a call.
func BenchmarkRequantQuads(b *testing.B) {
	const m, n = 64, 3025
	acc := make([]int32, m*n)
	for i := range acc {
		acc[i] = int32(i%100000 - 50000)
	}
	rq := Requant{Mult: make([]float32, m), Beta: make([]float32, m), ZOut: 5, ReLU: true}
	for i := range rq.Mult {
		rq.Mult[i], rq.Beta[i] = 1e-4, 3
	}
	dst := make([]uint8, m*n)
	e := qgemmEpilogue{rq: rq, dst: dst, ld: n}
	b.SetBytes(int64(len(acc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.apply(acc, m, n, 0)
	}
}
