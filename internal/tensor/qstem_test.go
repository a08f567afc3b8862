package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// qstemRef is the stem by the scalar oracle: the pixels through lut into
// [InC, h, w] byte planes, the convolution with the weights in their
// (c, ky, kx) order (qconvRef), the pool by window scan (maxPoolRef) when
// the stage pools, and the result laid out as quad planes, spare lanes at
// the output zero point.
func qstemRef(st *QStem, wq []int8, pix []uint8, n, h, w int, lut *[256]uint8) []uint8 {
	s := st.Spec
	if lut == nil {
		lut = &identityU8
	}
	planes := make([]uint8, n*s.InC*h*w)
	for i := 0; i < n; i++ {
		for c := 0; c < s.InC; c++ {
			for j := 0; j < h*w; j++ {
				planes[(i*s.InC+c)*h*w+j] = lut[pix[(i*h*w+j)*4+c]]
			}
		}
	}
	y := qconvRef(&QConv{Spec: s, RQ: st.RQ, ZP: st.ZP}, wq, planes, n, h, w)
	oh, ow := s.OutSize(h, w)
	if st.Pool.K > 0 {
		y = maxPoolRef(y, n*s.OutC, oh, ow, st.Pool)
		oh, ow = st.Pool.OutSize(oh, ow)
	}
	return quadsOf(y, n, s.OutC, oh*ow, func() uint8 { return uint8(st.RQ.ZOut) })
}

// TestQStemMatchesPlanarConvPool is the INT8 stem's differential test:
// QStem.ForwardInto — tap-major quads copied from padded pixel rows, pool1
// fused into the epilogue, quad planes out — must equal, byte for byte, the
// convolution and the separate pool by the scalar oracle (qstemRef), under
// every quantized kernel tier the CPU offers. Cases: the paper stem at 224 and the
// SmallConfig 16/32/64 stems; an InC-3 stem (the nn tests' net) and one with
// no pool after it; odd sizes whose output rows are no multiple of a panel
// and whose pool windows straddle blocks — the small cases run again with
// one-row blocks, so every window does. Batch 1 and 3, input zero points 0,
// 17 and 127, bytes through a random input table or already quantized. One
// arena serves every call, so each reads buffers another call left dirty.
func TestQStemMatchesPlanarConvPool(t *testing.T) {
	defer useQuantTier(currentQuantTier())
	defer func(cols int) { qstemBlockCols = cols }(qstemBlockCols)
	small := ConvSpec{InC: 4, OutC: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	cases := []struct {
		name string
		s    ConvSpec
		pool PoolSpec
		h, w int
	}{
		{"paper 224", stemSpec, PoolSpec{K: 3, Stride: 2}, 224, 224},
		{"small 16", small, PoolSpec{K: 2, Stride: 2}, 16, 16},
		{"small 32", small, PoolSpec{K: 2, Stride: 2}, 32, 32},
		{"small 64", small, PoolSpec{K: 2, Stride: 2}, 64, 64},
		{"InC 3", ConvSpec{InC: 3, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, PoolSpec{K: 2, Stride: 2}, 12, 12},
		{"no pool", ConvSpec{InC: 3, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, PoolSpec{}, 8, 8},
		{"paper shape 37×53", ConvSpec{InC: 4, OutC: 10, KH: 7, KW: 7, StrideH: 2, StrideW: 2, PadH: 3, PadW: 3}, PoolSpec{K: 3, Stride: 2}, 37, 53},
		{"stride 1 37×53", ConvSpec{InC: 4, OutC: 6, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, PoolSpec{K: 3, Stride: 2}, 37, 53},
		{"stride 3 InC 2, no pool", ConvSpec{InC: 2, OutC: 11, KH: 5, KW: 5, StrideH: 3, StrideW: 3, PadH: 2, PadW: 2}, PoolSpec{}, 29, 31},
		{"InC 1 rectangular", ConvSpec{InC: 1, OutC: 5, KH: 3, KW: 4, StrideH: 1, StrideW: 2, PadH: 1, PadW: 1}, PoolSpec{K: 2, Stride: 1}, 21, 40},
		{"stride 3 over one column", ConvSpec{InC: 4, OutC: 3, KH: 3, KW: 3, StrideH: 3, StrideW: 3, PadH: 1, PadW: 1}, PoolSpec{}, 5, 1},
	}
	const sentinel = 0xEE
	refs := map[[2]int][]uint8{} // every tier draws the same cases: one oracle run each
	for _, tier := range quantTiers() {
		useQuantTier(tier)
		rng := rand.New(rand.NewSource(47))
		for ci, cc := range cases {
			s, h, w := cc.s, cc.h, cc.w
			k := s.InC * s.KH * s.KW
			wq, _ := randQOperands(rng, s.OutC, k, 0)
			st := QStem{Spec: s, W: PackQQuadWeights(wq, s), Pool: cc.pool,
				RQ: Requant{Mult: make([]float32, s.OutC), Beta: make([]float32, s.OutC), ZOut: int32(rng.Intn(QMaxU8)), ReLU: ci%2 == 0}}
			for oc := range st.RQ.Mult {
				st.RQ.Mult[oc] = float32((0.5 + rng.Float64()) / (80 * math.Sqrt(float64(k))))
				st.RQ.Beta[oc] = float32(60 + 20*rng.NormFloat64())
			}
			blocks := []int{qstemBlockCols, 1}
			if h*w > 64*64 {
				blocks = blocks[:1]
			}
			for bi, n := range []int{1, 3} {
				st.ZP = []uint8{0, 17, 127}[(ci+bi)%3]
				var lut *[256]uint8
				top := QMaxU8 + 1 // bytes already quantized
				if (ci+bi)%2 == 0 {
					lut, top = new([256]uint8), 256
					for i := range lut {
						lut[i] = uint8(rng.Intn(QMaxU8 + 1))
					}
				}
				pix := make([]uint8, n*h*w*4)
				for i := range pix {
					pix[i] = uint8(rng.Intn(top))
				}
				want, ok := refs[[2]int{ci, bi}]
				if !ok {
					want = qstemRef(&st, wq, pix, n, h, w, lut)
					refs[[2]int{ci, bi}] = want
				}
				for _, cols := range blocks {
					qstemBlockCols = cols
					name := fmt.Sprintf("%s %s batch %d zp %d lut %v block cols %d", tier.name, cc.name, n, st.ZP, lut != nil, cols)
					y := make([]uint8, len(want)+1)
					for i := range y {
						y[i] = sentinel
					}
					u8, i32 := qstemScratch(&st, h, w)
					poison(u8, i32)
					st.ForwardInto(pix, n, h, w, lut, y, u8, i32)
					for i, v := range want {
						if y[i] != v {
							t.Fatalf("%s: y[%d] = %d, want %d", name, i, y[i], v)
						}
					}
					if y[len(want)] != sentinel {
						t.Fatalf("%s: wrote past its output", name)
					}
				}
				qstemBlockCols = blocks[0]
			}
		}
	}
}

// TestQuantizePixelsU8 pins the float entry's layout: QuantizePixelsU8 is
// QuantizeU8 plane by plane, interleaved four bytes a pixel, with the zero
// point in the channels a net with fewer than four does not have.
func TestQuantizePixelsU8(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	const n, hw = 2, 37
	q := QuantParams{Scale: 1.0 / 127, Zero: 17}
	for c := 1; c <= 4; c++ {
		src := make([]float32, n*c*hw)
		for i := range src {
			src[i] = float32(rng.NormFloat64())
		}
		planes := make([]uint8, len(src))
		QuantizeU8(planes, src, q)
		got := make([]uint8, n*hw*4)
		QuantizePixelsU8(got, src, n, c, hw, q)
		for i := 0; i < n; i++ {
			for j := 0; j < hw; j++ {
				for ch := 0; ch < 4; ch++ {
					want := uint8(q.Zero)
					if ch < c {
						want = planes[(i*c+ch)*hw+j]
					}
					if g := got[(i*hw+j)*4+ch]; g != want {
						t.Fatalf("c=%d: image %d pixel %d channel %d = %d, want %d", c, i, j, ch, g, want)
					}
				}
			}
		}
	}
}

// benchQStem times the INT8 stem as the network runs it on a frame: RGBA
// bytes in through a random input table, the paper stem's convolution and
// requantization, and — when pool is set — pool1 fused behind it.
func benchQStem(b *testing.B, pool PoolSpec) {
	rng := rand.New(rand.NewSource(33))
	s := stemSpec
	k := s.InC * s.KH * s.KW
	wq, _ := randQOperands(rng, s.OutC, k, 0)
	st := QStem{Spec: s, W: PackQQuadWeights(wq, s), ZP: 17, Pool: pool,
		RQ: Requant{Mult: make([]float32, s.OutC), Beta: make([]float32, s.OutC), ZOut: 3, ReLU: true}}
	for oc := range st.RQ.Mult {
		st.RQ.Mult[oc], st.RQ.Beta[oc] = float32(1/(80*math.Sqrt(float64(k)))), 40
	}
	var lut [256]uint8
	for i := range lut {
		lut[i] = uint8(i / 2)
	}
	pix := make([]uint8, 224*224*4)
	for i := range pix {
		pix[i] = uint8(rng.Intn(256))
	}
	oh, ow := st.OutSize(224, 224)
	y := make([]uint8, quadPlanes(s.OutC)*4*oh*ow)
	u8, i32 := qstemScratch(&st, 224, 224)
	st.ForwardInto(pix, 1, 224, 224, &lut, y, u8, i32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.ForwardInto(pix, 1, 224, 224, &lut, y, u8, i32)
	}
}

// BenchmarkConvStemU8_224 is BenchmarkConvStem224 on the INT8 engine, from
// RGBA bytes: the stem's convolution and requantization, unpooled.
func BenchmarkConvStemU8_224(b *testing.B) { benchQStem(b, PoolSpec{}) }

// BenchmarkConvStemPoolU8_224 is BenchmarkConvStemPool224 on the INT8
// engine: RGBA bytes in, the stem with pool1 fused into its epilogue, the
// pooled bytes out — the whole first stage as inference runs it.
func BenchmarkConvStemPoolU8_224(b *testing.B) { benchQStem(b, PoolSpec{K: 3, Stride: 2}) }
