package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// oracleElem is an element type the oracle reads: an FP32 value, one
// channel's byte of a planar INT8 image, or a quad word.
type oracleElem interface{ float32 | uint8 | uint32 }

// at is the differential tests' oracle: element (iy, ix) of an h×w plane by
// plain index arithmetic, or pad when the position lies outside it. Both the
// convolution's column matrix and the pooling window are defined through it,
// on any element type, so no reference shares a loop with the code under
// test.
func at[T oracleElem](plane []T, h, w, iy, ix int, pad T) T {
	if iy < 0 || iy >= h || ix < 0 || ix >= w {
		return pad
	}
	return plane[iy*w+ix]
}

// oracleCol builds the [C*KH*KW, oh*ow] column matrix of one image element by
// element: row p is tap (ch, ky, kx), column j is output position (oy, ox),
// and positions outside the image read pad.
func oracleCol[T oracleElem](img []T, c, h, w int, s ConvSpec, pad T) []T {
	oh, ow := s.OutSize(h, w)
	k, n := c*s.KH*s.KW, oh*ow
	col := make([]T, k*n)
	for p := 0; p < k; p++ {
		ch, ky, kx := p/(s.KH*s.KW), p/s.KW%s.KH, p%s.KW
		for j := 0; j < n; j++ {
			oy, ox := j/ow, j%ow
			col[p*n+j] = at(img[ch*h*w:(ch+1)*h*w], h, w, oy*s.StrideH-s.PadH+ky, ox*s.StrideW-s.PadW+kx, pad)
		}
	}
	return col
}

// convCase is one drawn convolution: the spec, the input plane size, and how
// the output is placed and finished.
type convCase struct {
	s     ConvSpec
	h, w  int
	chOff int
	relu  bool
	bias  bool
}

// convCases returns the structural cases the blocked drivers of both engines
// can hit — every n%nr remainder and every k%4 one, output rows narrower
// and wider than a panel, K past one kcBlock / kcQBlock, M past one mcBlock
// / mcQBlock, N past one ncBlock / ncQBlock, the strided padded stem —
// followed by random draws over stride 1–3, pad 0–3 and rectangular
// kernels, most of which are small enough for the unblocked path.
func convCases(rng *rand.Rand) []convCase {
	var cases []convCase
	// One output row of every width 33..65: n%16 and n%32 take every value,
	// ow > nr, and k = 15, 18, 21, 24 ends on every partial quad.
	for w := 33; w <= 65; w++ {
		cases = append(cases, convCase{
			s: ConvSpec{InC: 5 + w%4, OutC: 20, KH: 1, KW: 3, StrideH: 1, StrideW: 1, PadW: 1},
			h: 1, w: w, relu: w%2 == 0, bias: w%3 != 0, chOff: w % 3,
		})
	}
	cases = append(cases,
		// ow = 13 < nr, k = 288 spans two kcBlocks.
		convCase{s: ConvSpec{InC: 32, OutC: 20, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, h: 13, w: 13, relu: true, bias: true, chOff: 2},
		// n = 48×48 = 2304 spans two ncBlocks.
		convCase{s: ConvSpec{InC: 3, OutC: 9, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, h: 48, w: 48, relu: true, bias: true},
		// The stem's shape: 7×7/2, pad 3, on a non-square odd plane.
		convCase{s: ConvSpec{InC: 4, OutC: 10, KH: 7, KW: 7, StrideH: 2, StrideW: 2, PadH: 3, PadW: 3}, h: 37, w: 41, bias: true, chOff: 1},
		// Padding wider than the plane: some taps see no input column at all.
		convCase{s: ConvSpec{InC: 2, OutC: 40, KH: 3, KW: 7, StrideH: 1, StrideW: 2, PadH: 1, PadW: 3}, h: 30, w: 2, relu: true},
		// ow = 16, one quantized panel exactly; k = 522 spans two kcQBlocks
		// and ends on a ragged quad.
		convCase{s: ConvSpec{InC: 58, OutC: 7, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, h: 9, w: 16, relu: true, bias: true, chOff: 1},
		// n = 66×66 = 4356 spans two ncQBlocks, k = 27 ends on three taps.
		convCase{s: ConvSpec{InC: 3, OutC: 5, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, h: 66, w: 66, bias: true},
		// A column stride with the row stride 1: rows of 20 from 40 inputs.
		convCase{s: ConvSpec{InC: 5, OutC: 12, KH: 3, KW: 4, StrideH: 1, StrideW: 2, PadH: 1, PadW: 1}, h: 21, w: 40, relu: true, chOff: 3},
		// Phase-plane views (see phaseCases): the stem's shape on an even
		// plane, stride 3 on a width with a short last phase, a row stride
		// alone — and a stride 2 whose output rows are one short of a phase
		// plane's, which must stay on the per-row gathers.
		convCase{s: ConvSpec{InC: 3, OutC: 16, KH: 7, KW: 7, StrideH: 2, StrideW: 2, PadH: 3, PadW: 3}, h: 38, w: 40, relu: true, bias: true},
		convCase{s: ConvSpec{InC: 2, OutC: 11, KH: 5, KW: 5, StrideH: 3, StrideW: 3, PadH: 2, PadW: 2}, h: 29, w: 31, bias: true, chOff: 2},
		convCase{s: ConvSpec{InC: 4, OutC: 9, KH: 3, KW: 3, StrideH: 2, StrideW: 1, PadH: 1, PadW: 1}, h: 33, w: 36, relu: true},
		convCase{s: ConvSpec{InC: 4, OutC: 9, KH: 3, KW: 3, StrideH: 2, StrideW: 2}, h: 40, w: 40, relu: true, bias: true},
		// OutC = 136 spans two mcBlocks and two mcQBlocks, so both engines'
		// products and epilogues cross an M block.
		convCase{s: ConvSpec{InC: 6, OutC: 136, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, h: 7, w: 9, relu: true, bias: true, chOff: 1},
	)
	for len(cases) < 168 {
		cc := convCase{
			s: ConvSpec{
				InC: 1 + rng.Intn(4), OutC: 1 + rng.Intn(20),
				KH: 1 + rng.Intn(5), KW: 1 + rng.Intn(5),
				StrideH: 1 + rng.Intn(3), StrideW: 1 + rng.Intn(3),
				PadH: rng.Intn(4), PadW: rng.Intn(4),
			},
			h: 1 + rng.Intn(40), w: 1 + rng.Intn(40),
			chOff: rng.Intn(4), relu: rng.Intn(2) == 0, bias: rng.Intn(3) != 0,
		}
		if oh, ow := cc.s.OutSize(cc.h, cc.w); oh == 0 || ow == 0 {
			continue
		}
		cases = append(cases, cc)
	}
	return cases
}

// fp32Tiers lists the FP32 kernel tiers this CPU can run, the active one
// first: an AVX-512 part also runs the 6×16 tile. Tests install one with
// gemmTier = tier and restore the active tier when done.
func fp32Tiers() []gemmTierT {
	tiers := []gemmTierT{gemmTier}
	if gemmTier.kind == tierKind8x32 {
		tiers = append(tiers, avx2Tier)
	}
	return tiers
}

// avx2Tier is the 6×16 FP32 tier as an AVX-512 part runs it too.
var avx2Tier = gemmTierT{name: "avx2-6x16", kind: tierKind6x16, mr: mrTile, nr: nrTile, mc: mcBlock, kc: kcBlock, nc: ncBlock}

// TestConvDirectPackMatchesIm2colGemm is the forward convolution's
// differential test: ConvForwardInto, which packs GEMM panels straight from
// the image and finishes each column block with the fused epilogue, must
// equal — bit for bit — the column matrix built by the oracle (which Im2col
// must equal too), multiplied by Gemm in the convolution's k order (the last
// input channel's taps first: lastPlaneFirst), then biased and clamped by a
// scalar loop. It runs under every FP32 kernel tier the CPU offers, with
// batch 3.
func TestConvDirectPackMatchesIm2colGemm(t *testing.T) {
	active := gemmTier
	defer func() { gemmTier = active }()
	tiers := fp32Tiers()
	const batch = 3
	sentinel := float32(math.Inf(1))
	for _, tier := range tiers {
		gemmTier = tier
		rng := rand.New(rand.NewSource(41))
		for ci, cc := range convCases(rng) {
			s, h, w := cc.s, cc.h, cc.w
			name := fmt.Sprintf("%s case %d %+v", tier.name, ci, cc)
			oh, ow := s.OutSize(h, w)
			k, n := s.InC*s.KH*s.KW, oh*ow
			x := FromSlice(randSlice(rng, batch*s.InC*h*w), batch, s.InC, h, w)
			wt := randSlice(rng, s.OutC*k)
			var bias []float32
			if cc.bias {
				bias = randSlice(rng, s.OutC)
			}
			dstC := cc.chOff + s.OutC + 1
			y := New(batch, dstC, oh, ow)
			y.Fill(sentinel)
			ConvForwardInto(x, wt, bias, s, y, cc.chOff, cc.relu)

			// Weights packed once must give what packing per call gives —
			// also when they were packed for another tier's tile height and
			// the driver has to set them aside.
			for _, packTier := range tiers {
				gemmTier = packTier
				st := ConvStage{Spec: s, W: wt, Packed: PackConvWeights(wt, s), Bias: bias, ReLU: cc.relu}
				gemmTier = tier
				yp := New(batch, dstC, oh, ow)
				yp.Fill(sentinel)
				st.ForwardInto(x, yp, cc.chOff, convScratch(&st, h, w))
				for e := range y.Data {
					if math.Float32bits(yp.Data[e]) != math.Float32bits(y.Data[e]) {
						t.Fatalf("%s: packed under %s: y[%d]=%v, packed per call %v", name, packTier.name, e, yp.Data[e], y.Data[e])
					}
				}
			}

			im2col := make([]float32, k*n)
			want := make([]float32, s.OutC*n)
			for i := 0; i < batch; i++ {
				img := x.Data[i*s.InC*h*w : (i+1)*s.InC*h*w]
				col := oracleCol(img, s.InC, h, w, s, 0)
				Im2col(img, s.InC, h, w, s, im2col)
				for e := range col {
					if math.Float32bits(col[e]) != math.Float32bits(im2col[e]) {
						t.Fatalf("%s: Im2col[%d,%d]=%v, oracle %v", name, e/n, e%n, im2col[e], col[e])
					}
				}
				Gemm(lastPlaneFirst(wt, s.OutC, k, s.KH*s.KW, 1), lastPlaneFirst(col, 1, k, s.KH*s.KW, n), want, s.OutC, k, n)
				for ch := 0; ch < dstC; ch++ {
					got := y.Data[(i*dstC+ch)*n : (i*dstC+ch+1)*n]
					oc := ch - cc.chOff
					for j, g := range got {
						wv := sentinel // channels outside [chOff, chOff+OutC) stay untouched
						if oc >= 0 && oc < s.OutC {
							wv = want[oc*n+j]
							if bias != nil {
								wv += bias[oc]
							}
							if cc.relu && wv < 0 {
								wv = 0
							}
						}
						if math.Float32bits(g) != math.Float32bits(wv) {
							t.Fatalf("%s: y[%d,%d,%d]=%v (%#x), want %v (%#x)",
								name, i, ch, j, g, math.Float32bits(g), wv, math.Float32bits(wv))
						}
					}
				}
			}
		}
	}
}

// lastPlaneFirst returns a copy of the m rows of x, each k groups of g
// elements — a convolution's weights (g = 1) or column matrix (m = 1, g =
// its width) — with the last channel's taps, the last khw groups, moved to
// the front: the k order the forward convolution runs.
func lastPlaneFirst[T oracleElem](x []T, m, k, khw, g int) []T {
	out := make([]T, 0, m*k*g)
	for i := 0; i < m; i++ {
		row := x[i*k*g : (i+1)*k*g]
		out = append(append(out, row[(k-khw)*g:]...), row[:(k-khw)*g]...)
	}
	return out
}

// TestMaxPoolMatchesWindowScan is the max pool's differential test:
// MaxPoolForwardInto — the separable vector path when unpadded, the scalar
// loop when padded — must equal a K×K window scan through the oracle with
// -Inf padding. Planes are random, all-negative and all -Inf; widths cover
// every w%16 class. Values are compared with ==: the inputs hold no NaN and
// no -0, the two corners MaxPoolForwardInto's comment leaves unpinned.
func TestMaxPoolMatchesWindowScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	negInf := float32(math.Inf(-1))
	for _, k := range []int{2, 3} {
		for stride := 1; stride <= 3; stride++ {
			for _, pad := range []int{0, 1} {
				for w := 3; w <= 35; w++ {
					p := PoolSpec{K: k, Stride: stride, Pad: pad}
					h := 3 + rng.Intn(7)
					oh, ow := p.OutSize(h, w)
					x := FromSlice(randSlice(rng, 2*3*h*w), 2, 3, h, w)
					for i, v := range x.Data[h*w : 2*h*w] { // plane 1: all negative
						x.Data[h*w+i] = -float32(math.Abs(float64(v))) - 1
					}
					for i := range x.Data[2*h*w : 3*h*w] { // plane 2: all -Inf
						x.Data[2*h*w+i] = negInf
					}
					y := New(2, 3, oh, ow)
					MaxPoolForwardInto(x, p, y, make([]float32, p.ScratchLen(w)))
					for pl := 0; pl < 6; pl++ {
						plane := x.Data[pl*h*w : (pl+1)*h*w]
						for oy := 0; oy < oh; oy++ {
							for ox := 0; ox < ow; ox++ {
								want := negInf
								for ky := 0; ky < k; ky++ {
									for kx := 0; kx < k; kx++ {
										if v := at(plane, h, w, oy*stride-pad+ky, ox*stride-pad+kx, negInf); v > want {
											want = v
										}
									}
								}
								if got := y.Data[(pl*oh+oy)*ow+ox]; got != want {
									t.Fatalf("%+v on %dx%d plane %d: y[%d,%d]=%v want %v", p, h, w, pl, oy, ox, got, want)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestVectorHelpersMatchScalar pins the FP32 row helpers to their scalar
// definitions bit for bit — NaN, -0 and ±Inf included — at every length from
// below one vector to past several, so the vector bodies, their ragged ends
// and the portable loops cannot drift apart.
func TestVectorHelpersMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	special := []float32{float32(math.NaN()), float32(math.Copysign(0, -1)), 0, float32(math.Inf(1)), float32(math.Inf(-1))}
	draw := func(n int) []float32 {
		s := randSlice(rng, n)
		for i := range s {
			if rng.Intn(4) == 0 {
				s[i] = special[rng.Intn(len(special))]
			}
		}
		return s
	}
	same := func(name string, n int, got, want []float32) {
		t.Helper()
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s n=%d: [%d]=%v (%#x), want %v (%#x)", name, n, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			}
		}
	}
	for n := 1; n <= 41; n++ {
		for _, bias := range []float32{0.75, float32(math.Copysign(0, -1))} {
			row := draw(n)
			want := make([]float32, n)
			for i, v := range row {
				if v += bias; v < 0 {
					v = 0
				}
				want[i] = v
			}
			biasReLU(row, bias)
			same("biasReLU", n, row, want)
		}
		for k := 1; k <= 3; k++ {
			for _, stride := range []int{1, n + 3} {
				src := draw(n + (k-1)*stride)
				want := make([]float32, n)
				for i := range want {
					m := src[i]
					for tap := 1; tap < k; tap++ {
						if v := src[i+tap*stride]; v > m {
							m = v
						}
					}
					want[i] = m
				}
				got := make([]float32, n)
				maxInto(got, src, k, stride)
				same(fmt.Sprintf("maxInto k=%d stride=%d", k, stride), n, got, want)

				// The int32 body, over accumulators of either sign and at
				// both ends of the range.
				isrc := make([]int32, len(src))
				for i := range isrc {
					isrc[i] = []int32{math.MinInt32, math.MaxInt32, -1, 0, rng.Int31() - 1<<30}[rng.Intn(5)]
				}
				iwant := make([]int32, n)
				for i := range iwant {
					iwant[i] = isrc[i]
					for tap := 1; tap < k; tap++ {
						iwant[i] = max(iwant[i], isrc[i+tap*stride])
					}
				}
				igot := make([]int32, n)
				maxInto(igot, isrc, k, stride)
				for i := range iwant {
					if igot[i] != iwant[i] {
						t.Fatalf("maxInto int32 k=%d stride=%d n=%d: [%d]=%d, want %d", k, stride, n, i, igot[i], iwant[i])
					}
				}
			}
		}
		for stride := 1; stride <= 3; stride++ {
			src := draw((n-1)*stride + 1) // ends on the last element read
			want := make([]float32, n)
			for i := range want {
				want[i] = src[i*stride]
			}
			got := make([]float32, n)
			gatherWords(got, src, stride)
			same(fmt.Sprintf("gatherWords stride=%d", stride), n, got, want)
		}
	}
}

// TestQConvDirectPackMatchesOracle is the quantized forward convolution's
// differential test: QConv over quad planes — panels packed from the planes
// as words, requantized per cache-hot column block into quad planes
// (ForwardInto), or left as raw accumulators (AccInto) — must equal, byte
// for byte, the oracle's column matrix of the planar image with zero-point
// padding, multiplied by the naive reference product (qgemmRef) and
// requantized one element at a time by the fused scalar formula
// (requantRef). The input's spare lanes hold random bytes, which the zero
// weights PackQQuadWeights pads with must cancel. It runs over the FP32
// test's cases (ragged widths, pads 0–3, strides 1–3, K and N past a block)
// and pointwise ones, under every quantized kernel tier the CPU offers, with
// batch 3, the output at plane offset chOff of one plane more than it needs
// and the zero point cycling through 0, 17 and 127.
func TestQConvDirectPackMatchesOracle(t *testing.T) {
	defer useQuantTier(currentQuantTier())
	const batch = 3
	const sentinel = 0xEE
	for _, tier := range quantTiers() {
		useQuantTier(tier)
		rng := rand.New(rand.NewSource(44))
		cases := append(convCases(rng),
			convCase{s: ConvSpec{InC: 20, OutC: 10, KH: 1, KW: 1, StrideH: 1, StrideW: 1}, h: 11, w: 13, relu: true, chOff: 1},
			convCase{s: ConvSpec{InC: 128, OutC: 32, KH: 1, KW: 1, StrideH: 1, StrideW: 1}, h: 13, w: 13, chOff: 2},
			convCase{s: ConvSpec{InC: 7, OutC: 5, KH: 1, KW: 1, StrideH: 1, StrideW: 1}, h: 3, w: 3, relu: true},
			convCase{s: ConvSpec{InC: 6, OutC: 9, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, h: 1, w: 1, relu: true},
		)
		for ci, cc := range cases {
			s, h, w := cc.s, cc.h, cc.w
			zp := []uint8{0, 17, 127}[ci%3]
			name := fmt.Sprintf("%s case %d %+v zp %d", tier.name, ci, cc, zp)
			oh, ow := s.OutSize(h, w)
			k, n, il := s.InC*s.KH*s.KW, oh*ow, s.InC*h*w
			wq, x := randQOperands(rng, s.OutC, k, batch*il/k+1)
			x = x[:batch*il]
			q := quadsOf(x, batch, s.InC, h*w, func() uint8 { return uint8(rng.Intn(256)) })
			e := QConv{Spec: s, W: PackQQuadWeights(wq, s), ZP: zp, RQ: Requant{Mult: make([]float32, s.OutC), Beta: make([]float32, s.OutC), ZOut: int32(rng.Intn(QMaxU8)), ReLU: cc.relu}}
			for oc := range e.RQ.Mult {
				e.RQ.Mult[oc] = float32((0.5 + rng.Float64()) / (80 * math.Sqrt(float64(k))))
				e.RQ.Beta[oc] = float32(60 + 20*rng.NormFloat64())
			}
			planes := quadPlanes(s.OutC)
			dstPlanes := cc.chOff + planes + 1
			y := make([]uint8, batch*dstPlanes*4*n)
			for i := range y {
				y[i] = sentinel
			}
			u8, i32 := e.ScratchLen(h, w)
			e.ForwardInto(q, batch, h, w, y, dstPlanes, cc.chOff, make([]uint8, u8), make([]int32, i32))

			acc := make([]int32, s.OutC*n)
			ql := quadPlanes(s.InC) * 4 * h * w
			for i := 0; i < batch; i++ {
				want := qgemmRef(wq, oracleCol(x[i*il:(i+1)*il], s.InC, h, w, s, zp), s.OutC, k, n)
				e.AccInto(q[i*ql:(i+1)*ql], h, w, acc, make([]uint8, u8))
				for j := range want {
					if acc[j] != want[j] {
						t.Fatalf("%s: AccInto[%d,%d,%d]=%d, want %d", name, i, j/n, j%n, acc[j], want[j])
					}
				}
				wantQ := quadsOf(requantPlanes(want, s.OutC, n, e.RQ), 1, s.OutC, n, func() uint8 { return uint8(e.RQ.ZOut) })
				got := y[i*dstPlanes*4*n : (i+1)*dstPlanes*4*n]
				for j, g := range got {
					wv := uint8(sentinel) // planes outside [chOff, chOff+planes) stay untouched
					if g0 := cc.chOff * 4 * n; j >= g0 && j < g0+planes*4*n {
						wv = wantQ[j-g0]
					}
					if g != wv {
						t.Fatalf("%s: image %d plane %d pixel %d lane %d = %d, want %d", name, i, j/(4*n), j/4%n, j%4, g, wv)
					}
				}
			}
		}
	}
}

// quadsOf lays out the n planar images of c planes of hw bytes in x as quad
// planes: plane g of image i holds channels 4g…4g+3 of each pixel in its
// four bytes, the lanes past c from pad.
func quadsOf(x []uint8, n, c, hw int, pad func() uint8) []uint8 {
	planes := quadPlanes(c)
	q := make([]uint8, n*planes*4*hw)
	for i := 0; i < n; i++ {
		for ch := 0; ch < planes*4; ch++ {
			for j := 0; j < hw; j++ {
				v := uint8(0)
				if ch < c {
					v = x[(i*c+ch)*hw+j]
				} else {
					v = pad()
				}
				q[((i*planes+ch/4)*hw+j)*4+ch%4] = v
			}
		}
	}
	return q
}

// requantPlanes requantizes an m×n accumulator matrix one element at a time
// (requantRef) into m planes of n bytes.
func requantPlanes(acc []int32, m, n int, rq Requant) []uint8 {
	lo := int32(0)
	if rq.ReLU {
		lo = rq.ZOut
	}
	y := make([]uint8, m*n)
	for j := range y {
		y[j] = requantRef(acc[j], rq.Mult[j/n], rq.Beta[j/n], lo)
	}
	return y
}

// maxPoolRef max-pools c planes of h×w bytes by scanning each K×K window
// through the oracle (unpadded pools only).
func maxPoolRef(x []uint8, c, h, w int, p PoolSpec) []uint8 {
	oh, ow := p.OutSize(h, w)
	y := make([]uint8, c*oh*ow)
	for pl := 0; pl < c; pl++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var m uint8
				for ky := 0; ky < p.K; ky++ {
					for kx := 0; kx < p.K; kx++ {
						m = max(m, at(x[pl*h*w:(pl+1)*h*w], h, w, oy*p.Stride+ky, ox*p.Stride+kx, 0))
					}
				}
				y[(pl*oh+oy)*ow+ox] = m
			}
		}
	}
	return y
}

// maxPoolQuadsRef max-pools `planes` quad planes of h×w pixels by scanning
// each K×K window, each lane of a word on its own channel (unpadded pools
// only): what a pooled INT8 stage must write for the quad planes its
// unpooled twin materializes.
func maxPoolQuadsRef(x []uint8, planes, h, w int, p PoolSpec) []uint8 {
	oh, ow := p.OutSize(h, w)
	y := make([]uint8, planes*4*oh*ow)
	for i := range y {
		l, ox, oy, pl := i%4, i/4%ow, i/4/ow%oh, i/(4*oh*ow)
		for ky := 0; ky < p.K; ky++ {
			for kx := 0; kx < p.K; kx++ {
				y[i] = max(y[i], x[((pl*h+oy*p.Stride+ky)*w+ox*p.Stride+kx)*4+l])
			}
		}
	}
	return y
}

// requantRef is RequantizeU8 for one element, as its contract states it:
// one fused multiply-add, round to nearest even, clamp to [lo, QMaxU8].
func requantRef(acc int32, mult, beta float32, lo int32) uint8 {
	f := float32(math.FMA(float64(float32(acc)), float64(mult), float64(beta)))
	return uint8(min(max(int32(math.RoundToEven(float64(f))), lo), QMaxU8))
}

// TestByteHelpersMatchScalar pins the quad transposer, the byte row helper
// the dense QGemm packs with, to its scalar definition at every length from
// below one vector to past several, so the vector body and the portable loop
// cannot drift apart.
func TestByteHelpersMatchScalar(t *testing.T) {
	defer useQuantTier(currentQuantTier())
	rng := rand.New(rand.NewSource(46))
	draw := func(n int) []uint8 {
		s := make([]uint8, n)
		for i := range s {
			s[i] = uint8(rng.Intn(256))
		}
		return s
	}
	for _, tier := range quantTiers() {
		if tier.vnni {
			continue
		}
		useQuantTier(tier)
		for n := 1; n <= 100; n++ {
			// Four rows ld apart into panels of either quad tile's width,
			// step apart; bytes between the panels' quads must stay
			// untouched, missing columns read 0.
			for _, nr := range []int{16, 32} {
				ld, step, panels := n+5, 4*nr+7, (n+nr-1)/nr
				src := draw(3*ld + n)
				got := draw(panels * step)
				want := append([]uint8(nil), got...)
				for j := 0; j < panels*nr; j++ {
					for r := 0; r < 4; r++ {
						var v uint8
						if j < n {
							v = src[r*ld+j]
						}
						want[j/nr*step+j%nr*4+r] = v
					}
				}
				transposeQuad(got, step, src, ld, n, nr)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s transposeQuad nc=%d nr=%d: [%d]=%d want %d", tier.name, n, nr, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestBilinearPassesMatchScalar pins the two row passes of the bilinear
// scaler to their per-channel definitions on every tier, at every width from
// below one vector to past several (the overlapping ragged ends), with
// repeated and adjacent pairs, the last pair ending on the row's last byte,
// the extreme weights 0 and 256 and sums at their 65280 ceiling.
func TestBilinearPassesMatchScalar(t *testing.T) {
	defer useQuantTier(currentQuantTier())
	rng := rand.New(rand.NewSource(47))
	for _, tier := range quantTiers() {
		if tier.vnni {
			continue
		}
		useQuantTier(tier)
		for n := 1; n <= 40; n++ {
			offs := make([]int, n)
			wts := make([]uint16, 8*n)
			for j := range offs {
				if j > 0 {
					offs[j] = offs[j-1] + 4*rng.Intn(3)
				}
				w := uint16(rng.Intn(257))
				switch rng.Intn(4) {
				case 0:
					w = 0
				case 1:
					w = 256
				}
				for c := 0; c < 4; c++ {
					wts[8*j+c], wts[8*j+4+c] = 256-w, w
				}
			}
			src := make([]uint8, offs[n-1]+8)
			for i := range src {
				src[i] = uint8(rng.Intn(256))
				if rng.Intn(4) == 0 {
					src[i] = 255
				}
			}
			sums := make([]uint64, n)
			BilinearColsU16(sums, src, offs, wts)
			for j, s := range sums {
				for c := 0; c < 4; c++ {
					want := uint64(src[offs[j]+c])*uint64(wts[8*j]) + uint64(src[offs[j]+4+c])*uint64(wts[8*j+4])
					if got := s >> (16 * c) & 0xFFFF; got != want {
						t.Fatalf("%s BilinearColsU16 n=%d: column %d lane %d = %d want %d", tier.name, n, j, c, got, want)
					}
				}
			}
			bot := make([]uint64, n)
			for i := range bot {
				for c := 0; c < 4; c++ {
					bot[i] |= uint64(rng.Intn(65281)) << (16 * c)
				}
			}
			for _, wy := range []uint16{0, 1, uint16(rng.Intn(257)), 255, 256} {
				got := make([]uint8, 4*n)
				BilinearRowsU8(got, sums, bot, wy)
				for i := range got {
					a, b := sums[i/4]>>(16*(i%4))&0xFFFF, bot[i/4]>>(16*(i%4))&0xFFFF
					want := (a*uint64(256-wy) + b*uint64(wy) + 1<<15) >> 16
					if uint64(got[i]) != want {
						t.Fatalf("%s BilinearRowsU8 n=%d wy=%d: [%d]=%d want %d", tier.name, n, wy, i, got[i], want)
					}
				}
			}
		}
	}
}

// phaseCases are convolutions drawn for the bordered phase-plane view.
var phaseCases = []struct {
	s    ConvSpec
	h, w int
}{
	// The stem's 7×7/2 pad 3 on even and on odd planes (odd: the later
	// phases are a row and a column short, and must read as padding there).
	{ConvSpec{InC: 3, KH: 7, KW: 7, StrideH: 2, StrideW: 2, PadH: 3, PadW: 3}, 38, 40},
	{ConvSpec{InC: 3, KH: 7, KW: 7, StrideH: 2, StrideW: 2, PadH: 3, PadW: 3}, 37, 41},
	{ConvSpec{InC: 2, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}, 9, 33},
	// Stride 3 on every w%3.
	{ConvSpec{InC: 2, KH: 5, KW: 5, StrideH: 3, StrideW: 3, PadH: 2, PadW: 2}, 30, 30},
	{ConvSpec{InC: 2, KH: 5, KW: 5, StrideH: 3, StrideW: 3, PadH: 2, PadW: 2}, 29, 31},
	{ConvSpec{InC: 2, KH: 5, KW: 5, StrideH: 3, StrideW: 3, PadH: 2, PadW: 2}, 31, 32},
	// One axis strided, and the two at different strides.
	{ConvSpec{InC: 2, KH: 3, KW: 3, StrideH: 2, StrideW: 1, PadH: 1, PadW: 1}, 21, 36},
	{ConvSpec{InC: 2, KH: 3, KW: 4, StrideH: 1, StrideW: 2, PadH: 1, PadW: 1}, 21, 40},
	{ConvSpec{InC: 2, KH: 4, KW: 5, StrideH: 3, StrideW: 2, PadH: 1, PadW: 2}, 20, 35},
	// Padding past the kernel: taps whose offset is below -stride.
	{ConvSpec{InC: 1, KH: 2, KW: 3, StrideH: 2, StrideW: 2, PadH: 3, PadW: 1}, 12, 18},
	// Output rows narrower than a phase plane: image columns and rows no
	// window reaches are left out of the planes.
	{ConvSpec{InC: 2, KH: 3, KW: 3, StrideH: 2, StrideW: 2}, 40, 40},
	{ConvSpec{InC: 2, KH: 5, KW: 5, StrideH: 2, StrideW: 2}, 21, 33},
	{ConvSpec{InC: 2, KH: 2, KW: 2, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}, 20, 40},
	{ConvSpec{InC: 2, KH: 3, KW: 3, StrideH: 3, StrideW: 3, PadH: 0, PadW: 3}, 20, 30},
	// Planes exactly one output row wide (2×2/2 on even sizes, and a
	// pointwise view, which reads the image itself): one copy spans
	// output rows.
	{ConvSpec{InC: 2, KH: 2, KW: 2, StrideH: 2, StrideW: 2}, 14, 22},
	{ConvSpec{InC: 3, KH: 1, KW: 1, StrideH: 1, StrideW: 1}, 7, 9},
	// Unstrided: the 3×3 expand's border, and an unpadded view that reads
	// the image itself.
	{ConvSpec{InC: 2, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 13, 17},
	{ConvSpec{InC: 2, KH: 3, KW: 3, StrideH: 1, StrideW: 1}, 11, 19},
	// K = 576, past two kcBlocks: the packer's tap table starts mid-K.
	{ConvSpec{InC: 64, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 5, 7},
}

// checkPhaseView compares every way the drivers read a view — whole rows,
// rows from the middle of an output row, and (via panels, for float32) the
// packed micro-panels at both tile widths — with the oracle's column matrix,
// for a batch of three images bound to the view one after the other. The
// scratch starts, and between images is left, full of garbage: the view
// must write every border slot for every image.
func checkPhaseView[T pixel](t *testing.T, name string, s ConvSpec, h, w int, fill T,
	draw func(n int) []T, panels func(v *convView[T], col []T, k, n int)) {
	t.Helper()
	view := newConvView(h, w, s, fill)
	buf := draw(view.Len())
	view.useScratch(buf)
	k, n := s.InC*s.KH*s.KW, view.oh*view.ow
	for img := 0; img < 3; img++ {
		x := draw(s.InC * h * w)
		col := oracleCol(x, s.InC, h, w, s, fill)
		view.setImage(x)
		for _, j0 := range []int{0, 5 % n, view.ow % n} {
			row := make([]T, n-j0)
			for p := 0; p < k; p++ {
				view.row(row, p, j0)
				for j, g := range row {
					if g != col[p*n+j0+j] {
						t.Fatalf("%s image %d: row %d col %d = %v, oracle %v", name, img, p, j0+j, g, col[p*n+j0+j])
					}
				}
			}
		}
		if panels != nil {
			panels(&view, col, k, n)
		}
		copy(buf, draw(len(buf)))
	}
}

// TestPhaseViewMatchesOracle pins the bordered phase-plane conv view — the
// image copied once into planes that hold its padding, every tap then a
// fixed offset from the output position — to the oracle's column matrix bit
// for bit, with the vector copies on and off, for strides 1 to 3 on odd and
// even planes. Panels are packed as the FP32 driver packs them, kcBlock rows
// of K at a time in the convolution's k order (the oracle's rows reordered
// by lastPlaneFirst), from the middle of an output row, so panels straddle
// output-row ends and the last one is ragged.
func TestPhaseViewMatchesOracle(t *testing.T) {
	defer useQuantTier(currentQuantTier())
	for _, tier := range quantTiers() {
		if tier.vnni {
			continue // same row helpers as the AVX2 tier
		}
		useQuantTier(tier)
		rng := rand.New(rand.NewSource(47))
		for ci, pc := range phaseCases {
			name := fmt.Sprintf("%s case %d %+v on %dx%d", tier.name, ci, pc.s, pc.h, pc.w)
			// Compared with ==, so no NaN; -0 never appears (fill is +0).
			checkPhaseView(t, name+" f32", pc.s, pc.h, pc.w, 0,
				func(n int) []float32 { return randSlice(rng, n) },
				func(v *convView[float32], col []float32, k, n int) {
					col = lastPlaneFirst(col, 1, k, v.s.KH*v.s.KW, n)
					bop := gemmB{conv: v, order: v.s.kOrder()}
					for _, nr := range []int{16, 32} {
						j0 := v.ow % n
						nc := n - j0
						padded := (nc + nr - 1) / nr * nr
						for p0 := 0; p0 < k; p0 += kcBlock {
							kc := min(kcBlock, k-p0)
							buf := randSlice(rng, padded*kc)
							bop.pack(buf, p0, kc, j0, nc, nr)
							for p := 0; p < kc; p++ {
								for j := 0; j < padded; j++ {
									var want float32
									if j < nc {
										want = col[(p0+p)*n+j0+j]
									}
									if got := buf[j/nr*nr*kc+p*nr+j%nr]; math.Float32bits(got) != math.Float32bits(want) {
										t.Fatalf("%s: nr=%d panel row %d col %d = %v, oracle %v", name, nr, p0+p, j, got, want)
									}
								}
							}
						}
					}
				})
		}
	}
}

// TestConvPoolFusedMatchesConvThenPool is the fused stage's differential
// test: ConvStage with a Pool — the blocked driver handing whole output rows
// to the pooling epilogue, which carries the rows a window overhangs from one
// block to the next — must equal ConvForwardInto followed by
// MaxPoolForwardInto bit for bit. Cases put block boundaries on and off a
// pooled row for pools 3/2 and 2/2, run k past one kcBlock, rows wider than
// one ncBlock, a stride above the window, the pointwise and the unblocked
// paths; each with batch 3, under every FP32 tier, weights packed and not.
func TestConvPoolFusedMatchesConvThenPool(t *testing.T) {
	active := gemmTier
	defer func() { gemmTier = active }()
	tiers := fp32Tiers()
	stem := ConvSpec{InC: 3, OutC: 10, KH: 7, KW: 7, StrideH: 2, StrideW: 2, PadH: 3, PadW: 3}
	deep := ConvSpec{InC: 32, OutC: 9, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1} // k = 288 > kcBlock
	cases := []struct {
		s    ConvSpec
		h, w int
		p    PoolSpec
	}{
		// ow = 48: blocks of 42 rows. Row 42 starts a 2/2 and a 3/2 window;
		// the 3/2 window from row 40 straddles the boundary.
		{stem, 100, 96, PoolSpec{K: 3, Stride: 2}},
		{stem, 100, 96, PoolSpec{K: 2, Stride: 2}},
		// ow = 96: blocks of 21 rows, so the first boundary falls inside a
		// 2/2 window as well and the second starts one.
		{stem, 100, 192, PoolSpec{K: 3, Stride: 2}},
		{stem, 100, 192, PoolSpec{K: 2, Stride: 2}},
		// An odd ow = 47 shares no factor with the panel width: blocks of 32
		// rows keep every panel but the last whole.
		{stem, 99, 93, PoolSpec{K: 3, Stride: 2}},
		// Three blocks (32 or 40 rows by tier) and two k-blocks, which an
		// edge tile must chain as the unfused product's full tiles do.
		{deep, 90, 50, PoolSpec{K: 3, Stride: 2}},
		{deep, 90, 50, PoolSpec{K: 2, Stride: 2}},
		// Stride above the window: rows between windows are skipped.
		{deep, 90, 50, PoolSpec{K: 2, Stride: 3}},
		// Overlapping windows at stride 1.
		{stem, 100, 96, PoolSpec{K: 3, Stride: 1}},
		// Rows wider than ncBlock: one row a block, K-1 carried each time.
		{ConvSpec{InC: 1, OutC: 4, KH: 1, KW: 3, StrideH: 1, StrideW: 1, PadW: 1}, 7, 2100, PoolSpec{K: 3, Stride: 2}},
		// The pointwise conv's dense operand.
		{ConvSpec{InC: 8, OutC: 6, KH: 1, KW: 1, StrideH: 1, StrideW: 1}, 60, 40, PoolSpec{K: 2, Stride: 2}},
		// Small enough for the unblocked product.
		{ConvSpec{InC: 1, OutC: 2, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 6, 7, PoolSpec{K: 2, Stride: 2}},
		// The window covers the whole output: one pooled element a plane.
		{ConvSpec{InC: 2, OutC: 40, KH: 3, KW: 3, StrideH: 1, StrideW: 1}, 5, 5, PoolSpec{K: 3, Stride: 2}},
	}
	const batch, chOff = 3, 2
	sentinel := float32(math.Inf(1))
	for _, tier := range tiers {
		gemmTier = tier
		rng := rand.New(rand.NewSource(48))
		for ci, cc := range cases {
			s := cc.s
			name := fmt.Sprintf("%s case %d %+v on %dx%d pool %+v", tier.name, ci, s, cc.h, cc.w, cc.p)
			oh, ow := s.OutSize(cc.h, cc.w)
			poh, pow := cc.p.OutSize(oh, ow)
			k := s.InC * s.KH * s.KW
			x := FromSlice(randSlice(rng, batch*s.InC*cc.h*cc.w), batch, s.InC, cc.h, cc.w)
			wt := randSlice(rng, s.OutC*k)
			bias := randSlice(rng, s.OutC)
			relu := ci%3 != 2

			full := New(batch, s.OutC, oh, ow)
			ConvForwardInto(x, wt, bias, s, full, 0, relu)
			want := New(batch, s.OutC, poh, pow)
			MaxPoolForwardInto(full, cc.p, want, make([]float32, cc.p.ScratchLen(ow)))

			for _, packed := range []*PackedWeights{nil, PackConvWeights(wt, s)} {
				st := ConvStage{Spec: s, W: wt, Packed: packed, Bias: bias, ReLU: relu, Pool: cc.p}
				dstC := chOff + s.OutC + 1
				got := New(batch, dstC, poh, pow)
				got.Fill(sentinel)
				st.ForwardInto(x, got, chOff, convScratch(&st, cc.h, cc.w))
				for i := 0; i < batch; i++ {
					for ch := 0; ch < dstC; ch++ {
						for j := 0; j < poh*pow; j++ {
							wv := sentinel // channels outside [chOff, chOff+OutC) stay untouched
							if oc := ch - chOff; oc >= 0 && oc < s.OutC {
								wv = want.Data[(i*s.OutC+oc)*poh*pow+j]
							}
							if g := got.Data[(i*dstC+ch)*poh*pow+j]; math.Float32bits(g) != math.Float32bits(wv) {
								t.Fatalf("%s packed=%v: y[%d,%d,%d,%d]=%v (%#x), conv then pool %v (%#x)",
									name, packed != nil, i, ch, j/pow, j%pow, g, math.Float32bits(g), wv, math.Float32bits(wv))
							}
						}
					}
				}
			}
		}
	}
}

// TestGemmOverwritesWithoutClearing pins the store-first-k-block contract on
// both engines: Gemm and QGemm into a buffer full of garbage must equal the
// accumulating product onto zeros, bit for bit — full tiles, edge tiles, one
// k-block and several, and the unblocked path — under every tier.
func TestGemmOverwritesWithoutClearing(t *testing.T) {
	active := gemmTier
	defer func() { gemmTier = active }()
	defer useQuantTier(currentQuantTier())
	tiers := fp32Tiers()
	shapes := [][3]int{{3, 5, 7}, {8, 19, 32}, {9, 19, 33}, {13, 300, 70}, {140, 40, 2100}, {64, 600, 50}}
	rng := rand.New(rand.NewSource(49))
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a, b := randSlice(rng, m*k), randSlice(rng, k*n)
		for _, tier := range tiers {
			gemmTier = tier
			want := make([]float32, m*n)
			GemmAcc(a, b, want, m, k, n)
			got := randSlice(rng, m*n)
			got[0] = float32(math.NaN())
			Gemm(a, b, got, m, k, n)
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("%s %dx%dx%d: c[%d]=%v over garbage, %v onto zeros", tier.name, m, k, n, i, got[i], want[i])
				}
			}
		}
		qa, qb := randQOperands(rng, m, k, n)
		want := qgemmRef(qa, qb, m, k, n)
		for _, tier := range quantTiers() {
			useQuantTier(tier)
			got := make([]int32, m*n)
			for i := range got {
				got[i] = rng.Int31()
			}
			QGemm(qa, qb, got, m, k, n)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s %dx%dx%d: c[%d]=%d over garbage, want %d", tier.name, m, k, n, i, got[i], want[i])
				}
			}
		}
	}
}

// putQuads writes four nc-byte rows (src[r*nc:], r < 4) to dst as nc 32-bit
// words, column j's four row bytes at dst[4j:] — the second pass of the
// requantizing epilogue before requantQuads fused it into the first.
func putQuads(dst, src []uint8, nc int) {
	for j := 0; j < nc; j++ {
		d := dst[4*j : 4*j+4 : 4*j+4]
		d[0], d[1], d[2], d[3] = src[j], src[nc+j], src[2*nc+j], src[3*nc+j]
	}
}

// TestRequantQuadsMatchesRequantizeU8 pins the quad requantizer on every
// tier to the two passes it replaced: RequantizeU8 row by row into a 4×n
// staging block, the rows past m at the output zero point, then putQuads.
// Widths 1…70 (below one vector step, at it, and every ragged end past it)
// and 3025 (the 55×55 planes of the paper net's first fires); 4, 1, 2 and 3
// rows; ReLU on and off; rows ld apart past their width; accumulators at
// ±(2³¹−1) and values that land on exact .5 ties (mult ½, or beta ±½ with
// mult 1). Every byte past the 4n written must stay untouched.
func TestRequantQuadsMatchesRequantizeU8(t *testing.T) {
	defer useQuantTier(currentQuantTier())
	rng := rand.New(rand.NewSource(54))
	widths := []int{3025}
	for n := 1; n <= 70; n++ {
		widths = append(widths, n)
	}
	for ci, n := range widths {
		for _, rows := range []int{4, 1, 2, 3} {
			relu := (ci+rows)%2 == 0
			ld := n + 3
			acc := make([]int32, 4*ld)
			rq := Requant{Mult: make([]float32, 8), Beta: make([]float32, 8), ZOut: int32(rng.Intn(QMaxU8 + 1)), ReLU: relu}
			for r := 0; r < 8; r++ {
				rq.Mult[r], rq.Beta[r] = float32(rng.Float64()*1e-4), float32(rng.NormFloat64()*20+40)
			}
			const ch = 2 // the rows' channels start mid-Requant
			switch ci % 3 {
			case 0: // ±(2³¹−1) and their neighbours among random sums
				for i := range acc {
					acc[i] = []int32{math.MaxInt32, -math.MaxInt32, math.MaxInt32 - 1, math.MinInt32}[rng.Intn(4)]
					if rng.Intn(2) == 0 {
						acc[i] = int32(rng.Intn(2_000_000) - 1_000_000)
					}
				}
			case 1: // acc·½ and acc ± ½: every odd sum is a tie
				for r := 0; r < 4; r++ {
					rq.Mult[ch+r], rq.Beta[ch+r] = []float32{0.5, 1, 1, 0.5}[r], []float32{0, 0.5, -0.5, 0}[r]
				}
				for i := range acc {
					acc[i] = int32(rng.Intn(300) - 20)
				}
			default:
				for i := range acc {
					acc[i] = int32(rng.Intn(2_000_000) - 1_000_000)
				}
			}
			stage := make([]uint8, 4*n)
			for r := 0; r < 4; r++ {
				row := stage[r*n : (r+1)*n]
				if r < rows {
					RequantizeU8(row, acc[r*ld:r*ld+n], rq.Mult[ch+r], rq.Beta[ch+r], rq.ZOut, relu)
					continue
				}
				for j := range row {
					row[j] = uint8(rq.ZOut)
				}
			}
			want := make([]uint8, 4*n)
			putQuads(want, stage, n)
			for _, tier := range quantTiers() {
				if tier.vnni {
					continue // the AVX2 tier's requantizer
				}
				useQuantTier(tier)
				got := make([]uint8, 4*n+8)
				for i := range got {
					got[i] = 0xEE
				}
				requantQuads(got[:4*n], acc, ld, rows, n, rq, ch)
				for i, v := range want {
					if got[i] != v {
						t.Fatalf("%s n=%d rows=%d relu=%v case %d: column %d row %d = %d, want %d (acc %d)",
							tier.name, n, rows, relu, ci%3, i/4, i%4, got[i], v, acc[i%4*ld+i/4])
					}
				}
				for i := 4 * n; i < len(got); i++ {
					if got[i] != 0xEE {
						t.Fatalf("%s n=%d rows=%d: wrote byte %d past its %d words", tier.name, n, rows, i, n)
					}
				}
			}
		}
	}
}
