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
	defer func(cols int) { qpoolBlockCols = cols }(qpoolBlockCols)
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
			blocks := []int{qpoolBlockCols, 1}
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
					qpoolBlockCols = cols
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
				qpoolBlockCols = blocks[0]
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

// newStemView is the stem's padded-row view of an h×w image under s, every
// padded row built: the view QStem.ForwardInto sets up, outside a product.
func newStemView(s ConvSpec, h, w int) stemView {
	oh, ow := s.OutSize(h, w)
	v := stemView{s: s, ow: ow, words: (w + 2*s.PadW + s.StrideW - 1) / s.StrideW, rows: (oh-1)*s.StrideH + s.KH}
	v.rowLen = 4 * s.StrideW * v.words
	v.buf = make([]uint8, v.rows*v.rowLen)
	return v
}

// TestStemRowsMatchSetRun pins the stem's padded rows on every tier to the
// portable byte loop (setRun, the tier without assembly): both phases of a
// stride-2 view and the one of a stride-1 view, every padding width from 0
// to 4 (so the first image word lands at every offset into both phase runs,
// and the last at every distance from a run's end) and 9 (a block wholly
// left of the image), widths 1…40 and 224,
// rows above and below the image, through a random table and the identity
// table. One 64-pixel row holds every byte value. Stride 3 keeps the
// portable loop on every tier and rides along. The buffer is poisoned
// first, so every word must be written.
func TestStemRowsMatchSetRun(t *testing.T) {
	defer useQuantTier(currentQuantTier())
	rng := rand.New(rand.NewSource(52))
	var random [256]uint8
	for i := range random {
		random[i] = uint8(rng.Intn(256))
	}
	widths := []int{224}
	for w := 1; w <= 40; w++ {
		widths = append(widths, w)
	}
	const h = 3
	for _, w := range widths {
		pix := make([]uint8, h*w*4)
		for i := range pix {
			pix[i] = uint8(rng.Intn(256))
		}
		if w == 64 {
			for i := 0; i < 256; i++ {
				pix[w*4+i] = uint8(i)
			}
		}
		for _, stride := range []int{1, 2, 3} {
			for _, pad := range []int{0, 1, 2, 3, 4, 9} {
				s := ConvSpec{InC: 4, OutC: 4, KH: 1 + 2*pad, KW: 1 + 2*pad, StrideH: 1, StrideW: stride, PadH: pad, PadW: pad}
				for ti, lut := range []*[256]uint8{&random, &identityU8} {
					zp := uint8(17 + 40*ti)
					useQuantTier(quantTiers()[0])
					want := newStemView(s, h, w)
					want.setImage(pix, h, w, lut, zp)
					for _, tier := range quantTiers() {
						useQuantTier(tier)
						got := newStemView(s, h, w)
						for i := range got.buf {
							got.buf[i] = 0xEE
						}
						got.setImage(pix, h, w, lut, zp)
						for i := range want.buf {
							if got.buf[i] != want.buf[i] {
								r, c := i/want.rowLen, i%want.rowLen
								t.Fatalf("%s width %d stride %d pad %d table %d: row %d phase %d word %d byte %d = %d, want %d",
									tier.name, w, stride, pad, ti, r, c/(4*want.words), c%(4*want.words)/4, c%4, got.buf[i], want.buf[i])
							}
						}
					}
				}
			}
		}
	}
}

// packStemRef is the stem's panel pack as it ran before copyTaps: per output
// row segment, per tap, one spreadQuads of the segment's pixel run across
// the panels.
func packStemRef(v *stemView, dst []uint8, p0, kc, j0, nc, nr int) {
	s := v.s
	quads, step := kc/4, kc*nr
	if nc%nr != 0 {
		clear(dst[nc/nr*step:][:step])
	}
	var taps [kcQBlock / 4]int
	for q := range taps[:quads] {
		ky, kx := (p0/4+q)/s.KW, (p0/4+q)%s.KW
		taps[q] = ky*v.rowLen + (kx%s.StrideW*v.words+kx/s.StrideW)*4
	}
	for j := j0; j < j0+nc; {
		oy, ox := j/v.ow, j%v.ow
		cols := min(v.ow-ox, j0+nc-j)
		window := oy*s.StrideH*v.rowLen + ox*4
		for q, off := range taps[:quads] {
			spreadQuads(dst[q*4*nr:], step, nr, j-j0, cols, v.buf[window+off:])
		}
		j += cols
	}
}

// spreadQuads writes the n 4-byte pixels at the head of src to columns
// [c, c+n) of one quad row of a packed block, whose panels are nr columns
// wide and step bytes apart: a partial panel at either end by copy, every
// whole panel between them as one copyRuns of nr-word runs.
func spreadQuads(dst []uint8, step, nr, c, n int, src []uint8) {
	if lane := c % nr; lane != 0 {
		l := min(n, nr-lane)
		copy(dst[c/nr*step+lane*4:][:l*4], src)
		c, n, src = c+l, n-l, src[l*4:]
	}
	if full := n / nr; full > 0 {
		copyRuns(quadWords(dst[c/nr*step:]), step/4, quadWords(src), nr, nr, full)
		c, n, src = c+full*nr, n-full*nr, src[full*4*nr:]
	}
	if n > 0 {
		copy(dst[c/nr*step:][:n*4], src)
	}
}

// TestStemPackMatchesSpreadQuads pins the stem's panel pack on every tier,
// byte for byte, to the layout the per-tap spreadQuads walk wrote: the paper
// stem's 7×7/2 view at output widths 112 (the paper net's), 55 and 53 (rows
// that end inside a panel of either width) and 1, packed for both quad tile
// widths, block by block as the driver hands them over — at the default
// block budget, with qpoolBlockCols shrunk to one row, and in two K blocks
// (so the tap table starts past tap 0). Both packs start from the same
// poisoned panels, so a byte either one leaves alone must match too.
func TestStemPackMatchesSpreadQuads(t *testing.T) {
	defer useQuantTier(currentQuantTier())
	defer func(cols int) { qpoolBlockCols = cols }(qpoolBlockCols)
	rng := rand.New(rand.NewSource(53))
	s := stemSpec
	k := s.KH * s.KW * 4
	for _, ow := range []int{112, 55, 53, 1} {
		w := 2 * ow
		h := min(w, 24)
		v := newStemView(s, h, w)
		for i := range v.buf {
			v.buf[i] = uint8(rng.Intn(256))
		}
		oh, _ := s.OutSize(h, w)
		n := oh * ow
		for _, tier := range quantTiers() {
			useQuantTier(tier)
			for _, nr := range []int{16, 32} {
				for _, cols := range []int{1024, 1} {
					qpoolBlockCols = cols
					block := qpoolBlockRows(ow, nr) * ow
					for _, kb := range [][2]int{{0, k}, {0, 80}, {80, k - 80}} {
						p0, kc := kb[0], kb[1]
						for j0 := 0; j0 < n; j0 += block {
							nc := min(block, n-j0)
							size := (nc + nr - 1) / nr * kc * nr
							got, want := make([]uint8, size), make([]uint8, size)
							for i := range got {
								got[i], want[i] = 0xEE, 0xEE
							}
							packStemRef(&v, want, p0, kc, j0, nc, nr)
							v.pack(got, p0, kc, j0, nc, nr)
							for i := range want {
								if got[i] != want[i] {
									t.Fatalf("%s ow %d nr %d block %d k block %d+%d columns %d+%d: byte %d (panel %d quad %d lane %d) = %d, want %d",
										tier.name, ow, nr, block, p0, kc, j0, nc, i, i/(kc*nr), i%(kc*nr)/(4*nr), i%(4*nr)/4, got[i], want[i])
								}
							}
						}
					}
				}
			}
		}
	}
}

// BenchmarkQStemParts times, on one 224 frame through the paper stem with
// pool1 fused, the three byte passes around the stem's kernel, each over the
// whole frame as ForwardInto runs them: rows (every padded input row built
// through the input table: setImage), pack (every column block's panels for
// the tier's nr: stemView.pack) and pooled (every block's accumulators
// pooled and the pooled values requantized into quad planes: qpoolRun.emit,
// on accumulators that stay as the first pass left them).
func BenchmarkQStemParts(b *testing.B) {
	rng := rand.New(rand.NewSource(33))
	s := stemSpec
	st := QStem{Spec: s, ZP: 17, Pool: PoolSpec{K: 3, Stride: 2},
		RQ: Requant{Mult: make([]float32, s.OutC), Beta: make([]float32, s.OutC), ZOut: 3, ReLU: true}}
	for oc := range st.RQ.Mult {
		st.RQ.Mult[oc], st.RQ.Beta[oc] = 1e-4, 40
	}
	var lut [256]uint8
	for i := range lut {
		lut[i] = uint8(i / 2)
	}
	pix := make([]uint8, 224*224*4)
	for i := range pix {
		pix[i] = uint8(rng.Intn(256))
	}
	g := st.geometry(1, 224, 224)
	view := g.view
	view.buf = make([]uint8, g.viewLen)
	view.setImage(pix, 224, 224, &lut, st.ZP)
	n, block, t := g.convH*g.ow, g.blockRows*g.ow, qgemmTier
	b.Run("rows", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			view.setImage(pix, 224, 224, &lut, st.ZP)
		}
	})
	b.Run("pack", func(b *testing.B) {
		k := s.KH * s.KW * 4
		dst := make([]uint8, bBlockLen(t, k, block))
		for i := 0; i < b.N; i++ {
			for j0 := 0; j0 < n; j0 += block {
				view.pack(dst, 0, k, j0, min(block, n-j0), t.nr)
			}
		}
	})
	b.Run("pooled", func(b *testing.B) {
		pool := qpoolRun{poolWindow: poolWindow{spec: st.Pool, ow: g.ow, poh: g.outH, pow: g.outW, cap: g.blockRows + st.Pool.K - 1},
			blockRows: g.blockRows, m: s.OutC,
			buf: make([]int32, g.slabLen), pooled: make([]int32, g.pooledLen), rows: make([]int32, g.rowsLen)}
		for i := range pool.buf {
			pool.buf[i] = int32(rng.Intn(1 << 20))
		}
		y := make([]uint8, quadPlanes(s.OutC)*4*g.outH*g.outW)
		for i := 0; i < b.N; i++ {
			pool.dst, pool.base, pool.held, pool.py = y, 0, 0, 0
			for j0 := 0; j0 < n; j0 += block {
				pool.emit(min(block, n-j0)/g.ow, st.RQ)
			}
		}
	})
}
