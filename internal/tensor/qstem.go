package tensor

import (
	"encoding/binary"
	"fmt"
)

// QStem is the INT8 network's first stage: a convolution over pixel bytes as
// a bitmap stores them — four bytes a pixel, channel-minor — its
// requantization, and optionally the unpadded max pool that follows it.
//
// The stem orders its K dimension tap-major and channel-minor, (ky, kx, c),
// so that one packed quad of the quantized GEMM is one input pixel's four
// bytes, and a panel row of 16 output positions is 16 consecutive pixels of
// one padded input row (one phase of it, when the stem is strided): a 64-byte
// copy instead of a tap walk and a byte transpose. Integer sums do not depend
// on the order of their terms, so every output byte is what the planar
// convolution (QConvForwardInto, weights in (c, ky, kx) order) computes.
type QStem struct {
	// Spec is the convolution; InC is at most 4.
	Spec ConvSpec
	// W is PackQQuadWeights of the convolution's s8 weights.
	W QWeights
	// RQ requantizes the accumulators (see Requant).
	RQ Requant
	// ZP is the input zero point: what padding positions read.
	ZP uint8
	// Pool, when K > 0, is a max pool (Pad must be 0) applied to the
	// requantized output, which is then never materialized: ForwardInto's y
	// is the pooled tensor.
	Pool PoolSpec
}

// PackQQuadWeights reorders the row-major OutC×(InC·KH·KW) s8 matrix wq —
// the (c, ky, kx) order of a planar convolution (PackQWeights) — into the
// quad order (c/4, ky, kx, c%4), the channels padded to a multiple of 4 by
// zero weights, and packs it. K quad (g, ky, kx) is then channels 4g…4g+3 of
// one input pixel: the 32-bit word that a quad plane (QFire's expands) or,
// for InC ≤ 4 and so the order (ky, kx, c), a padded pixel row (QStem)
// holds. Zero weights add nothing to an accumulator and nothing to Σw, so
// the requantization constants are the planar convolution's.
func PackQQuadWeights(wq []int8, s ConvSpec) QWeights {
	taps := s.KH * s.KW
	k := s.InC * taps
	if len(wq) < s.OutC*k {
		panic(fmt.Sprintf("tensor: PackQQuadWeights: %d weights for %+v", len(wq), s))
	}
	kq := (s.InC + 3) / 4 * taps * 4
	p := make([]int8, s.OutC*kq)
	for oc := 0; oc < s.OutC; oc++ {
		for c := 0; c < s.InC; c++ {
			for t := 0; t < taps; t++ {
				p[oc*kq+(c/4*taps+t)*4+c%4] = wq[oc*k+c*taps+t]
			}
		}
	}
	return PackQWeights(p, s.OutC, kq)
}

// OutSize returns the stage's output size for h×w images: the
// convolution's, or the pool's of it.
func (st *QStem) OutSize(h, w int) (oh, ow int) {
	oh, ow = st.Spec.OutSize(h, w)
	if st.Pool.K > 0 {
		return st.Pool.OutSize(oh, ow)
	}
	return oh, ow
}

// qstemBlockCols is the column budget of one stem block: the blocked driver
// takes whole output rows, as many as fit (at least one), so a block's int32
// accumulators (OutC × cols × 4 bytes) and its packed panels stay in L2
// while they are requantized and pooled. A variable so the tests can shrink
// blocks to a single row.
var qstemBlockCols = 1024

// identityU8 is the input table of bytes that are already quantized.
var identityU8 = func() (t [256]uint8) {
	for i := range t {
		t[i] = uint8(i)
	}
	return t
}()

// ForwardInto runs the stage on n images of h×w pixels in pix (pixel (y, x)
// of image i at pix[((i*h+y)*w+x)*4:], channels c < Spec.InC used), each
// byte through lut — nil when the bytes already are the quantized input —
// into y ([n, OutC, outH, outW], OutSize's). Its scratch, one image's padded
// pixel rows and the pool's row slabs, comes from a and goes back to it.
//
// Each image is one quantized GEMM whose B operand is the image's padded
// rows (see stemView); with a pool, the blocked driver hands the epilogue
// whole output rows, which are requantized into per-channel slabs and pooled
// there while they are cache-resident (see qpoolRun), and the convolution
// stops at the last row a pooling window reads.
func (st *QStem) ForwardInto(pix []uint8, n, h, w int, lut *[256]uint8, y []uint8, a *Arena) {
	s := st.Spec
	oh, ow := s.OutSize(h, w)
	if oh == 0 || ow == 0 {
		panicEmptyOutput("QStem.ForwardInto", []int{n, s.InC, h, w}, s.KH, s.KW, s.PadH, s.PadW)
	}
	outH, outW, convH := oh, ow, oh
	if st.Pool.K > 0 {
		if st.Pool.Pad != 0 {
			panic(fmt.Sprintf("tensor: QStem.ForwardInto: fused pool %+v must be unpadded", st.Pool))
		}
		if outH, outW = st.Pool.OutSize(oh, ow); outH == 0 || outW == 0 {
			panicEmptyOutput("QStem.ForwardInto", []int{n, s.OutC, oh, ow}, st.Pool.K, st.Pool.K, 0, 0)
		}
		convH = (outH-1)*st.Pool.Stride + st.Pool.K
	}
	k, il, ol := s.KH*s.KW*4, h*w*4, s.OutC*outH*outW
	if s.InC > 4 || len(pix) < n*il || st.W.m != s.OutC || st.W.k != k ||
		len(st.RQ.Mult) < s.OutC || len(st.RQ.Beta) < s.OutC || len(y) < n*ol {
		panic(fmt.Sprintf("tensor: QStem.ForwardInto: pixels %d / weights %d×%d / requant %d,%d / y %d do not fit %d images of %d×%d under %+v",
			len(pix), st.W.m, st.W.k, len(st.RQ.Mult), len(st.RQ.Beta), len(y), n, h, w, s))
	}
	if lut == nil {
		lut = &identityU8
	}
	view := stemView{s: s, ow: ow, words: (w + 2*s.PadW + s.StrideW - 1) / s.StrideW, rows: (convH-1)*s.StrideH + s.KH}
	view.rowLen = 4 * s.StrideW * view.words
	view.buf = a.GetU8(view.rows * view.rowLen)
	ep := qgemmEpilogue{rq: st.RQ, ld: oh * ow}
	var pool qpoolRun
	if st.Pool.K > 0 {
		pool = qpoolRun{spec: st.Pool, ow: ow, poh: outH, pow: outW, blockRows: max(qstemBlockCols/ow, 1)}
		pool.cap = pool.blockRows + st.Pool.K - 1
		pool.buf = a.GetU8(s.OutC*pool.cap*ow + poolRowsScratch(pool.cap, ow, st.Pool))
		ep.pool = &pool
	}
	for i := 0; i < n; i++ {
		view.setImage(pix[i*il:(i+1)*il], h, w, lut, st.ZP)
		if ep.pool != nil {
			pool.dst, pool.base, pool.held, pool.py = y[i*ol:(i+1)*ol], 0, 0, 0
		} else {
			ep.dst = y[i*ol:]
		}
		qgemmBlocked(st.W, qgemmB{stem: &view}, nil, s.OutC, k, convH*ow, &ep)
	}
	a.PutU8(view.buf)
	if ep.pool != nil {
		a.PutU8(pool.buf)
	}
}

// stemView is the stem's B operand: one image's pixels, mapped through the
// input table into rows padded with the zero point on every side. Each
// padded row holds StrideW phase runs of `words` 32-bit pixels — run p the
// row's padded columns p, p+StrideW, … — so tap (ky, kx) of output position
// (oy, ox) is word ox + kx/StrideW of run kx%StrideW of padded row
// oy*StrideH+ky, and consecutive output positions of one output row read
// consecutive words. Only the rows some window reaches are built. The view
// only packs panels, so the stem always runs the blocked driver, never
// qgemmDispatch's unpacked small-product loop.
type stemView struct {
	s      ConvSpec
	ow     int
	words  int // pixels per phase run: ⌈(w+2·PadW)/StrideW⌉
	rowLen int // bytes per padded row: StrideW runs of words
	rows   int // padded rows the computed output rows reach
	buf    []uint8
}

// setImage builds the padded rows of one h×w image: each pixel byte through
// lut into its phase run, every padding pixel — and the slots past a short
// phase run's end, which no window reads — four zero points.
func (v *stemView) setImage(pix []uint8, h, w int, lut *[256]uint8, zp uint8) {
	s := v.s
	fill := uint32(zp) * 0x01010101
	for r := 0; r < v.rows; r++ {
		iy := r - s.PadH
		for p := 0; p < s.StrideW; p++ {
			run := v.buf[r*v.rowLen+p*v.words*4 : r*v.rowLen+(p+1)*v.words*4]
			// Words [lo, hi) hold image columns x = i·StrideW + p − PadW.
			lo, hi := 0, 0
			var src []uint8
			if iy >= 0 && iy < h {
				lo = min((max(s.PadW-p, 0)+s.StrideW-1)/s.StrideW, v.words)
				hi = min((s.PadW+w-p+s.StrideW-1)/s.StrideW, v.words)
			}
			if lo < hi {
				src = pix[(iy*w+lo*s.StrideW+p-s.PadW)*4 : (iy+1)*w*4]
			}
			setRun(run, lo, hi, src, 4*s.StrideW, lut, fill)
		}
	}
}

// setRun writes one phase run of 32-bit words: words [lo, hi) the pixels at
// src[(i-lo)*step:] through lut, all others fill.
func setRun(run []uint8, lo, hi int, src []uint8, step int, lut *[256]uint8, fill uint32) {
	for i := 0; i < lo*4; i += 4 {
		binary.LittleEndian.PutUint32(run[i:], fill)
	}
	for i, j := lo*4, 0; i < hi*4; i, j = i+4, j+step {
		s, d := src[j:j+4:j+4], run[i:i+4:i+4]
		d[0], d[1], d[2], d[3] = lut[s[0]], lut[s[1]], lut[s[2]], lut[s[3]]
	}
	for i := hi * 4; i+4 <= len(run); i += 4 {
		binary.LittleEndian.PutUint32(run[i:], fill)
	}
}

// pack writes the kc×nc block of the column matrix at (p0, j0) into quad
// micro-panel layout (see packBQuads). p0 and kc are multiples of 4, so the
// block's quads are the taps p0/4 …; each output row's run of columns is,
// per tap, one run of consecutive words of one padded row, spread across the
// panels by spreadQuads. Columns past nc in the last panel read zero.
func (v *stemView) pack(dst []uint8, p0, kc, j0, nc int) {
	s := v.s
	quads, step := kc/4, kc*nrQTile
	if nc%nrQTile != 0 {
		clear(dst[nc/nrQTile*step:][:step])
	}
	// Each quad's tap as a byte offset from its window's first word.
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
			spreadQuads(dst[q*4*nrQTile:], step, j-j0, cols, v.buf[window+off:])
		}
		j += cols
	}
}

// spreadQuads writes the n 4-byte pixels at the head of src to columns
// [c, c+n) of one quad row of a packed block, whose panels are step bytes
// apart: a partial panel at either end by copy, every whole panel between
// them as one copyRuns of 16-word runs.
func spreadQuads(dst []uint8, step, c, n int, src []uint8) {
	if lane := c % nrQTile; lane != 0 {
		l := min(n, nrQTile-lane)
		copy(dst[c/nrQTile*step+lane*4:][:l*4], src)
		c, n, src = c+l, n-l, src[l*4:]
	}
	if full := n / nrQTile; full > 0 {
		copyRuns(quadWords(dst[c/nrQTile*step:]), step/4, quadWords(src), nrQTile, nrQTile, full)
		c, n, src = c+full*nrQTile, n-full*nrQTile, src[full*4*nrQTile:]
	}
	if n > 0 {
		copy(dst[c/nrQTile*step:][:n*4], src)
	}
}

// qpoolRun is poolRun for the INT8 stem: the blocked driver hands it each
// block's int32 accumulators — whole output rows of the convolution, in
// order — and emit requantizes them into each channel's slab below the rows
// carried over from the block before (a window overhangs its block by up to
// K-1 rows), pools every window they complete with poolRowsU8 and moves the
// rows later windows still need to the slab's head. Each pooled row is the
// one MaxPoolU8Into computes from the materialized output.
type qpoolRun struct {
	spec      PoolSpec
	ow        int
	poh, pow  int
	blockRows int     // rows per block the driver hands over (the last may be fewer)
	dst       []uint8 // the image's pooled output: m planes of poh×pow
	buf       []uint8 // m slabs of cap rows, then poolRowsU8's scratch
	cap       int     // rows per slab: blockRows + K-1
	base      int     // the output row held in slab row 0
	held      int     // rows carried from earlier blocks: slab rows [0, held)
	py        int     // next pooled row to emit
}

// emit takes the m×nc accumulator block acc (nc whole rows of ow columns).
func (r *qpoolRun) emit(acc []int32, m, nc int, rq Requant) {
	k, stride, ow := r.spec.K, r.spec.Stride, r.ow
	ld := r.cap * ow
	e := qgemmEpilogue{rq: rq, dst: r.buf[r.held*ow:], ld: ld}
	e.apply(acc, m, nc, 0)
	end := r.base + r.held + nc/ow // rows [base, end) are held
	done := r.py
	if end >= k {
		done = max(done, min((end-k)/stride+1, r.poh))
	}
	keep := end // first row a later window reads
	if done < r.poh {
		keep = min(max(done*stride, r.base), end)
	}
	scratch := r.buf[m*ld:]
	for i := 0; i < m; i++ {
		slab := r.buf[i*ld : (i+1)*ld]
		if done > r.py {
			poolRowsU8(r.dst[(i*r.poh+r.py)*r.pow:(i*r.poh+done)*r.pow], r.pow, done-r.py, slab[(r.py*stride-r.base)*ow:], ow, r.spec, scratch)
		}
		copy(slab, slab[(keep-r.base)*ow:(end-r.base)*ow])
	}
	r.base, r.held, r.py = keep, end-keep, done
}
