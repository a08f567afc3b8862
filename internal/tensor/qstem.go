package tensor

import (
	"encoding/binary"
	"fmt"
)

// QStem is the INT8 network's first stage: a convolution over pixel bytes as
// a bitmap stores them — four bytes a pixel, channel-minor — its
// requantization into quad planes (see QConv), and optionally the unpadded
// max pool that follows it.
//
// The stem orders its K dimension tap-major and channel-minor, (ky, kx, c),
// so that one packed quad of the quantized GEMM is one input pixel's four
// bytes, and a panel row of the tier's nr output positions is nr consecutive
// pixels of one padded input row (one phase of it, when the stem is
// strided): a copy of 4·nr bytes instead of a tap walk and a byte transpose. Integer sums do not depend
// on the order of their terms, so every output byte is what the convolution
// with its weights in (c, ky, kx) order computes.
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
	// is the pooled planes. The pool takes each window's maximum of the raw
	// accumulators and requantizes only that, which equals pooling the
	// requantized bytes only when every RQ.Mult is ≥ 0 (see Requant).
	Pool PoolSpec
}

// PackQQuadWeights reorders the row-major OutC×(InC·KH·KW) s8 matrix wq —
// the convolution's own (c, ky, kx) order — into the quad order
// (c/4, ky, kx, c%4), the channels padded to a multiple of 4 by zero
// weights, and packs it (packQWeights). K quad (g, ky, kx) is then channels
// 4g…4g+3 of one input pixel: the 32-bit word that a quad plane (QConv) or,
// for InC ≤ 4 and so the order (ky, kx, c), a padded pixel row (QStem)
// holds. Zero weights add nothing to an accumulator and nothing to Σw, so
// the requantization constants are the convolution's own.
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
	return packQWeights(p, s.OutC, kq)
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

// qpoolBlockCols is the column budget of one block of a pooled quantized
// convolution (QStem, QConv): the blocked driver takes whole output rows, as
// many as fit (at least one), so a block's int32 accumulators (OutC × cols ×
// 4 bytes) and its packed panels stay in L2 while they are pooled and
// requantized. A variable so the tests can shrink blocks to a single row.
var qpoolBlockCols = 1024

// qpoolBlockRows is how many output rows ow wide one pooled block takes: as
// many as qpoolBlockCols holds, at least one, and — when that many fit — a
// multiple of the rows whose columns fill whole panels of nr (ow&-ow is the
// largest power of two dividing ow, as nr is one), so no block but the last
// ends in a ragged panel.
func qpoolBlockRows(ow, nr int) int {
	rows := max(qpoolBlockCols/max(ow, 1), 1)
	if unit := nr / min(nr, ow&-ow); rows >= unit {
		rows = rows / unit * unit
	}
	return rows
}

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
// into y: each image's ⌈OutC/4⌉ quad planes of OutSize's pixels. u8 and i32
// hold ScratchLen(h, w): one image's padded pixel rows, the pool's
// accumulator slabs, and the product's own.
//
// Each image is one quantized GEMM whose B operand is the image's padded
// rows (see stemView); with a pool, the epilogue pools before it
// requantizes (see qpoolGeometry).
func (st *QStem) ForwardInto(pix []uint8, n, h, w int, lut *[256]uint8, y []uint8, u8 []uint8, i32 []int32) {
	s := st.Spec
	g := st.geometry(n, h, w)
	k, il, ol := s.KH*s.KW*4, h*w*4, quadPlanes(s.OutC)*4*g.outH*g.outW
	if s.InC > 4 || len(pix) < n*il || st.W.m != s.OutC || st.W.k != k ||
		len(st.RQ.Mult) < s.OutC || len(st.RQ.Beta) < s.OutC || len(y) < n*ol {
		panic(fmt.Sprintf("tensor: QStem.ForwardInto: pixels %d / weights %d×%d / requant %d,%d / y %d do not fit %d images of %d×%d under %+v",
			len(pix), st.W.m, st.W.k, len(st.RQ.Mult), len(st.RQ.Beta), len(y), n, h, w, s))
	}
	checkScratch("QStem.ForwardInto", len(u8), g.u8)
	checkScratch("QStem.ForwardInto accumulators", len(i32), g.i32)
	if lut == nil {
		lut = &identityU8
	}
	view := g.view
	view.buf, u8 = u8[:g.viewLen], u8[g.viewLen:]
	ep := qgemmEpilogue{rq: st.RQ, ld: g.outH * g.outW}
	var pool qpoolRun
	if g.spec.K > 0 {
		pool, i32 = g.run(i32)
		ep.pool = &pool
	}
	for i := 0; i < n; i++ {
		view.setImage(pix[i*il:(i+1)*il], h, w, lut, st.ZP)
		ep.begin(y[i*ol : (i+1)*ol])
		qgemmDispatch(st.W, qgemmB{stem: &view}, nil, s.OutC, k, g.convH*g.ow, &ep, u8, i32)
	}
}

// stemGeometry is how ForwardInto runs over h×w images: the convolution's
// output and its pool (see qpoolGeometry), the padded-row view, and the
// scratch — u8: the view's rows, then the product's; i32: the pool's, then
// the product's.
type stemGeometry struct {
	qpoolGeometry
	view    stemView
	viewLen int
	u8, i32 int
}

func (st *QStem) geometry(n, h, w int) stemGeometry {
	s := st.Spec
	oh, ow := s.OutSize(h, w)
	if oh == 0 || ow == 0 {
		panicEmptyOutput("QStem.ForwardInto", []int{n, s.InC, h, w}, s.KH, s.KW, s.PadH, s.PadW)
	}
	g := stemGeometry{qpoolGeometry: newQPoolGeometry("QStem.ForwardInto", st.Pool, n, s.OutC, oh, ow)}
	g.view = stemView{s: s, ow: ow, words: (w + 2*s.PadW + s.StrideW - 1) / s.StrideW, rows: (g.convH-1)*s.StrideH + s.KH}
	g.view.rowLen = 4 * s.StrideW * g.view.words
	g.viewLen = roundUp(g.view.rows*g.view.rowLen, 64)
	_, _, u8, i32 := qgemmSplit(s.OutC, s.KH*s.KW*4, g.convH*ow, true, g.blockCols, st.Pool.K == 0)
	g.u8, g.i32 = g.viewLen+u8, g.i32Len+i32
	return g
}

// ScratchLen is the scratch ForwardInto needs for h×w images. Like
// ForwardInto, it refuses a stem whose convolution or pool output is empty.
func (st *QStem) ScratchLen(h, w int) (u8, i32 int) {
	g := st.geometry(1, h, w)
	return g.u8, g.i32
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
// phase run's end, which no window reads — four zero points. The vector tier
// builds a row, all its phase runs, in one lutRowU8 call when StrideW is 1
// or 2 and the row is at least 16 words; setRun is the portable tier.
func (v *stemView) setImage(pix []uint8, h, w int, lut *[256]uint8, zp uint8) {
	s := v.s
	fill := uint32(zp) * 0x01010101
	vector := haveQuantASM && s.StrideW <= 2 && s.StrideW*v.words >= 16
	var deltas [256]uint8
	if vector {
		lutDeltas(&deltas, lut)
	}
	for r := 0; r < v.rows; r++ {
		iy := r - s.PadH
		row := v.buf[r*v.rowLen : (r+1)*v.rowLen]
		if vector {
			src, cols := pix, 0
			if iy >= 0 && iy < h {
				src, cols = pix[iy*w*4:(iy+1)*w*4], w
			}
			lutRowU8(&row[0], &src[0], &deltas, int64(v.words), int64(s.StrideW), int64(s.PadW), int64(cols), fill)
			continue
		}
		for p := 0; p < s.StrideW; p++ {
			run := row[p*v.words*4 : (p+1)*v.words*4]
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

// lutDeltas writes the table lutRowU8 looks bytes up in: lut in 16-byte
// slices, each half's slice i XOR its slice i+1, and each half's last slice
// as it is. XOR-ing the slices h…7 of a half back together telescopes to
// lut's slice h, which is how lutRowU8's rounds, each picking the bytes
// whose high nibble is at most its own, arrive at each byte's entry.
func lutDeltas(deltas, lut *[256]uint8) {
	for i, v := range lut {
		if i&0x70 != 0x70 {
			v ^= lut[i+16]
		}
		deltas[i] = v
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
// micro-panel layout, panels nr columns wide (see qgemmB.pack). p0 and kc
// are multiples of 4, so the block's quads are the taps p0/4 …; the columns
// of one panel that lie in one output row are, per tap, one run of
// consecutive words of one padded row, so each such segment — a whole
// panel, unless the panel straddles a row end or the block's — is one
// copyTaps of every tap through the tap-offset table. Columns past nc in
// the last panel read zero.
func (v *stemView) pack(dst []uint8, p0, kc, j0, nc, nr int) {
	s := v.s
	quads, step := kc/4, kc*nr
	if nc%nr != 0 {
		clear(dst[nc/nr*step:][:step])
	}
	// Each quad's tap as a byte offset from its window's first word.
	var taps [kcQBlock / 4]int
	reach := 0 // past the furthest tap's first word
	for q := range taps[:quads] {
		ky, kx := (p0/4+q)/s.KW, (p0/4+q)%s.KW
		taps[q] = ky*v.rowLen + (kx%s.StrideW*v.words+kx/s.StrideW)*4
		reach = max(reach, taps[q])
	}
	for j := j0; j < j0+nc; {
		oy, ox := j/v.ow, j%v.ow
		c := j - j0
		lane := c % nr
		cols := min(v.ow-ox, j0+nc-j, nr-lane)
		window := oy*s.StrideH*v.rowLen + ox*4
		// Every byte either loop touches, bounds-checked once.
		src := v.buf[window : window+reach+cols*4]
		panel := dst[c/nr*step+lane*4:][:(quads-1)*4*nr+cols*4]
		if haveQuantASM {
			copyTaps(&panel[0], int64(4*nr), &src[0], &taps[0], int64(quads), int64(cols))
		} else {
			for q, off := range taps[:quads] {
				copy(panel[q*4*nr:][:cols*4], src[off:])
			}
		}
		j += cols
	}
}

// qpoolGeometry is how a quantized convolution of m channels with an oh×ow
// output runs the unpadded max pool behind it, if any (spec.K > 0), in its
// epilogue (see qpoolRun): the stage's output size, the convolution's rows
// that some window reads (it computes no others), the rows per block — whole
// output rows, as qpoolBlockRows picks them, at most the rows computed — and
// the product's columns a block, and the pool's int32 scratch (i32Len): the
// m accumulator slabs, one quad plane's pooled rows and poolRow's, each part
// starting 64 bytes from the last so the kernels' loads do not split cache
// lines. Without a pool it is the convolution's own output, all of it, in
// the tier's column blocks (blockCols 0) and no scratch of its own.
type qpoolGeometry struct {
	spec                        PoolSpec
	m, ow                       int
	outH, outW, convH           int
	blockRows, blockCols        int
	slabLen, pooledLen, rowsLen int
	i32Len                      int
}

// newQPoolGeometry returns the geometry of spec over an oh×ow output of m
// channels. It refuses a padded pool, and one whose output is empty, naming
// fn and the n images' convolution output.
func newQPoolGeometry(fn string, spec PoolSpec, n, m, oh, ow int) qpoolGeometry {
	g := qpoolGeometry{spec: spec, m: m, ow: ow, outH: oh, outW: ow, convH: oh}
	if spec.K == 0 {
		return g
	}
	if spec.Pad != 0 {
		panic(fmt.Sprintf("tensor: %s: fused pool %+v must be unpadded", fn, spec))
	}
	g.outH, g.outW = spec.OutSize(oh, ow)
	if g.outH == 0 || g.outW == 0 {
		panicEmptyOutput(fn, []int{n, m, oh, ow}, spec.K, spec.K, 0, 0)
	}
	g.convH = (g.outH-1)*spec.Stride + spec.K
	g.blockRows = min(qpoolBlockRows(ow, qgemmTier.nr), g.convH)
	// A block completes at most (blockRows-1)/Stride+1 pooled rows.
	g.slabLen = roundUp(m*(g.blockRows+spec.K-1)*ow, 16)
	g.pooledLen = roundUp(4*((g.blockRows-1)/spec.Stride+1)*g.outW, 16)
	g.rowsLen = roundUp(spec.ScratchLen(ow), 16)
	g.blockCols, g.i32Len = g.blockRows*ow, g.slabLen+g.pooledLen+g.rowsLen
	return g
}

// run returns the pooled epilogue over the head of i32 (i32Len of it) and
// the rest of i32.
func (g *qpoolGeometry) run(i32 []int32) (qpoolRun, []int32) {
	r := qpoolRun{poolWindow: poolWindow{spec: g.spec, ow: g.ow, poh: g.outH, pow: g.outW, cap: g.blockRows + g.spec.K - 1}, blockRows: g.blockRows, m: g.m}
	r.buf, i32 = i32[:g.slabLen], i32[g.slabLen:]
	r.pooled, i32 = i32[:g.pooledLen], i32[g.pooledLen:]
	r.rows, i32 = i32[:g.rowsLen], i32[g.rowsLen:]
	return r, i32
}

// qpoolRun is poolRun for the INT8 engine: the blocked driver writes each
// block's int32 accumulators — whole output rows of the convolution, in
// order — into the channel slabs of buf (see target), and emit max-pools
// every window they complete on the raw accumulators, then requantizes only
// the pooled values into the output's quad planes. RequantizeU8 never
// decreases as its accumulator grows (Mult ≥ 0, which the INT8 engine's
// builder checks), so the requantized window maximum is the window maximum
// of the requantized values: each pooled byte is the one a window scan of
// the materialized output finds.
type qpoolRun struct {
	poolWindow
	blockRows int     // rows per block the driver hands over (the last may be fewer)
	m         int     // channels
	dst       []uint8 // the image's pooled output: ⌈m/4⌉ quad planes of poh×pow
	buf       []int32 // m slabs of cap rows of accumulators
	pooled    []int32 // one quad plane's four channels of a block's pooled rows
	rows      []int32 // poolRow's scratch
}

// target returns where the next block's product goes: row i of the block's
// m×(rows·ow) accumulator matrix at c[i*ldc:], below the rows held in slab
// i.
func (r *qpoolRun) target() (c []int32, ldc int) {
	return r.buf[r.held*r.ow:], r.cap * r.ow
}

// emit takes the rows just written at target, pools every window they
// complete, requantizes the pooled rows a quad plane at a time
// (requantQuads) and carries the rows later windows still need.
func (r *qpoolRun) emit(rows int, rq Requant) {
	py, done, first, keep, end := r.advance(rows)
	ow, ld, pow := r.ow, r.cap*r.ow, r.pow
	if pooledRows := done - py; pooledRows > 0 {
		cols := pooledRows * pow
		// A 3×3/2 pool, each of the paper net's, takes one pass over the
		// slab (poolI32K3S2) instead of poolRow's three a row.
		k3s2 := haveQuantASM && r.spec.K == 3 && r.spec.Stride == 2 && pow >= 8
		for g := 0; g*4 < r.m; g++ {
			ch := min(4, r.m-g*4)
			for c := 0; c < ch; c++ {
				slab, pooled := r.buf[(g*4+c)*ld+first*ow:(g*4+c+1)*ld], r.pooled[c*cols:][:cols]
				if k3s2 {
					// Through the last window's bottom row and last column.
					slab = slab[:2*pooledRows*ow+2*pow+1]
					poolI32K3S2(&pooled[0], &slab[0], int64(ow), int64(pow), int64(pooledRows))
					continue
				}
				for y := range pooledRows {
					poolRow(pooled[y*pow:][:pow], slab[y*r.spec.Stride*ow:], ow, r.spec, r.rows)
				}
			}
			off := (g*r.poh + py) * pow * 4
			requantQuads(r.dst[off:], r.pooled, cols, ch, cols, rq, g*4)
		}
	}
	for i := 0; i < r.m; i++ {
		slab := r.buf[i*ld : (i+1)*ld]
		copy(slab, slab[keep*ow:end*ow])
	}
}
