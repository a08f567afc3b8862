package tensor

import (
	"encoding/binary"
	"fmt"
	"runtime"
)

// Quantized-GEMM tuning knobs. The driver mirrors the FP32 blocked GEMM
// (gemm.go) — same three-level blocking, same worker pool — but the packed
// layout groups the K dimension into quads of 4 bytes, matching the AVX2
// VPMADDUBSW/VPMADDWD micro-kernel which consumes 4 k-steps per instruction
// pair. K blocks are therefore multiples of 4; partial quads are zero-padded
// during packing (a zero activation byte contributes nothing to the
// accumulator, and the zero-point compensation is applied outside the GEMM).
//
//   - mrQTile×nrQTile is the register tile: 4 rows × 16 int32 columns. The
//     AVX2 kernel holds it in 8 YMM accumulators, plus the ones vector, two B
//     vectors, the A broadcast and a madd temporary — 13 of the 16 YMM
//     registers; the VNNI kernel holds it in 4 ZMM accumulators, twice (even
//     and odd quads), plus two B vectors, A coming from memory.
//   - kcQBlock (a multiple of 4) keeps the packed A panel (4×kc bytes) and B
//     panel (kc×16 bytes) L1-resident.
//   - mcQBlock / ncQBlock keep the packed A block L2- and the packed B block
//     LLC-resident; int8 data is 4× denser than float32, so the same cache
//     budget covers 4× the logical block volume.
const (
	mrQTile  = 4
	nrQTile  = 16
	kcQBlock = 512
	mcQBlock = 128
	ncQBlock = 4096

	qgemmParallelThreshold = 1 << 16
	qgemmSmallThreshold    = 1 << 13
)

// QGemmKernelName identifies the dispatched quantized micro-kernel tier
// ("avx512-vnni-4x16", "avx2-4x16", or "portable"), beside GemmKernelName.
func QGemmKernelName() string {
	switch {
	case haveVNNI:
		return "avx512-vnni-4x16"
	case haveQuantASM:
		return "avx2-4x16"
	}
	return "portable"
}

// QGemm computes C = A×B where A is an m×k int8 matrix (quantized weights),
// B is a k×n uint8 matrix (quantized activations, values ≤ QMaxU8) and C is
// an m×n int32 accumulator matrix, all row-major. C is overwritten.
//
// Activation values must not exceed QMaxU8: the AVX2 kernel's pairwise int16
// accumulation relies on 2·127·127 < 2¹⁵−1 to be saturation-free.
func QGemm(a []int8, b []uint8, c []int32, m, k, n int) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic("tensor: QGemm buffer too small")
	}
	qgemmDispatch(QWeights{data: a}, qgemmB{data: b}, c, m, k, n, nil)
}

// QWeights is the A operand of a quantized product: the row-major m×k s8
// matrix and, when built by packQWeights, its quad micro-panels, so the
// blocked driver packs nothing. The panel layout is the same under every
// kernel tier. Immutable once built: share it freely.
type QWeights struct {
	data []int8
	m, k int
	// quads holds, for each kcQBlock of K in turn, packAQuads' output for
	// all M rows: the block at k offset pc starts at mPad*pc (mPad = M
	// rounded up to mrQTile; every block but the last spans whole quads), and
	// its rows from ic on — ic a multiple of mrQTile — ic*quads*4 further.
	quads []int8
}

// packQWeights wraps the row-major m×k matrix wq, which it keeps (the
// unblocked path reads it) and must not change afterwards, with its packed
// panels.
func packQWeights(wq []int8, m, k int) QWeights {
	if len(wq) < m*k {
		panic(fmt.Sprintf("tensor: packQWeights: %d weights, want %d×%d", len(wq), m, k))
	}
	mPad := (m + mrQTile - 1) / mrQTile * mrQTile
	w := QWeights{data: wq, m: m, k: k, quads: make([]int8, mPad*((k+3)/4*4))}
	for pc := 0; pc < k; pc += kcQBlock {
		packAQuads(w.quads[mPad*pc:], wq, k, 0, m, pc, min(kcQBlock, k-pc))
	}
	return w
}

// Len returns the number of weights, m×k.
func (w QWeights) Len() int { return w.m * w.k }

// qgemmB is the B operand of a quantized product: a dense row-major k×n
// matrix (QGemm), or — when quad is set — the implicit column matrix of a
// convolution over quad planes, whose row q is K quad q, one 32-bit word a
// column (see QConv), or — when stem is set — the stem's, read from padded
// pixel rows (see stemView).
type qgemmB struct {
	data []uint8
	quad *convView[uint32]
	stem *stemView
}

// qgemmEpilogue requantizes a product's finished accumulators into the next
// layer's u8 activations, quad planes of ld words: row i of the product goes
// through RequantizeU8 with rq's constants for channel i, rows 4g…4g+3 as
// the four bytes of each word of plane g from dst on (see putQuads) — or,
// when pool is set, into the pool's slabs, which it max-pools on the spot. A
// product with an epilogue never materializes its m×n int32 matrix (see
// qgemmBlocked).
type qgemmEpilogue struct {
	rq   Requant
	dst  []uint8
	ld   int
	pool *qpoolRun
}

// apply requantizes the m×nc accumulator block acc (row stride nc) into
// columns [j0, j0+nc) of the destination planes, four rows at a time
// through a 4×nc staging block small enough to stay in L1; the rows of the
// last plane past m, which no weight reads, hold the output zero point.
func (e *qgemmEpilogue) apply(acc []int32, m, nc, j0 int) {
	stagep := GetScratchU8(4 * nc)
	stage := *stagep
	for g := 0; g*4 < m; g++ {
		for r := 0; r < 4; r++ {
			row := stage[r*nc : (r+1)*nc]
			if i := g*4 + r; i < m {
				RequantizeU8(row, acc[i*nc:(i+1)*nc], e.rq.Mult[i], e.rq.Beta[i], e.rq.ZOut, e.rq.ReLU)
				continue
			}
			for j := range row {
				row[j] = uint8(e.rq.ZOut)
			}
		}
		off := (g*e.ld + j0) * 4
		putQuads(e.dst[off:off+nc*4:off+nc*4], stage, nc)
	}
	PutScratchU8(stagep)
}

// putQuads writes four nc-byte rows (src[r*nc:], r < 4) to dst as nc 32-bit
// words, column j's four row bytes at dst[4j:]: transposeQuad over the whole
// 16-column groups, then the ragged tail a word at a time. transposeQuad's
// own tail would zero-pad its group to 16 columns, which in a quad plane
// runs into the next plane.
func putQuads(dst, src []uint8, nc int) {
	full := nc &^ (nrQTile - 1)
	if full > 0 {
		transposeQuad(dst, 4*nrQTile, src, nc, full)
	}
	for j := full; j < nc; j++ {
		d := dst[4*j : 4*j+4 : 4*j+4]
		d[0], d[1], d[2], d[3] = src[j], src[nc+j], src[2*nc+j], src[3*nc+j]
	}
}

// qgemmDispatch routes a product to the small unblocked loop or the packed
// blocked kernel. With ep nil it overwrites the m×n matrix c with the
// product; with an epilogue c is unused and the requantized bytes land in
// ep.dst. Neither way does the blocked path clear an accumulator: the first
// k-block's kernels store instead of adding.
func qgemmDispatch(a QWeights, b qgemmB, c []int32, m, k, n int, ep *qgemmEpilogue) {
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		if ep == nil {
			clear(c[:m*n])
		}
		return
	}
	if m*k*n > qgemmSmallThreshold {
		qgemmBlocked(a, b, c, m, k, n, ep)
		return
	}
	if ep == nil {
		clear(c[:m*n])
		qgemmSmall(a.data, b, c, m, k, n)
		return
	}
	accp := GetScratchI32(m * n)
	clear(*accp)
	qgemmSmall(a.data, b, *accp, m, k, n)
	ep.apply(*accp, m, n, 0)
	PutScratchI32(accp)
}

// qgemmSmall is the unblocked path for problems too small to amortize
// packing. k is outermost so a quad operand produces each row of its column
// matrix once, four product rows at a time, interleaved: row p is every
// fourth byte of quad row p/4, from byte p%4 on.
func qgemmSmall(a []int8, b qgemmB, c []int32, m, k, n int) {
	var rowp *[]uint8
	var words []uint32
	if b.quad != nil {
		rowp = GetScratchU8(4 * n)
		words = quadWords(*rowp)
	}
	for p := 0; p < k; p++ {
		var brow []uint8
		step := 1
		if b.quad != nil {
			if p%4 == 0 {
				b.quad.row(words, p/4, 0)
			}
			brow, step = (*rowp)[p%4:], 4
		} else {
			brow = b.data[p*n : p*n+n]
		}
		for i := 0; i < m; i++ {
			w := int32(a[i*k+p])
			if w == 0 {
				continue
			}
			crow := c[i*n : i*n+n]
			for j := range crow {
				crow[j] += w * int32(brow[j*step])
			}
		}
	}
	if rowp != nil {
		PutScratchU8(rowp)
	}
}

// qgemmBlocked runs the packed three-level blocked product. Column panels of
// each block fan across the shared worker pool exactly like the FP32 path;
// panels write disjoint C regions.
//
// With an epilogue, the accumulator is one m×nc block instead of the m×n
// matrix: each ncQBlock column block is accumulated over every k-block and
// requantized into ep.dst while it is still cache-resident. With a pooling
// epilogue the blocks are the pool's blockRows whole output rows instead, so
// each is requantized and pooled while it is cache-resident (see qpoolRun).
func qgemmBlocked(a QWeights, b qgemmB, c []int32, m, k, n int, ep *qgemmEpilogue) {
	mPad := (m + mrQTile - 1) / mrQTile * mrQTile
	// One P has no idle core to recruit: run serial.
	serial := m*k*n < qgemmParallelThreshold || runtime.GOMAXPROCS(0) < 2
	step := ncQBlock
	if ep != nil && ep.pool != nil {
		step = ep.pool.blockRows * ep.pool.ow
	}
	var accp *[]int32
	if ep != nil {
		accp = GetScratchI32(m * min(step, n))
	}
	for jc := 0; jc < n; jc += step {
		nc := min(step, n-jc)
		ncPanels := (nc + nrQTile - 1) / nrQTile
		cblk, cj, ldc := c, jc, n
		if ep != nil {
			cblk, cj, ldc = (*accp)[:m*nc], 0, nc
		}
		for pc := 0; pc < k; pc += kcQBlock {
			kc := min(kcQBlock, k-pc)
			quads := (kc + 3) / 4
			bbufp := GetScratchU8(ncPanels * nrQTile * quads * 4)
			bbuf := *bbufp
			packBQuads(bbuf, b, n, pc, kc, jc, nc)
			for ic := 0; ic < m; ic += mcQBlock {
				mc := min(mcQBlock, m-ic)
				mcPanels := (mc + mrQTile - 1) / mrQTile
				var abufp *[]int8
				var abuf []int8
				if a.quads != nil {
					abuf = a.quads[mPad*pc+ic*quads*4:]
				} else {
					abufp = GetScratchI8(mcPanels * mrQTile * quads * 4)
					abuf = *abufp
					packAQuads(abuf, a.data, k, ic, mc, pc, kc)
				}
				blk := qgemmBlock{
					abuf: abuf, bbuf: bbuf, c: cblk,
					ic: ic, jc: cj, quads: quads, mc: mc, nc: nc,
					mcPanels: mcPanels, n: ldc,
					store: pc == 0,
				}
				if serial {
					for jp := 0; jp < ncPanels; jp++ {
						blk.panel(jp)
					}
				} else {
					blk.parallel(ncPanels)
				}
				if abufp != nil {
					PutScratchI8(abufp)
				}
			}
			PutScratchU8(bbufp)
		}
		switch {
		case ep == nil:
		case ep.pool != nil:
			ep.pool.emit(cblk, m, nc, ep.rq)
		default:
			ep.apply(cblk, m, nc, jc)
		}
	}
	if accp != nil {
		PutScratchI32(accp)
	}
}

// qgemmBlock carries one packed block product; panel runs the micro-kernel
// down one nrQTile-wide column panel. Same stack/heap split as gemmBlock.
type qgemmBlock struct {
	abuf          []int8
	bbuf          []uint8
	c             []int32
	ic, jc        int
	quads, mc, nc int
	mcPanels, n   int
	store         bool // overwrite C with the block product instead of adding to it
}

func (g qgemmBlock) parallel(ncPanels int) {
	parallelFor(ncPanels, g.panel)
}

func (g *qgemmBlock) panel(jp int) {
	var tile [mrQTile * nrQTile]int32
	bpanel := g.bbuf[jp*nrQTile*g.quads*4:]
	j := g.jc + jp*nrQTile
	cols := min(nrQTile, g.nc-jp*nrQTile)
	for ip := 0; ip < g.mcPanels; ip++ {
		apanel := g.abuf[ip*mrQTile*g.quads*4:]
		i := g.ic + ip*mrQTile
		rows := min(mrQTile, g.mc-ip*mrQTile)
		if rows == mrQTile && cols == nrQTile {
			qgemmKernel(g.quads, apanel, bpanel, g.c[i*g.n+j:], g.n, g.store)
			continue
		}
		// Edge tile: the full-size kernel stores into a scratch tile, whose
		// valid region then replaces or joins C's.
		qgemmKernel(g.quads, apanel, bpanel, tile[:], nrQTile, true)
		for r := 0; r < rows; r++ {
			crow := g.c[(i+r)*g.n+j:]
			trow := tile[r*nrQTile:]
			if g.store {
				copy(crow[:cols], trow)
				continue
			}
			for t := 0; t < cols; t++ {
				crow[t] += trow[t]
			}
		}
	}
}

// packAQuads copies the mc×kc block of A at (i0, p0) into quad micro-panel
// layout: for each panel of mrQTile rows, quad q holds rows' bytes
// [r0 k..k+3 | r1 k..k+3 | ...], zero-padded past the last valid row and past
// kc within the final partial quad.
func packAQuads(dst []int8, a []int8, lda, i0, mc, p0, kc int) {
	quads := (kc + 3) / 4
	fullQuads := kc / 4
	di := 0
	for ir := 0; ir < mc; ir += mrQTile {
		rows := min(mrQTile, mc-ir)
		if rows == mrQTile {
			// Full panel: copy 4-byte k-groups from the four source rows.
			base := (i0 + ir) * lda
			r0 := a[base+p0:]
			r1 := a[base+lda+p0:]
			r2 := a[base+2*lda+p0:]
			r3 := a[base+3*lda+p0:]
			for q := 0; q < fullQuads; q++ {
				p := q * 4
				out := dst[di : di+16]
				copy(out[0:4], r0[p:p+4])
				copy(out[4:8], r1[p:p+4])
				copy(out[8:12], r2[p:p+4])
				copy(out[12:16], r3[p:p+4])
				di += 16
			}
			if fullQuads < quads {
				p := fullQuads * 4
				kq := kc - p
				out := dst[di : di+16]
				clear(out)
				copy(out[0:], r0[p:p+kq])
				copy(out[4:], r1[p:p+kq])
				copy(out[8:], r2[p:p+kq])
				copy(out[12:], r3[p:p+kq])
				di += 16
			}
			continue
		}
		for q := 0; q < quads; q++ {
			p := q * 4
			kq := min(4, kc-p)
			for r := 0; r < mrQTile; r++ {
				if r < rows {
					src := (i0+ir+r)*lda + p0 + p
					for t := 0; t < 4; t++ {
						if t < kq {
							dst[di+t] = a[src+t]
						} else {
							dst[di+t] = 0
						}
					}
				} else {
					dst[di] = 0
					dst[di+1] = 0
					dst[di+2] = 0
					dst[di+3] = 0
				}
				di += 4
			}
		}
	}
}

// packBQuads writes the kc×nc block of B at (p0, j0) into quad micro-panel
// layout: for each panel of nrQTile columns, quad q holds per-column byte
// groups [c0 k..k+3 | c1 k..k+3 | ...], zero-padded past the last valid
// column and past kc within the final partial quad.
//
// A quad operand's quads are words already: its rows go straight into the
// panels as words, through the walker FP32 packs with (packConvPanels), and
// a stem operand packs its pixels itself. A dense B's quad is four rows of
// the block run through transposeQuad: a full one where it lies (ldb
// apart), the ragged last one, above zero rows, from a 4×nc staging block.
func packBQuads(dst []uint8, b qgemmB, ldb, p0, kc, j0, nc int) {
	switch {
	case b.stem != nil:
		b.stem.pack(dst, p0, kc, j0, nc)
		return
	case b.quad != nil:
		packConvPanels(b.quad, quadWords(dst), p0/4, kc/4, j0, nc, nrQTile)
		return
	}
	quads := (kc + 3) / 4
	stagep := GetScratchU8(4 * nc)
	stage := *stagep
	for q := 0; q < quads; q++ {
		p, rows := p0+q*4, min(4, kc-q*4)
		src, ld := stage, nc
		if rows == 4 {
			src, ld = b.data[p*ldb+j0:], ldb
		} else {
			for t := 0; t < rows; t++ {
				copy(stage[t*nc:(t+1)*nc], b.data[(p+t)*ldb+j0:])
			}
			clear(stage[rows*nc:])
		}
		transposeQuad(dst[q*4*nrQTile:], quads*4*nrQTile, src, ld, nc)
	}
	PutScratchU8(stagep)
}

// transposeQuad interleaves four nc-byte rows (src[r*ld:], r < 4) into quad
// groups: panel jp's 16 columns become the 64 bytes at dst[jp*step:], column
// j's four row bytes adjacent. The vector body is a 4×16 byte transpose per
// panel; the portable loop assembles one little-endian word per column, and
// also finishes the last panel when nc is not a multiple of 16, zero-padding
// the missing columns.
func transposeQuad(dst []uint8, step int, src []uint8, ld, nc int) {
	jp := 0
	if full := nc / nrQTile; haveQuantASM && full > 0 {
		transposeQuad16(&dst[0], int64(step), &src[0], int64(ld), int64(full))
		jp = full
	}
	r0, r1, r2, r3 := src[:nc], src[ld:ld+nc], src[2*ld:2*ld+nc], src[3*ld:3*ld+nc]
	for ; jp*nrQTile < nc; jp++ {
		j0 := jp * nrQTile
		cols := min(nrQTile, nc-j0)
		out := dst[jp*step : jp*step+4*nrQTile]
		for j := 0; j < cols; j++ {
			w := uint32(r0[j0+j]) | uint32(r1[j0+j])<<8 | uint32(r2[j0+j])<<16 | uint32(r3[j0+j])<<24
			binary.LittleEndian.PutUint32(out[j*4:], w)
		}
		clear(out[cols*4:])
	}
}

// qgemmKernelGeneric is the portable micro-kernel over the packed quad
// panels: the mrQTile×nrQTile int32 tile at stride ldc accumulates `quads`
// groups of 4 rank-1 byte updates. Used on non-amd64 builds and as the
// runtime fallback when AVX2 is unavailable. With store set the tile is
// cleared first.
func qgemmKernelGeneric(quads int, a []int8, b []uint8, ctile []int32, ldc int, store bool) {
	if store {
		for r := 0; r < mrQTile; r++ {
			clear(ctile[r*ldc : r*ldc+nrQTile])
		}
	}
	for q := 0; q < quads; q++ {
		ap := a[q*mrQTile*4 : (q+1)*mrQTile*4]
		bp := b[q*nrQTile*4 : (q+1)*nrQTile*4]
		for r := 0; r < mrQTile; r++ {
			a0 := int32(ap[r*4])
			a1 := int32(ap[r*4+1])
			a2 := int32(ap[r*4+2])
			a3 := int32(ap[r*4+3])
			if a0|a1|a2|a3 == 0 {
				continue
			}
			crow := ctile[r*ldc : r*ldc+nrQTile]
			for j := 0; j < nrQTile; j++ {
				bj := bp[j*4 : j*4+4]
				crow[j] += a0*int32(bj[0]) + a1*int32(bj[1]) + a2*int32(bj[2]) + a3*int32(bj[3])
			}
		}
	}
}
