package tensor

import (
	"encoding/binary"
	"fmt"
)

// Quantized-GEMM tuning knobs. INT8 runs the same blocked driver as FP32
// (blocked.go) — same three-level blocking, same worker pool — with its own
// tier, whose packed layout groups the K dimension into quads of 4 bytes,
// matching the kernels, which consume 4 k-steps per instruction (pair). K
// blocks are therefore multiples of 4; partial quads are zero-padded during
// packing (a zero activation byte contributes nothing to the accumulator,
// and the zero-point compensation is applied outside the GEMM).
//
//   - mrQTile×nrQTile is the portable and AVX2 register tile: 4 rows × 16
//     int32 columns. The AVX2 kernel holds it in 8 YMM accumulators, plus
//     the ones vector, two B vectors, the A broadcast and a madd temporary —
//     13 of the 16 YMM registers. The AVX512-VNNI tier runs an 8×32 tile
//     instead (vnniQTier): 16 ZMM accumulators, two B vectors and eight A
//     broadcasts a quad. Each tier's packers and edge tiles read its own
//     mr and nr.
//   - kcQBlock (a multiple of 4) keeps the packed A panel (mr×kc bytes) and
//     B panel (kc×nr bytes) L1-resident.
//   - mcQBlock / ncQBlock keep the packed A block L2- and the packed B block
//     LLC-resident; int8 data is 4× denser than float32, so the same cache
//     budget covers 4× the logical block volume. Both are multiples of
//     every tier's mr and nr.
const (
	mrQTile  = 4
	nrQTile  = 16
	kcQBlock = 512
	mcQBlock = 128
	ncQBlock = 4096
)

// qgemmTier is the INT8 kernel tier in use: the portable quad kernel by
// default; init in gemm_amd64.go selects the AVX2 4×16 or the AVX512-VNNI
// 8×32 tier once, when the CPU qualifies.
var qgemmTier = gemmTierT{name: "portable", kind: tierKindQuad, mr: mrQTile, nr: nrQTile, mc: mcQBlock, kc: kcQBlock, nc: ncQBlock}

// QGemmKernelName identifies the dispatched quantized micro-kernel tier
// ("avx512-vnni-8x32", "avx2-4x16", or "portable"), beside GemmKernelName.
func QGemmKernelName() string { return qgemmTier.name }

// QGemm computes C = A×B where A is an m×k int8 matrix (quantized weights),
// B is a k×n uint8 matrix (quantized activations, values ≤ QMaxU8) and C is
// an m×n int32 accumulator matrix, all row-major. C is overwritten.
//
// Activation values must not exceed QMaxU8: the AVX2 kernel's pairwise int16
// accumulation relies on 2·127·127 < 2¹⁵−1 to be saturation-free.
func QGemm(a []int8, b []uint8, c []int32, m, k, n int) {
	checkGemm("QGemm", len(a), len(b), len(c), m, k, n)
	_, step, u8Len, _ := qgemmSplit(m, k, n, false, 0, false)
	buf := GetScratchU8(u8Len + 4*min(step, n))
	qgemmDispatch(QWeights{data: a}, qgemmB{data: b, stage: (*buf)[u8Len:]}, c, m, k, n, nil, (*buf)[:u8Len], nil)
	PutScratchU8(buf)
}

// QWeights is the A operand of a quantized product: the row-major m×k s8
// matrix and, when built by packQWeights, its quad micro-panels for the tier
// active then, so the blocked driver packs nothing. Immutable once built:
// share it freely.
type QWeights struct {
	data []int8
	m, k int
	// quads is packPanels' output for a tile mr rows high.
	quads []int8
	mr    int
}

// packQWeights wraps the row-major m×k matrix wq, which it keeps (the
// unblocked path reads it) and must not change afterwards, with its packed
// panels.
func packQWeights(wq []int8, m, k int) QWeights {
	if len(wq) < m*k {
		panic(fmt.Sprintf("tensor: packQWeights: %d weights, want %d×%d", len(wq), m, k))
	}
	t := qgemmTier
	w := QWeights{data: wq, m: m, k: k, quads: make([]int8, t.panelsLen(m, k)), mr: t.mr}
	packPanels(w.quads, wq, k, false, m, k, t)
	return w
}

// panels returns the quad micro-panels of the m×k weights for tier t: the
// packed ones, or — when there are none, or they were packed for another
// tier's tile height (tests swap tiers) — the matrix packed now into
// scratch, which the caller returns.
func (w QWeights) panels(t gemmTierT, m, k int) ([]int8, *[]int8) {
	if w.quads != nil && w.mr == t.mr {
		return w.quads, nil
	}
	buf := GetScratchI8(t.panelsLen(m, k))
	packPanels(*buf, w.data, k, false, m, k, t)
	return *buf, buf
}

// Len returns the number of weights, m×k.
func (w QWeights) Len() int { return w.m * w.k }

// qgemmB is the B operand of a quantized product: a dense row-major k×n
// matrix (QGemm), rows ld apart, or — when quad is set — the implicit column
// matrix of a convolution over quad planes, whose row q is K quad q, one
// 32-bit word a column (see QConv), or — when stem is set — the stem's, read
// from padded pixel rows (see stemView).
type qgemmB struct {
	data []uint8
	ld   int
	quad *convView[uint32]
	stem *stemView
	// stage is a dense B's scratch for its ragged last quad (see pack): 4
	// rows as wide as a column block.
	stage []uint8
}

// qgemmEpilogue requantizes a product's finished accumulators into the next
// layer's u8 activations, quad planes of ld words: rows 4g…4g+3 of the
// product, with rq's constants for their channels, as the four bytes of
// each word of plane g from dst on (see requantQuads) — or, when pool is
// set, the pool's: the product then lands in the pool's slabs, which
// max-pool it first and requantize only the pooled values. A product with an
// epilogue never materializes its m×n int32 matrix (see qgemmDispatch).
type qgemmEpilogue struct {
	rq   Requant
	dst  []uint8
	ld   int
	pool *qpoolRun
}

// begin points e at one image's destination: the quad planes apply writes
// from, or the pooled planes of a pooling epilogue, whose carried rows it
// drops.
func (e *qgemmEpilogue) begin(dst []uint8) {
	if e.pool != nil {
		e.pool.dst, e.pool.base, e.pool.held, e.pool.py = dst, 0, 0, 0
		return
	}
	e.dst = dst
}

// apply requantizes the m×nc accumulator block acc (row stride nc) into
// columns [j0, j0+nc) of the destination planes, a plane's four rows at a
// time.
func (e *qgemmEpilogue) apply(acc []int32, m, nc, j0 int) {
	for g := 0; g*4 < m; g++ {
		off := (g*e.ld + j0) * 4
		requantQuads(e.dst[off:], acc[g*4*nc:], nc, min(4, m-g*4), nc, e.rq, g*4)
	}
}

// requantQuads requantizes columns [0, n) of `rows` ≤ 4 accumulator rows —
// row r at acc[r*ld:], channel ch+r of rq — into n quad words at dst:
// column j's word at dst[4j:], row r's byte (RequantizeU8) in its byte r,
// the bytes of rows past `rows`, which no weight reads, at the output zero
// point. The vector body takes those rows as rows of acc's first times 0
// plus ZOut, which is ZOut exactly; fewer than 8 columns go through it
// zero-padded to 8.
func requantQuads(dst []uint8, acc []int32, ld, rows, n int, rq Requant, ch int) {
	dst = dst[:4*n]
	lo := int32(0)
	if rq.ReLU {
		lo = rq.ZOut
	}
	if !haveQuantASM {
		for j := 0; j < n; j++ {
			d := dst[4*j : 4*j+4 : 4*j+4]
			for r := range d {
				d[r] = uint8(rq.ZOut)
				if r < rows {
					d[r] = requantU8(acc[r*ld+j], rq.Mult[ch+r], rq.Beta[ch+r], lo)
				}
			}
		}
		return
	}
	var k [8]float32
	var a [4]*int32
	for r := range a {
		k[r], k[4+r], a[r] = 0, float32(rq.ZOut), &acc[0]
		if r < rows {
			row := acc[r*ld : r*ld+n]
			k[r], k[4+r], a[r] = rq.Mult[ch+r], rq.Beta[ch+r], &row[0]
		}
	}
	if n >= 8 {
		requantQuads8(&dst[0], a[0], a[1], a[2], a[3], int64(n), &k, uint8(lo), QMaxU8)
		return
	}
	var pad [4][8]int32
	var out [32]uint8
	for r := 0; r < rows; r++ {
		copy(pad[r][:n], acc[r*ld:])
	}
	requantQuads8(&out[0], &pad[0][0], &pad[1][0], &pad[2][0], &pad[3][0], 8, &k, uint8(lo), QMaxU8)
	copy(dst, out[:])
}

// qgemmSplit is how qgemmDispatch runs an m×k×n product: unblocked (small:
// never a stem's, whose operand only packs panels, nor a pooled one's, whose
// blocks are whole output rows) or blocked step columns at a time —
// blockCols when set, else the tier's nc; and the scratch that takes: u8Len
// bytes for the packed B block (an unblocked product's one row of B quads)
// and, when acc is set, i32Len accumulators for an epilogue's column block
// (a pooling epilogue brings its own).
func qgemmSplit(m, k, n int, stem bool, blockCols int, acc bool) (small bool, step, u8Len, i32Len int) {
	t := qgemmTier
	small = m*k*n <= gemmSmallThreshold && !stem && blockCols == 0
	step, u8Len = n, roundUp(4*n, 64)
	if !small {
		step = t.nc
		if blockCols > 0 {
			step = blockCols
		}
		u8Len = bBlockLen(t, k, min(step, n))
	}
	if acc {
		i32Len = m * min(step, n)
	}
	return small, step, u8Len, i32Len
}

// qgemmDispatch routes a product to the small unblocked loop or the blocked
// driver, a column block at a time. With ep nil it overwrites the m×n matrix
// c with the product; with an epilogue c is unused and the requantized bytes
// land in ep.dst: the accumulator is one m×nc column block instead of the
// m×n matrix, each block accumulated over every k-block and requantized
// while it is still cache-resident. With a pooling epilogue the blocks are
// the pool's blockRows whole output rows, which land in its slabs and are
// pooled and requantized while they are cache-resident (see qpoolRun).
// Neither way does the blocked path clear an accumulator: the first
// k-block's kernels store instead of adding. u8 and i32 hold the scratch
// qgemmSplit says the product takes.
func qgemmDispatch(a QWeights, b qgemmB, c []int32, m, k, n int, ep *qgemmEpilogue, u8 []uint8, i32 []int32) {
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		if ep == nil {
			clear(c[:m*n])
		}
		return
	}
	blockCols := 0
	pool := ep != nil && ep.pool != nil
	if pool {
		blockCols = ep.pool.blockRows * ep.pool.ow
	}
	t := qgemmTier
	small, step, u8Len, i32Len := qgemmSplit(m, k, n, b.stem != nil, blockCols, ep != nil && !pool)
	checkScratch("qgemm", len(u8), u8Len)
	checkScratch("qgemm accumulators", len(i32), i32Len)
	var panels []int8
	var buf *[]int8
	if !small {
		panels, buf = a.panels(t, m, k)
	}
	b.ld = n
	for jc := 0; jc < n; jc += step {
		nc := min(step, n-jc)
		cblk, cj, ldc := c, jc, n
		switch {
		case pool:
			cblk, ldc = ep.pool.target()
			cj = 0
		case ep != nil:
			cblk, cj, ldc = i32[:m*nc], 0, nc
		}
		if small {
			clear(cblk[:m*n])
			qgemmSmall(a.data, b, cblk, m, k, n, u8[:u8Len])
		} else {
			blocked[int8, uint8](&b, t, panels, u8[:u8Len], cblk, cj, ldc, m, k, jc, nc, false)
		}
		switch {
		case pool:
			ep.pool.emit(nc/ep.pool.ow, ep.rq)
		case ep != nil:
			ep.apply(cblk, m, nc, jc)
		}
	}
	if buf != nil {
		PutScratchI8(buf)
	}
}

// qgemmSmall is the unblocked path for problems too small to amortize
// packing. k is outermost so a quad operand produces each row of its column
// matrix once, four product rows at a time, interleaved: row p is every
// fourth byte of quad row p/4, from byte p%4 on. row is scratch for one row
// of quads.
func qgemmSmall(a []int8, b qgemmB, c []int32, m, k, n int, row []uint8) {
	var words []uint32
	if b.quad != nil {
		words = quadWords(row[:4*n])
	}
	for p := 0; p < k; p++ {
		var brow []uint8
		step := 1
		if b.quad != nil {
			if p%4 == 0 {
				b.quad.row(words, p/4, 0)
			}
			brow, step = row[p%4:], 4
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
}

// pack writes the kc×nc block of B at (p0, j0) into quad micro-panel
// layout for panels nr columns wide: for each panel, quad q holds
// per-column byte groups [c0 k..k+3 | c1 k..k+3 | ...], zero-padded past
// the last valid column and past kc within the final partial quad.
//
// A quad operand's quads are words already: its rows go straight into the
// panels as words, through the packer FP32 uses (packConvPanels), and a
// stem operand packs its pixels itself. A dense B's quad is four rows of
// the block run through transposeQuad: a full one where it lies (ld
// apart), the ragged last one, above zero rows, from a 4×nc staging block.
func (b *qgemmB) pack(dst []uint8, p0, kc, j0, nc, nr int) {
	switch {
	case b.stem != nil:
		b.stem.pack(dst, p0, kc, j0, nc, nr)
		return
	case b.quad != nil:
		packConvPanels(b.quad, quadWords(dst), p0/4, kc/4, j0, nc, nr)
		return
	}
	quads := (kc + 3) / 4
	stage := b.stage
	for q := 0; q < quads; q++ {
		p, rows := p0+q*4, min(4, kc-q*4)
		src, ld := stage, nc
		if rows == 4 {
			src, ld = b.data[p*b.ld+j0:], b.ld
		} else {
			for t := 0; t < rows; t++ {
				copy(stage[t*nc:(t+1)*nc], b.data[(p+t)*b.ld+j0:])
			}
			clear(stage[rows*nc : 4*nc])
		}
		transposeQuad(dst[q*4*nr:], quads*4*nr, src, ld, nc, nr)
	}
}

// transposeQuad interleaves four nc-byte rows (src[r*ld:], r < 4) into quad
// panels nr columns wide (a multiple of 16): panel jp's columns become the
// 4·nr bytes at dst[jp*step:], column j's four row bytes adjacent. The
// vector body is a 4×16 byte transpose per 16-column group; the portable
// loop assembles one little-endian word per column, and also finishes the
// last panel when nc is not a multiple of 16, zero-padding the missing
// columns.
func transposeQuad(dst []uint8, step int, src []uint8, ld, nc, nr int) {
	for j0 := 0; j0 < nc; j0 += nr {
		cols := min(nr, nc-j0)
		out := dst[j0/nr*step : j0/nr*step+4*nr]
		j := 0
		if full := cols / 16; haveQuantASM && full > 0 {
			transposeQuad16(&out[0], 64, &src[j0], int64(ld), int64(full))
			j = full * 16
		}
		r0, r1, r2, r3 := src[j0:j0+cols], src[ld+j0:ld+j0+cols], src[2*ld+j0:2*ld+j0+cols], src[3*ld+j0:3*ld+j0+cols]
		for ; j < cols; j++ {
			w := uint32(r0[j]) | uint32(r1[j])<<8 | uint32(r2[j])<<16 | uint32(r3[j])<<24
			binary.LittleEndian.PutUint32(out[j*4:], w)
		}
		clear(out[cols*4:])
	}
}
