package tensor

import "fmt"

// FP32 tuning knobs (see PERFORMANCE.md for the derivation):
//
//   - mrTile×nrTile is the base register-blocked micro-kernel footprint. On
//     amd64 the 6×16 tile maps to 12 YMM accumulators driven by FMA; the
//     generic kernel uses the same packed layout. CPUs with AVX-512F swap in
//     the 8×32 tile (16 ZMM accumulators) via gemmTier below.
//   - kcBlock keeps one A micro-panel (mr×kc) plus one B micro-panel (kc×nr)
//     L1-resident while the kernel streams them.
//   - mcBlock keeps the packed A block (mc×kc ≈ 132 KB) L2-resident; each
//     tier rounds it to a multiple of its own mr (gemmTierT.mc).
//   - ncBlock bounds the packed B block (kc×nc ≤ 2 MB, LLC-resident); it must
//     be a multiple of every tier's nr (2048 = 128×16 = 64×32).
const (
	mrTile  = 6
	nrTile  = 16
	kcBlock = 256
	mcBlock = 132
	ncBlock = 2048
)

// gemmTier is the FP32 kernel tier in use (see blocked). The default is the
// 6×16 tile, whose kernel kind dispatches FMA vs portable at runtime; init
// in gemm_amd64.go upgrades it to the AVX-512F 8×32 tile when the CPU and
// OS qualify.
var gemmTier = gemmTierT{name: "portable-6x16", kind: tierKind6x16, mr: mrTile, nr: nrTile, mc: mcBlock, kc: kcBlock, nc: ncBlock}

// GemmKernelName identifies the dispatched FP32 micro-kernel tier
// ("avx512-8x32", "avx2-6x16", or "portable-6x16") for bench snapshots and
// /metrics.
func GemmKernelName() string { return gemmTier.name }

// Gemm computes C = A×B for row-major matrices. A is M×K, B is K×N and C is
// M×N; C is overwritten. Large problems run cache-blocked over packed panels
// with a register-tiled micro-kernel, split across the shared worker pool.
func Gemm(a, b, c []float32, m, k, n int) {
	checkGemm("Gemm", len(a), len(b), len(c), m, k, n)
	gemmPooled(gemmA{data: a}, gemmB{data: b}, c, m, k, n, false)
}

// GemmTA computes C = Aᵀ×B where A is stored K×M (so Aᵀ is M×K), B is K×N,
// C is M×N.
func GemmTA(a, b, c []float32, m, k, n int) {
	checkGemm("GemmTA", len(a), len(b), len(c), m, k, n)
	gemmPooled(gemmA{data: a, trans: true}, gemmB{data: b}, c, m, k, n, false)
}

// GemmTBAcc computes C += A×Bᵀ with B stored N×K.
func GemmTBAcc(a, b, c []float32, m, k, n int) {
	checkGemm("GemmTBAcc", len(a), len(b), len(c), m, k, n)
	gemmPooled(gemmA{data: a}, gemmB{data: b, trans: true}, c, m, k, n, true)
}

// gemmPooled runs a product without an epilogue on scratch from the pool:
// the public entry points', whose callers hold no arena.
func gemmPooled(a gemmA, b gemmB, c []float32, m, k, n int, acc bool) {
	_, _, bLen, _ := gemmSplit(gemmTier, m, k, n, PoolSpec{}, 0)
	buf := GetScratch(bLen)
	gemmDispatch(a, b, c, m, k, n, acc, gemmEpilogue{}, *buf)
	PutScratch(buf)
}

// checkGemm panics, naming the entry point fn, when a, b or c is shorter
// than an m×k by k×n product needs.
func checkGemm(fn string, la, lb, lc, m, k, n int) {
	for _, op := range [...]struct {
		name       string
		have, need int
	}{{"a", la, m * k}, {"b", lb, k * n}, {"c", lc, m * n}} {
		if op.have < op.need {
			panic(fmt.Sprintf("tensor: %s: %s has %d elements, need %d", fn, op.name, op.have, op.need))
		}
	}
}

// gemmA is the A operand of a product: a dense row-major matrix (stored M×K,
// or K×M when trans), with — when pack is set — its micro-panels already
// built (see PackConvWeights), so the blocked driver packs nothing.
type gemmA struct {
	data  []float32
	trans bool
	pack  *PackedWeights
}

// PackedWeights holds a convolution's weights — the M×K left operand of its
// product — in the blocked driver's micro-panel layout for the kernel tier
// active when PackConvWeights ran, so a forward pass stops re-packing the
// same matrix on every product. It is immutable: share it between goroutines
// freely, and build a new one when the weights change.
type PackedWeights struct {
	m, k  int
	mr    int
	order kOrder // the convolution's k order, which the panels run in
	// panels is packPanels' output for the tier's mr.
	panels []float32
	// fold lets a convolution over an RGBA image skip its opaque alpha
	// plane (see alphaFold); nil for any other convolution.
	fold *alphaFold
}

// PackConvWeights packs the weights of a convolution under s — ConvStage.W,
// [OutC, InC*KH*KW] — for ConvStage.Packed: in the order the convolution
// runs its taps (see ConvSpec.kOrder) and, over the four planes of an RGBA
// image, with its alpha fold. The result does not alias w.
func PackConvWeights(w []float32, s ConvSpec) *PackedWeights {
	m, k := s.OutC, s.InC*s.KH*s.KW
	if len(w) < m*k {
		panic(fmt.Sprintf("tensor: PackConvWeights: %d weights, want %d×%d", len(w), m, k))
	}
	t := gemmTier
	p := &PackedWeights{m: m, k: k, mr: t.mr, order: s.kOrder(), panels: make([]float32, t.panelsLen(m, k))}
	packOrdered(p.panels, w, m, k, p.order, t)
	if foldsAlpha(s) {
		p.fold = newAlphaFold(w, s, t)
	}
	return p
}

// packOrdered packs the row-major m×k matrix a into tier t's micro-panels
// with its columns in order o: k-step q holds column o.tap(q).
func packOrdered(dst, a []float32, m, k int, o kOrder, t gemmTierT) {
	if o.lead == 0 {
		packPanels(dst, a, k, false, m, k, t)
		return
	}
	buf := GetScratch(m * k)
	rot := *buf
	for i := 0; i < m; i++ {
		row, r := a[i*k:(i+1)*k], rot[i*k:(i+1)*k]
		copy(r, row[k-o.lead:])
		copy(r[o.lead:], row)
	}
	packPanels(dst, rot, k, false, m, k, t)
	PutScratch(buf)
}

// panels returns op(A)'s micro-panels, its k-steps in order o, for tier t:
// the packed weights, or — when there are none, or they were packed for
// another tier's tile height (tests swap tiers) — A packed now into
// scratch, which the caller returns.
func (a gemmA) panels(t gemmTierT, m, k int, o kOrder) ([]float32, *[]float32) {
	if p := a.pack; p != nil {
		if p.m != m || p.k != k || p.order != o {
			panic(fmt.Sprintf("tensor: packed weights are %d×%d leading with %d k-steps, product wants %d×%d leading with %d",
				p.m, p.k, p.order.lead, m, k, o.lead))
		}
		if p.mr == t.mr {
			return p.panels, nil
		}
	}
	buf := GetScratch(t.panelsLen(m, k))
	if a.trans {
		packPanels(*buf, a.data, m, true, m, k, t)
	} else {
		packOrdered(*buf, a.data, m, k, o, t)
	}
	return *buf, buf
}

// gemmB is the B operand of a product: a dense row-major matrix (stored K×N,
// or N×K when trans, rows ld apart), or — when conv is set — the implicit
// K×N column matrix of a convolution, read straight from the image (see
// convView). order is the k order the product runs in, A's as well as B's:
// a convolution's (ConvSpec.kOrder), or K as stored.
type gemmB struct {
	data  []float32
	ld    int
	trans bool
	conv  *convView[float32]
	order kOrder
}

// pack packs the kc×nc block of op(B) at (pc, jc), pc counted in the
// product's k order, into nr-wide micro-panels, zero-padded past the last
// valid column. Untransposed, the block's rows are the taps of packTaps:
// view taps, or rows of the dense matrix, ld elements apart, each one
// unbroken row of columns.
func (b *gemmB) pack(dst []float32, pc, kc, jc, nc, nr int) {
	if b.trans {
		packBT(dst, b.data, b.ld, pc, kc, jc, nc, nr)
		return
	}
	var taps [kcBlock]int
	v := b.conv
	for q := range taps[:kc] {
		p := b.order.tap(pc + q)
		if v != nil {
			taps[q] = v.tapOffset(p)
		} else {
			taps[q] = 4 * p * b.ld
		}
	}
	if v != nil {
		packTaps(wordBytes(dst), wordBytes(v.planes), taps[:kc], 4*v.pw, v.ow, jc, nc, nr)
		return
	}
	packTaps(wordBytes(dst), wordBytes(b.data), taps[:kc], 4*b.ld, b.ld, jc, nc, nr)
}

// gemmEpilogue is what a convolution does to its finished product: the
// per-row bias add and ReLU clamp — c = c + bias[row], then max(c, 0) when
// relu is set — and, when pool is active, the max pool that follows, in which
// case the product never reaches C (see poolSink). The zero value does
// nothing.
type gemmEpilogue struct {
	bias []float32
	relu bool
	pool poolSink
}

// apply runs the bias and ReLU over columns [j0, j0+nc) of the m-row matrix
// c, rows ldc apart.
func (e gemmEpilogue) apply(c []float32, m, ldc, j0, nc int) {
	for i := 0; i < m; i++ {
		e.row(c[i*ldc+j0:i*ldc+j0+nc], i)
	}
}

// row runs the bias and ReLU of matrix row i over row.
func (e gemmEpilogue) row(row []float32, i int) {
	if e.bias == nil && !e.relu {
		return
	}
	var bias float32
	if e.bias != nil {
		bias = e.bias[i]
	}
	if e.relu {
		biasReLU(row, bias)
		return
	}
	for j := range row {
		row[j] += bias
	}
}

// biasReLU computes row = max(row+bias, 0), leaving a NaN or -0 sum as it is
// (the loop's `v < 0` is false for both; VMAXPS returns the sum, its second
// source, for both), so the vector body and the scalar tail agree bit for
// bit. The vector body also spares real activations, whose signs no branch
// predictor learns, a mispredict every other element.
func biasReLU(row []float32, bias float32) {
	j := 0
	if haveQuantASM && len(row) >= 8 {
		j = len(row) &^ 7
		biasReLUF32x8(&row[0], int64(j), bias)
	}
	for ; j < len(row); j++ {
		v := row[j] + bias
		if v < 0 {
			v = 0
		}
		row[j] = v
	}
}

// gemmSplit is how gemmDispatch runs an m×k×n product on tier t: unblocked
// (small), or blocked step columns at a time; and the scratch that takes:
// bLen for the packed B block (an unblocked convolution's one row of B),
// then poolLen for a pool over rows ow wide (pool.K > 0) — its slabs and
// poolRow's scratch.
func gemmSplit(t gemmTierT, m, k, n int, pool PoolSpec, ow int) (small bool, step, bLen, poolLen int) {
	small = m*k*n <= gemmSmallThreshold
	step, bLen = n, roundUp(n, 16)
	if !small {
		step = t.nc
		if pool.K > 0 {
			// Blocks are whole output rows and, but for the last, whole
			// panels (ow&-ow is the largest power of two dividing ow, as nr
			// is one), so no block but the last ends on an edge tile.
			unit := t.nr / min(t.nr, ow&-ow)
			step = max(t.nc/ow/unit, 1) * unit * ow
		}
		bLen = bBlockLen(t, k, min(step, n))
	}
	if pool.K > 0 && ow > 0 {
		poolLen = m*(min(step, n)/ow+pool.K-1)*ow + pool.ScratchLen(ow)
	}
	return small, step, bLen, poolLen
}

// gemmDispatch routes the product op(A)×op(B), followed by the epilogue, to
// the small unblocked loop or the blocked driver, a column block at a time:
// C += product when acc is set, C = product otherwise — without a clearing
// pass over C: the first k-block's kernels store instead of accumulating.
// The epilogue runs over each column block right after its last k-block,
// while it is still cache-resident. At most one of a.trans/b.trans is set by
// the public entry points. scratch holds what gemmSplit says the product
// takes.
//
// With a pooling epilogue c is unused and acc must be false: the column
// blocks are whole output rows of the convolution and land in the pool's
// row scratch instead of C, where each is max-pooled and only the pooled
// values biased and clamped, so the convolution's full output is never
// written, swept or read back (see poolRun).
func gemmDispatch(a gemmA, b gemmB, c []float32, m, k, n int, acc bool, ep gemmEpilogue, scratch []float32) {
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		if !acc {
			clear(c[:m*n])
		}
		return
	}
	t := gemmTier
	small, step, bLen, poolLen := gemmSplit(t, m, k, n, ep.pool.spec, ep.pool.ow)
	checkScratch("gemm", len(scratch), bLen+poolLen)
	var panels []float32
	var buf *[]float32
	var seeds *alphaSeeds
	if !small {
		panels, buf = a.panels(t, m, k, b.order)
		if f := a.pack; f != nil && f.fold != nil && f.mr == t.mr && b.conv != nil && !acc {
			seeds = f.fold.seedsFor(b.conv)
		}
	}
	b.ld = n
	if b.trans {
		b.ld = k
	}
	var fused poolRun
	if ep.pool.active() {
		fused = ep.pool.start(m, min(step, n)/ep.pool.ow, gemmEpilogue{bias: ep.bias, relu: ep.relu}, scratch[bLen:bLen+poolLen])
	}
	for jc := 0; jc < n; jc += step {
		nc := min(step, n-jc)
		cblk, cj, ldc := c, jc, n
		if ep.pool.active() {
			cblk, ldc = fused.target()
			cj = 0
		}
		if small {
			if !acc {
				for i := 0; i < m; i++ {
					clear(cblk[i*ldc : i*ldc+n])
				}
			}
			gemmSmall(a, b, cblk, ldc, m, k, n, scratch[:n])
		} else if seeds != nil && foldAlpha && seeds.opaque(b.conv, jc, nc) {
			a.pack.fold.product(seeds, b, t, scratch[:bLen], cblk, cj, ldc, jc, nc)
		} else {
			blocked[float32, float32](&b, t, panels, scratch[:bLen], cblk, cj, ldc, m, k, jc, nc, acc)
		}
		if ep.pool.active() {
			fused.emit(nc / ep.pool.ow)
		} else {
			ep.apply(cblk, m, ldc, cj, nc)
		}
	}
	if buf != nil {
		PutScratch(buf)
	}
}

// roundUp rounds n up to a multiple of m: the scratch a stage splits into
// parts keeps each part 64-byte aligned when the whole is.
func roundUp(n, m int) int { return (n + m - 1) / m * m }

// checkScratch panics, naming the stage fn, when the caller's scratch is
// shorter than the stage needs.
func checkScratch(fn string, have, need int) {
	if have < need {
		panic(fmt.Sprintf("tensor: %s: scratch has %d elements, need %d", fn, have, need))
	}
}

// gemmSmall is the unblocked fallback for problems too small to amortize
// packing: C (rows ldc apart) += op(A)×op(B). Loop orders match the storage
// layouts so every inner loop streams contiguously; every C element
// accumulates its k terms in the product's k order (bop.order) whichever
// loop is outermost. brow is scratch for one row of a convolution's B.
func gemmSmall(aop gemmA, bop gemmB, c []float32, ldc, m, k, n int, brow []float32) {
	a, b := aop.data, bop.data
	if bop.trans {
		// C[i,j] = dot(A row i, B row j): both contiguous.
		for i := 0; i < m; i++ {
			arow := a[i*k : i*k+k]
			crow := c[i*ldc : i*ldc+n]
			for j := 0; j < n; j++ {
				brow := b[j*k : j*k+k]
				var sum float32
				for p, av := range arow {
					sum += av * brow[p]
				}
				crow[j] += sum
			}
		}
		return
	}
	if bop.conv != nil {
		// B rows come from the image one at a time, so k is outermost: each
		// row is produced once and spent on every row of A (never transposed
		// here).
		for q := 0; q < k; q++ {
			p := bop.order.tap(q)
			bop.conv.row(brow, p, 0)
			for i := 0; i < m; i++ {
				av := a[i*k+p]
				if av == 0 {
					continue
				}
				crow := c[i*ldc : i*ldc+n]
				for j, bv := range brow {
					crow[j] += av * bv
				}
			}
		}
		return
	}
	for i := 0; i < m; i++ {
		crow := c[i*ldc : i*ldc+n]
		for q := 0; q < k; q++ {
			p := bop.order.tap(q)
			var av float32
			if aop.trans {
				av = a[p*m+i]
			} else {
				av = a[i*k+p]
			}
			if av == 0 {
				continue
			}
			brow := b[p*n : p*n+n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// packBT copies the kc×nc block of op(B) = Bᵀ at (p0, j0), B stored N×K
// with rows ldb apart and kc at most kcBlock, into micro-panel layout:
// consecutive groups of nr values hold one row of an nr-column panel,
// zero-padded past the last valid column.
func packBT(dst, b []float32, ldb int, p0, kc, j0, nc, nr int) {
	di := 0
	for jr := 0; jr < nc; jr += nr {
		cols := min(nr, nc-jr)
		for p := 0; p < kc; p++ {
			for cidx := 0; cidx < nr; cidx++ {
				var v float32
				if cidx < cols {
					v = b[(j0+jr+cidx)*ldb+p0+p]
				}
				dst[di] = v
				di++
			}
		}
	}
}
