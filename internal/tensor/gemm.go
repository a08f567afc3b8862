package tensor

import (
	"fmt"
	"runtime"
)

// Blocked-GEMM tuning knobs (see PERFORMANCE.md for the derivation):
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
//   - gemmParallelThreshold is the m*k*n volume above which the work fans out
//     across the persistent worker pool (see workers.go).
//   - gemmSmallThreshold is the volume below which packing costs more than it
//     saves and a plain unblocked loop runs instead.
const (
	mrTile  = 6
	nrTile  = 16
	kcBlock = 256
	mcBlock = 132
	ncBlock = 2048

	// Edge-tile scratch bounds across every kernel tier (max mr × max nr).
	maxMrTile = 8
	maxNrTile = 32

	gemmParallelThreshold = 1 << 16
	gemmSmallThreshold    = 1 << 13
)

// gemmTierT describes the active FP32 micro-kernel: its register-tile
// footprint, the A-block height rounded to that tile, and which kernel kind
// runs the tile. The kind is an enum dispatched through the per-arch
// gemmKernelTier shim — a direct call, not a func value, so escape analysis
// keeps the panel's edge-tile scratch on the stack (a func field here cost
// one heap allocation per panel and broke the serve path's zero-alloc
// steady state). One product reads the tier once on entry, so a concurrent
// tier swap (only tests do that) never mixes tile geometries mid-product.
type gemmTierT struct {
	name   string
	kind   uint8
	mr, nr int
	mc     int
}

// Kernel kinds for gemmTierT.kind.
const (
	tierKind6x16 uint8 = iota // FMA-or-portable 6×16 (gemmKernel)
	tierKind8x32              // AVX-512F 8×32 (sgemmKernel8x32)
)

// gemmTier is the FP32 kernel tier in use. The default is the 6×16 tile whose
// gemmKernel dispatches FMA vs portable at runtime; init in gemm_amd64.go
// upgrades it to the AVX-512F 8×32 tile when the CPU and OS qualify.
var gemmTier = gemmTierT{name: "portable-6x16", kind: tierKind6x16, mr: mrTile, nr: nrTile, mc: mcBlock}

// GemmKernelName identifies the dispatched FP32 micro-kernel tier
// ("avx512-8x32", "avx2-6x16", or "portable-6x16") for bench snapshots and
// /metrics.
func GemmKernelName() string { return gemmTier.name }

// Gemm computes C = A×B for row-major matrices. A is M×K, B is K×N and C is
// M×N; C is overwritten. Large problems run cache-blocked over packed panels
// with a register-tiled micro-kernel, split across the shared worker pool.
func Gemm(a, b, c []float32, m, k, n int) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic("tensor: Gemm buffer too small")
	}
	gemmDispatch(gemmA{data: a}, gemmB{data: b}, c, m, k, n, false, gemmEpilogue{})
}

// GemmAcc computes C += A×B with the same layout as Gemm.
func GemmAcc(a, b, c []float32, m, k, n int) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic("tensor: GemmAcc buffer too small")
	}
	gemmDispatch(gemmA{data: a}, gemmB{data: b}, c, m, k, n, true, gemmEpilogue{})
}

// GemmTA computes C = Aᵀ×B where A is stored K×M (so Aᵀ is M×K), B is K×N,
// C is M×N.
func GemmTA(a, b, c []float32, m, k, n int) {
	if len(a) < k*m || len(b) < k*n || len(c) < m*n {
		panic("tensor: GemmTA buffer too small")
	}
	gemmDispatch(gemmA{data: a, trans: true}, gemmB{data: b}, c, m, k, n, false, gemmEpilogue{})
}

// GemmTAAcc computes C += Aᵀ×B with A stored K×M.
func GemmTAAcc(a, b, c []float32, m, k, n int) {
	if len(a) < k*m || len(b) < k*n || len(c) < m*n {
		panic("tensor: GemmTA buffer too small")
	}
	gemmDispatch(gemmA{data: a, trans: true}, gemmB{data: b}, c, m, k, n, true, gemmEpilogue{})
}

// GemmTB computes C = A×Bᵀ where A is M×K, B is stored N×K, C is M×N.
func GemmTB(a, b, c []float32, m, k, n int) {
	if len(a) < m*k || len(b) < n*k || len(c) < m*n {
		panic("tensor: GemmTB buffer too small")
	}
	gemmDispatch(gemmA{data: a}, gemmB{data: b, trans: true}, c, m, k, n, false, gemmEpilogue{})
}

// GemmTBAcc computes C += A×Bᵀ with B stored N×K.
func GemmTBAcc(a, b, c []float32, m, k, n int) {
	if len(a) < m*k || len(b) < n*k || len(c) < m*n {
		panic("tensor: GemmTB buffer too small")
	}
	gemmDispatch(gemmA{data: a}, gemmB{data: b, trans: true}, c, m, k, n, true, gemmEpilogue{})
}

// gemmA is the A operand of a product: a dense row-major matrix (stored M×K,
// or K×M when trans), with — when pack is set — its micro-panels already
// built (see PackWeights), so the blocked driver packs nothing.
type gemmA struct {
	data  []float32
	trans bool
	pack  *PackedWeights
}

// PackedWeights holds an M×K left operand — a convolution's weights — in the
// blocked driver's micro-panel layout for the kernel tier active when
// PackWeights ran, so a forward pass stops re-packing the same matrix on
// every product. It is immutable: share it between goroutines freely, and
// build a new one when the weights change.
type PackedWeights struct {
	m, k int
	mr   int
	// panels holds, for each kcBlock of K in turn, packA's output for all M
	// rows: the block at k offset pc starts at mPad*pc (mPad = M rounded up
	// to mr), and its rows from ic on — ic a multiple of mr — ic*kc further.
	panels []float32
}

// PackWeights packs the row-major m×k matrix w. The result does not alias w.
func PackWeights(w []float32, m, k int) *PackedWeights {
	if len(w) < m*k {
		panic(fmt.Sprintf("tensor: PackWeights: %d weights, want %d×%d", len(w), m, k))
	}
	mr := gemmTier.mr
	mPad := (m + mr - 1) / mr * mr
	p := &PackedWeights{m: m, k: k, mr: mr, panels: make([]float32, mPad*k)}
	for pc := 0; pc < k; pc += kcBlock {
		packA(p.panels[mPad*pc:], w, k, false, 0, m, pc, min(kcBlock, k-pc), mr)
	}
	return p
}

// gemmB is the B operand of a product: a dense row-major matrix (stored K×N,
// or N×K when trans), or — when conv is set — the implicit K×N column matrix
// of a convolution, read straight from the image (see convView).
type gemmB struct {
	data  []float32
	trans bool
	conv  *convView[float32]
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
	if e.bias == nil && !e.relu {
		return
	}
	for i := 0; i < m; i++ {
		var bias float32
		if e.bias != nil {
			bias = e.bias[i]
		}
		row := c[i*ldc+j0 : i*ldc+j0+nc]
		if e.relu {
			biasReLU(row, bias)
		} else {
			for j := range row {
				row[j] += bias
			}
		}
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

// gemmDispatch routes the product op(A)×op(B), followed by the epilogue, to
// the small unblocked loop or the packed blocked kernel: C += product when
// acc is set, C = product otherwise — without a clearing pass over C: the
// first k-block's kernels store instead of accumulating. At most one of
// a.trans/b.trans is set by the public entry points. With a pooling epilogue
// c is unused and acc must be false.
func gemmDispatch(a gemmA, b gemmB, c []float32, m, k, n int, acc bool, ep gemmEpilogue) {
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		if !acc {
			clear(c[:m*n])
		}
		return
	}
	if m*k*n > gemmSmallThreshold {
		gemmBlocked(a, b, c, m, k, n, acc, ep)
		return
	}
	ldc := n
	var fused poolRun
	if ep.pool.active() {
		fused = ep.pool.start(m, n/ep.pool.ow)
		c, ldc = fused.target()
	}
	if !acc {
		for i := 0; i < m; i++ {
			clear(c[i*ldc : i*ldc+n])
		}
	}
	gemmSmall(a, b, c, ldc, m, k, n)
	ep.apply(c, m, ldc, 0, n)
	if ep.pool.active() {
		fused.emit(n / ep.pool.ow)
		fused.release()
	}
}

// gemmSmall is the unblocked fallback for problems too small to amortize
// packing: C (rows ldc apart) += op(A)×op(B). Loop orders match the storage
// layouts so every inner loop streams contiguously; every C element
// accumulates its k terms in ascending order whichever loop is outermost.
func gemmSmall(aop gemmA, bop gemmB, c []float32, ldc, m, k, n int) {
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
		rowp := GetScratch(n)
		brow := *rowp
		for p := 0; p < k; p++ {
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
		PutScratch(rowp)
		return
	}
	for i := 0; i < m; i++ {
		crow := c[i*ldc : i*ldc+n]
		for p := 0; p < k; p++ {
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

// gemmBlocked is the cache-blocked path: loops (jc, pc, ic) over NC/KC/MC
// blocks, packing B and (unless a.pack supplies the panels) A into
// micro-panel layout and running the register-tiled kernel over every
// (ir, jr) tile. Parallelism fans the column panels of each (ic, pc, jc)
// block across the worker pool; panels write disjoint regions of C. Unless
// acc is set, the first k-block's kernels store their tiles instead of
// adding to C. The epilogue runs over each column block right after its last
// k-block, while that block of C is still cache-resident.
//
// With a pooling epilogue the column blocks are whole output rows of the
// convolution and land in the pool's row scratch instead of C: each block is
// biased, clamped and max-pooled while it is cache-resident, so the
// convolution's full output is never written, swept or read back (see
// poolRun).
func gemmBlocked(a gemmA, b gemmB, c []float32, m, k, n int, acc bool, ep gemmEpilogue) {
	lda := k
	if a.trans {
		lda = m
	}
	ldb := n
	if b.trans {
		ldb = k
	}
	tier := gemmTier
	mr, nr := tier.mr, tier.nr
	mPad := (m + mr - 1) / mr * mr
	var panels []float32
	if p := a.pack; p != nil {
		if p.m != m || p.k != k {
			panic(fmt.Sprintf("tensor: packed weights are %d×%d, product wants %d×%d", p.m, p.k, m, k))
		}
		if p.mr == mr { // else packed under another tier (tests swap them): pack per call
			panels = p.panels
		}
	}
	// One P has no idle core to recruit: run serial.
	serial := m*k*n < gemmParallelThreshold || runtime.GOMAXPROCS(0) < 2
	step := ncBlock
	var fused poolRun
	if ow := ep.pool.ow; ep.pool.active() {
		// Blocks are whole output rows and, but for the last, whole panels
		// (ow&-ow is the largest power of two dividing ow, as nr is one): the
		// product's panels, and with them the columns whose later k-blocks
		// an edge tile sums apart, then sit exactly where the unfused
		// product has them, and the two agree bit for bit at any k.
		unit := nr / min(nr, ow&-ow)
		blockRows := max(ncBlock/ow/unit, 1) * unit
		fused = ep.pool.start(m, blockRows)
		step = blockRows * ow
	}
	for jc := 0; jc < n; jc += step {
		nc := min(step, n-jc)
		ncPanels := (nc + nr - 1) / nr
		cblk, cj, ldc := c, jc, n
		if ep.pool.active() {
			cblk, ldc = fused.target()
			cj = 0
		}
		for pc := 0; pc < k; pc += kcBlock {
			kc := min(kcBlock, k-pc)
			bbufp := GetScratch(ncPanels * nr * kc)
			bbuf := *bbufp
			if b.conv != nil {
				packConvPanels(b.conv, bbuf, pc, kc, jc, nc, nr)
			} else {
				packB(bbuf, b.data, ldb, b.trans, pc, kc, jc, nc, nr)
			}
			for ic := 0; ic < m; ic += tier.mc {
				mc := min(tier.mc, m-ic)
				mcPanels := (mc + mr - 1) / mr
				var abufp *[]float32
				var abuf []float32
				if panels != nil {
					abuf = panels[mPad*pc+ic*kc:]
				} else {
					abufp = GetScratch(mcPanels * mr * kc)
					abuf = *abufp
					packA(abuf, a.data, lda, a.trans, ic, mc, pc, kc, mr)
				}
				blk := gemmBlock{
					abuf: abuf, bbuf: bbuf, c: cblk,
					ic: ic, jc: cj, kc: kc, mc: mc, nc: nc,
					mcPanels: mcPanels, n: ldc,
					mr: mr, nr: nr, kind: tier.kind,
					store: !acc && pc == 0,
				}
				if serial {
					for jp := 0; jp < ncPanels; jp++ {
						blk.panel(jp)
					}
				} else {
					blk.parallel(ncPanels)
				}
				if abufp != nil {
					PutScratch(abufp)
				}
			}
			PutScratch(bbufp)
		}
		ep.apply(cblk, m, ldc, cj, nc)
		if ep.pool.active() {
			fused.emit(nc / ep.pool.ow)
		}
	}
	if ep.pool.active() {
		fused.release()
	}
}

// gemmBlock carries one packed (mc×kc)×(kc×nc) block product; panel runs the
// micro-kernel down one nr-wide column panel. It is a named struct (not a
// closure) so the serial path keeps it off the heap.
type gemmBlock struct {
	abuf, bbuf, c      []float32
	ic, jc, kc, mc, nc int
	mcPanels, n        int
	mr, nr             int
	kind               uint8
	store              bool // overwrite C with the block product instead of adding to it
}

// parallel fans the block's column panels across the worker pool. The value
// receiver confines the heap-escaping method value to this path, keeping the
// serial caller's gemmBlock on the stack.
func (g gemmBlock) parallel(ncPanels int) {
	parallelFor(ncPanels, g.panel)
}

func (g *gemmBlock) panel(jp int) {
	var tile [maxMrTile * maxNrTile]float32
	mr, nr := g.mr, g.nr
	bpanel := g.bbuf[jp*nr*g.kc:]
	j := g.jc + jp*nr
	cols := min(nr, g.nc-jp*nr)
	for ip := 0; ip < g.mcPanels; ip++ {
		apanel := g.abuf[ip*mr*g.kc:]
		i := g.ic + ip*mr
		rows := min(mr, g.mc-ip*mr)
		if rows == mr && cols == nr {
			gemmKernelTier(g.kind, g.kc, apanel, bpanel, g.c[i*g.n+j:], g.n, g.store)
			continue
		}
		// Edge tile: the full-size kernel stores into a scratch tile, whose
		// valid region then replaces or joins C's.
		gemmKernelTier(g.kind, g.kc, apanel, bpanel, tile[:], nr, true)
		for r := 0; r < rows; r++ {
			crow := g.c[(i+r)*g.n+j:]
			trow := tile[r*nr:]
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

// packA copies the mc×kc block of op(A) at (i0, p0) into micro-panel layout:
// consecutive groups of mr values hold one column of an mr-row panel,
// zero-padded past the last valid row so the kernel never branches. Full
// panels of the two amd64 tile heights (6 and 8) take unrolled fast paths.
func packA(dst, a []float32, lda int, trans bool, i0, mc, p0, kc, mr int) {
	di := 0
	for ir := 0; ir < mc; ir += mr {
		rows := min(mr, mc-ir)
		if !trans && rows == mr && (mr == 6 || mr == 8) {
			base := (i0 + ir) * lda
			r0 := a[base+p0 : base+p0+kc]
			r1 := a[base+lda+p0:]
			r2 := a[base+2*lda+p0:]
			r3 := a[base+3*lda+p0:]
			r4 := a[base+4*lda+p0:]
			r5 := a[base+5*lda+p0:]
			if mr == 8 {
				r6 := a[base+6*lda+p0:]
				r7 := a[base+7*lda+p0:]
				for p := 0; p < kc; p++ {
					dst[di] = r0[p]
					dst[di+1] = r1[p]
					dst[di+2] = r2[p]
					dst[di+3] = r3[p]
					dst[di+4] = r4[p]
					dst[di+5] = r5[p]
					dst[di+6] = r6[p]
					dst[di+7] = r7[p]
					di += 8
				}
				continue
			}
			for p := 0; p < kc; p++ {
				dst[di] = r0[p]
				dst[di+1] = r1[p]
				dst[di+2] = r2[p]
				dst[di+3] = r3[p]
				dst[di+4] = r4[p]
				dst[di+5] = r5[p]
				di += 6
			}
			continue
		}
		for p := 0; p < kc; p++ {
			for r := 0; r < mr; r++ {
				var v float32
				if r < rows {
					if trans {
						v = a[(p0+p)*lda+i0+ir+r]
					} else {
						v = a[(i0+ir+r)*lda+p0+p]
					}
				}
				dst[di] = v
				di++
			}
		}
	}
}

// packB copies the kc×nc block of op(B) at (p0, j0) into micro-panel layout:
// consecutive groups of nr values hold one row of an nr-column panel,
// zero-padded past the last valid column.
func packB(dst, b []float32, ldb int, trans bool, p0, kc, j0, nc, nr int) {
	di := 0
	for jr := 0; jr < nc; jr += nr {
		cols := min(nr, nc-jr)
		if !trans && cols == nr {
			copyRuns(dst[di:], nr, b[p0*ldb+j0+jr:], ldb, nr, kc)
			di += kc * nr
			continue
		}
		for p := 0; p < kc; p++ {
			for cidx := 0; cidx < nr; cidx++ {
				var v float32
				if cidx < cols {
					if trans {
						v = b[(j0+jr+cidx)*ldb+p0+p]
					} else {
						v = b[(p0+p)*ldb+j0+jr+cidx]
					}
				}
				dst[di] = v
				di++
			}
		}
	}
}

// gemmKernelGenericTile is the portable micro-kernel over the packed panels:
// the mr×nr tile of C at stride ldc — cleared first when store is set —
// accumulates kc outer products.
func gemmKernelGenericTile(kc int, a, b, ctile []float32, ldc, mr, nr int, store bool) {
	if store {
		for r := 0; r < mr; r++ {
			clear(ctile[r*ldc : r*ldc+nr])
		}
	}
	for p := 0; p < kc; p++ {
		ap := a[p*mr : p*mr+mr]
		bp := b[p*nr : p*nr+nr]
		for r := 0; r < mr; r++ {
			av := ap[r]
			if av == 0 {
				continue
			}
			crow := ctile[r*ldc : r*ldc+nr]
			for j, bv := range bp {
				crow[j] += av * bv
			}
		}
	}
}

// gemmKernelGeneric is the 6×16 instantiation, used on non-amd64 builds and
// as the runtime fallback when AVX2/FMA is unavailable.
func gemmKernelGeneric(kc int, a, b, ctile []float32, ldc int, store bool) {
	gemmKernelGenericTile(kc, a, b, ctile, ldc, mrTile, nrTile, store)
}

// gemmKernelGeneric8x32 is the 8×32 instantiation — the portable reference
// the AVX-512F kernel is bit-compared against in tests.
func gemmKernelGeneric8x32(kc int, a, b, ctile []float32, ldc int, store bool) {
	gemmKernelGenericTile(kc, a, b, ctile, ldc, 8, 32, store)
}
