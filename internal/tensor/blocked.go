package tensor

import (
	"math/bits"
	"runtime"
	"unsafe"
)

// Knobs of the blocked driver both engines run (see PERFORMANCE.md for the
// derivation; each tier's own block sizes live in its gemmTierT):
//
//   - maxMrTile×maxNrTile bounds the edge tile across every kernel tier.
//   - gemmParallelThreshold is the m*k*n volume above which the work fans out
//     across the persistent worker pool (see workers.go).
//   - gemmSmallThreshold is the volume below which packing costs more than it
//     saves and an engine's plain unblocked loop runs instead.
const (
	maxMrTile = 8
	maxNrTile = 32

	gemmParallelThreshold = 1 << 16
	gemmSmallThreshold    = 1 << 13
)

// gemmTierT describes a micro-kernel tier: its register-tile footprint
// mr×nr, its blocks — mc rows of packed A (L2-resident, a multiple of mr),
// kc k-steps (one A and one B micro-panel L1-resident), nc columns of packed
// B (LLC-resident, a multiple of nr) — and which kernel kind runs the tile.
// The kind is an enum dispatched through the per-arch tileKernel shim — a
// direct call, not a func value, so escape analysis keeps the panel's
// edge-tile scratch on the stack (a func field here cost one heap
// allocation per panel and broke the serve path's zero-alloc steady state).
// One product reads its engine's tier once on entry, so a concurrent tier
// swap (only tests do that) never mixes tile geometries mid-product.
type gemmTierT struct {
	name       string
	kind       uint8
	mr, nr     int
	mc, kc, nc int
}

// Kernel kinds for gemmTierT.kind: two FP32 tiles, the INT8 4×16 quad tile
// in two kernels, and the INT8 8×32 quad tile.
const (
	tierKind6x16     uint8 = iota // FP32 6×16 (sgemmKernel6x16 with FMA, else tileGeneric)
	tierKind8x32                  // FP32 AVX-512F 8×32 (sgemmKernel8x32)
	tierKindQuad                  // INT8 portable 4×16 (tileGeneric)
	tierKindQuadAVX2              // INT8 AVX2 4×16 (qgemmKernel4x16)
	tierKindQuadVNNI              // INT8 AVX512-VNNI 8×32 (qgemmKernelVNNI8x32)
)

// tileOf is the register tile mr×nr of a kernel kind: what its kernel
// updates, and what portableTile runs in its place.
func tileOf(kind uint8) (mr, nr int) {
	switch kind {
	case tierKind8x32, tierKindQuadVNNI:
		return 8, 32
	case tierKindQuad, tierKindQuadAVX2:
		return mrQTile, nrQTile
	}
	return mrTile, nrTile
}

// kernelElem is an operand or accumulator element of either engine's
// product: FP32's float32 × float32 → float32, INT8's int8 × uint8 → int32.
type kernelElem interface {
	float32 | int8 | uint8 | int32
}

// depth is the packed length of kc k-steps: the INT8 kinds pack K in quads
// of 4 bytes, the last one zero-padded.
func (t *gemmTierT) depth(kc int) int {
	if t.kind >= tierKindQuad {
		return (kc + 3) &^ 3
	}
	return kc
}

// panelsLen is the length of an m×k matrix's micro-panels (see packPanels).
func (t *gemmTierT) panelsLen(m, k int) int { return (m + t.mr - 1) / t.mr * t.mr * t.depth(k) }

// packPanels packs the m×k matrix op(A) — stored lda apart, transposed when
// trans — into tier t's micro-panel layout, which blocked reads: for each kc
// block of K in turn, every panel of mr rows, each group of k-steps — one
// in FP32, a quad of four in INT8 — holding its value or values for each
// row side by side, zero past the last row and past k. The block at pc
// starts at mPad*pc (mPad = m rounded up to mr), its rows from ic on at
// ic*depth(kc) further.
func packPanels[T kernelElem](dst, a []T, lda int, trans bool, m, k int, t gemmTierT) {
	g := t.depth(1) // k-steps a group: 1, or 4
	shift, jump := uint(bits.TrailingZeros(uint(g))), (t.mr-1)*g
	mPad := (m + t.mr - 1) / t.mr * t.mr
	for pc := 0; pc < k; pc += t.kc {
		kc, d := min(t.kc, k-pc), t.depth(min(t.kc, k-pc))
		blk := dst[mPad*pc : mPad*(pc+d)]
		clear(blk)
		for i := 0; i < m; i++ {
			// Row i's k-step q sits at o+q, plus jump for each group before it.
			panel, o := blk[i/t.mr*t.mr*d:(i/t.mr+1)*t.mr*d], i%t.mr*g
			if !trans {
				for q, v := range a[i*lda+pc : i*lda+pc+kc] {
					panel[o+q+q>>shift*jump] = v
				}
				continue
			}
			for q := 0; q < kc; q++ {
				panel[o+q+q>>shift*jump] = a[(pc+q)*lda+i]
			}
		}
	}
}

// blocked is the cache-blocked product both engines run, over one column
// block [jc, jc+nc) of op(A)×op(B): loops (pc, ic) over tier t's kc/mc
// blocks, packing each kc×nc block of B into micro-panels (b's packer) and
// running the register-tiled kernel over every (jp, ip) tile against ap,
// op(A)'s panels (see packPanels). Row i of the block lands at
// c[i*ldc+cj:]. The column panels of each (pc, ic) block fan across the
// worker pool; panels write disjoint regions. Unless acc is set, the first
// k-block's kernels store their tiles instead of adding to them. Every other
// kernel, on a full tile or an edge tile's scratch, continues what C holds,
// so an FP32 element is one k-ordered FMA chain — from +0, or from C's value
// with acc — whatever the tile grid and the k-blocks. Each engine
// loops over its column blocks and runs its epilogue over each right after
// this, while it is still cache-resident. bp is the caller's scratch for the
// packed B block: bBlockLen(t, k, nc) elements.
//
// The packer is reached by a type switch (see packBlockB), so the call is
// direct: a method on a type parameter goes through a dictionary, a func
// value is opaque, and either way escape analysis would move the caller's
// operand views to the heap, one allocation a product.
func blocked[A, B, C kernelElem, O *gemmB | *qgemmB](b O, t gemmTierT, ap []A, bp []B, c []C, cj, ldc, m, k, jc, nc int, acc bool) {
	// One P has no idle core to recruit: run serial.
	serial := m*k*nc < gemmParallelThreshold || runtime.GOMAXPROCS(0) < 2
	mPad := (m + t.mr - 1) / t.mr * t.mr
	ncPanels := (nc + t.nr - 1) / t.nr
	for pc := 0; pc < k; pc += t.kc {
		kc := min(t.kc, k-pc)
		d := t.depth(kc)
		bbuf := bp[:ncPanels*t.nr*d]
		packBlockB(b, bbuf, pc, kc, jc, nc, t.nr)
		for ic := 0; ic < m; ic += t.mc {
			blk := gemmBlock[A, B, C]{
				abuf: ap[mPad*pc+ic*d:], bbuf: bbuf, c: c,
				ic: ic, jc: cj, depth: d, mc: min(t.mc, m-ic), nc: nc, ldc: ldc,
				mr: t.mr, nr: t.nr, kind: t.kind,
				store: !acc && pc == 0,
			}
			if serial {
				for jp := 0; jp < ncPanels; jp++ {
					blk.panel(jp)
				}
			} else {
				blk.parallel(ncPanels)
			}
		}
	}
}

// bBlockLen is the length of blocked's packed B block for nc columns of a
// product of depth k on tier t.
func bBlockLen(t gemmTierT, k, nc int) int {
	return (nc + t.nr - 1) / t.nr * t.nr * t.depth(min(t.kc, k))
}

// packBlockB packs the kc×nc block of op(B) at (pc, jc) into bp, nr-wide
// panels.
func packBlockB[B kernelElem, O *gemmB | *qgemmB](b O, bp []B, pc, kc, jc, nc, nr int) {
	switch o := any(b).(type) {
	case *gemmB:
		o.pack(any(bp).([]float32), pc, kc, jc, nc, nr)
	case *qgemmB:
		o.pack(any(bp).([]uint8), pc, kc, jc, nc, nr)
	}
}

// gemmBlock carries one packed (mc×kc)×(kc×nc) block product; panel runs the
// micro-kernel down one nr-wide column panel. It is a named struct (not a
// closure) so the serial path keeps it off the heap.
type gemmBlock[A, B, C kernelElem] struct {
	abuf                  []A
	bbuf                  []B
	c                     []C
	ic, jc, depth, mc, nc int
	ldc, mr, nr           int
	kind                  uint8
	store                 bool // overwrite C with the block product instead of adding to it
}

// parallel fans the block's column panels across the worker pool. The value
// receiver confines the heap-escaping method value to this path, keeping the
// serial caller's gemmBlock on the stack.
func (g gemmBlock[A, B, C]) parallel(ncPanels int) {
	parallelFor(ncPanels, g.panel)
}

func (g *gemmBlock[A, B, C]) panel(jp int) {
	mr, nr, d, ldc := g.mr, g.nr, g.depth, g.ldc
	aStep, cStep := mr*d, mr*ldc
	// The kernels read whole panels: bound the last A and B panel once.
	_, _ = g.abuf[(g.mc+mr-1)/mr*aStep-1], g.bbuf[(jp+1)*nr*d-1]
	b := unsafe.Pointer(&g.bbuf[jp*nr*d])
	j := g.jc + jp*nr
	cols := min(nr, g.nc-jp*nr)
	for i, ai, ci := 0, 0, g.ic*ldc+j; i < g.mc; i, ai, ci = i+mr, ai+aStep, ci+cStep {
		a := unsafe.Pointer(&g.abuf[ai])
		rows := min(mr, g.mc-i)
		if rows == mr && cols == nr {
			_ = g.c[ci+cStep-ldc+nr-1]
			tileKernel(g.kind, d, a, b, unsafe.Pointer(&g.c[ci]), ldc, g.store)
			continue
		}
		// Edge tile: the full-size kernel runs on a scratch tile that holds
		// C's valid region (zero past it) unless the kernel stores, and the
		// valid region is copied back, so an edge element continues its
		// chain as a full tile's does. Declared here, it is cleared for edge
		// tiles only.
		var tile [maxMrTile * maxNrTile]C
		if !g.store {
			for r := 0; r < rows; r++ {
				copy(tile[r*nr:r*nr+cols], g.c[ci+r*ldc:])
			}
		}
		tileKernel(g.kind, d, a, b, unsafe.Pointer(&tile[0]), nr, g.store)
		for r := 0; r < rows; r++ {
			copy(g.c[ci+r*ldc:ci+r*ldc+cols], tile[r*nr:])
		}
	}
}

// portableTile runs one micro-tile update of the given kind in Go (see
// tileKernel) at the kind's geometry (tileOf): FP32 values one k-step a
// group, INT8 ones a quad. The caller bounds-checked the panels and the
// tile.
func portableTile(kind uint8, depth int, a, b, c unsafe.Pointer, ldc int, store bool) {
	mr, nr := tileOf(kind)
	if kind >= tierKindQuad {
		tileGeneric(depth, 4, unsafe.Slice((*int8)(a), mr*depth), unsafe.Slice((*uint8)(b), nr*depth),
			unsafe.Slice((*int32)(c), (mr-1)*ldc+nr), ldc, mr, nr, store)
		return
	}
	tileGeneric(depth, 1, unsafe.Slice((*float32)(a), mr*depth), unsafe.Slice((*float32)(b), nr*depth),
		unsafe.Slice((*float32)(c), (mr-1)*ldc+nr), ldc, mr, nr, store)
}

// tileGeneric is the portable micro-kernel over packed panels, for either
// engine: the mr×nr tile of c at stride ldc — cleared first when store is
// set — accumulates depth k-steps in groups of g, each group holding per row
// of the A panel, and per column of the B panel, its g values side by side
// (g is 1 for FP32, 4 for INT8's quads). Terms add in k order; a zero A
// value adds nothing. The INT8 sums wrap like the assembly's.
func tileGeneric[A, B, C kernelElem](depth, g int, a []A, b []B, c []C, ldc, mr, nr int, store bool) {
	if store {
		for r := 0; r < mr; r++ {
			clear(c[r*ldc : r*ldc+nr])
		}
	}
	for q := 0; q < depth/g; q++ {
		ap, bp := a[q*mr*g:(q+1)*mr*g], b[q*nr*g:(q+1)*nr*g]
		for r := 0; r < mr; r++ {
			crow := c[r*ldc : r*ldc+nr]
			for t, av := range ap[r*g : (r+1)*g] {
				if av == 0 {
					continue
				}
				for j := range crow {
					crow[j] += C(av) * C(bp[j*g+t])
				}
			}
		}
	}
}
