package nn

import (
	"sort"
	"sync/atomic"

	"percival/internal/tensor"
)

// A forward plan is one engine's forward pass compiled for one input shape
// at up to maxN images: the stages in order with every shape resolved, and
// a region of the arena's slabs for each activation and each stage's
// scratch. Fusion, shapes and offsets are decided once, at compile time; a
// pass is a loop over the stages indexing the slabs, and a smaller batch
// runs in the same offsets. A plan is immutable and shared by every
// goroutine running the network; each pass brings its own tensor.Arena.

// Slabs a region can live in: one per element type.
const (
	slabF32 = iota
	slabU8
	slabI32
)

// region is one buffer of a plan: size elements of a slab from off on —
// per elements an image when it is an activation (size = per·maxN), or a
// stage's scratch (per = 0) — live from stage first through stage last.
type region struct {
	slab, off, size, per int
	first, last          int
}

// stage is one step of a plan: kind over region in into region out — a
// convolution at channel (FP32) or quad plane (INT8) offset chOff — with
// scratch regions scratch (the engine's own element type) and i32. An FP32
// stage runs conv, with relu and pool; an INT8 one qconv (its pool
// included) over input images of h×w, whose output images hold planes quad
// planes.
type stage struct {
	kind                  int
	in, out, scratch, i32 int
	conv                  *Conv2D
	qconv                 *tensor.QConv
	relu                  bool
	pool                  tensor.PoolSpec
	chOff, h, w, planes   int
}

// plan is a compiled forward pass. dims[i] is region i's shape without its
// batch when it is an FP32 activation. Region pix holds an FP32 plan's one
// RGBA8 frame on its way into the input (see InputArena), and an INT8
// plan's input pixels.
type plan struct {
	owner              *planCache
	key                planKey
	maxN               int
	regions            []region
	slabs              [3]int
	dims               [][]int
	stages             []stage
	logits, probs, pix int
}

// planKey is what a plan is compiled for besides its batch: the input's
// shape.
type planKey struct{ c, h, w int }

// region adds r and returns its index.
func (p *plan) region(r region) int {
	p.regions = append(p.regions, r)
	p.dims = append(p.dims, nil)
	return len(p.regions) - 1
}

// act adds an activation of per elements an image, written by the next
// stage.
func (p *plan) act(slab, per int) int {
	s := len(p.stages)
	return p.region(region{slab: slab, size: per * p.maxN, per: per, first: s, last: s})
}

// add appends st, reading region in and writing out, with scratch elements
// of slab and i32 int32s of scratch, and returns out.
func (p *plan) add(st stage, in, out, slab, scratch, i32 int) int {
	s := len(p.stages)
	st.in, st.out = in, out
	st.scratch = p.region(region{slab: slab, size: scratch, first: s, last: s})
	st.i32 = p.region(region{slab: slabI32, size: i32, first: s, last: s})
	for _, r := range [2]int{in, out} {
		p.regions[r].last = max(p.regions[r].last, s)
	}
	p.stages = append(p.stages, st)
	return out
}

// place is the liveness pass: it gives every region an offset in its slab
// at which it overlaps no region of that slab live at any of its stages,
// and sets the slab lengths. Regions go largest first, each at the lowest
// offset clear of the ones placed before it. Sizes round up to 64 bytes, so
// every region starts 64-byte aligned from its slab's start (the INT8
// kernels view byte regions as 32-bit words).
func (p *plan) place() {
	rs := p.regions
	span := func(r *region) int {
		align := 16 // four-byte elements
		if r.slab == slabU8 {
			align = 64
		}
		return (r.size + align - 1) / align * align
	}
	order := make([]int, len(rs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return rs[order[i]].size > rs[order[j]].size })
	for k, i := range order {
		r := &rs[i]
		var clash []*region
		for _, j := range order[:k] {
			if o := &rs[j]; o.slab == r.slab && o.first <= r.last && r.first <= o.last {
				clash = append(clash, o)
			}
		}
		sort.Slice(clash, func(a, b int) bool { return clash[a].off < clash[b].off })
		for _, o := range clash {
			if r.off+span(r) <= o.off {
				break
			}
			r.off = max(r.off, o.off+span(o))
		}
		p.slabs[r.slab] = max(p.slabs[r.slab], r.off+span(r))
	}
}

// view returns region r of slab s for n images.
func view[T any](s []T, r *region, n int) []T {
	if r.per > 0 {
		return s[r.off : r.off+n*r.per]
	}
	return s[r.off : r.off+r.size]
}

// slabsIn returns a's slabs, grown to p's.
func (p *plan) slabsIn(a *tensor.Arena) ([]float32, []uint8, []int32) {
	return a.Slabs(p.slabs[slabF32], p.slabs[slabU8], p.slabs[slabI32])
}

// planCache holds the plans compiled for one network. The list is
// immutable and swapped whole, so a lookup takes no lock, and goroutines
// racing on a first use each compile and the first to publish wins.
type planCache struct{ list atomic.Pointer[[]*plan] }

// get returns the plan a pass of n images for key runs in a: the plan a's
// slabs were last sized for (a.Plan) when it takes n — so a state warmed at
// one batch runs every smaller one in the same offsets, and the choice does
// not move between InputArena and the pass — and otherwise the plan for
// exactly n, compiled by compile on first use, which a then records. A
// state that only ever scores single frames so stays at a single frame's
// footprint, whatever batch another user of the network warmed to. a may
// be nil (no record).
func (pc *planCache) get(a *tensor.Arena, key planKey, n int, compile func(p *plan)) *plan {
	if a != nil {
		if p, ok := a.Plan.(*plan); ok && p.owner == pc && p.key == key && p.maxN >= n {
			return p
		}
	}
	p := pc.exact(key, n, compile)
	if a != nil {
		a.Plan = p
	}
	return p
}

// exact returns the cached plan for key and exactly n images, compiling it
// on first use.
func (pc *planCache) exact(key planKey, n int, compile func(p *plan)) *plan {
	for {
		old := pc.list.Load()
		var list []*plan
		if old != nil {
			list = *old
		}
		for _, p := range list {
			if p.key == key && p.maxN == n {
				return p
			}
		}
		p := &plan{owner: pc, key: key, maxN: n}
		compile(p)
		p.place()
		if next := append([]*plan{p}, list...); pc.list.CompareAndSwap(old, &next) {
			return p
		}
	}
}
