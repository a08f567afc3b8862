package tensor

import (
	"sync"
	"unsafe"
)

// Arena is the memory one inference state runs its forward passes in: one
// slab per element type — float32 activations and scratch, byte activations
// and scratch, int32 accumulators — in which a compiled forward plan (nn)
// gives every buffer of a pass a fixed offset. A pass asks for the slab
// lengths its plan needs; the first pass at a plan grows the slabs, and from
// then on a pass at that plan, or any plan no larger, allocates nothing.
// Plans of different networks take turns in the same slabs.
//
// Ownership rules:
//   - An Arena is NOT goroutine-safe. Each concurrent inference (e.g. one
//     raster worker) must use its own arena; engine backends own theirs,
//     and GetArena/PutArena recycle warm arenas through a global sync.Pool
//     for nn.Predict.
//   - A tensor a pass returns is a view of the slabs: copy out what you
//     need before the next pass on the arena, which overwrites it.
//   - The slabs are never cleared and hold whatever the last pass left in
//     them: every stage fully writes what it reads.
type Arena struct {
	f32 []float32
	u8  []uint8
	i32 []int32
	// headers are the tensor views a pass hands out over the slabs.
	headers []Tensor
	// Plan is the arena's user's record of what its slabs were last sized
	// for: nn keeps the forward plan there, so a state runs every batch its
	// slabs hold in one plan.
	Plan any
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Bytes is the size of the arena's slabs.
func (a *Arena) Bytes() int { return 4*len(a.f32) + len(a.u8) + 4*len(a.i32) }

// Slabs returns a's slabs, each grown to at least the given length. A slab
// that grows is replaced, contents dropped, by one of exactly that length
// (the byte slab, word-aligned, by at least 16 bytes: see quadWords); the
// ones returned are whole.
func (a *Arena) Slabs(f32, u8, i32 int) ([]float32, []uint8, []int32) {
	if len(a.f32) < f32 {
		a.f32 = make([]float32, f32)
	}
	if len(a.u8) < u8 {
		a.u8 = make([]uint8, max(u8, 16))
	}
	if len(a.i32) < i32 {
		a.i32 = make([]int32, i32)
	}
	return a.f32, a.u8, a.i32
}

// Tensors returns k tensor headers of a's, for a pass to view its slabs
// through. Each keeps its shape's storage from pass to pass, so a warm arena
// allocates none.
func (a *Arena) Tensors(k int) []Tensor {
	if len(a.headers) < k {
		a.headers = append(a.headers, make([]Tensor, k-len(a.headers))...)
	}
	return a.headers[:k]
}

// PutTensor hands back t, a tensor a pass on a returned. A pass's tensors
// are views of a's slabs, which the next pass reuses whether or not this is
// called: there is nothing to free, and t must not be read after the next
// pass.
func (a *Arena) PutTensor(t *Tensor) {}

// arenaPool recycles warm arenas across goroutines for nn.Predict; engine
// backends own theirs, which the collector cannot empty.
var arenaPool = sync.Pool{New: func() any { return NewArena() }}

// GetArena fetches a (possibly warm) arena from the global pool.
func GetArena() *Arena { return arenaPool.Get().(*Arena) }

// PutArena returns an arena to the global pool. The caller must no longer
// hold any tensor or buffer obtained from it.
func PutArena(a *Arena) { arenaPool.Put(a) }

// The scratch pools recycle the transient buffers of training and of the
// public GEMM entry points (packing panels, conv backward dcol, the max
// pool's argmax, quantized staging), one pool an element type; inference
// takes its scratch from an Arena instead. Pointers to slice headers are pooled so the steady state
// performs no boxing allocation.
var scratchF32, scratchU8, scratchI8, scratchI32 sync.Pool

// scratchPoolOf returns T's scratch pool.
func scratchPoolOf[T kernelElem]() *sync.Pool {
	switch any((*T)(nil)).(type) {
	case *float32:
		return &scratchF32
	case *uint8:
		return &scratchU8
	case *int8:
		return &scratchI8
	}
	return &scratchI32
}

// getScratch returns a pointer to an uncleared scratch buffer of length n,
// from T's pool. Its capacity is at least 16 bytes, so a byte buffer is
// word-aligned (see quadWords). Release with putScratch.
func getScratch[T kernelElem](n int) *[]T {
	p, _ := scratchPoolOf[T]().Get().(*[]T)
	if p == nil {
		p = new([]T)
	}
	if cap(*p) < n {
		var zero T
		*p = make([]T, max(n, 16/int(unsafe.Sizeof(zero))))
	}
	*p = (*p)[:n]
	return p
}

// putScratch returns a buffer obtained from getScratch to its pool.
func putScratch[T kernelElem](p *[]T) { scratchPoolOf[T]().Put(p) }

// GetScratch returns a pointer to an uncleared float32 scratch buffer of
// length n. Release with PutScratch.
func GetScratch(n int) *[]float32 { return getScratch[float32](n) }

// PutScratch returns a buffer obtained from GetScratch to the pool.
func PutScratch(p *[]float32) { putScratch(p) }

// GetScratchU8 returns a pointer to an uncleared byte scratch buffer of
// length n, word-aligned. Release with PutScratchU8.
func GetScratchU8(n int) *[]uint8 { return getScratch[uint8](n) }

// PutScratchU8 returns a buffer obtained from GetScratchU8 to the pool.
func PutScratchU8(p *[]uint8) { putScratch(p) }

// GetScratchI8 returns a pointer to an uncleared int8 scratch buffer of
// length n. Release with PutScratchI8.
func GetScratchI8(n int) *[]int8 { return getScratch[int8](n) }

// PutScratchI8 returns a buffer obtained from GetScratchI8 to the pool.
func PutScratchI8(p *[]int8) { putScratch(p) }

// GetScratchI32 returns a pointer to an uncleared int32 scratch buffer of
// length n. Release with PutScratchI32.
func GetScratchI32(n int) *[]int32 { return getScratch[int32](n) }

// PutScratchI32 returns a buffer obtained from GetScratchI32 to the pool.
func PutScratchI32(p *[]int32) { putScratch(p) }
