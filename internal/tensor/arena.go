package tensor

import (
	"sync"
	"unsafe"
)

// Arena is a best-fit free-list allocator for inference scratch. Get takes
// the smallest free buffer that is large enough, so a buffer sized for the
// largest batch serves every smaller one and a freed layer input is reused
// by any later, smaller layer: after one warm-up pass at the largest batch
// every Get is satisfied from the free lists and the steady state allocates
// nothing. A forward pass holds a handful of buffers, so the free lists are
// a few entries long and a linear scan is the whole search.
//
// Ownership rules:
//   - An Arena is NOT goroutine-safe. Each concurrent inference (e.g. one
//     raster worker) must use its own arena; engine backends own theirs,
//     and GetArena/PutArena recycle warm arenas through a global sync.Pool
//     for nn.Predict.
//   - Tensors handed out by GetTensor belong to the arena. Callers must copy
//     any values they need before PutTensor/PutArena, and must not retain the
//     tensor (or slices of its data) afterwards.
//   - Buffers are returned uncleared and hold whatever the last layer or
//     batch left in them, within [:n] and beyond: callers must fully
//     overwrite what they read.
type Arena struct {
	free    [][]float32
	freeU8  [][]uint8
	freeI32 [][]int32
	headers []*Tensor
	bytes   int
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Bytes is the size of every buffer the arena has allocated, free or handed
// out (tensor headers not counted).
func (a *Arena) Bytes() int { return a.bytes }

// arenaGet removes the smallest buffer of *free with cap >= n and returns it
// sliced to n; when none fits it allocates and leaves *free as it was.
func arenaGet[T any](a *Arena, free *[][]T, n int) []T {
	l, best := *free, -1
	for i, b := range l {
		if cap(b) >= n && (best < 0 || cap(b) < cap(l[best])) {
			best = i
		}
	}
	if best < 0 {
		var zero T
		a.bytes += n * int(unsafe.Sizeof(zero))
		return make([]T, n)
	}
	buf := l[best]
	l[best] = l[len(l)-1]
	*free = l[:len(l)-1]
	return buf[:n]
}

// arenaPut appends buf, at its full capacity, to *free.
func arenaPut[T any](free *[][]T, buf []T) {
	if cap(buf) > 0 {
		*free = append(*free, buf[:cap(buf)])
	}
}

// Get returns an uncleared buffer of length n: the smallest free buffer that
// holds n elements, or a new one when none does.
func (a *Arena) Get(n int) []float32 { return arenaGet(a, &a.free, n) }

// Put returns a buffer obtained from Get to the free list.
func (a *Arena) Put(buf []float32) { arenaPut(&a.free, buf) }

// GetU8 returns an uncleared byte buffer of length n from the arena — the
// quantized-activation counterpart of Get. Same ownership rules. Its
// capacity is at least 16 bytes, so the buffer is word-aligned (see
// quadWords).
func (a *Arena) GetU8(n int) []uint8 { return arenaGet(a, &a.freeU8, max(n, 16))[:n] }

// PutU8 returns a buffer obtained from GetU8 to the free list.
func (a *Arena) PutU8(buf []uint8) { arenaPut(&a.freeU8, buf) }

// GetI32 returns an uncleared int32 buffer of length n from the arena — the
// quantized-accumulator counterpart of Get. Same ownership rules.
func (a *Arena) GetI32(n int) []int32 { return arenaGet(a, &a.freeI32, n) }

// PutI32 returns a buffer obtained from GetI32 to the free list.
func (a *Arena) PutI32(buf []int32) { arenaPut(&a.freeI32, buf) }

// GetTensor returns an arena-owned tensor with the given shape and uncleared
// contents. Tensor headers are recycled alongside the data buffers, so the
// steady state performs no heap allocation.
func (a *Arena) GetTensor(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	var t *Tensor
	if len(a.headers) > 0 {
		t = a.headers[len(a.headers)-1]
		a.headers = a.headers[:len(a.headers)-1]
	} else {
		t = &Tensor{}
	}
	t.Shape = append(t.Shape[:0], shape...)
	t.Data = a.Get(n)
	return t
}

// PutTensor returns an arena-owned tensor's buffer and header to the arena.
func (a *Arena) PutTensor(t *Tensor) {
	a.Put(t.Data)
	t.Data = nil
	a.headers = append(a.headers, t)
}

// arenaPool recycles warm arenas across goroutines for nn.Predict; engine
// backends own theirs, which the collector cannot empty.
var arenaPool = sync.Pool{New: func() any { return NewArena() }}

// GetArena fetches a (possibly warm) arena from the global pool.
func GetArena() *Arena { return arenaPool.Get().(*Arena) }

// PutArena returns an arena to the global pool. The caller must no longer
// hold any tensor or buffer obtained from it.
func PutArena(a *Arena) { arenaPool.Put(a) }

// The scratch pools recycle transient buffers (GEMM packing panels, im2col
// columns, conv backward dcol, the quantized kernels' staging), one pool an
// element type. Pointers to slice headers are pooled so the steady state
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
