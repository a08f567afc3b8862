package imaging

import (
	"fmt"
	"sync"

	"percival/internal/tensor"
)

// ResizeBilinear scales the bitmap to w×h with bilinear filtering. This is
// the scaling step PERCIVAL performs before classification: "PERCIVAL reads
// the image, scales it to 224×224×4 ... creates a tensor" (§3.3).
func ResizeBilinear(src *Bitmap, w, h int) *Bitmap {
	dst := NewBitmap(w, h)
	ResizeBilinearInto(src, dst)
	return dst
}

// resizeTables holds the precomputed sampling geometry for one
// (srcW, srcH) → (dstW, dstH) scaling: per-column source pairs and per-row
// source rows plus 8.8 fixed-point blend weights. The geometry depends only on
// the two sizes, so it is computed once and shared by every frame of that
// shape — the per-pixel float64 coordinate math and divides disappear from
// the per-frame path.
//
// A column samples pixels x0 and x1 = min(x0+1, srcW−1) with weights 256−fx
// and fx. Where x1 = x0 (the last source column) its pair is shifted one
// pixel left with weights 0 and 256 — the same sum, 256·p[x0] — so every pair
// is two adjacent pixels inside the row.
type resizeTables struct {
	offs   []int    // per column: source byte offset of its pair's left pixel
	wx     []uint16 // per column: 256−fx four times, then fx four times
	y0, y1 []int    // source rows of the top/bottom samples
	fy     []uint16 // vertical weight of the bottom sample, in [0, 256]
}

var resizeCache = struct {
	sync.RWMutex
	m map[[4]int]*resizeTables
}{m: make(map[[4]int]*resizeTables)}

// resizeCacheMax bounds the table cache: source frame sizes are
// page-determined and unbounded in variety in a long-running service, so
// when the cache fills it is flushed wholesale — live sizes repopulate
// immediately and tables are cheap to recompute, while the footprint stays
// bounded.
const resizeCacheMax = 1024

// resizeTablesFor returns the (cached) sampling tables for a scaling pair.
// The read-locked fast path performs no allocation, keeping the steady-state
// classification pipeline zero-alloc.
func resizeTablesFor(sw, sh, dw, dh int) *resizeTables {
	key := [4]int{sw, sh, dw, dh}
	resizeCache.RLock()
	t := resizeCache.m[key]
	resizeCache.RUnlock()
	if t != nil {
		return t
	}
	t = &resizeTables{
		offs: make([]int, dw), wx: make([]uint16, 8*dw),
		y0: make([]int, dh), y1: make([]int, dh), fy: make([]uint16, dh),
	}
	xRatio := float64(sw-1) / float64(maxInt(dw-1, 1))
	for x := 0; x < dw; x++ {
		sx := float64(x) * xRatio
		x0 := int(sx)
		w1 := uint16((sx-float64(x0))*256 + 0.5)
		if x0+1 >= sw {
			// Pair the clamped sample with its left neighbour, or — in a
			// one-pixel row, which ResizeBilinearInto widens to a pair of
			// that pixel — with itself.
			x0, w1 = max(x0-1, 0), 256
		}
		t.offs[x] = x0 * 4
		for c := 0; c < 4; c++ {
			t.wx[8*x+c], t.wx[8*x+4+c] = 256-w1, w1
		}
	}
	yRatio := float64(sh-1) / float64(maxInt(dh-1, 1))
	for y := 0; y < dh; y++ {
		sy := float64(y) * yRatio
		y0 := int(sy)
		t.y0[y] = y0
		t.y1[y] = min(y0+1, sh-1)
		t.fy[y] = uint16((sy-float64(y0))*256 + 0.5)
	}
	resizeCache.Lock()
	if len(resizeCache.m) >= resizeCacheMax {
		resizeCache.m = make(map[[4]int]*resizeTables, resizeCacheMax)
	}
	resizeCache.m[key] = t
	resizeCache.Unlock()
	return t
}

// resizeStrip is the widest column strip ResizeBilinearInto's two cached
// source rows cover; a wider output is walked strip by strip.
const resizeStrip = 256

// resizePortable runs the two row passes' portable bodies where the CPU has
// vector ones; the differential test sets it to cover both.
var resizePortable bool

func blendCols(dst []uint64, src []uint8, offs []int, wts []uint16) {
	if resizePortable {
		tensor.BilinearColsU16Portable(dst, src, offs, wts)
		return
	}
	tensor.BilinearColsU16(dst, src, offs, wts)
}

func blendRows(dst []uint8, top, bot []uint64, wy uint16) {
	if resizePortable {
		tensor.BilinearRowsU8Portable(dst, top, bot, wy)
		return
	}
	tensor.BilinearRowsU8(dst, top, bot, wy)
}

// ResizeBilinearInto scales src into the pre-allocated dst bitmap, whose
// dimensions select the output size. It allocates nothing in steady state
// (the sampling tables are cached per size pair), so per-frame
// pre-processing reuses one destination across frames.
//
// Blending runs in 8.8 fixed point and is separable: each output byte is
// (top·(256−wy) + bot·wy + 2¹⁵) >> 16, where top and bot are the unrounded
// horizontal blends p0·(256−wx) + p1·wx of the two source rows it reads. A
// horizontal blend is at most 65280, so it is computed once per source row
// into a 16-bit lane and kept while consecutive output rows read that row
// again; the vertical pass then blends two such rows into bytes. Both passes
// are vector kernels (tensor.BilinearColsU16, tensor.BilinearRowsU8), and
// every byte equals the per-pixel formula's.
//
// Frames reach it from the wire and /classify, so before any kernel runs it
// checks that both buffers hold their dimensions (without overflowing
// 4·W·H), and panics naming both sizes if not.
func ResizeBilinearInto(src, dst *Bitmap) {
	if !holds(src) || !holds(dst) {
		panic(fmt.Sprintf("imaging: ResizeBilinearInto from %dx%d (%d bytes) to %dx%d (%d bytes)",
			src.W, src.H, len(src.Pix), dst.W, dst.H, len(dst.Pix)))
	}
	w, h := dst.W, dst.H
	if src.W == w && src.H == h {
		copy(dst.Pix, src.Pix)
		return
	}
	t := resizeTablesFor(src.W, src.H, w, h)
	var sums sourceRows
	for x := 0; x < w; x += resizeStrip {
		n := min(resizeStrip, w-x)
		offs, wts := t.offs[x:x+n], t.wx[8*x:8*(x+n)]
		sums.held = [2]int{-1, -1}
		for y := 0; y < h; y++ {
			top := sums.blended(t.y0[y], t.y1[y], src, offs, wts)
			bot := sums.blended(t.y1[y], t.y0[y], src, offs, wts)
			blendRows(dst.Pix[4*(y*w+x):4*(y*w+x+n)], top, bot, t.fy[y])
		}
	}
}

// holds reports whether b has positive dimensions and Pix holds them.
func holds(b *Bitmap) bool { return b.W > 0 && b.H > 0 && len(b.Pix)/4/b.W >= b.H }

// sourceRows caches the horizontal pass of the two source rows an output
// row reads, over one column strip.
type sourceRows struct {
	sums [2][resizeStrip]uint64
	held [2]int // the source row in each slot, -1 for none
}

// blended returns source row r's horizontal blend over the strip's columns,
// computing it — into the slot that does not hold row keep, which the same
// output row reads too — unless a slot holds it already.
func (s *sourceRows) blended(r, keep int, src *Bitmap, offs []int, wts []uint16) []uint64 {
	i := 0
	switch {
	case s.held[0] == r:
		return s.sums[0][:len(offs)]
	case s.held[1] == r:
		return s.sums[1][:len(offs)]
	case s.held[0] == keep:
		i = 1
	}
	row := src.Pix[4*r*src.W : 4*(r+1)*src.W]
	var lone [8]uint8
	if src.W == 1 { // the tables pair a lone pixel with itself
		copy(lone[:4], row)
		copy(lone[4:], row)
		row = lone[:]
	}
	s.held[i] = r
	blendCols(s.sums[i][:len(offs)], row, offs, wts)
	return s.sums[i][:len(offs)]
}

// ToTensor converts a bitmap into a [1,4,H,W] network input, scaling pixel
// values to [0,1]. Channel order is RGBA, matching the decoded buffer layout.
func ToTensor(b *Bitmap) *tensor.Tensor {
	t := tensor.New(1, 4, b.H, b.W)
	ToTensorInto(b, t.Data)
	return t
}

// ToTensorInto writes the [4,H,W] float planes of one bitmap into dst
// (length >= 4*H*W) without allocating — the per-sample body of ToTensor and
// of batched tensor assembly.
func ToTensorInto(b *Bitmap, dst []float32) {
	plane := b.H * b.W
	if len(dst) < 4*plane {
		panic("imaging: ToTensorInto dst too small")
	}
	const inv = float32(1) / 255
	r := dst[:plane]
	g := dst[plane : 2*plane]
	bl := dst[2*plane : 3*plane]
	a := dst[3*plane : 4*plane]
	for pi := 0; pi < plane; pi++ {
		si := pi * 4
		r[pi] = float32(b.Pix[si]) * inv
		g[pi] = float32(b.Pix[si+1]) * inv
		bl[pi] = float32(b.Pix[si+2]) * inv
		a[pi] = float32(b.Pix[si+3]) * inv
	}
}

// BatchToTensor stacks same-sized bitmaps into an [N,4,H,W] batch.
func BatchToTensor(bs []*Bitmap) *tensor.Tensor {
	if len(bs) == 0 {
		panic("imaging: empty batch")
	}
	h, w := bs[0].H, bs[0].W
	t := tensor.New(len(bs), 4, h, w)
	per := 4 * h * w
	for i, b := range bs {
		if b.H != h || b.W != w {
			panic("imaging: batch bitmaps must share dimensions")
		}
		ToTensorInto(b, t.Data[i*per:(i+1)*per])
	}
	return t
}

// PrepareInput resizes a decoded frame to the network resolution and converts
// it to a tensor — the complete pre-processing PERCIVAL applies inside the
// raster task.
func PrepareInput(b *Bitmap, res int) *tensor.Tensor {
	return ToTensor(ResizeBilinear(b, res, res))
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
