package imaging

import (
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
// (srcW, srcH) → (dstW, dstH) scaling: per-column and per-row source offsets
// plus 8.8 fixed-point blend weights. The geometry depends only on the two
// sizes, so it is computed once and shared by every frame of that shape —
// the per-pixel float64 coordinate math and divides disappear from the
// per-frame path.
type resizeTables struct {
	x0, x1 []int    // source byte offsets of the left/right sample columns
	fx     []uint32 // horizontal weight of the right sample, in [0, 256]
	y0, y1 []int    // source byte offsets of the top/bottom sample rows
	fy     []uint32 // vertical weight of the bottom sample, in [0, 256]
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
		x0: make([]int, dw), x1: make([]int, dw), fx: make([]uint32, dw),
		y0: make([]int, dh), y1: make([]int, dh), fy: make([]uint32, dh),
	}
	xRatio := float64(sw-1) / float64(maxInt(dw-1, 1))
	for x := 0; x < dw; x++ {
		sx := float64(x) * xRatio
		x0 := int(sx)
		x1 := x0 + 1
		if x1 >= sw {
			x1 = sw - 1
		}
		t.x0[x] = x0 * 4
		t.x1[x] = x1 * 4
		t.fx[x] = uint32((sx-float64(x0))*256 + 0.5)
	}
	yRatio := float64(sh-1) / float64(maxInt(dh-1, 1))
	for y := 0; y < dh; y++ {
		sy := float64(y) * yRatio
		y0 := int(sy)
		y1 := y0 + 1
		if y1 >= sh {
			y1 = sh - 1
		}
		t.y0[y] = y0 * sw * 4
		t.y1[y] = y1 * sw * 4
		t.fy[y] = uint32((sy-float64(y0))*256 + 0.5)
	}
	resizeCache.Lock()
	if len(resizeCache.m) >= resizeCacheMax {
		resizeCache.m = make(map[[4]int]*resizeTables, resizeCacheMax)
	}
	resizeCache.m[key] = t
	resizeCache.Unlock()
	return t
}

// ResizeBilinearInto scales src into the pre-allocated dst bitmap, whose
// dimensions select the output size. It allocates nothing in steady state
// (the sampling tables are cached per size pair), so per-frame
// pre-processing reuses one destination across frames. Blending runs in 8.8
// fixed point — integer loads, multiplies and one shift per channel — in
// place of the former per-pixel float64 interpolation.
func ResizeBilinearInto(src, dst *Bitmap) {
	w, h := dst.W, dst.H
	if src.W == w && src.H == h {
		copy(dst.Pix, src.Pix)
		return
	}
	t := resizeTablesFor(src.W, src.H, w, h)
	for y := 0; y < h; y++ {
		r0 := src.Pix[t.y0[y]:]
		r1 := src.Pix[t.y1[y]:]
		wy := t.fy[y]
		iwy := 256 - wy
		drow := dst.Pix[y*w*4 : (y+1)*w*4]
		for x := 0; x < w; x++ {
			o0, o1 := t.x0[x], t.x1[x]
			wx := t.fx[x]
			iwx := 256 - wx
			p00 := r0[o0 : o0+4]
			p01 := r0[o1 : o1+4]
			p10 := r1[o0 : o0+4]
			p11 := r1[o1 : o1+4]
			d := drow[x*4 : x*4+4]
			top := uint32(p00[0])*iwx + uint32(p01[0])*wx
			bot := uint32(p10[0])*iwx + uint32(p11[0])*wx
			d[0] = uint8((top*iwy + bot*wy + 1<<15) >> 16)
			top = uint32(p00[1])*iwx + uint32(p01[1])*wx
			bot = uint32(p10[1])*iwx + uint32(p11[1])*wx
			d[1] = uint8((top*iwy + bot*wy + 1<<15) >> 16)
			top = uint32(p00[2])*iwx + uint32(p01[2])*wx
			bot = uint32(p10[2])*iwx + uint32(p11[2])*wx
			d[2] = uint8((top*iwy + bot*wy + 1<<15) >> 16)
			top = uint32(p00[3])*iwx + uint32(p01[3])*wx
			bot = uint32(p10[3])*iwx + uint32(p11[3])*wx
			d[3] = uint8((top*iwy + bot*wy + 1<<15) >> 16)
		}
	}
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
