package tensor

import (
	"fmt"
	"math"
	"unsafe"
)

// PoolSpec describes a 2-D pooling window.
type PoolSpec struct {
	K      int // window size (square)
	Stride int
	Pad    int
}

// OutSize returns the output spatial size of pooling an h×w input. Following
// the convention used by SqueezeNet (ceil mode off), partial windows beyond
// the padded edge are dropped; an input smaller than one window pools to 0.
func (p PoolSpec) OutSize(h, w int) (oh, ow int) {
	return windowCount(h, p.Pad, p.K, p.Stride), windowCount(w, p.Pad, p.K, p.Stride)
}

// MaxPoolForward computes max pooling over x ([N,C,H,W]) and records the
// linear argmax index of each output element (into x.Data) so the backward
// pass can route gradients. Padded positions are -inf and never win.
func MaxPoolForward(x *Tensor, p PoolSpec) (y *Tensor, argmax []int32) {
	n, c := x.Shape[0], x.Shape[1]
	oh, ow := p.OutSize(x.Shape[2], x.Shape[3])
	y = New(n, c, oh, ow)
	argmax = make([]int32, y.Len())
	MaxPoolForwardArgmax(x, p, y, argmax)
	return y, argmax
}

// MaxPoolForwardArgmax is the scratch-friendly body of MaxPoolForward: it
// pools into the caller-provided y ([N,C,outH,outW]) and argmax (y.Len()
// elements), allocating nothing. The training path routes argmax through
// GetScratchI32/PutScratchI32 so repeated forward/backward cycles reuse one
// buffer instead of allocating per call.
func MaxPoolForwardArgmax(x *Tensor, p PoolSpec, y *Tensor, argmax []int32) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := p.OutSize(h, w)
	if y.Shape[0] != n || y.Shape[1] != c || y.Shape[2] != oh || y.Shape[3] != ow {
		panic(fmt.Sprintf("tensor: MaxPoolForwardArgmax: output shape %v, want [%d,%d,%d,%d]", y.Shape, n, c, oh, ow))
	}
	if len(argmax) < y.Len() {
		panic(fmt.Sprintf("tensor: MaxPoolForwardArgmax: argmax has %d elements, need %d", len(argmax), y.Len()))
	}
	oi := 0
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			plane := (i*c + ch) * h * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := float32(math.Inf(-1))
					bi := int32(-1)
					for ky := 0; ky < p.K; ky++ {
						iy := oy*p.Stride - p.Pad + ky
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < p.K; kx++ {
							ix := ox*p.Stride - p.Pad + kx
							if ix < 0 || ix >= w {
								continue
							}
							v := x.Data[plane+iy*w+ix]
							if v > best {
								best = v
								bi = int32(plane + iy*w + ix)
							}
						}
					}
					y.Data[oi] = best
					argmax[oi] = bi
					oi++
				}
			}
		}
	}
}

// MaxPoolForwardInto computes max pooling into a caller-provided output
// tensor without recording argmax indices — the inference-path variant, which
// performs no allocation. y must be [N,C,outH,outW]; scratch holds
// p.ScratchLen(W) elements.
//
// Unpadded pooling (every pool in the PERCIVAL architectures) takes the
// separable path, which agrees with the scalar window scan by value on
// NaN-free input. Two corners are deliberately left unpinned: a window
// holding both +0 and -0 as its maximum may yield either (they compare
// equal), and a NaN, which the scalar scan never selects, propagates from
// the separable path when it sits first in its column or row of the window.
func MaxPoolForwardInto(x *Tensor, p PoolSpec, y *Tensor, scratch []float32) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := p.OutSize(h, w)
	if oh == 0 || ow == 0 {
		panicEmptyOutput("MaxPoolForwardInto", x.Shape, p.K, p.K, p.Pad, p.Pad)
	}
	if y.Shape[0] != n || y.Shape[1] != c || y.Shape[2] != oh || y.Shape[3] != ow {
		panic(fmt.Sprintf("tensor: MaxPoolForwardInto: output shape %v, want [%d,%d,%d,%d]", y.Shape, n, c, oh, ow))
	}
	if p.Pad == 0 {
		checkScratch("MaxPoolForwardInto", len(scratch), p.ScratchLen(w))
		maxPoolSeparable(x.Data, n*c, h, w, p, y.Data, oh, ow, scratch)
		return
	}
	oi := 0
	for i := 0; i < n*c; i++ {
		plane := x.Data[i*h*w : (i+1)*h*w]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := float32(math.Inf(-1))
				for ky := 0; ky < p.K; ky++ {
					iy := oy*p.Stride - p.Pad + ky
					if iy < 0 || iy >= h {
						continue
					}
					row := plane[iy*w : iy*w+w]
					for kx := 0; kx < p.K; kx++ {
						ix := ox*p.Stride - p.Pad + kx
						if ix < 0 || ix >= w {
							continue
						}
						if v := row[ix]; v > best {
							best = v
						}
					}
				}
				y.Data[oi] = best
				oi++
			}
		}
	}
}

// maxPoolSeparable is the unpadded fast path over `planes` h×w planes: one
// poolRow per output row. Every window lies inside the plane (OutSize drops
// partial ones), so nothing is range-checked.
func maxPoolSeparable(x []float32, planes, h, w int, p PoolSpec, y []float32, oh, ow int, scratch []float32) {
	for i := 0; i < planes; i++ {
		plane := x[i*h*w : (i+1)*h*w]
		yp := y[i*oh*ow : (i+1)*oh*ow]
		for oy := 0; oy < oh; oy++ {
			poolRow(yp[oy*ow:oy*ow+ow], plane[oy*p.Stride*w:], w, p, scratch)
		}
	}
}

// ScratchLen is the scratch MaxPoolForwardInto needs to pool planes w
// wide: poolRow's for an unpadded pool, none for a padded one.
func (p PoolSpec) ScratchLen(w int) int {
	if p.Pad != 0 {
		return 0
	}
	return 2*w - p.K + 1
}

// poolRow writes one output row of an unpadded max pool from the K input
// rows at the head of src, w apart: FP32 values, or a fused INT8 pool's raw
// accumulators. One maxInto pass takes the vertical max of the K rows into
// rowmax, a second takes the horizontal K-tap max of rowmax at every window
// start column into hmax, and the outputs are hmax at the stride — 2K reads
// per output instead of K² bounds-tested window probes, and no branch that
// depends on the data.
func poolRow[T float32 | int32](dst, src []T, w int, p PoolSpec, scratch []T) {
	rowmax, hmax := scratch[:w], scratch[w:2*w-p.K+1]
	maxInto(rowmax, src, p.K, w)
	maxInto(hmax, rowmax, p.K, 1)
	gatherWords(dst, hmax, p.Stride)
}

// poolWindow is the row bookkeeping of a max pool fused into a blocked
// product, shared by both engines: the driver hands the convolution's
// output over a block of whole rows at a time, in order; each plane's rows
// sit in its slab of the run's scratch, below the few rows carried over from
// the block before (a window overhangs its block by up to K-1 rows), and
// every window a block completes is pooled while the block is still
// cache-resident. Each pooled row is the one the unfused pool computes from
// the materialized output. The zero value is inactive.
type poolWindow struct {
	spec     PoolSpec
	ow       int // the convolution's output row width
	poh, pow int // the pooled planes' size
	cap      int // rows per slab: one block's plus the K-1 carried
	base     int // the output row held in slab row 0
	held     int // rows carried from earlier blocks: slab rows [0, held)
	py       int // next pooled row to emit
}

func (w *poolWindow) active() bool { return w.spec.K > 0 }

// advance takes rows new rows, written below the held ones, and returns the
// pooled rows [py, done) they complete — pooled row y's window starting at
// slab row first+(y-py)*Stride — and the slab rows [keep, end) that later
// windows still read, which the caller moves to the head of each slab.
func (w *poolWindow) advance(rows int) (py, done, first, keep, end int) {
	k, stride := w.spec.K, w.spec.Stride
	end = w.base + w.held + rows // rows [base, end) are held
	py, done = w.py, w.py
	if end >= k {
		done = max(done, min((end-k)/stride+1, w.poh))
	}
	keep = end // first row a later window reads
	if done < w.poh {
		keep = min(max(done*stride, w.base), end)
	}
	base := w.base
	w.base, w.held, w.py = keep, end-keep, done
	return py, done, py*stride - base, keep - base, end - base
}

// poolSink is the pooling half of a fused FP32 convolution → max-pool stage,
// as the GEMM epilogue sees it: the product's columns are rows of ow (the
// convolution's output rows, m planes of them), and instead of landing in C
// they are max-pooled, unpadded, into dst — m planes of poh×pow.
type poolSink struct {
	poolWindow
	dst []float32
}

// poolRun is one product's pass through a poolSink: the raw product rows
// are pooled first and the epilogue's bias and ReLU then finish only the
// pooled values. Both never decrease as their input grows (a float32 sum
// rounds monotonically; the clamp keeps a -0 or NaN sum, as the unfused
// epilogue does), so each pooled value is the one MaxPoolForwardInto
// computes from the biased, clamped output — but for the ±0 corner that
// function leaves unpinned.
type poolRun struct {
	poolSink
	m      int
	finish gemmEpilogue // the bias and ReLU, applied to pooled rows
	buf    []float32    // m slabs of cap rows, then poolRow's scratch
}

// start begins a run over m planes fed at most blockRows rows at a time, in
// buf: the poolLen of gemmSplit. finish is applied to each pooled row.
func (p *poolSink) start(m, blockRows int, finish gemmEpilogue, buf []float32) poolRun {
	r := poolRun{poolSink: *p, m: m, finish: finish, buf: buf}
	r.cap = blockRows + p.spec.K - 1
	return r
}

// target returns where the next block's product goes: row i of the block's
// m×(rows·ow) matrix at c[i*ldc:].
func (r *poolRun) target() (c []float32, ldc int) {
	return r.buf[r.held*r.ow:], r.cap * r.ow
}

// emit takes the raw product rows just written at target, pools every
// window they complete, finishes the pooled rows and carries the rows later
// windows still need.
func (r *poolRun) emit(rows int) {
	py, done, first, keep, end := r.advance(rows)
	ow, ld := r.ow, r.cap*r.ow
	scratch := r.buf[r.m*ld:]
	for i := 0; i < r.m; i++ {
		slab := r.buf[i*ld : (i+1)*ld]
		for y := py; y < done; y++ {
			poolRow(r.dst[(i*r.poh+y)*r.pow:][:r.pow], slab[(first+(y-py)*r.spec.Stride)*ow:], ow, r.spec, scratch)
		}
		r.finish.row(r.dst[(i*r.poh+py)*r.pow:(i*r.poh+done)*r.pow], i)
		copy(slab, slab[keep*ow:end*ow])
	}
}

// maxInto computes dst[i] = max(src[i], src[i+stride], …) over k taps. A
// later tap replaces the running maximum only when it compares greater, in
// the vector bodies (VMAXPS with the running maximum as second source;
// VPMAXSD) as in the loop, so the two agree bit for bit.
func maxInto[T float32 | int32](dst, src []T, k, stride int) {
	src = src[:len(dst)+(k-1)*stride]
	if haveQuantASM && len(dst) >= 8 {
		d, s, n := unsafe.Pointer(&dst[0]), unsafe.Pointer(&src[0]), int64(len(dst))
		switch any(dst[0]).(type) {
		case float32:
			maxF32x8((*float32)(d), (*float32)(s), n, int64(k), int64(stride))
		case int32:
			maxI32x8((*int32)(d), (*int32)(s), n, int64(k), int64(stride))
		}
		return
	}
	for i := range dst {
		m := src[i]
		for t := 1; t < k; t++ {
			if v := src[i+t*stride]; v > m {
				m = v
			}
		}
		dst[i] = m
	}
}

// MaxPoolBackward scatters dy back to the winning input positions.
func MaxPoolBackward(dy *Tensor, argmax []int32, inShape []int) *Tensor {
	dx := New(inShape...)
	for i, g := range dy.Data {
		if a := argmax[i]; a >= 0 {
			dx.Data[a] += g
		}
	}
	return dx
}

// GlobalAvgPoolForward averages each channel plane to a single value,
// producing [N,C,1,1]. This is SqueezeNet's classifier head reduction.
func GlobalAvgPoolForward(x *Tensor) *Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	y := New(n, c, 1, 1)
	inv := 1 / float32(h*w)
	for i := 0; i < n*c; i++ {
		plane := x.Data[i*h*w : (i+1)*h*w]
		var sum float32
		for _, v := range plane {
			sum += v
		}
		y.Data[i] = sum * inv
	}
	return y
}

// GlobalAvgPoolInto averages each channel plane of x ([N,C,H,W]) into dst,
// which must hold N*C elements — the allocation-free inference variant of
// GlobalAvgPoolForward.
func GlobalAvgPoolInto(x *Tensor, dst []float32) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if len(dst) < n*c {
		panic(fmt.Sprintf("tensor: GlobalAvgPoolInto: dst has %d elements, need %d", len(dst), n*c))
	}
	inv := 1 / float32(h*w)
	for i := 0; i < n*c; i++ {
		plane := x.Data[i*h*w : (i+1)*h*w]
		var sum float32
		for _, v := range plane {
			sum += v
		}
		dst[i] = sum * inv
	}
}

// GlobalAvgPoolBackward spreads each channel gradient uniformly over the
// input plane.
func GlobalAvgPoolBackward(dy *Tensor, inShape []int) *Tensor {
	n, c, h, w := inShape[0], inShape[1], inShape[2], inShape[3]
	dx := New(inShape...)
	inv := 1 / float32(h*w)
	for i := 0; i < n*c; i++ {
		g := dy.Data[i] * inv
		plane := dx.Data[i*h*w : (i+1)*h*w]
		for j := range plane {
			plane[j] = g
		}
	}
	return dx
}
