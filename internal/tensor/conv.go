package tensor

import (
	"fmt"
	"unsafe"
)

// ConvSpec describes a 2-D convolution (square kernels are the common case in
// SqueezeNet but rectangular ones are supported).
type ConvSpec struct {
	InC, OutC  int
	KH, KW     int
	StrideH    int
	StrideW    int
	PadH, PadW int
}

// OutSize returns the output spatial size for an input of h×w: 0 along an
// axis whose padded extent is smaller than the kernel.
func (s ConvSpec) OutSize(h, w int) (oh, ow int) {
	return windowCount(h, s.PadH, s.KH, s.StrideH), windowCount(w, s.PadW, s.KW, s.StrideW)
}

// windowCount is the number of whole k-wide windows at the given stride that
// fit in an axis of size elements padded by pad on both sides. It is 0 when
// not even one fits — plain (size+2*pad-k)/stride+1 would truncate the
// negative quotient toward zero and report 1.
func windowCount(size, pad, k, stride int) int {
	span := size + 2*pad - k
	if span < 0 {
		return 0
	}
	return span/stride + 1
}

// Im2col expands one image (C×H×W, a slice of a batch tensor) into the column
// matrix of a GEMM convolution: shape [C*KH*KW, outH*outW], row-major into
// col, which must have capacity for that many elements. Zero padding is
// materialized as zeros. Only ConvBackward needs the matrix in memory (its
// dW product reads it transposed); the forward pass reads the same matrix
// through a convView, and is tested bit for bit against Im2col+Gemm.
func Im2col(img []float32, c, h, w int, s ConvSpec, col []float32) (oh, ow int) {
	oh, ow = s.OutSize(h, w)
	rowLen := oh * ow
	ri := 0
	for ch := 0; ch < c; ch++ {
		chOff := ch * h * w
		for ky := 0; ky < s.KH; ky++ {
			for kx := 0; kx < s.KW; kx++ {
				dst := col[ri*rowLen : (ri+1)*rowLen]
				di := 0
				for oy := 0; oy < oh; oy++ {
					iy := oy*s.StrideH - s.PadH + ky
					if iy < 0 || iy >= h {
						for ox := 0; ox < ow; ox++ {
							dst[di] = 0
							di++
						}
						continue
					}
					rowOff := chOff + iy*w
					ix := -s.PadW + kx
					for ox := 0; ox < ow; ox++ {
						if ix >= 0 && ix < w {
							dst[di] = img[rowOff+ix]
						} else {
							dst[di] = 0
						}
						di++
						ix += s.StrideW
					}
				}
				ri++
			}
		}
	}
	return oh, ow
}

// Col2im is the adjoint of Im2col: it scatters the column-matrix gradient
// back into the (zero-initialized) image gradient buffer, accumulating where
// receptive fields overlap.
func Col2im(col []float32, c, h, w int, s ConvSpec, img []float32) {
	oh, ow := s.OutSize(h, w)
	rowLen := oh * ow
	ri := 0
	for ch := 0; ch < c; ch++ {
		chOff := ch * h * w
		for ky := 0; ky < s.KH; ky++ {
			for kx := 0; kx < s.KW; kx++ {
				src := col[ri*rowLen : (ri+1)*rowLen]
				si := 0
				for oy := 0; oy < oh; oy++ {
					iy := oy*s.StrideH - s.PadH + ky
					if iy < 0 || iy >= h {
						si += ow
						continue
					}
					rowOff := chOff + iy*w
					ix := -s.PadW + kx
					for ox := 0; ox < ow; ox++ {
						if ix >= 0 && ix < w {
							img[rowOff+ix] += src[si]
						}
						si++
						ix += s.StrideW
					}
				}
				ri++
			}
		}
	}
}

// kOrder is the order in which a convolution's product runs its K = InC·KH·KW
// taps, the weight columns and the column-matrix rows alike: the last input
// channel's KH·KW taps first, then channels 0…InC−2 in stored order. Over an
// RGBA image that puts the alpha plane at the head of every output's FMA
// chain, where an opaque plane's share is a constant prefix (see alphaFold).
// It is the one k order of the FP32 forward convolution, packed weights,
// unpacked weights and the unblocked loop alike; its zero value runs K as
// stored, as a plain matrix product does.
type kOrder struct{ lead, k int }

// kOrder returns the convolution's k order.
func (s ConvSpec) kOrder() kOrder {
	if s.InC < 2 {
		return kOrder{}
	}
	return kOrder{lead: s.KH * s.KW, k: s.InC * s.KH * s.KW}
}

// tap returns the tap — weight column, column-matrix row — that k-step q
// runs.
func (o kOrder) tap(q int) int {
	if q < o.lead {
		return q + o.k - o.lead
	}
	return q - o.lead
}

// is1x1Fast reports whether the convolution is a pointwise (1×1, stride 1,
// unpadded) conv, for which the input image already is the im2col column
// matrix and the expansion can be skipped entirely. SqueezeNet's squeeze and
// expand-1×1 convolutions — the bulk of its layers — take this path.
func (s ConvSpec) is1x1Fast() bool {
	return s.KH == 1 && s.KW == 1 && s.StrideH == 1 && s.StrideW == 1 &&
		s.PadH == 0 && s.PadW == 0
}

// ColScratchLen returns the im2col scratch length ConvBackward requires for
// an h×w input: 0 when the pointwise fast path applies (the scratch is unused
// and may be nil), InC*KH*KW*outH*outW otherwise. Neither forward pass needs
// any: both pack straight from the image.
func (s ConvSpec) ColScratchLen(h, w int) int {
	if s.is1x1Fast() {
		return 0
	}
	oh, ow := s.OutSize(h, w)
	return s.InC * s.KH * s.KW * oh * ow
}

// checkColScratch validates the im2col scratch buffer up front so an
// undersized buffer fails loudly instead of silently computing on a
// truncated column matrix.
func checkColScratch(fn string, col []float32, s ConvSpec, oh, ow int) {
	if need := s.InC * s.KH * s.KW * oh * ow; len(col) < need {
		panic(fmt.Sprintf("tensor: %s: col scratch has %d elements, need %d (InC*KH*KW*outH*outW = %d*%d*%d*%d*%d)",
			fn, len(col), need, s.InC, s.KH, s.KW, oh, ow))
	}
}

// pixel is the element type of an image a convView reads: float32 on the
// FP32 forward, uint32 on the quantized one's quad planes (see QConv), where
// one element is four channels' bytes.
type pixel interface{ float32 | uint32 }

// convView presents one image (C×H×W) as the K×N column matrix of a
// convolution — row p is the tap (ch, ky, kx), column j the output position
// (oy, ox) — without materializing it. It is the B operand of the forward
// GEMM on both engines: the blocked drivers pack their panels straight from
// it. Padding positions read as fill: 0 for float32, four activation zero
// points (the encoding of real 0) for a uint32 quad.
//
// Taps read bordered phase planes: channel ch of the image padded on every
// side, de-interleaved into StrideH×StrideW planes of ph×pw elements, plane
// (py, px) holding the padded image's element (y·StrideH+py, x·StrideW+px)
// at (y, x). Tap (ch, ky, kx) of output position (oy, ox) is then element
// (oy + ky/StrideH, ox + kx/StrideW) of plane (ch, ky%StrideH, kx%StrideW):
// a fixed offset from the output position, with no bounds to test, and
// consecutive positions of one output row read consecutive elements. Only
// the rows and columns some tap reaches are kept. The image of a stride-1
// unpadded convolution is its own plane set; any other is copied into the
// planes once per image (setImage), which is where the padding is decided.
type convView[T pixel] struct {
	planes []T
	img    []T // the image setImage was last given
	s      ConvSpec
	h, w   int // the image's plane size
	ph, pw int // a bordered phase plane's size
	oh, ow int
	fill   T
	// buf holds the bordered planes setImage copies each image into: nil
	// when the image is its own plane set.
	buf []T
}

// newConvView returns the view of h×w images under s. A view that copies
// its images needs useScratch before setImage.
func newConvView[T pixel](h, w int, s ConvSpec, fill T) convView[T] {
	oh, ow := s.OutSize(h, w)
	return convView[T]{s: s, h: h, w: w, ph: oh + (s.KH-1)/s.StrideH, pw: ow + (s.KW-1)/s.StrideW, oh: oh, ow: ow, fill: fill}
}

// Len returns the scratch the bordered planes take: 0 when the image is its
// own plane set.
func (v *convView[T]) Len() int {
	s := v.s
	if s.StrideH == 1 && s.StrideW == 1 && s.PadH == 0 && s.PadW == 0 {
		return 0
	}
	return s.InC * s.StrideH * s.StrideW * v.ph * v.pw
}

// useScratch hands the view the Len elements of buf for its planes.
func (v *convView[T]) useScratch(buf []T) {
	if n := v.Len(); n > 0 {
		v.buf = buf[:n]
	}
}

// setImage points the view at one image, copying it into the bordered
// planes when it is not its own plane set. Every slot of a plane that lies
// in the padding, or past the image's last row or column (an odd size
// leaves the later phases one short), is written with fill for every image:
// the scratch is shared with other stages.
func (v *convView[T]) setImage(img []T) {
	v.img = img
	if v.buf == nil {
		v.planes = img
		return
	}
	v.planes = v.buf
	s := v.s
	di := 0
	for ch := 0; ch < s.InC; ch++ {
		plane := img[ch*v.h*v.w : (ch+1)*v.h*v.w]
		for py := 0; py < s.StrideH; py++ {
			for px := 0; px < s.StrideW; px++ {
				// Columns [lo, hi) hold image columns x·StrideW + px − PadW.
				lo := min((max(s.PadW-px, 0)+s.StrideW-1)/s.StrideW, v.pw)
				hi := max(min((s.PadW+v.w-px+s.StrideW-1)/s.StrideW, v.pw), lo)
				for y := 0; y < v.ph; y, di = y+1, di+v.pw {
					row := v.buf[di : di+v.pw]
					iy := y*s.StrideH + py - s.PadH
					if iy < 0 || iy >= v.h {
						fillWords(row, v.fill)
						continue
					}
					fillWords(row[:lo], v.fill)
					if lo < hi {
						src := plane[iy*v.w+lo*s.StrideW+px-s.PadW:]
						if s.StrideW == 1 {
							copy(row[lo:hi], src)
						} else {
							gatherWords(row[lo:hi], src, s.StrideW)
						}
					}
					fillWords(row[hi:], v.fill)
				}
			}
		}
	}
}

// fillWords sets every element of d to v.
func fillWords[T pixel](d []T, v T) {
	for i := range d {
		d[i] = v
	}
}

// tapOffset returns the bytes from an output position's window — element
// (oy, ox) of the first plane — to the element tap p reads there.
func (v *convView[T]) tapOffset(p int) int {
	s := v.s
	khw := s.KH * s.KW
	ch, ky, kx := p/khw, p%khw/s.KW, p%s.KW
	plane := (ch*s.StrideH+ky%s.StrideH)*s.StrideW + kx%s.StrideW
	return 4 * (plane*v.ph*v.pw + ky/s.StrideH*v.pw + kx/s.StrideW)
}

// row writes columns [j0, j0+len(dst)) of row p of the column matrix into
// dst, one column per element.
func (v *convView[T]) row(dst []T, p, j0 int) {
	packConvPanels(v, dst, p, 1, j0, len(dst), len(dst))
}

// packConvPanels is packB for a conv operand: it writes the kc×nc block at
// (p0, j0), kc at most kcBlock, into nr-column micro-panels, zero-padded
// past the last valid column (see packTaps). The FP32 driver packs
// elements; the INT8 one packs the quad rows of a quad-plane view, one
// 32-bit word per column (nr its tier's), which is the quad panel layout
// itself.
func packConvPanels[T pixel](v *convView[T], dst []T, p0, kc, j0, nc, nr int) {
	var taps [kcBlock]int
	for q := range taps[:kc] {
		taps[q] = v.tapOffset(p0 + q)
	}
	packTaps(wordBytes(dst), wordBytes(v.planes), taps[:kc], 4*v.pw, v.ow, j0, nc, nr)
}

// packTaps is the one panel packer of every convolution operand: it writes
// columns [j0, j0+nc) of len(taps) rows of 32-bit words into micro-panels
// at dst, nr words a panel row, one panel's rows after another, zero past
// nc in the last panel. Column j of row q is the word at src + window +
// taps[q] bytes, window = (j/ow)·rowLen + (j%ow)·4: the columns of one panel
// that lie in one output row are, per row, a run of consecutive words, so
// each such segment is one copyTaps through the tap table. Where rowLen is
// 4·ow the output rows follow each other in src too, and a segment is a
// whole panel.
func packTaps(dst, src []uint8, taps []int, rowLen, ow, j0, nc, nr int) {
	step := 4 * nr * len(taps)
	if nc%nr != 0 {
		clear(dst[nc/nr*step:][:step])
	}
	if rowLen == 4*ow {
		ow, rowLen = j0+nc, 0
	}
	reach := 0 // past the furthest tap's first word
	for _, off := range taps {
		reach = max(reach, off)
	}
	for j := j0; j < j0+nc; {
		oy, ox := j/ow, j%ow
		c := j - j0
		lane := c % nr
		cols := min(ow-ox, j0+nc-j, nr-lane)
		window := oy*rowLen + ox*4
		// Every byte either loop touches, bounds-checked once.
		seg := src[window : window+reach+cols*4]
		panel := dst[c/nr*step+lane*4:][:(len(taps)-1)*4*nr+cols*4]
		if haveQuantASM {
			copyTaps(&panel[0], int64(4*nr), &seg[0], &taps[0], int64(len(taps)), int64(cols))
		} else {
			for q, off := range taps {
				copy(panel[q*4*nr:][:cols*4], seg[off:])
			}
		}
		j += cols
	}
}

// wordBytes returns the bytes of a slice of 32-bit words.
func wordBytes[T pixel](s []T) []uint8 {
	return unsafe.Slice((*uint8)(unsafe.Pointer(unsafe.SliceData(s))), 4*len(s))
}

// quadWords returns b's bytes as len(b)/4 native-endian 32-bit words, the
// view through which the INT8 engine moves a pixel's four channel bytes as
// one element. b must start 4-aligned, which every arena or scratch-pool
// byte buffer does at any offset that is a multiple of 4: Arena.Slabs and
// GetScratchU8 allocate at least 16 bytes, which the Go allocator aligns to
// 8 — only its tiny allocator, below 16 bytes, packs byte slices unaligned —
// and a forward plan puts its byte regions at multiples of 64.
func quadWords(b []uint8) []uint32 {
	if len(b) < 4 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)
}

// gatherWords writes dst[i] = src[i*stride] for 32-bit elements: FP32
// values, the INT8 engine's quad words (the pools' pick of pooled pixels),
// or a fused INT8 pool's accumulators. Stride 2 — the paper net's stem and
// its pools — has a vector body that de-interleaves 16 source elements into
// 8 at a time; it reads the odd element after the last even one, so it
// stops where src does and the loop finishes. It moves words without
// arithmetic, so quads go through it bit for bit.
func gatherWords[T float32 | uint32 | int32](dst, src []T, stride int) {
	i := 0
	if stride == 2 && haveQuantASM {
		if i = min(len(dst), len(src)/2) &^ 7; i > 0 {
			gather2F32x8((*float32)(unsafe.Pointer(&dst[0])), (*float32)(unsafe.Pointer(&src[0])), int64(i))
		}
	}
	for ; i < len(dst); i++ {
		dst[i] = src[i*stride]
	}
}

// ConvForward computes a batched convolution y = conv(x, w) + b, one GEMM
// per batch element. x is [N,C,H,W]; w is [OutC, InC*KH*KW] flattened; b is
// [OutC] (may be nil). Returns [N,OutC,outH,outW].
func ConvForward(x *Tensor, w, b []float32, s ConvSpec) *Tensor {
	n := x.Shape[0]
	oh, ow := s.OutSize(x.Shape[2], x.Shape[3])
	if oh == 0 || ow == 0 {
		panicEmptyOutput("ConvForward", x.Shape, s.KH, s.KW, s.PadH, s.PadW)
	}
	y := New(n, s.OutC, oh, ow)
	ConvForwardInto(x, w, b, s, y, 0, false)
	return y
}

// panicEmptyOutput reports a window that does not fit its (padded) input.
func panicEmptyOutput(fn string, inShape []int, kh, kw, padH, padW int) {
	panic(fmt.Sprintf("tensor: %s: %d×%d window does not fit input %v padded by %d×%d: empty output",
		fn, kh, kw, inShape, padH, padW))
}

// ConvForwardInto computes conv(x, w) + b into a caller-provided output
// tensor. y must be [N, dstC, outH, outW] with chOff+OutC <= dstC; the
// result lands in channels [chOff, chOff+OutC), which lets callers write
// branch outputs (SqueezeNet's expand pair) directly into their concatenated
// destination. When relu is set, max(0,·) is fused with the bias addition.
// It is ConvStage.ForwardInto without packed weights or a pool, on scratch
// from the pool.
func ConvForwardInto(x *Tensor, w, b []float32, s ConvSpec, y *Tensor, chOff int, relu bool) {
	st := ConvStage{Spec: s, W: w, Bias: b, ReLU: relu}
	buf := GetScratch(st.ScratchLen(x.Shape[2], x.Shape[3]))
	st.forwardInto("ConvForwardInto", x, y, chOff, *buf)
	PutScratch(buf)
}

// ConvStage is one inference-time convolution stage: the convolution, its
// bias, and optionally the ReLU and the unpadded max pool that follow it,
// computed as one pass.
type ConvStage struct {
	Spec ConvSpec
	W    []float32 // [OutC, InC*KH*KW] flattened
	// Packed, when set, is PackConvWeights(W, Spec): the forward GEMM then
	// packs no weights, and a stage over an RGBA image skips the alpha plane
	// where it is opaque. The caller keeps it in step with W.
	Packed *PackedWeights
	Bias   []float32 // [OutC], may be nil
	ReLU   bool
	// Pool, when K > 0, is a max pool (Pad must be 0) applied to the
	// convolution's biased, clamped output, which is then never
	// materialized: ForwardInto's y is the pooled tensor.
	Pool PoolSpec
}

// ForwardInto runs the stage on x ([N,InC,H,W]) into channels
// [chOff, chOff+OutC) of y ([N, dstC, outH, outW], the stage's output size:
// the convolution's, or the pool's of it), in scratch of ScratchLen(H, W)
// elements.
//
// Each image is one GEMM whose B operand is the image itself: as the dense
// [InC, H*W] matrix for 1×1/stride-1/unpadded convolutions, as a convView
// otherwise — on bordered phase planes unless the convolution is stride-1
// and unpadded — its taps in the convolution's k order (ConvSpec.kOrder).
// Bias, ReLU and the pool run as the GEMM's epilogue, per cache-resident
// column block (see gemmDispatch). With packed weights over an RGBA image,
// a column block whose windows read only opaque alpha skips the alpha taps
// (see alphaFold). The result is bit for bit what ConvForwardInto followed
// by MaxPoolForwardInto computes.
func (st *ConvStage) ForwardInto(x, y *Tensor, chOff int, scratch []float32) {
	st.forwardInto("ConvStage.ForwardInto", x, y, chOff, scratch)
}

// ScratchLen is the scratch ForwardInto needs for h×w images: the bordered
// planes of a convolution that copies its image (see convView), then what
// its product takes (gemmSplit) on the current kernel tier.
func (st *ConvStage) ScratchLen(h, w int) int {
	s := st.Spec
	view := newConvView[float32](h, w, s, 0)
	_, _, bLen, poolLen := gemmSplit(gemmTier, s.OutC, s.InC*s.KH*s.KW, view.oh*view.ow, st.Pool, view.ow)
	return roundUp(view.Len(), 16) + bLen + poolLen
}

// forwardInto is ForwardInto reporting misuse under the entry point's name.
func (st *ConvStage) forwardInto(fn string, x, y *Tensor, chOff int, scratch []float32) {
	s := st.Spec
	n, c, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := s.OutSize(h, wd)
	if oh == 0 || ow == 0 {
		panicEmptyOutput(fn, x.Shape, s.KH, s.KW, s.PadH, s.PadW)
	}
	ep := gemmEpilogue{bias: st.Bias, relu: st.ReLU}
	outH, outW := oh, ow
	if st.Pool.K > 0 {
		if st.Pool.Pad != 0 {
			panic(fmt.Sprintf("tensor: %s: fused pool %+v must be unpadded", fn, st.Pool))
		}
		outH, outW = st.Pool.OutSize(oh, ow)
		if outH == 0 || outW == 0 {
			panicEmptyOutput(fn, []int{n, s.OutC, oh, ow}, st.Pool.K, st.Pool.K, 0, 0)
		}
		ep.pool = poolSink{poolWindow: poolWindow{spec: st.Pool, ow: ow, poh: outH, pow: outW}}
	}
	spatial := outH * outW
	dstC := y.Shape[1]
	if y.Shape[0] != n || y.Shape[2] != outH || y.Shape[3] != outW || chOff+s.OutC > dstC {
		panic(fmt.Sprintf("tensor: %s: output shape %v cannot hold [%d,%d,%d,%d] at channel offset %d",
			fn, y.Shape, n, s.OutC, outH, outW, chOff))
	}
	k := s.InC * s.KH * s.KW
	if c != s.InC || len(st.W) < s.OutC*k {
		panic(fmt.Sprintf("tensor: %s: input %v / %d weights do not match spec %+v", fn, x.Shape, len(st.W), s))
	}
	a := gemmA{data: st.W, pack: st.Packed}
	view := newConvView[float32](h, wd, s, 0)
	checkScratch(fn, len(scratch), st.ScratchLen(h, wd))
	pl := roundUp(view.Len(), 16)
	view.useScratch(scratch[:pl])
	for i := 0; i < n; i++ {
		img := x.Data[i*c*h*wd : (i+1)*c*h*wd]
		out := y.Data[(i*dstC+chOff)*spatial : (i*dstC+chOff)*spatial+s.OutC*spatial]
		bop := gemmB{data: img, order: s.kOrder()}
		if !s.is1x1Fast() {
			view.setImage(img)
			bop = gemmB{conv: &view, order: s.kOrder()}
		}
		if ep.pool.active() {
			ep.pool.dst, out = out, nil
		}
		gemmDispatch(a, bop, out, s.OutC, k, oh*ow, false, ep, scratch[pl:])
	}
}

// ConvBackward computes gradients for the im2col convolution. Given upstream
// gradient dy ([N,OutC,outH,outW]), the stored input x and weights w, it
// accumulates dW ([OutC, InC*KH*KW]) and db ([OutC]) and returns dx with x's
// shape. col is im2col scratch of at least ColScratchLen elements.
func ConvBackward(x, dy *Tensor, w, dw, db []float32, s ConvSpec, col []float32) *Tensor {
	n, c, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := s.OutSize(h, wd)
	spatial := oh * ow
	k := s.InC * s.KH * s.KW
	fast := s.is1x1Fast()
	if !fast {
		checkColScratch("ConvBackward", col, s, oh, ow)
	}
	dx := New(n, c, h, wd)
	var dcolp *[]float32
	var dcol []float32
	if !fast {
		dcolp = GetScratch(k * spatial)
		dcol = *dcolp
	}
	for i := 0; i < n; i++ {
		img := x.Data[i*c*h*wd : (i+1)*c*h*wd]
		if !fast {
			Im2col(img, c, h, wd, s, col)
		} else {
			// For pointwise convs the image already is the column matrix and
			// Col2im is an identity accumulation into the (fresh) dx plane.
			col = img
		}
		g := dy.Data[i*s.OutC*spatial : (i+1)*s.OutC*spatial]
		// dW += dY × colᵀ : [OutC, spatial] × [spatial, k] with col stored
		// [k, spatial] row-major, i.e. A×Bᵀ.
		GemmTBAcc(g, col, dw, s.OutC, spatial, k)
		if db != nil {
			for oc := 0; oc < s.OutC; oc++ {
				row := g[oc*spatial : (oc+1)*spatial]
				var sum float32
				for _, v := range row {
					sum += v
				}
				db[oc] += sum
			}
		}
		// dcol = Wᵀ × dY : W stored [OutC, k] row-major → Aᵀ×B.
		if fast {
			GemmTA(w, g, dx.Data[i*c*h*wd:(i+1)*c*h*wd], k, s.OutC, spatial)
		} else {
			GemmTA(w, g, dcol, k, s.OutC, spatial)
			Col2im(dcol, c, h, wd, s, dx.Data[i*c*h*wd:(i+1)*c*h*wd])
		}
	}
	if dcolp != nil {
		PutScratch(dcolp)
	}
	return dx
}
