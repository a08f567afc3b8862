package tensor

import (
	"fmt"
	"math/bits"
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

// validOx returns the range 0 <= lo <= hi <= ow of output columns ox whose
// tap base+ox*stride lands inside a w-wide input row; columns outside [lo, hi)
// read padding. Hoisting this out of the pixel loop is what lets the
// im2col-style copies run without a per-element bounds test.
func validOx(base, stride, w, ow int) (lo, hi int) {
	if base < 0 {
		lo = min((-base+stride-1)/stride, ow)
	}
	if last := w - 1 - base; last >= 0 {
		hi = min(last/stride+1, ow)
	}
	return lo, max(lo, hi)
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
// FP32 forward, uint8 on the quantized one's planar convolutions, uint32 on
// its quad planes (see QFire), where one element is four channels' bytes.
type pixel interface{ float32 | uint8 | uint32 }

// convView presents one image (C×H×W) as the K×N column matrix of a
// convolution — row p is the tap (ch, ky, kx), column j the output position
// (oy, ox) — without materializing it. It is the B operand of the forward
// GEMM on both engines: the blocked drivers pack their panels straight from
// the image, so every input element is read once and written once. Padding
// positions read as fill: 0 for float32, the activation zero point (the
// encoding of real 0) for uint8, four of them for a uint32 quad.
//
// Taps read planes of h×w elements at a step of (sh, sw) per output row and
// column. Those are the image's own channels at the convolution's strides —
// or, once usePhases has run on a strided convolution, the image's phase
// planes at step 1: channel ch de-interleaved into ph×pw planes, plane
// (py, px) holding img[ch][y*ph+py][x*pw+px] at (y, x), so that tap
// (ch, ky, kx) of a stride-2 stem walks one plane contiguously, as every tap
// of a stride-1 convolution does, instead of gathering every other element
// of every other image row once per tap.
type convView[T pixel] struct {
	planes []T
	h, w   int
	sh, sw int
	ph, pw int
	s      ConvSpec
	oh, ow int
	fill   T
	// strided is the element type's gather, gatherF32 or gatherU8 (nil for
	// quad planes, which only stride-1 convolutions read).
	strided func(dst, src []T, stride int)
	// spread, when set, is the element type's copyRuns: gather hands it a
	// contiguous source that covers whole panels.
	spread func(dst []T, dstStep int, src []T, srcStep, n, runs int)
	// phases is the scratch setImage splits each image into (nil: taps read
	// the image itself); srcH×srcW is the image's own plane size.
	phases     []T
	srcH, srcW int
}

// newConvView returns the view of h×w images under s, reading the image's
// own planes.
func newConvView[T pixel](h, w int, s ConvSpec, fill T, strided func(dst, src []T, stride int)) convView[T] {
	oh, ow := s.OutSize(h, w)
	return convView[T]{h: h, w: w, sh: s.StrideH, sw: s.StrideW, ph: 1, pw: 1, s: s, oh: oh, ow: ow, fill: fill, strided: strided}
}

// phaseLen returns the scratch length usePhases needs, or 0 when the view
// should keep reading the image: an unstrided convolution has nothing to
// de-interleave, and only phase planes exactly one output row wide
// (ceil(w/StrideW) = ow) give the walker its linear single-copy path (see
// walk) — narrower or wider ones would trade a strided gather per row for a
// copy per row, at the price of the split.
func (v *convView[T]) phaseLen() int {
	s := v.s
	if s.StrideH*s.StrideW == 1 || (v.w+s.StrideW-1)/s.StrideW != v.ow {
		return 0
	}
	return s.InC * s.StrideH * s.StrideW * ((v.h + s.StrideH - 1) / s.StrideH) * v.ow
}

// usePhases switches the view to phase planes held in buf (phaseLen
// elements); each setImage then de-interleaves its image into them.
func (v *convView[T]) usePhases(buf []T) {
	v.phases, v.srcH, v.srcW = buf, v.h, v.w
	v.ph, v.pw = v.sh, v.sw
	v.h, v.w = (v.h+v.ph-1)/v.ph, (v.w+v.pw-1)/v.pw
	v.sh, v.sw = 1, 1
}

// setImage points the view at one image, splitting it into the phase planes
// when those are in use. Slots of a phase plane past the image's last row or
// column (an odd size leaves the later phases one short) are padding and
// hold fill.
func (v *convView[T]) setImage(img []T) {
	if v.phases == nil {
		v.planes = img
		return
	}
	v.planes = v.phases
	di := 0
	for ch := 0; ch < v.s.InC; ch++ {
		plane := img[ch*v.srcH*v.srcW : (ch+1)*v.srcH*v.srcW]
		for py := 0; py < v.ph; py++ {
			for px := 0; px < v.pw; px++ {
				cols := (v.srcW - px + v.pw - 1) / v.pw
				for iy := py; iy < v.h*v.ph; iy, di = iy+v.ph, di+v.w {
					row := plainRow(v.phases[di : di+v.w])
					if iy >= v.srcH {
						cols = 0
					} else if v.pw == 1 {
						copy(row.dst, plane[iy*v.srcW:])
					} else {
						v.strided(row.dst[:cols], plane[iy*v.srcW+px:], v.pw)
					}
					row.fill(cols, v.w-cols, v.fill)
				}
			}
		}
	}
}

// convTap is one row of the column matrix resolved to its plane and offsets
// within it, with the valid output row and column ranges hoisted (see
// validOx): outside them the tap reads padding.
type convTap[T pixel] struct {
	plane      []T
	top, base  int // plane row = top + oy*sh, column = base + ox*sw
	oyLo, oyHi int
	oxLo, oxHi int
}

// tap resolves row p. Kernel offset (dy, dx) from the output position's
// origin lands in phase (dy mod ph, dx mod pw) at plane offset
// (⌊dy/ph⌋, ⌊dx/pw⌋); with one phase per axis that is the channel's plane at
// (dy, dx) itself.
func (v *convView[T]) tap(p int) convTap[T] {
	khw := v.s.KH * v.s.KW
	ch, r := p/khw, p%khw
	dy, dx := r/v.s.KW-v.s.PadH, r%v.s.KW-v.s.PadW
	py, px := (dy%v.ph+v.ph)%v.ph, (dx%v.pw+v.pw)%v.pw
	pl := (ch*v.ph+py)*v.pw + px
	t := convTap[T]{plane: v.planes[pl*v.h*v.w : (pl+1)*v.h*v.w], top: (dy - py) / v.ph, base: (dx - px) / v.pw}
	t.oyLo, t.oyHi = validOx(t.top, v.sh, v.h, v.oh)
	t.oxLo, t.oxHi = validOx(t.base, v.sw, v.w, v.ow)
	return t
}

// panelRow is one row of a packed block, addressed by column: column j sits
// in lane j%nr of panel j/nr, and the same row of the next panel starts step
// elements later. nr = 1<<shift (every FP32 tier's panel width is a power of
// two); plainRow's shift puts every column in panel 0, a plain slice.
type panelRow[T pixel] struct {
	dst   []T
	shift uint
	step  int
}

// plainRow addresses dst as one unbroken row.
func plainRow[T pixel](dst []T) panelRow[T] { return panelRow[T]{dst: dst, shift: 62} }

// run returns the slots of columns [j, j+n) that lie in column j's panel.
func (r *panelRow[T]) run(j, n int) []T {
	lane := j & (1<<r.shift - 1)
	o := j>>r.shift*r.step + lane
	return r.dst[o : o+min(n, 1<<r.shift-lane)]
}

// set sets column j to v.
func (r *panelRow[T]) set(j int, v T) {
	r.dst[j>>r.shift*r.step+j&(1<<r.shift-1)] = v
}

// fill sets columns [j, j+n) to v.
func (r *panelRow[T]) fill(j, n int, v T) {
	for n > 0 {
		d := r.run(j, n)
		if v == 0 {
			clear(d)
		} else {
			for i := range d {
				d[i] = v
			}
		}
		j, n = j+len(d), n-len(d)
	}
}

// gather sets r's columns [j, j+n) to src read at the view's column step: a
// copy for step 1 (SqueezeNet's 3×3 expands, and the stem through its phase
// planes), a branch-free strided gather otherwise.
func (v *convView[T]) gather(r *panelRow[T], j, n int, src []T) {
	stride := v.sw
	for n > 0 {
		if full := n >> r.shift; full > 0 && stride == 1 && v.spread != nil && j&(1<<r.shift-1) == 0 {
			// Whole panels ahead: one call spreads the source across them.
			nr := 1 << r.shift
			v.spread(r.dst[j>>r.shift*r.step:], r.step, src, nr, nr, full)
			j, n, src = j+full*nr, n-full*nr, src[full*nr:]
			continue
		}
		d := r.run(j, n)
		if stride == 1 {
			copy(d, src)
		} else {
			v.strided(d, src, stride)
		}
		j += len(d)
		if n -= len(d); n > 0 {
			src = src[len(d)*stride:]
		}
	}
}

// copyRuns copies `runs` runs of n elements, run i from src[i*srcStep:] to
// dst[i*dstStep:] — the inner loop of every panel packer: one contiguous
// source row spread across the same row of consecutive panels (gather), one
// panel's rows collected from a row-major matrix (packB), or the INT8
// packers' 16-word quad rows. The vector body covers the two FP32 panel
// widths, 16 and 32, without a memmove call per run; it loads and stores
// without arithmetic, so uint32 words move through it bit for bit.
func copyRuns[T float32 | uint32](dst []T, dstStep int, src []T, srcStep, n, runs int) {
	if haveQuantASM && (n == 16 || n == 32) {
		_, _ = dst[(runs-1)*dstStep+n-1], src[(runs-1)*srcStep+n-1]
		copyRunsF32((*float32)(unsafe.Pointer(&dst[0])), int64(dstStep), (*float32)(unsafe.Pointer(&src[0])), int64(srcStep), int64(n), int64(runs))
		return
	}
	for i := 0; i < runs; i++ {
		copy(dst[i*dstStep:i*dstStep+n], src[i*srcStep:])
	}
}

// quadWords returns b's bytes as len(b)/4 native-endian 32-bit words, the
// view through which the INT8 quad paths move a pixel's four channel bytes
// as one element. b must start 4-aligned, which every arena or scratch-pool
// buffer of 16 bytes or more does, at any offset that is a multiple of 4:
// the Go allocator aligns such objects to 8, and only its tiny allocator,
// below 16 bytes, packs byte slices unaligned.
func quadWords(b []uint8) []uint32 {
	if len(b) < 4 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)
}

// gatherF32 writes dst[i] = src[i*stride]. Stride 2 — the paper net's stem
// and its pools — has a vector body that de-interleaves 16 source elements
// into 8 at a time; it reads the odd element after the last even one, so it
// stops where src does and the loop finishes.
func gatherF32(dst, src []float32, stride int) {
	i := 0
	if stride == 2 && haveQuantASM {
		if i = min(len(dst), len(src)/2) &^ 7; i > 0 {
			gather2F32x8(&dst[0], &src[0], int64(i))
		}
	}
	for ; i < len(dst); i++ {
		dst[i] = src[i*stride]
	}
}

// gatherU8 is gatherF32 for bytes. Its stride-2 body covers a ragged end
// with one more 16-byte step overlapping the last, so only a run shorter than
// 16 — or the one ending on src's last byte — reaches the loop.
func gatherU8(dst, src []uint8, stride int) {
	i := 0
	if n := min(len(dst), len(src)/2); stride == 2 && haveQuantASM && n >= 16 {
		gather2U8x16(&dst[0], &src[0], int64(n))
		i = n
	}
	for ; i < len(dst); i++ {
		dst[i] = src[i*stride]
	}
}

// row writes columns [j0, j0+len(dst)) of row p of the column matrix into
// dst, one column per element.
func (v *convView[T]) row(dst []T, p, j0 int) {
	r := plainRow(dst)
	v.walk(&r, p, j0, len(dst))
}

// walk is the one tap walker both engines pack through: it writes columns
// [j0, j0+nc) of row p of the column matrix to columns [0, nc) of r, which
// lays them out as the sink wants them (micro-panel rows for packConvPanels —
// FP32 elements, or the INT8 fires' quad words — or a plain staging row for
// the quad transposer of a planar INT8 convolution).
//
// Columns whose input row falls outside the plane are fill. The rest are
// gathered one output row at a time, each row's valid run from one plane row
// — or, when an output row's step through the plane equals its length in
// source elements (sh·w = sw·ow: every "same" 3×3, and every phase-plane
// view), all rows at once: the source index is then sw·column + constant
// across row boundaries too, and one gather writes every run, with in-plane
// neighbours at the padding columns. Those columns are stamped with fill
// last, one strided pass per padding column.
func (v *convView[T]) walk(r *panelRow[T], p, j0, nc int) {
	t := v.tap(p)
	sh, sw, ow := v.sh, v.sw, v.ow
	// Slots [a, b): the block's columns whose input row exists.
	a := min(max(t.oyLo*ow-j0, 0), nc)
	b := max(min(t.oyHi*ow-j0, nc), a)
	r.fill(0, a, v.fill)
	r.fill(b, nc-b, v.fill)
	if a == b {
		return
	}
	row0 := (j0+a)/ow*ow - j0 // slot of column 0 of the first output row in [a, b)
	if sh*v.w == sw*ow {
		off := t.top*v.w + t.base + sw*j0 // slot s reads plane[off+s*sw]
		lo, hi := validOx(off, sw, len(t.plane), nc)
		if lo, hi = max(lo, a), min(hi, b); lo < hi {
			v.gather(r, lo, hi-lo, t.plane[off+lo*sw:])
		}
	} else {
		si := (t.top+(j0+a)/ow*sh)*v.w + t.base // plane index of column 0's tap
		for s := row0; s < b; s, si = s+ow, si+sh*v.w {
			if lo, hi := max(s+t.oxLo, a), min(s+t.oxHi, b); lo < hi {
				v.gather(r, lo, hi-lo, t.plane[si+(lo-s)*sw:])
			}
		}
	}
	for _, pad := range [2][2]int{{0, t.oxLo}, {t.oxHi, ow}} {
		for ox := pad[0]; ox < pad[1]; ox++ {
			s := row0 + ox
			if s < a {
				s += ow
			}
			for ; s < b; s += ow {
				r.set(s, v.fill)
			}
		}
	}
}

// packConvPanels is packB for a conv operand: it writes the kc×nc block at
// (p0, j0) into nr-column micro-panels, zero-padded past the last valid
// column. nr must be a power of two. The FP32 driver packs elements; the
// INT8 one packs the quad rows of a quad-plane view, one 32-bit word per
// column (nr = nrQTile), which is the quad panel layout itself.
func packConvPanels[T pixel](v *convView[T], dst []T, p0, kc, j0, nc, nr int) {
	if nr&(nr-1) != 0 {
		panic(fmt.Sprintf("tensor: packConvPanels: panel width %d is not a power of two", nr))
	}
	padded := (nc + nr - 1) / nr * nr
	shift := uint(bits.TrailingZeros(uint(nr)))
	for p := 0; p < kc; p++ {
		r := panelRow[T]{dst: dst[p*nr:], shift: shift, step: nr * kc}
		v.walk(&r, p0+p, j0, nc)
		r.fill(nc, padded-nc, 0)
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
// It is ConvStage.ForwardInto without packed weights or a pool.
func ConvForwardInto(x *Tensor, w, b []float32, s ConvSpec, y *Tensor, chOff int, relu bool) {
	st := ConvStage{Spec: s, W: w, Bias: b, ReLU: relu}
	st.forwardInto("ConvForwardInto", x, y, chOff)
}

// ConvStage is one inference-time convolution stage: the convolution, its
// bias, and optionally the ReLU and the unpadded max pool that follow it,
// computed as one pass.
type ConvStage struct {
	Spec ConvSpec
	W    []float32 // [OutC, InC*KH*KW] flattened
	// Packed, when set, is PackWeights(W, OutC, InC*KH*KW): the forward GEMM
	// then packs no weights. The caller keeps it in step with W.
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
// the convolution's, or the pool's of it).
//
// Each image is one GEMM whose B operand is the image itself: as the dense
// [InC, H*W] matrix for 1×1/stride-1/unpadded convolutions, as a convView
// otherwise — on phase planes when the convolution is strided. Bias, ReLU
// and the pool run as the GEMM's epilogue, per cache-resident column block
// (see gemmBlocked). The result is bit for bit what ConvForwardInto followed
// by MaxPoolForwardInto computes.
func (st *ConvStage) ForwardInto(x, y *Tensor, chOff int) {
	st.forwardInto("ConvStage.ForwardInto", x, y, chOff)
}

// forwardInto is ForwardInto reporting misuse under the entry point's name.
func (st *ConvStage) forwardInto(fn string, x, y *Tensor, chOff int) {
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
		ep.pool = poolSink{spec: st.Pool, ow: ow, poh: outH, pow: outW}
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
	view := newConvView(h, wd, s, 0, gatherF32)
	view.spread = copyRuns
	var phases *[]float32
	if pl := view.phaseLen(); pl > 0 {
		phases = GetScratch(pl)
		view.usePhases(*phases)
	}
	for i := 0; i < n; i++ {
		img := x.Data[i*c*h*wd : (i+1)*c*h*wd]
		out := y.Data[(i*dstC+chOff)*spatial : (i*dstC+chOff)*spatial+s.OutC*spatial]
		bop := gemmB{data: img}
		if !s.is1x1Fast() {
			view.setImage(img)
			bop = gemmB{conv: &view}
		}
		if ep.pool.active() {
			ep.pool.dst, out = out, nil
		}
		gemmDispatch(a, bop, out, s.OutC, k, oh*ow, false, ep)
	}
	if phases != nil {
		PutScratch(phases)
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
