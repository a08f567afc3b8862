package tensor

import "fmt"

// QConv is one quantized convolution as an INT8 stage holds it. It reads
// quad planes and, requantizing, writes them: plane g of an image is h·w
// 32-bit words, word j holding channels 4g…4g+3 of pixel j, and the lanes
// past the last channel hold the output zero point.
type QConv struct {
	// Spec is the convolution. InC counts the lanes of the input's quad
	// planes the weights read, padding lanes inside it included (see
	// PackQQuadWeights).
	Spec ConvSpec
	// W is PackQQuadWeights of its s8 weights: K ordered (c/4, ky, kx, c%4),
	// so a packed quad is one word of one input plane.
	W QWeights
	// RQ requantizes its accumulators (see Requant).
	RQ Requant
	// ZP is the input zero point: what padding positions read.
	ZP uint8
	// Pool, when K > 0, is a max pool (Pad must be 0) applied to the
	// requantized output, which is then never materialized: ForwardInto's y
	// is the pooled planes. As QStem's pool, it takes each window's maximum
	// of the raw accumulators and requantizes only that.
	Pool PoolSpec
}

// QFire is a quantized fire module, SqueezeNet's building block: a pointwise
// squeeze of the input, then a pointwise and a 3×3 expand of the squeeze's
// output written side by side into one concatenated output — all three over
// quad planes (see QConv).
//
// Each convolution packs its B panels from its input's planes as words: a
// panel row of 16 output positions is 16 consecutive words of one plane,
// padding columns aside, copied through the walker FP32 packs with; its
// requantizing epilogue transposes each output row group into words once.
// The concatenated output is Expand1's planes, then Expand3's: when
// Expand1's width is no multiple of 4, its last plane's spare lanes (the
// output zero point) sit between the two, and a consumer's weights skip them
// with zero columns. A max pool behind the fire is both expands' Pool, so
// they write the pooled concatenation.
type QFire struct {
	// Squeeze reads the fire's input planes.
	Squeeze QConv
	// Expand1 and Expand3 read the squeeze's planes: InC is its width, the
	// stride 1 and the output the input's size. Expand1 writes the
	// concatenated output's first planes, Expand3 the rest.
	Expand1, Expand3 QConv
}

// OutC is the concatenated output's channel count as its quad planes lay it
// out: Expand1's width rounded up to a multiple of 4, then Expand3's.
func (f *QFire) OutC() int { return quadPlanes(f.Expand1.Spec.OutC)*4 + f.Expand3.Spec.OutC }

// quadPlanes is the number of quad planes that hold c channels.
func quadPlanes(c int) int { return (c + 3) / 4 }

// quadView returns the column-matrix view of e's input: quad planes read as
// a convolution's input of ⌈InC/4⌉ channels of 32-bit words, padding
// positions four zero points.
func (e *QConv) quadView(h, w int) convView[uint32] {
	s := e.Spec
	s.InC = quadPlanes(s.InC)
	v := newConvView(h, w, s, uint32(e.ZP)*0x01010101, gatherWords[uint32])
	v.spread = copyRuns
	return v
}

// OutSize returns the stage's output size for h×w images: the
// convolution's, or the pool's of it.
func (e *QConv) OutSize(h, w int) (oh, ow int) {
	oh, ow = e.Spec.OutSize(h, w)
	if e.Pool.K > 0 {
		return e.Pool.OutSize(oh, ow)
	}
	return oh, ow
}

// geometry is how ForwardInto runs e over n h×w images: its pool's (see
// qpoolGeometry), and the scratch that takes — u8: the product's; i32: the
// pool's, then the product's.
func (e *QConv) geometry(n, h, w int) (g qpoolGeometry, u8, i32 int) {
	oh, ow := e.Spec.OutSize(h, w)
	g = newQPoolGeometry("QConv.ForwardInto", e.Pool, n, e.Spec.OutC, oh, ow)
	_, _, u8, i32 = qgemmSplit(e.Spec.OutC, e.W.k, g.convH*ow, false, g.blockCols, e.Pool.K == 0)
	return g, u8, g.i32Len + i32
}

// ScratchLen is the scratch e needs to run over h×w quad planes (see
// geometry). AccInto takes the u8 part. Like ForwardInto, it refuses a pool
// whose output is empty.
func (e *QConv) ScratchLen(h, w int) (u8, i32 int) {
	_, u8, i32 = e.geometry(1, h, w)
	return u8, i32
}

// ForwardInto runs e on the quad planes of n h×w images in q (⌈InC/4⌉
// planes an image) and requantizes the result into planes [planeOff,
// planeOff+⌈OutC/4⌉) of y (dstPlanes quad planes of OutSize's pixels an
// image), in scratch of ScratchLen — a fire's expands write their slots of
// the concatenation so, pooled or not. With a pool the epilogue pools
// before it requantizes (see qpoolGeometry).
func (e *QConv) ForwardInto(q []uint8, n, h, w int, y []uint8, dstPlanes, planeOff int, u8 []uint8, i32 []int32) {
	s := e.Spec
	g, u8Len, i32Len := e.geometry(n, h, w)
	ql, pl := quadPlanes(s.InC)*4*h*w, 4*g.outH*g.outW
	if e.W.m != s.OutC || e.W.k != quadPlanes(s.InC)*4*s.KH*s.KW || len(e.RQ.Mult) < s.OutC || len(e.RQ.Beta) < s.OutC ||
		len(q) < n*ql || len(y) < n*dstPlanes*pl || planeOff+quadPlanes(s.OutC) > dstPlanes {
		panic(fmt.Sprintf("tensor: QConv.ForwardInto: q %d / weights %d×%d / requant %d,%d / y %d at plane %d of %d do not fit %+v over %d images of %d×%d",
			len(q), e.W.m, e.W.k, len(e.RQ.Mult), len(e.RQ.Beta), len(y), planeOff, dstPlanes, s, n, h, w))
	}
	checkScratch("QConv.ForwardInto", len(u8), u8Len)
	checkScratch("QConv.ForwardInto accumulators", len(i32), i32Len)
	view := e.quadView(h, w)
	ep := qgemmEpilogue{rq: e.RQ, ld: g.outH * g.outW}
	var pool qpoolRun
	if g.spec.K > 0 {
		pool, i32 = g.run(i32)
		ep.pool = &pool
	}
	for i := 0; i < n; i++ {
		view.setImage(quadWords(q[i*ql : (i+1)*ql]))
		ep.begin(y[(i*dstPlanes+planeOff)*pl : (i+1)*dstPlanes*pl])
		qgemmDispatch(e.W, qgemmB{quad: &view}, nil, s.OutC, e.W.k, g.convH*g.ow, &ep, u8, i32)
	}
}

// AccInto runs e on one image's quad planes in q (⌈InC/4⌉ planes of h×w)
// and leaves the raw int32 accumulators in acc ([OutC, outH·outW]) — for
// the classifier head, whose epilogue is an average, not a requantization.
// RQ is unused; scratch holds ScratchLen's u8.
func (e *QConv) AccInto(q []uint8, h, w int, acc []int32, scratch []uint8) {
	s := e.Spec
	oh, ow := s.OutSize(h, w)
	ql := quadPlanes(s.InC) * 4 * h * w
	if oh == 0 || ow == 0 {
		panicEmptyOutput("QConv.AccInto", []int{s.InC, h, w}, s.KH, s.KW, s.PadH, s.PadW)
	}
	if len(q) < ql || e.W.m != s.OutC || e.W.k != quadPlanes(s.InC)*4*s.KH*s.KW || len(acc) < s.OutC*oh*ow {
		panic(fmt.Sprintf("tensor: QConv.AccInto: q %d / weights %d×%d / acc %d do not fit %+v over %d×%d",
			len(q), e.W.m, e.W.k, len(acc), s, h, w))
	}
	view := e.quadView(h, w)
	view.setImage(quadWords(q[:ql]))
	qgemmDispatch(e.W, qgemmB{quad: &view}, acc, s.OutC, e.W.k, oh*ow, nil, scratch, nil)
}
