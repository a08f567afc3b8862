package tensor

import "fmt"

// QConv is one quantized convolution as an INT8 stage holds it.
type QConv struct {
	// Spec is the convolution.
	Spec ConvSpec
	// W holds its s8 weights: PackQWeights of them when the convolution
	// reads planar bytes, PackQQuadWeights when it reads quad planes.
	W QWeights
	// RQ requantizes its accumulators (see Requant).
	RQ Requant
	// ZP is the input zero point: what padding positions read.
	ZP uint8
}

// QFire is a quantized fire module, SqueezeNet's building block: a pointwise
// squeeze of the input, then a pointwise and a 3×3 expand of the squeeze's
// output written side by side into one concatenated output.
//
// The squeeze's requantizing epilogue writes quad planes: plane g of an
// image is h·w 32-bit words, word j holding channels 4g…4g+3 of pixel j, and
// channels past the squeeze's width hold its output zero point. Both expands
// order K as (c/4, ky, kx, c%4) (PackQQuadWeights), so a packed quad is one
// word of one plane and a panel row of 16 output positions is 16 consecutive
// words of it, padding columns aside: their B panels are word copies through
// the walker FP32 packs with, where planar bytes took a tap walk into
// staging rows and a 4×16 byte transpose per tap. One transpose per squeeze
// byte, in the squeeze's epilogue, replaces ten. Integer sums do not depend
// on the order of their terms, so every output byte is what the three planar
// convolutions (QConvForwardInto) compute.
type QFire struct {
	// Squeeze is the pointwise convolution of the fire's planar input, W
	// packed by PackQWeights.
	Squeeze QConv
	// Expand1 and Expand3 read the squeeze's output: InC is its width, the
	// stride 1 and the output the input's size; W is packed by
	// PackQQuadWeights. Expand1 writes the concatenated output's first
	// channels, Expand3 the rest.
	Expand1, Expand3 QConv
}

// OutC is the concatenated output's channel count.
func (f *QFire) OutC() int { return f.Expand1.Spec.OutC + f.Expand3.Spec.OutC }

// Forward runs the fire on the n planar u8 images of h×w in x
// ([n, Squeeze.Spec.InC, h, w]), which must come from a and goes back to it
// once the squeeze has read it, and returns the output ([n, OutC, h, w]),
// from a. The quad planes come from a and go back to it as well.
func (f *QFire) Forward(x []uint8, n, h, w int, a *Arena) []uint8 {
	sq := &f.Squeeze
	if !sq.Spec.is1x1Fast() || sq.W.m != sq.Spec.OutC || sq.W.k != sq.Spec.InC || !sq.RQ.fits(sq.Spec.OutC) ||
		len(x) < n*sq.Spec.InC*h*w || !f.Expand1.readsQuads(sq.Spec.OutC, h, w) || !f.Expand3.readsQuads(sq.Spec.OutC, h, w) {
		panic(fmt.Sprintf("tensor: QFire.Forward: x %d / squeeze %+v (weights %d×%d) / expands %+v, %+v (weights %d×%d, %d×%d) do not make a fire over [%d,%d,%d,%d]",
			len(x), sq.Spec, sq.W.m, sq.W.k, f.Expand1.Spec, f.Expand3.Spec, f.Expand1.W.m, f.Expand1.W.k, f.Expand3.W.m, f.Expand3.W.k, n, sq.Spec.InC, h, w))
	}
	ql := n * f.quadLen(h*w)
	// At least 16 bytes, so never a tiny allocation: the words are aligned
	// (see quadWords).
	q := a.GetU8(max(ql, 16))[:ql]
	f.squeezeInto(x, n, h*w, q)
	a.PutU8(x)
	y := a.GetU8(n * f.OutC() * h * w)
	f.Expand1.quadConvInto(q, n, h, w, y, f.OutC(), 0)
	f.Expand3.quadConvInto(q, n, h, w, y, f.OutC(), f.Expand1.Spec.OutC)
	a.PutU8(q)
	return y
}

// fits reports whether rq holds constants for m output channels.
func (rq *Requant) fits(m int) bool { return len(rq.Mult) >= m && len(rq.Beta) >= m }

// readsQuads reports whether e is an expand of inC squeeze channels of h×w:
// stride 1, the same size out, weights in quad order.
func (e *QConv) readsQuads(inC, h, w int) bool {
	s := e.Spec
	oh, ow := s.OutSize(h, w)
	return s.InC == inC && s.StrideH == 1 && s.StrideW == 1 && oh == h && ow == w &&
		e.W.m == s.OutC && e.W.k == (inC+3)/4*4*s.KH*s.KW && e.RQ.fits(s.OutC)
}

// quadLen is the length of one image's quad planes of hw pixels.
func (f *QFire) quadLen(hw int) int { return (f.Squeeze.Spec.OutC + 3) / 4 * 4 * hw }

// squeezeInto runs the squeeze on the n images of hw pixels in x into their
// quad planes in q, quadLen(hw) bytes an image.
func (f *QFire) squeezeInto(x []uint8, n, hw int, q []uint8) {
	sq := &f.Squeeze
	il, ql := sq.Spec.InC*hw, f.quadLen(hw)
	ep := qgemmEpilogue{rq: sq.RQ, ld: hw, quads: true}
	for i := 0; i < n; i++ {
		ep.dst = q[i*ql : (i+1)*ql]
		qgemmDispatch(sq.W, qgemmB{data: x[i*il : (i+1)*il]}, nil, sq.Spec.OutC, sq.Spec.InC, hw, &ep)
	}
}

// quadConvInto runs e, an expand, on the quad planes of n h×w images in q
// (⌈InC/4⌉ planes an image) into channels [chOff, chOff+OutC) of y
// ([n, dstC, h, w]). The planes are a convolution's input of ⌈InC/4⌉
// channels of 32-bit words, padding positions four zero points.
func (e *QConv) quadConvInto(q []uint8, n, h, w int, y []uint8, dstC, chOff int) {
	s := e.Spec
	s.InC = (s.InC + 3) / 4
	hw, ql := h*w, s.InC*4*h*w
	view := newConvView(h, w, s, uint32(e.ZP)*0x01010101, nil)
	view.spread = copyRuns
	ep := qgemmEpilogue{rq: e.RQ, ld: hw}
	for i := 0; i < n; i++ {
		view.setImage(quadWords(q[i*ql : (i+1)*ql]))
		ep.dst = y[(i*dstC+chOff)*hw:]
		qgemmDispatch(e.W, qgemmB{quad: &view}, nil, s.OutC, e.W.k, hw, &ep)
	}
}
