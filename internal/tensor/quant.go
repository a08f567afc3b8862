package tensor

import (
	"fmt"
	"math"
)

// INT8 quantization scheme (see PERFORMANCE.md "INT8 quantization" for the
// full derivation):
//
//   - Activations are unsigned 8-bit, asymmetric, per-tensor, restricted to
//     [0, QMaxU8] = [0, 127] ("u7"). Restricting activations to 7 bits keeps
//     every VPMADDUBSW pair sum (2 × 127 × 127 = 32 258) below the int16
//     saturation point, so the AVX2 kernel never saturates and matches the
//     portable kernel bit-for-bit.
//   - Weights are signed 8-bit, symmetric (zero-point 0), per-output-channel,
//     in [-127, 127].
//   - Accumulation is int32. The asymmetric activation zero-point is folded
//     out of the accumulator with the precomputed per-channel weight row sum:
//     real = sW·sA·(acc − zA·Σₖw), so the hot loop never sees it.
type QuantParams struct {
	// Scale maps quantized steps to real values: real = Scale·(q − Zero).
	Scale float32
	// Zero is the quantized value representing real 0, in [0, QMaxU8].
	Zero int32
}

// QMaxU8 is the top of the activation range. Activations use 7 of their 8
// bits (see the scheme note above).
const QMaxU8 = 127

// ChooseQuantParams fits activation quantization parameters to an observed
// real-value range. The range is widened to include zero so that real 0 is
// exactly representable (padding and ReLU both depend on that).
func ChooseQuantParams(minV, maxV float32) QuantParams {
	if minV > 0 {
		minV = 0
	}
	if maxV < 0 {
		maxV = 0
	}
	if maxV == minV {
		return QuantParams{Scale: 1, Zero: 0}
	}
	scale := (maxV - minV) / QMaxU8
	zero := int32(math.Round(float64(-minV / scale)))
	if zero < 0 {
		zero = 0
	}
	if zero > QMaxU8 {
		zero = QMaxU8
	}
	return QuantParams{Scale: scale, Zero: zero}
}

// QuantizeU8 quantizes real values into [0, QMaxU8]: q = clamp(round(v/s)+z).
// The clamp is taken in the float domain, before the conversion to integer,
// so out-of-range inputs saturate on every platform (a float→int conversion
// that overflows is platform-defined: amd64 used to wrap 1e30 and +Inf to 0):
// anything above the range, +Inf included, maps to QMaxU8; anything below,
// -Inf included, to 0; NaN to the zero point, the encoding of real 0.
func QuantizeU8(dst []uint8, src []float32, q QuantParams) {
	if len(dst) < len(src) {
		panic("tensor: QuantizeU8 dst too small")
	}
	inv, zf := quantConsts(q)
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = quantU8(v, inv, zf, q.Zero)
	}
}

// quantConsts returns QuantizeU8's two per-call constants: 1/Scale, and the
// zero point plus the 0.5 that makes the truncation round half-up (exact for
// the non-negative in-range values; the clamp absorbs the negatives).
func quantConsts(q QuantParams) (inv, zf float32) {
	return 1 / q.Scale, float32(q.Zero) + 0.5
}

// quantU8 is QuantizeU8 for one value.
func quantU8(v, inv, zf float32, zero int32) uint8 {
	f := v*inv + zf
	x := zero // NaN: no comparison below holds
	if f >= QMaxU8 {
		x = QMaxU8
	} else if f >= 0 {
		x = int32(f)
	} else if f < 0 {
		x = 0
	}
	return uint8(x)
}

// QuantizePixelsU8 is QuantizeU8 into the layout QStem reads: the n images
// of c ≤ 4 float planes of hw values in src become n images of hw pixels, 4
// bytes a pixel — plane ch's value for pixel j at dst[(i*hw+j)*4+ch] — and
// the channels past c hold the zero point. It is one pass over the pixels,
// each pixel's four bytes written together; with four planes, the paper
// net's, the four reads are unrolled.
func QuantizePixelsU8(dst []uint8, src []float32, n, c, hw int, q QuantParams) {
	if c > 4 || len(src) < n*c*hw || len(dst) < n*hw*4 {
		panic(fmt.Sprintf("tensor: QuantizePixelsU8: src %d / dst %d do not fit %d images of %d×%d", len(src), len(dst), n, c, hw))
	}
	inv, zf := quantConsts(q)
	for i := 0; i < n; i++ {
		img, im := dst[i*hw*4:(i+1)*hw*4], src[i*c*hw:(i+1)*c*hw]
		if c == 4 {
			p0, p1, p2, p3 := im[:hw], im[hw:2*hw], im[2*hw:3*hw], im[3*hw:4*hw]
			for j := range p0 {
				d := img[j*4 : j*4+4 : j*4+4]
				d[0] = quantU8(p0[j], inv, zf, q.Zero)
				d[1] = quantU8(p1[j], inv, zf, q.Zero)
				d[2] = quantU8(p2[j], inv, zf, q.Zero)
				d[3] = quantU8(p3[j], inv, zf, q.Zero)
			}
			continue
		}
		for j := 0; j < hw; j++ {
			d := img[j*4 : j*4+4 : j*4+4]
			for ch := range d {
				d[ch] = uint8(q.Zero)
				if ch < c {
					d[ch] = quantU8(im[ch*hw+j], inv, zf, q.Zero)
				}
			}
		}
	}
}

// DequantizeU8 maps quantized activations back to real values.
func DequantizeU8(dst []float32, src []uint8, q QuantParams) {
	if len(dst) < len(src) {
		panic("tensor: DequantizeU8 dst too small")
	}
	z := float32(q.Zero)
	for i, v := range src {
		dst[i] = q.Scale * (float32(v) - z)
	}
}

// QuantizeWeightsPerChannel quantizes a [outC, k] weight matrix symmetrically
// per output channel: wq = round(w/s) with s = maxAbs(row)/127. It returns
// the quantized weights, the per-channel scales, and the per-channel row sums
// Σₖ wq used for activation zero-point compensation.
func QuantizeWeightsPerChannel(w []float32, outC, k int) (wq []int8, scales []float32, rowSums []int32) {
	if len(w) < outC*k {
		panic(fmt.Sprintf("tensor: QuantizeWeightsPerChannel: %d weights, want %d", len(w), outC*k))
	}
	wq = make([]int8, outC*k)
	scales = make([]float32, outC)
	rowSums = make([]int32, outC)
	for oc := 0; oc < outC; oc++ {
		row := w[oc*k : (oc+1)*k]
		var maxAbs float32
		for _, v := range row {
			if a := float32(math.Abs(float64(v))); a > maxAbs {
				maxAbs = a
			}
		}
		if maxAbs == 0 {
			scales[oc] = 1
			continue
		}
		s := maxAbs / 127
		scales[oc] = s
		inv := 1 / s
		var sum int32
		for j, v := range row {
			x := int32(math.Round(float64(v * inv)))
			if x < -127 {
				x = -127
			} else if x > 127 {
				x = 127
			}
			wq[oc*k+j] = int8(x)
			sum += x
		}
		rowSums[oc] = sum
	}
	return wq, scales, rowSums
}

// RequantizeU8 converts one output-channel row of int32 accumulators into the
// next layer's u8 activation domain: q = clamp(round(acc·mult + beta), lo,
// QMaxU8). mult folds the weight, input, and output scales
// (sW·sA/sOut); beta folds the bias, the activation-zero-point compensation,
// and the output zero-point. relu raises the lower clamp to the output zero
// point, fusing the activation into the pass that already touches every
// element.
//
// acc·mult + beta is one fused multiply-add — a single rounding — wherever an
// element sits in the row and whichever path computes it, so a byte does not
// depend on how the caller split the row into blocks or on the replica's CPU.
// The vector body is VFMADD213PS; a ragged end goes through the same routine
// on a zero-padded 32-element block; the portable loop fuses in float64,
// where the product of two float32s is exact (it could differ from the
// hardware FMA only when the float64 sum lands exactly on a float32 rounding
// midpoint, which the differential test has never drawn).
func RequantizeU8(dst []uint8, acc []int32, mult, beta float32, zOut int32, relu bool) {
	if len(dst) < len(acc) {
		panic("tensor: RequantizeU8 dst too small")
	}
	lo := int32(0)
	if relu {
		lo = zOut
	}
	if haveQuantASM {
		n := len(acc) &^ 31
		if n > 0 {
			requantU8ASM(&acc[0], &dst[0], int64(n), mult, beta, uint8(lo), QMaxU8)
		}
		if tail := len(acc) - n; tail > 0 {
			var ta [32]int32
			var td [32]uint8
			copy(ta[:], acc[n:])
			requantU8ASM(&ta[0], &td[0], 32, mult, beta, uint8(lo), QMaxU8)
			copy(dst[n:], td[:tail])
		}
		return
	}
	for i, a := range acc {
		f := float32(math.FMA(float64(float32(a)), float64(mult), float64(beta)))
		x := int32(math.RoundToEven(float64(f)))
		if x < lo {
			x = lo
		} else if x > QMaxU8 {
			x = QMaxU8
		}
		dst[i] = uint8(x)
	}
}

// Requant is the per-output-channel requantization a quantized convolution
// applies to its int32 accumulators (see RequantizeU8): Mult and Beta hold
// one constant per output channel, ZOut is the output zero point, and ReLU
// raises the lower clamp to it.
type Requant struct {
	Mult, Beta []float32
	ZOut       int32
	ReLU       bool
}

// qconvOperand returns one u8 image as the B operand of its convolution's
// GEMM: the dense [InC, H*W] matrix for a pointwise convolution, the caller's
// convView pointed at the image otherwise. The view's fill is the activation
// zero point — the quantized encoding of real 0 — so the zero-point
// compensation term stays exact across padded positions. The network's one
// strided convolution is its stem, which reads pixels (QStem), so the view
// reads the image's own planes.
func qconvOperand(view *convView[uint8], img []uint8) qgemmB {
	if view.s.is1x1Fast() {
		return qgemmB{data: img}
	}
	view.setImage(img)
	return qgemmB{conv: view}
}

// QConvForwardInto is the quantized ConvForwardInto: it convolves the n u8
// images in x ([n, InC, h, w], zero point zp) with the s8 weights wq
// ([OutC, InC*KH*KW], packed once) and requantizes the result into channels
// [chOff, chOff+OutC) of the u8 output y ([n, dstC, outH, outW]).
//
// Each image is one quantized GEMM whose B operand is the image itself and
// whose epilogue is the requantization, so neither the column matrix nor the
// OutC×outH×outW int32 accumulator exists (see qgemmBlocked).
func QConvForwardInto(x []uint8, n, h, w int, wq QWeights, s ConvSpec, zp uint8, rq Requant, y []uint8, dstC, chOff int) (oh, ow int) {
	oh, ow = s.OutSize(h, w)
	if oh == 0 || ow == 0 {
		panicEmptyOutput("QConvForwardInto", []int{n, s.InC, h, w}, s.KH, s.KW, s.PadH, s.PadW)
	}
	spatial, k, il := oh*ow, s.InC*s.KH*s.KW, s.InC*h*w
	if len(x) < n*il || wq.m != s.OutC || wq.k != k || len(rq.Mult) < s.OutC || len(rq.Beta) < s.OutC ||
		chOff+s.OutC > dstC || len(y) < n*dstC*spatial {
		panic(fmt.Sprintf("tensor: QConvForwardInto: x %d / wq %d×%d / requant %d,%d / y %d do not fit [%d,%d,%d,%d]→[%d,%d,%d,%d] at channel offset %d of %d",
			len(x), wq.m, wq.k, len(rq.Mult), len(rq.Beta), len(y), n, s.InC, h, w, n, s.OutC, oh, ow, chOff, dstC))
	}
	ep := qgemmEpilogue{rq: rq, ld: spatial}
	view := newConvView(h, w, s, zp, gatherU8)
	for i := 0; i < n; i++ {
		ep.dst = y[(i*dstC+chOff)*spatial:]
		qgemmDispatch(wq, qconvOperand(&view, x[i*il:(i+1)*il]), nil, s.OutC, k, spatial, &ep)
	}
	return oh, ow
}

// QConvAcc convolves one u8 image ([InC, h, w], zero point zp) with the s8
// weights wq and leaves the raw int32 accumulators in acc ([OutC, outH*outW])
// — for the classifier head, whose epilogue is an average, not a
// requantization.
func QConvAcc(img []uint8, h, w int, wq QWeights, s ConvSpec, zp uint8, acc []int32) {
	oh, ow := s.OutSize(h, w)
	spatial, k := oh*ow, s.InC*s.KH*s.KW
	if len(img) < s.InC*h*w || wq.m != s.OutC || wq.k != k || len(acc) < s.OutC*spatial {
		panic(fmt.Sprintf("tensor: QConvAcc: img %d / wq %d×%d / acc %d do not fit [%d,%d,%d]→[%d,%d,%d]",
			len(img), wq.m, wq.k, len(acc), s.InC, h, w, s.OutC, oh, ow))
	}
	view := newConvView(h, w, s, zp, gatherU8)
	qgemmDispatch(wq, qconvOperand(&view, img[:s.InC*h*w]), acc, s.OutC, k, spatial, nil)
}

// MaxPoolU8Into max-pools u8 activations ([N,C,H,W] planes in x) into y.
// Max pooling commutes with the (monotonic) quantization map, so the window
// maximum is taken directly on the quantized bytes and the tensor's
// quantization parameters pass through unchanged.
//
// Unpadded pooling (every pool in the PERCIVAL architectures) runs the
// separable path — see maxPoolU8Separable.
func MaxPoolU8Into(x []uint8, n, c, h, w int, p PoolSpec, y []uint8) (oh, ow int) {
	oh, ow = p.OutSize(h, w)
	if oh == 0 || ow == 0 {
		panicEmptyOutput("MaxPoolU8Into", []int{n, c, h, w}, p.K, p.K, p.Pad, p.Pad)
	}
	if len(x) < n*c*h*w || len(y) < n*c*oh*ow {
		panic(fmt.Sprintf("tensor: MaxPoolU8Into: x %d / y %d too small for [%d,%d,%d,%d]→[%d,%d]",
			len(x), len(y), n, c, h, w, oh, ow))
	}
	if p.Pad == 0 {
		maxPoolU8Separable(x, n*c, h, w, p, y, oh, ow)
		return oh, ow
	}
	oi := 0
	for i := 0; i < n*c; i++ {
		plane := x[i*h*w : (i+1)*h*w]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var best uint8
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
				y[oi] = best
				oi++
			}
		}
	}
	return oh, ow
}

// maxPoolU8Separable is the unpadded fast path, the byte twin of
// maxPoolSeparable: one poolRowsU8 per plane.
func maxPoolU8Separable(x []uint8, planes, h, w int, p PoolSpec, y []uint8, oh, ow int) {
	bufp := GetScratchU8(poolRowsScratch(oh, w, p))
	for i := 0; i < planes; i++ {
		poolRowsU8(y[i*oh*ow:(i+1)*oh*ow], ow, oh, x[i*h*w:(i+1)*h*w], w, p, *bufp)
	}
	PutScratchU8(bufp)
}

// poolRowsU8 writes `rows` consecutive rows of an unpadded max pool, row r
// at dst[r*pow:], from src: the input rows from the first window's top row
// on, w apart. Whole-run vector passes with no branch that depends on the
// data: one maxU8Into takes the vertical max of K rows at every row start
// into vmax, a second the horizontal K-tap max of vmax at every column into
// hmax (the windows that wrap a row end are never picked), and gatherU8
// picks each pooled row out of hmax at the stride.
func poolRowsU8(dst []uint8, pow, rows int, src []uint8, w int, p PoolSpec, scratch []uint8) {
	starts := (rows-1)*p.Stride + 1
	vmax, hmax := scratch[:starts*w], scratch[starts*w:2*starts*w-p.K+1]
	maxU8Into(vmax, src, p.K, w)
	maxU8Into(hmax, vmax, p.K, 1)
	for r := 0; r < rows; r++ {
		gatherU8(dst[r*pow:(r+1)*pow], hmax[r*p.Stride*w:], p.Stride)
	}
}

// poolRowsScratch is the scratch length poolRowsU8 needs for `rows` pooled
// rows of w-wide input rows.
func poolRowsScratch(rows, w int, p PoolSpec) int { return 2*((rows-1)*p.Stride+1)*w - p.K + 1 }

// maxU8Into computes dst[i] = max(src[i], src[i+stride], …) over k taps. The
// vector body covers a ragged end with one more vector overlapping the last,
// so rows of 16 bytes or more never reach the loop.
func maxU8Into(dst, src []uint8, k, stride int) {
	src = src[:len(dst)+(k-1)*stride]
	if haveQuantASM && len(dst) >= 16 {
		maxU8x16(&dst[0], &src[0], int64(len(dst)), int64(k), int64(stride))
		return
	}
	for i := range dst {
		m := src[i]
		for t := 1; t < k; t++ {
			m = max(m, src[i+t*stride])
		}
		dst[i] = m
	}
}
