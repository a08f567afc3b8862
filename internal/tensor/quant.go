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
// raises the lower clamp to it. Every Mult must be ≥ 0 (not NaN): then the
// requantized byte never decreases as its accumulator grows, which the
// fused pools (QStem.Pool) and MaxPoolQuadsInto rely on. The INT8 engine's
// builder refuses any other Mult.
type Requant struct {
	Mult, Beta []float32
	ZOut       int32
	ReLU       bool
}

// MaxPoolQuadsInto max-pools `planes` quad planes of h×w pixels in x (see
// QFire: four channels' bytes a 32-bit word) into planes of OutSize's
// pixels in y, unpadded — the only pool the INT8 engine runs — in scratch of
// QuadScratchLen(h, w) bytes. Max pooling commutes with the (monotonic)
// quantization map, so the window maximum is taken directly on the
// quantized bytes, each lane of a word on its own channel, and the
// quantization parameters pass through unchanged.
func MaxPoolQuadsInto(x []uint8, planes, h, w int, p PoolSpec, y []uint8, scratch []uint8) (oh, ow int) {
	oh, ow = p.OutSize(h, w)
	if oh == 0 || ow == 0 {
		panicEmptyOutput("MaxPoolQuadsInto", []int{planes, h, w, 4}, p.K, p.K, p.Pad, p.Pad)
	}
	if p.Pad != 0 || len(x) < planes*4*h*w || len(y) < planes*4*oh*ow {
		panic(fmt.Sprintf("tensor: MaxPoolQuadsInto: pool %+v / x %d / y %d do not pool %d quad planes of %d×%d unpadded",
			p, len(x), len(y), planes, h, w))
	}
	checkScratch("MaxPoolQuadsInto", len(scratch), p.QuadScratchLen(h, w))
	for i := 0; i < planes; i++ {
		poolQuadRows(y[i*4*oh*ow:(i+1)*4*oh*ow], ow, oh, x[i*4*h*w:(i+1)*4*h*w], w, p, scratch)
	}
	return oh, ow
}

// QuadScratchLen is the scratch MaxPoolQuadsInto needs for h×w planes.
func (p PoolSpec) QuadScratchLen(h, w int) int {
	oh, _ := p.OutSize(h, w)
	return 4 * max(2*((oh-1)*p.Stride+1)*w-p.K+1, 0)
}

// poolQuadRows writes `rows` consecutive rows of an unpadded max pool of one
// quad plane, row r at dst[r*pow*4:], from src: the input rows of w pixels
// from the first window's top row on. Whole-run vector passes with no branch
// that depends on the data: one maxU8Into takes the vertical max of K rows
// at every row start into vmax (a byte stride of 4·w), a second the
// horizontal K-tap max of vmax at every column into hmax (a byte stride of
// 4, one pixel: each lane against its own channel; the windows that wrap a
// row end are never picked), and gatherWords picks each pooled row's pixels
// out of hmax as words at the stride. The two passes' scratch is the
// caller's: 4·(2·starts·w − K + 1) bytes for the rows' starts
// (rows−1)·Stride + 1.
func poolQuadRows(dst []uint8, pow, rows int, src []uint8, w int, p PoolSpec, scratch []uint8) {
	starts := (rows-1)*p.Stride + 1
	vmax, hmax := scratch[:4*starts*w], scratch[4*starts*w:4*(2*starts*w-p.K+1)]
	maxU8Into(vmax, src, p.K, 4*w)
	maxU8Into(hmax, vmax, p.K, 4)
	words := quadWords(hmax)
	for r := 0; r < rows; r++ {
		gatherWords(quadWords(dst[r*pow*4:(r+1)*pow*4]), words[r*p.Stride*w:], p.Stride)
	}
}

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
