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

// requantU8 is RequantizeU8 for one element, clamped to [lo, QMaxU8]. It
// fuses in float64, where the product of two float32s is exact: it could
// differ from the hardware FMA only when the float64 sum lands exactly on a
// float32 rounding midpoint, which the differential test has never drawn.
func requantU8(a int32, mult, beta float32, lo int32) uint8 {
	f := float32(math.FMA(float64(float32(a)), float64(mult), float64(beta)))
	x := int32(math.RoundToEven(float64(f)))
	if x < lo {
		x = lo
	} else if x > QMaxU8 {
		x = QMaxU8
	}
	return uint8(x)
}

// Requant is the per-output-channel requantization a quantized convolution
// applies to its int32 accumulators (see RequantizeU8): Mult and Beta hold
// one constant per output channel, ZOut is the output zero point, and ReLU
// raises the lower clamp to it. Every Mult must be ≥ 0 (not NaN): then the
// requantized byte never decreases as its accumulator grows, which the
// fused pools (QStem.Pool, QConv.Pool) rely on. The INT8 engine's builder
// refuses any other Mult.
type Requant struct {
	Mult, Beta []float32
	ZOut       int32
	ReLU       bool
}
