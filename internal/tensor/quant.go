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
func QuantizeU8(dst []uint8, src []float32, q QuantParams) {
	if len(dst) < len(src) {
		panic("tensor: QuantizeU8 dst too small")
	}
	inv := 1 / q.Scale
	// Round half-up via the +0.5 truncation: exact for the non-negative
	// in-range values, and the clamp absorbs the truncated negatives.
	zf := float32(q.Zero) + 0.5
	for i, v := range src {
		x := int32(v*inv + zf)
		if x < 0 {
			x = 0
		} else if x > QMaxU8 {
			x = QMaxU8
		}
		dst[i] = uint8(x)
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
func RequantizeU8(dst []uint8, acc []int32, mult, beta float32, zOut int32, relu bool) {
	if len(dst) < len(acc) {
		panic("tensor: RequantizeU8 dst too small")
	}
	lo := int32(0)
	if relu {
		lo = zOut
	}
	if haveQuantASM && len(acc) >= 32 {
		n := len(acc) &^ 31
		requantU8ASM(&acc[0], &dst[0], int64(n), mult, beta, uint8(lo), QMaxU8)
		acc = acc[n:]
		dst = dst[n:]
	}
	for i, a := range acc {
		x := int32(math.RoundToEven(float64(float32(a)*mult + beta)))
		if x < lo {
			x = lo
		} else if x > QMaxU8 {
			x = QMaxU8
		}
		dst[i] = uint8(x)
	}
}

// DequantizeAcc converts one output-channel row of int32 accumulators
// straight to real values: v = acc·mult + beta — the final-layer epilogue,
// where the logits leave the quantized domain.
func DequantizeAcc(dst []float32, acc []int32, mult, beta float32) {
	if len(dst) < len(acc) {
		panic("tensor: DequantizeAcc dst too small")
	}
	for i, a := range acc {
		dst[i] = float32(a)*mult + beta
	}
}

// Im2colU8 is the quantized counterpart of Im2col: it expands one u8 image
// (C×H×W) into the [C*KH*KW, outH*outW] column matrix. Zero padding is
// materialized as the activation zero-point zp (the quantized encoding of
// real 0), so the zero-point compensation term stays exact across padded
// positions.
//
// The horizontal bounds test is hoisted out of the pixel loop: for each
// (ky, kx) the valid output-column range is computed once, the out-of-range
// edges are filled with zp, and the interior degenerates to a memmove for
// stride-1 convolutions (SqueezeNet's 3×3 expands) or a branchless strided
// gather otherwise (the strided stem).
func Im2colU8(img []uint8, c, h, w int, s ConvSpec, col []uint8, zp uint8) (oh, ow int) {
	oh, ow = s.OutSize(h, w)
	rowLen := oh * ow
	ri := 0
	for ch := 0; ch < c; ch++ {
		chOff := ch * h * w
		for ky := 0; ky < s.KH; ky++ {
			for kx := 0; kx < s.KW; kx++ {
				dst := col[ri*rowLen : (ri+1)*rowLen]
				ri++
				// Valid ox range: 0 <= kx - PadW + ox*StrideW < w.
				base := kx - s.PadW
				oxLo, oxHi := validOx(base, s.StrideW, w, ow)
				di := 0
				for oy := 0; oy < oh; oy++ {
					iy := oy*s.StrideH - s.PadH + ky
					drow := dst[di : di+ow]
					di += ow
					if iy < 0 || iy >= h {
						fillU8(drow, zp)
						continue
					}
					for x := 0; x < oxLo; x++ {
						drow[x] = zp
					}
					for x := oxHi; x < ow; x++ {
						drow[x] = zp
					}
					row := img[chOff+iy*w : chOff+iy*w+w]
					if s.StrideW == 1 {
						copy(drow[oxLo:oxHi], row[base+oxLo:base+oxHi])
						continue
					}
					ix := base + oxLo*s.StrideW
					for x := oxLo; x < oxHi; x++ {
						drow[x] = row[ix]
						ix += s.StrideW
					}
				}
			}
		}
	}
	return oh, ow
}

func fillU8(dst []uint8, v uint8) {
	for i := range dst {
		dst[i] = v
	}
}

// MaxPoolU8Into max-pools u8 activations ([N,C,H,W] planes in x) into y.
// Max pooling commutes with the (monotonic) quantization map, so the window
// maximum is taken directly on the quantized bytes and the tensor's
// quantization parameters pass through unchanged.
//
// Unpadded pooling (every pool in the PERCIVAL architectures) runs a
// separable fast path: a vectorizable vertical max over the window rows into
// a row buffer, then a small horizontal max per output — 2K reads per output
// instead of K² branchy window probes.
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
		maxPoolU8Separable(x, n, c, h, w, p, y, oh, ow)
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

// maxPoolU8Separable is the unpadded fast path: vertical max of the K window
// rows into rowmax (VPMAXUB-vectorized on amd64), then a horizontal K-max
// per output element.
func maxPoolU8Separable(x []uint8, n, c, h, w int, p PoolSpec, y []uint8, oh, ow int) {
	rowmaxP := GetScratchU8(w)
	rowmax := *rowmaxP
	for i := 0; i < n*c; i++ {
		plane := x[i*h*w : (i+1)*h*w]
		yp := y[i*oh*ow : (i+1)*oh*ow]
		for oy := 0; oy < oh; oy++ {
			iy := oy * p.Stride
			copy(rowmax, plane[iy*w:iy*w+w])
			for t := 1; t < p.K; t++ {
				maxU8Into(rowmax, plane[(iy+t)*w:(iy+t)*w+w])
			}
			out := yp[oy*ow : oy*ow+ow]
			for ox := 0; ox < ow; ox++ {
				ix := ox * p.Stride
				m := rowmax[ix]
				for t := 1; t < p.K; t++ {
					if v := rowmax[ix+t]; v > m {
						m = v
					}
				}
				out[ox] = m
			}
		}
	}
	PutScratchU8(rowmaxP)
}

// maxU8Into computes dst = max(dst, src) element-wise.
func maxU8Into(dst, src []uint8) {
	j := 0
	if haveQuantASM && len(dst) >= 32 {
		m := len(dst) &^ 31
		maxU8x32(&dst[0], &src[0], int64(m))
		j = m
	}
	for ; j < len(dst); j++ {
		if src[j] > dst[j] {
			dst[j] = src[j]
		}
	}
}
