//go:build amd64

package tensor

// qgemmKernel4x16 is the AVX2 VPMADDUBSW/VPMADDWD micro-kernel in
// qgemm_amd64.s: one packed 4×16 int32 micro-tile update over `quads` groups
// of 4 k-steps. With store set it overwrites the C tile with the product
// instead of adding to it.
//
//go:noescape
func qgemmKernel4x16(quads int64, a *int8, b *uint8, c *int32, ldc int64, store bool)

// transposeQuad16 writes the 4×16 byte transpose of `panels` consecutive
// 16-column groups of four rows ld apart, 64 bytes each, step apart; see
// qgemm_amd64.s.
//
//go:noescape
func transposeQuad16(dst *uint8, step int64, src *uint8, ld, panels int64)

// maxU8x16 computes dst[i] = max over t < k of src[i+t*stride] for n >= 16
// bytes with VPMAXUB; see qgemm_amd64.s.
//
//go:noescape
func maxU8x16(dst, src *uint8, n, k, stride int64)

// maxF32x8 computes dst[i] = max over t < k of src[i+t*stride] for n >= 8
// elements with VMAXPS; see qgemm_amd64.s.
//
//go:noescape
func maxF32x8(dst, src *float32, n, k, stride int64)

// maxI32x8 computes dst[i] = max over t < k of src[i+t*stride] for n >= 8
// int32s with VPMAXSD; see qgemm_amd64.s.
//
//go:noescape
func maxI32x8(dst, src *int32, n, k, stride int64)

// poolI32K3S2 max-pools `rows` rows of pow >= 8 outputs 3×3 at stride 2
// from int32 rows w apart in one pass; see qgemm_amd64.s.
//
//go:noescape
func poolI32K3S2(dst, src *int32, w, pow, rows int64)

// gather2F32x8 writes dst[i] = src[2*i] for n float32s (n a multiple of 8),
// reading 2n source elements; see qgemm_amd64.s.
//
//go:noescape
func gather2F32x8(dst, src *float32, n int64)

// copyRunsF32 copies `runs` runs of n float32s (n = 16 or 32), run i from
// src+i*srcStep to dst+i*dstStep; see qgemm_amd64.s.
//
//go:noescape
func copyRunsF32(dst *float32, dstStep int64, src *float32, srcStep, n, runs int64)

// biasReLUF32x8 computes dst = max(dst+bias, 0) over n float32s (n a
// multiple of 8) with VADDPS/VMAXPS, the sum as the second source; see
// qgemm_amd64.s.
//
//go:noescape
func biasReLUF32x8(dst *float32, n int64, bias float32)

// bilinearColsU16x4 is BilinearColsU16's vector body for n >= 4 columns
// (VPMOVZXBW/VPMULLW); see qgemm_amd64.s.
//
//go:noescape
func bilinearColsU16x4(dst *uint64, src *uint8, offs *int, wts *uint16, n int64)

// bilinearRowsU8x8 is BilinearRowsU8's vector body for n >= 8 pixels
// (VPMULLW on byte halves); see qgemm_amd64.s.
//
//go:noescape
func bilinearRowsU8x8(dst *uint8, top, bot *uint64, n, wy int64)

// requantU8x32 is the vectorized requantization epilogue in qgemm_amd64.s:
// dst[i] = clamp(roundeven(float32(acc[i])*mult + beta), lo, hi) for n
// elements, n a multiple of 32.
//
//go:noescape
func requantU8x32(acc *int32, dst *uint8, n int64, mult, beta float32, lo, hi uint8)

// qgemmKernelVNNI8x32 is the AVX512-VNNI (VPDPBUSD, ZMM-width) micro-kernel
// in qgemm_amd64.s: one packed 8×32 int32 micro-tile update, held in 16 ZMM
// accumulators. store is qgemmKernel4x16's.
//
//go:noescape
func qgemmKernelVNNI8x32(quads int64, a *int8, b *uint8, c *int32, ldc int64, store bool)

// haveQuantASM gates the quantized kernels on the same AVX2+FMA+OS-XSAVE
// detection as the FP32 kernel (VPMADDUBSW/VPMADDWD are AVX2; the requant
// epilogue uses FMA), and with them the byte and FP32 row helpers
// (transposeQuad16, maxU8x16, maxI32x8, poolI32K3S2, bilinearColsU16x4,
// bilinearRowsU8x8; maxF32x8, gather2F32x8, biasReLUF32x8 — AVX/AVX2).
// haveVNNI additionally selects the VPDPBUSD kernel on parts with
// AVX512-VNNI; it runs at ZMM width, so it sits behind haveAVX512 — F, VL,
// the OS-enabled ZMM state, and PERCIVAL_NO_AVX512, which therefore means
// no 512-bit execution on either engine.
var (
	haveQuantASM = haveFMA
	haveVNNI     = detectVNNI()
)

func detectVNNI() bool {
	if !haveAVX512 {
		return false
	}
	_, _, c7, _ := cpuidex(7, 0)
	const avx512vnni = 1 << 11 // ECX
	return c7&avx512vnni != 0
}

func requantU8ASM(acc *int32, dst *uint8, n int64, mult, beta float32, lo, hi uint8) {
	requantU8x32(acc, dst, n, mult, beta, lo, hi)
}
