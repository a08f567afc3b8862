//go:build !amd64

package tensor

// haveQuantASM and haveVNNI are false on platforms without the AVX2 and
// AVX512-VNNI quantized kernels.
const (
	haveQuantASM = false
	haveVNNI     = false
)

// transposeQuad16 is never called when haveQuantASM is false.
func transposeQuad16(dst *uint8, step int64, src *uint8, ld, panels int64) {
	panic("tensor: transposeQuad16 without assembly support")
}

// maxU8x16 is never called when haveQuantASM is false.
func maxU8x16(dst, src *uint8, n, k, stride int64) {
	panic("tensor: maxU8x16 without assembly support")
}

// maxF32x8 is never called when haveQuantASM is false.
func maxF32x8(dst, src *float32, n, k, stride int64) {
	panic("tensor: maxF32x8 without assembly support")
}

// maxI32x8 is never called when haveQuantASM is false.
func maxI32x8(dst, src *int32, n, k, stride int64) {
	panic("tensor: maxI32x8 without assembly support")
}

// poolI32K3S2 is never called when haveQuantASM is false.
func poolI32K3S2(dst, src *int32, w, pow, rows int64) {
	panic("tensor: poolI32K3S2 without assembly support")
}

// gather2F32x8 is never called when haveQuantASM is false.
func gather2F32x8(dst, src *float32, n int64) {
	panic("tensor: gather2F32x8 without assembly support")
}

// copyRunsF32 is never called when haveQuantASM is false.
func copyRunsF32(dst *float32, dstStep int64, src *float32, srcStep, n, runs int64) {
	panic("tensor: copyRunsF32 without assembly support")
}

// biasReLUF32x8 is never called when haveQuantASM is false.
func biasReLUF32x8(dst *float32, n int64, bias float32) {
	panic("tensor: biasReLUF32x8 without assembly support")
}

// bilinearColsU16x4 is never called when haveQuantASM is false.
func bilinearColsU16x4(dst *uint64, src *uint8, offs *int, wts *uint16, n int64) {
	panic("tensor: bilinearColsU16x4 without assembly support")
}

// bilinearRowsU8x8 is never called when haveQuantASM is false.
func bilinearRowsU8x8(dst *uint8, top, bot *uint64, n, wy int64) {
	panic("tensor: bilinearRowsU8x8 without assembly support")
}

// requantU8ASM is never called when haveQuantASM is false.
func requantU8ASM(acc *int32, dst *uint8, n int64, mult, beta float32, lo, hi uint8) {
	panic("tensor: requantU8ASM without assembly support")
}
