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

// requantQuads8 is never called when haveQuantASM is false.
func requantQuads8(dst *uint8, a0, a1, a2, a3 *int32, n int64, k *[8]float32, lo, hi uint8) {
	panic("tensor: requantQuads8 without assembly support")
}

// lutRowU8 is never called when haveQuantASM is false.
func lutRowU8(dst, src *uint8, deltas *[256]uint8, words, stride, pad, w int64, fill uint32) {
	panic("tensor: lutRowU8 without assembly support")
}

// copyTaps is never called when haveQuantASM is false.
func copyTaps(dst *uint8, step int64, src *uint8, taps *int, quads, n int64) {
	panic("tensor: copyTaps without assembly support")
}
