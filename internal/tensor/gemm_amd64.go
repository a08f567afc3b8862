//go:build amd64

package tensor

import "os"

// sgemmKernel6x16 is the FMA micro-kernel in gemm_amd64.s. With store set it
// overwrites the C tile with the product instead of adding to it.
//
//go:noescape
func sgemmKernel6x16(kc int64, a, b, c *float32, ldc int64, store bool)

// sgemmKernel8x32 is the AVX-512F micro-kernel in gemm_amd64.s: a 8×32 tile
// held in 16 ZMM accumulators.
//
//go:noescape
func sgemmKernel8x32(kc int64, a, b, c *float32, ldc int64, store bool)

//go:noescape
func cpuidex(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0() (eax, edx uint32)

// haveFMA reports whether the CPU and OS support the AVX2+FMA kernel
// (AVX2, FMA3, and YMM state enabled via XSAVE).
var haveFMA = detectFMA()

func detectFMA() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c1, _ := cpuidex(1, 0)
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if c1&fma == 0 || c1&osxsave == 0 || c1&avx == 0 {
		return false
	}
	// The OS must have enabled XMM+YMM state saving.
	if lo, _ := xgetbv0(); lo&6 != 6 {
		return false
	}
	_, b7, _, _ := cpuidex(7, 0)
	const avx2 = 1 << 5
	return b7&avx2 != 0
}

// haveAVX512 reports whether the ZMM-width FP32 kernel may run: AVX-512F for
// the instructions, plus AVX512VL as the downclocking guard — parts that ship
// F without VL are the early server generation where 512-bit execution
// license-throttles the whole core, so they stay on the AVX2 tier — and XCR0
// opmask/ZMM state enabled by the OS (same 0xe6 mask as detectVNNI).
// PERCIVAL_NO_AVX512=1 forces the AVX2 tier at runtime for boxes where even
// guarded 512-bit execution downclocks neighbours.
var haveAVX512 = detectAVX512()

func detectAVX512() bool {
	if !haveFMA || os.Getenv("PERCIVAL_NO_AVX512") != "" {
		return false
	}
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, b7, _, _ := cpuidex(7, 0)
	const (
		avx512f  = 1 << 16
		avx512vl = 1 << 31
	)
	if b7&avx512f == 0 || b7&avx512vl == 0 {
		return false
	}
	lo, _ := xgetbv0()
	return lo&0xe6 == 0xe6
}

// init upgrades the FP32 kernel tier past the portable default: AVX-512F
// 8×32 when the CPU qualifies, else the FMA-dispatching 6×16 keeps the
// default geometry and only the reported name changes.
func init() {
	if haveAVX512 {
		gemmTier = gemmTierT{name: "avx512-8x32", kind: tierKind8x32, mr: 8, nr: 32, mc: 128}
	} else if haveFMA {
		gemmTier.name = "avx2-6x16"
	}
}

// gemmKernel runs one packed 6×16 micro-tile update (see gemmKernelGeneric
// for the semantics), dispatching to the FMA kernel when available.
func gemmKernel(kc int, a, b, ctile []float32, ldc int, store bool) {
	if haveFMA {
		sgemmKernel6x16(int64(kc), &a[0], &b[0], &ctile[0], int64(ldc), store)
		return
	}
	gemmKernelGeneric(kc, a, b, ctile, ldc, store)
}

// gemmKernelTier dispatches one packed micro-tile update by tier kind with
// direct calls (see gemmTierT for why this is not a func value). The 8×32
// kind is only ever installed behind detectAVX512.
func gemmKernelTier(kind uint8, kc int, a, b, ctile []float32, ldc int, store bool) {
	if kind == tierKind8x32 {
		sgemmKernel8x32(int64(kc), &a[0], &b[0], &ctile[0], int64(ldc), store)
		return
	}
	gemmKernel(kc, a, b, ctile, ldc, store)
}
