//go:build amd64

package tensor

import (
	"os"
	"unsafe"
)

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

// init upgrades both engines' kernel tiers past the portable defaults. FP32:
// AVX-512F 8×32 when the CPU qualifies, else the FMA-dispatching 6×16 keeps
// the default geometry and only the reported name changes. INT8: the
// AVX512-VNNI 8×32 tile, else the AVX2 kernel at the portable 4×16
// geometry.
func init() {
	if haveAVX512 {
		gemmTier = gemmTierT{name: "avx512-8x32", kind: tierKind8x32, mr: 8, nr: 32, mc: 128, kc: kcBlock, nc: ncBlock}
	} else if haveFMA {
		gemmTier.name = "avx2-6x16"
	}
	switch {
	case haveVNNI:
		qgemmTier = vnniQTier
	case haveQuantASM:
		qgemmTier.name, qgemmTier.kind = "avx2-4x16", tierKindQuadAVX2
	}
}

// vnniQTier is the INT8 tier on AVX512-VNNI parts: the 8×32 tile, whose A
// panel (8×kc bytes) and B panel (kc×32 bytes) stay L1-resident at the quad
// tiers' kc, and whose mc and nc are multiples of its mr and nr.
var vnniQTier = gemmTierT{name: "avx512-vnni-8x32", kind: tierKindQuadVNNI, mr: 8, nr: 32, mc: mcQBlock, kc: kcQBlock, nc: ncQBlock}

// tileKernel runs one packed micro-tile update of any kernel kind by direct
// call (see gemmTierT for why this is not a func value): the mr×nr tile at c,
// rows ldc apart — cleared first when store is set — accumulates the
// product of the A micro-panel at a and the B micro-panel at b, depth packed
// k-steps deep (gemmTierT.depth). The 8×32 and VNNI kinds are only ever
// installed behind detectAVX512; the 6×16 kind falls back to Go without FMA.
func tileKernel(kind uint8, depth int, a, b, c unsafe.Pointer, ldc int, store bool) {
	switch kind {
	case tierKindQuadVNNI:
		qgemmKernelVNNI8x32(int64(depth/4), (*int8)(a), (*uint8)(b), (*int32)(c), int64(ldc), store)
	case tierKind8x32:
		sgemmKernel8x32(int64(depth), (*float32)(a), (*float32)(b), (*float32)(c), int64(ldc), store)
	case tierKindQuadAVX2:
		qgemmKernel4x16(int64(depth/4), (*int8)(a), (*uint8)(b), (*int32)(c), int64(ldc), store)
	case tierKind6x16:
		if haveFMA {
			sgemmKernel6x16(int64(depth), (*float32)(a), (*float32)(b), (*float32)(c), int64(ldc), store)
			return
		}
		fallthrough
	default:
		portableTile(kind, depth, a, b, c, ldc, store)
	}
}
