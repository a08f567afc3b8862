//go:build amd64

package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// fmaRef8x32 is the bit-reference for the AVX-512F micro-kernel: the same
// 8×32 tile update with every accumulation emulated as a fused
// multiply-add (math.FMA computes a*b+c with a single rounding) in the same
// k order as the assembly's FMA chain.
func fmaRef8x32(kc int, a, b, ctile []float32, ldc int) {
	for p := 0; p < kc; p++ {
		for r := 0; r < 8; r++ {
			av := float64(a[p*8+r])
			for j := 0; j < 32; j++ {
				c := &ctile[r*ldc+j]
				*c = float32(math.FMA(av, float64(b[p*32+j]), float64(*c)))
			}
		}
	}
}

// TestGemmKernelAVX512BitExact compares the ZMM kernel against the
// FMA-emulating portable reference bit for bit across kc values that hit the
// unrolled loop, the odd tail, and a full L1 panel — accumulating onto a
// random tile, and storing over it, which must equal accumulating onto +0.
func TestGemmKernelAVX512BitExact(t *testing.T) {
	if !haveAVX512 {
		t.Skip("no AVX-512F+VL on this CPU")
	}
	rng := rand.New(rand.NewSource(21))
	for _, kc := range []int{1, 2, 3, 7, 8, 15, 64, 255, 256} {
		a := randSlice(rng, kc*8)
		b := randSlice(rng, kc*32)
		for _, store := range []bool{false, true} {
			got := randSlice(rng, 8*32)
			want := append([]float32(nil), got...)
			if store {
				clear(want)
			}
			sgemmKernel8x32(int64(kc), &a[0], &b[0], &got[0], 32, store)
			fmaRef8x32(kc, a, b, want, 32)
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("kc=%d store=%v: c[%d]=%b want %b (bit mismatch)", kc, store, i, got[i], want[i])
				}
			}
		}
	}
}

// TestGemmKernelAVX512WideStride runs the kernel with ldc wider than the
// tile (the in-place full-tile path inside a larger C) and checks it only
// touches its own 8×32 window.
func TestGemmKernelAVX512WideStride(t *testing.T) {
	if !haveAVX512 {
		t.Skip("no AVX-512F+VL on this CPU")
	}
	rng := rand.New(rand.NewSource(22))
	const kc, ldc = 37, 50
	a := randSlice(rng, kc*8)
	b := randSlice(rng, kc*32)
	got := randSlice(rng, 8*ldc)
	want := append([]float32(nil), got...)
	sgemmKernel8x32(int64(kc), &a[0], &b[0], &got[0], ldc, false)
	fmaRef8x32(kc, a, b, want, ldc)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("c[%d]=%b want %b", i, got[i], want[i])
		}
	}
}

// TestGemmAVX512TierMatchesAVX2Tier runs whole blocked products under the
// AVX-512 8×32 tier and the AVX2 6×16 tier and demands bit-identical C.
// For k ≤ kcBlock every C element is one k-ordered FMA chain from zero in
// both tiers (edge tiles fold scratch into zeroed C with exact adds), so the
// tile geometry must not change a single bit. The shape sweep covers every
// m%8 and n%32 remainder class the 8×32 tile can hit.
func TestGemmAVX512TierMatchesAVX2Tier(t *testing.T) {
	if !haveAVX512 {
		t.Skip("no AVX-512F+VL on this CPU")
	}
	avx512 := gemmTier
	avx2 := gemmTierT{name: "avx2-6x16", kind: tierKind6x16, mr: mrTile, nr: nrTile, mc: mcBlock, kc: kcBlock, nc: ncBlock}
	// The blocked driver alone, whatever the product's size.
	product := func(t gemmTierT, a, b []float32, m, k, n int) []float32 {
		c := make([]float32, m*n)
		bop := gemmB{data: b, ld: n}
		panels, buf := gemmA{data: a}.panels(t, m, k)
		bp := make([]float32, bBlockLen(t, k, min(t.nc, n)))
		for jc := 0; jc < n; jc += t.nc {
			blocked[float32, float32](&bop, t, panels, bp, c, jc, n, m, k, jc, min(t.nc, n-jc), false)
		}
		PutScratch(buf)
		return c
	}
	rng := rand.New(rand.NewSource(23))
	ms := []int{1, 5, 7, 8, 9, 14, 16, 129}
	ns := []int{1, 17, 31, 32, 33, 63, 64, 97}
	for _, k := range []int{1, 19, 256} {
		for _, m := range ms {
			for _, n := range ns {
				a := randSlice(rng, m*k)
				b := randSlice(rng, k*n)
				c512 := product(avx512, a, b, m, k, n)
				c256 := product(avx2, a, b, m, k, n)
				for i := range c512 {
					if c512[i] != c256[i] {
						t.Fatalf("m=%d k=%d n=%d: c[%d]=%b (avx512) vs %b (avx2)", m, k, n, i, c512[i], c256[i])
					}
				}
			}
		}
	}
}

// TestGemmKernelNameMatchesDetection pins the dispatch: the reported tier
// must agree with what the CPU actually offers.
func TestGemmKernelNameMatchesDetection(t *testing.T) {
	want := "portable-6x16"
	switch {
	case haveAVX512:
		want = "avx512-8x32"
	case haveFMA:
		want = "avx2-6x16"
	}
	if got := GemmKernelName(); got != want {
		t.Fatalf("GemmKernelName()=%q want %q (haveFMA=%v haveAVX512=%v)", got, want, haveFMA, haveAVX512)
	}
}
