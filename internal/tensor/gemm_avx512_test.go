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

// blockedProduct runs the blocked driver alone, whatever the product's
// size, over every column block of the row-major m×k by k×n product into c:
// c += a×b when acc is set, c = a×b otherwise.
func blockedProduct(t gemmTierT, a, b, c []float32, m, k, n int, acc bool) {
	bop := gemmB{data: b, ld: n}
	panels, buf := gemmA{data: a}.panels(t, m, k, kOrder{})
	bp := make([]float32, bBlockLen(t, k, min(t.nc, n)))
	for jc := 0; jc < n; jc += t.nc {
		blocked[float32, float32](&bop, t, panels, bp, c, jc, n, m, k, jc, min(t.nc, n-jc), acc)
	}
	PutScratch(buf)
}

// TestGemmAVX512TierMatchesAVX2Tier runs whole blocked products under the
// AVX-512 8×32 tier and the AVX2 6×16 tier and demands bit-identical C.
// Every C element is one k-ordered FMA chain from zero in both tiers — an
// edge tile continues C's chains as a full tile does, across every k-block
// — so the tile geometry must not change a single bit, at one k-block or
// several. The shape sweep covers every m%8 and n%32 remainder class the
// 8×32 tile can hit.
func TestGemmAVX512TierMatchesAVX2Tier(t *testing.T) {
	if !haveAVX512 {
		t.Skip("no AVX-512F+VL on this CPU")
	}
	avx512 := gemmTier
	rng := rand.New(rand.NewSource(23))
	ms := []int{1, 5, 7, 8, 9, 14, 16, 129}
	ns := []int{1, 17, 31, 32, 33, 63, 64, 97}
	for _, k := range []int{1, 19, 256, 257, 288, 576} {
		for _, m := range ms {
			for _, n := range ns {
				a := randSlice(rng, m*k)
				b := randSlice(rng, k*n)
				c512, c256 := make([]float32, m*n), make([]float32, m*n)
				blockedProduct(avx512, a, b, c512, m, k, n, false)
				blockedProduct(avx2Tier, a, b, c256, m, k, n, false)
				for i := range c512 {
					if math.Float32bits(c512[i]) != math.Float32bits(c256[i]) {
						t.Fatalf("m=%d k=%d n=%d: c[%d]=%b (avx512) vs %b (avx2)", m, k, n, i, c512[i], c256[i])
					}
				}
			}
		}
	}
}

// fmaf32 is the float32 fused multiply-add a·b+c, rounded once. The float64
// product is exact, so math.FMA rounds the sum once, to float64; where that
// lands exactly halfway between two float32 values, the residual it dropped
// (recovered exactly by a two-sum) breaks the tie, so the float32 result is
// never double-rounded.
func fmaf32(a, b, c float32) float32 {
	s := math.FMA(float64(a), float64(b), float64(c))
	if math.Float64bits(s)&(1<<29-1) == 1<<28 {
		p := float64(a) * float64(b)
		bv := s - p
		if e := (p - (s - bv)) + (float64(c) - bv); e != 0 {
			s = math.Nextafter(s, math.Copysign(math.Inf(1), e))
		}
	}
	return float32(s)
}

// TestBlockedAccMatchesFMAChain holds the blocked driver to a naive oracle
// on both assembly tiers: with acc set, every element of C is its seed
// continued by one k-ordered FMA chain over its k terms, wherever the tile
// grid, the k-blocks and the column blocks cut it — ragged m and n put edge
// tiles on both sides, k = 600 spans three k-blocks, n = 2057 two column
// blocks.
func TestBlockedAccMatchesFMAChain(t *testing.T) {
	var tiers []gemmTierT
	if haveAVX512 {
		tiers = append(tiers, gemmTier)
	}
	if haveFMA {
		tiers = append(tiers, avx2Tier)
	}
	if len(tiers) == 0 {
		t.Skip("no FMA kernel on this CPU")
	}
	rng := rand.New(rand.NewSource(24))
	for _, k := range []int{5, 257, 600} {
		for _, m := range []int{1, 7, 13, 17} {
			for _, n := range []int{5, 33, 47, 2057} {
				a, b, seed := randSlice(rng, m*k), randSlice(rng, k*n), randSlice(rng, m*n)
				want := append([]float32(nil), seed...)
				for i := 0; i < m; i++ {
					for j := 0; j < n; j++ {
						for p := 0; p < k; p++ {
							want[i*n+j] = fmaf32(a[i*k+p], b[p*n+j], want[i*n+j])
						}
					}
				}
				for _, tier := range tiers {
					got := append([]float32(nil), seed...)
					blockedProduct(tier, a, b, got, m, k, n, true)
					for e := range want {
						if math.Float32bits(got[e]) != math.Float32bits(want[e]) {
							t.Fatalf("%s m=%d k=%d n=%d: c[%d,%d]=%v (%#x), FMA chain %v (%#x)", tier.name, m, k, n,
								e/n, e%n, got[e], math.Float32bits(got[e]), want[e], math.Float32bits(want[e]))
						}
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
