//go:build amd64

package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestQGemmKernelMatchesGeneric checks the assembly micro-kernels against the
// portable one on identical packed panels, accumulating onto a random tile
// and storing over it — which must equal accumulating onto a zero tile.
func TestQGemmKernelMatchesGeneric(t *testing.T) {
	if !haveQuantASM {
		t.Skip("no quantized assembly kernel on this platform")
	}
	rng := rand.New(rand.NewSource(12))
	for _, quads := range []int{1, 2, 3, 17, 64} {
		a := make([]int8, quads*mrQTile*4)
		for i := range a {
			a[i] = int8(rng.Intn(255) - 127)
		}
		b := make([]uint8, quads*nrQTile*4)
		for i := range b {
			b[i] = uint8(rng.Intn(QMaxU8 + 1))
		}
		init := make([]int32, mrQTile*nrQTile)
		for i := range init {
			init[i] = int32(rng.Intn(1000) - 500)
		}
		portable := func(c []int32, store bool) { tileGeneric(4*quads, 4, a, b, c, nrQTile, mrQTile, nrQTile, store) }
		for _, store := range []bool{false, true} {
			want := append([]int32(nil), init...)
			if store {
				clear(want)
			}
			portable(want, false)
			got := append([]int32(nil), init...)
			portable(got, store)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("portable quads=%d store=%v: tile[%d]=%d want %d", quads, store, i, got[i], want[i])
				}
			}
			got = append(got[:0], init...)
			qgemmKernel4x16(int64(quads), &a[0], &b[0], &got[0], int64(nrQTile), store)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("avx2 quads=%d store=%v: tile[%d]=%d want %d", quads, store, i, got[i], want[i])
				}
			}
			if haveVNNI {
				got = append(got[:0], init...)
				qgemmKernelVNNI4x16(int64(quads), &a[0], &b[0], &got[0], int64(nrQTile), store)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("vnni quads=%d store=%v: tile[%d]=%d want %d", quads, store, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestQGemmKernelWrapsLikeGeneric drives the accumulators through int32
// overflow: a C tile seeded within 2¹⁰ of MaxInt32 / MinInt32 under
// full-range ±127 × 127 operands. The VNNI kernel sums even and odd quads in
// separate registers and adds the two sets at the end, which equals the
// portable kernel's single running sum only because int32 addition wraps —
// a saturating add anywhere on the way would show here and nowhere else.
func TestQGemmKernelWrapsLikeGeneric(t *testing.T) {
	if !haveQuantASM {
		t.Skip("no quantized assembly kernel on this platform")
	}
	rng := rand.New(rand.NewSource(14))
	for _, quads := range []int{1, 2, 3, 4, 5, 17, 64, 129} {
		a := make([]int8, quads*mrQTile*4)
		b := make([]uint8, quads*nrQTile*4)
		init := make([]int32, mrQTile*nrQTile)
		for r := 0; r < mrQTile; r++ {
			// Rows 0 and 1 push one way for the whole product, so their sums
			// cross the int32 boundary and stay across; rows 2 and 3 draw
			// signs at random and cross it back and forth.
			for q := 0; q < quads; q++ {
				for k := 0; k < 4; k++ {
					v := int8(127)
					if r == 1 || (r >= 2 && rng.Intn(2) == 0) {
						v = -127
					}
					a[(q*mrQTile+r)*4+k] = v
				}
			}
			for j := 0; j < nrQTile; j++ {
				seed := math.MaxInt32 - int32(rng.Intn(1<<10))
				if r == 1 || (r == 3 && j%2 == 0) {
					seed = math.MinInt32 + int32(rng.Intn(1<<10))
				}
				init[r*nrQTile+j] = seed
			}
		}
		for i := range b {
			b[i] = QMaxU8
			if rng.Intn(8) == 0 {
				b[i] = uint8(rng.Intn(QMaxU8 + 1))
			}
		}
		for _, store := range []bool{false, true} {
			want := append([]int32(nil), init...)
			tileGeneric(4*quads, 4, a, b, want, nrQTile, mrQTile, nrQTile, store)
			if !store && want[0] >= 0 {
				t.Fatalf("quads=%d: tile[0]=%d did not wrap; the test no longer reaches the overflow it is about", quads, want[0])
			}
			got := append([]int32(nil), init...)
			qgemmKernel4x16(int64(quads), &a[0], &b[0], &got[0], int64(nrQTile), store)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("avx2 quads=%d store=%v: tile[%d]=%d want %d", quads, store, i, got[i], want[i])
				}
			}
			if detectVNNI() {
				got = append(got[:0], init...)
				qgemmKernelVNNI4x16(int64(quads), &a[0], &b[0], &got[0], int64(nrQTile), store)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("vnni quads=%d store=%v: tile[%d]=%d want %d", quads, store, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestQGemmKernelNameMatchesDetection pins the INT8 dispatch beside
// TestGemmKernelNameMatchesDetection: the tier descriptor is the one the
// flags select, and the VNNI kernel — ZMM width — is never selected where
// 512-bit execution is not (an old part, or PERCIVAL_NO_AVX512).
func TestQGemmKernelNameMatchesDetection(t *testing.T) {
	want, kind := "portable", tierKindQuad
	switch {
	case haveVNNI:
		want, kind = "avx512-vnni-4x16", tierKindQuadVNNI
	case haveQuantASM:
		want, kind = "avx2-4x16", tierKindQuadAVX2
	}
	if got := QGemmKernelName(); got != want || qgemmTier.name != want || qgemmTier.kind != kind {
		t.Fatalf("QGemmKernelName()=%q, tier %q kind %d, want %q kind %d (haveQuantASM=%v haveVNNI=%v)",
			got, qgemmTier.name, qgemmTier.kind, want, kind, haveQuantASM, haveVNNI)
	}
	if haveVNNI && !haveAVX512 {
		t.Fatal("haveVNNI without haveAVX512: the ZMM kernel would run where 512-bit execution is switched off")
	}
}

// quantTiers lists the tiers this CPU can run, portable first.
func quantTiers() []quantTier {
	tier := func(name string, kind uint8) gemmTierT {
		t := qgemmTier
		t.name, t.kind = name, kind
		return t
	}
	tiers := []quantTier{{gemmTierT: tier("portable", tierKindQuad)}}
	if haveFMA {
		tiers = append(tiers, quantTier{gemmTierT: tier("avx2-4x16", tierKindQuadAVX2), asm: true})
	}
	if detectVNNI() {
		tiers = append(tiers, quantTier{gemmTierT: tier("avx512-vnni-4x16", tierKindQuadVNNI), asm: true, vnni: true})
	}
	return tiers
}

func currentQuantTier() quantTier {
	return quantTier{gemmTierT: qgemmTier, asm: haveQuantASM, vnni: qgemmTier.kind == tierKindQuadVNNI}
}

// useQuantTier installs the tier's descriptor and row-helper flag; tests
// restore the detected tier with defer useQuantTier(currentQuantTier()).
func useQuantTier(q quantTier) { qgemmTier, haveQuantASM = q.gemmTierT, q.asm }
