//go:build amd64

package tensor

import (
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
		for _, store := range []bool{false, true} {
			want := append([]int32(nil), init...)
			if store {
				clear(want)
			}
			qgemmKernelGeneric(quads, a, b, want, nrQTile, false)
			got := append([]int32(nil), init...)
			qgemmKernelGeneric(quads, a, b, got, nrQTile, store)
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

// quantTiers lists the tiers this CPU can run, portable first.
func quantTiers() []quantTier {
	tiers := []quantTier{{name: "portable"}}
	if haveFMA {
		tiers = append(tiers, quantTier{name: "avx2", asm: true})
	}
	if detectVNNI() {
		tiers = append(tiers, quantTier{name: "vnni", asm: true, vnni: true})
	}
	return tiers
}

func currentQuantTier() quantTier { return quantTier{asm: haveQuantASM, vnni: haveVNNI} }

// useQuantTier switches the dispatch flags; tests restore the detected tier
// with defer useQuantTier(currentQuantTier()).
func useQuantTier(q quantTier) { haveQuantASM, haveVNNI = q.asm, q.vnni }
