package tensor

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// TestParallelForBudgetCoversAllParts checks exactly-once part execution
// now that parallelFor sizes its own fan-out from GOMAXPROCS: at one P (the
// inline path) and at two and four, where helpers race the calling goroutine
// for parts.
func TestParallelForBudgetCoversAllParts(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, parts := range []int{1, 2, 3, 17, 256} {
			hits := make([]int32, parts)
			var mu sync.Mutex
			parallelFor(parts, func(p int) {
				mu.Lock()
				hits[p]++
				mu.Unlock()
			})
			for p, h := range hits {
				if h != 1 {
					t.Fatalf("GOMAXPROCS=%d parts=%d: part %d ran %d times", procs, parts, p, h)
				}
			}
		}
	}
}

// TestBlockedProductsAtOneAndFourProcs runs one above-threshold Gemm and one
// QGemm at GOMAXPROCS 1 (the serial branch) and 4 (the pool fan-out) against
// naive oracles, so both branches of each driver stay covered.
func TestBlockedProductsAtOneAndFourProcs(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	rng := rand.New(rand.NewSource(31))
	m, k, n := 37, 52, 123 // above both parallel thresholds
	a := randSlice(rng, m*k)
	b := randSlice(rng, k*n)
	want := naiveGemmOp(a, b, m, k, n, false, false)
	qa, qb := randQOperands(rng, m, k, n)
	qwant := qgemmRef(qa, qb, m, k, n)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		c := make([]float32, m*n)
		Gemm(a, b, c, m, k, n)
		for i := range c {
			if !relClose(float64(c[i]), float64(want[i]), 1e-3) {
				t.Fatalf("GOMAXPROCS=%d: Gemm c[%d]=%v want %v", procs, i, c[i], want[i])
			}
		}
		qc := make([]int32, m*n)
		QGemm(qa, qb, qc, m, k, n)
		for i := range qc {
			if qc[i] != qwant[i] {
				t.Fatalf("GOMAXPROCS=%d: QGemm c[%d]=%d want %d", procs, i, qc[i], qwant[i])
			}
		}
	}
}
