package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// The variants below are test helpers: no binary calls them, and each is
// one gemmPooled call, so the tests cover every transpose and accumulate
// combination the driver takes.

// GemmAcc computes C += A×B with the same layout as Gemm.
func GemmAcc(a, b, c []float32, m, k, n int) {
	checkGemm("GemmAcc", len(a), len(b), len(c), m, k, n)
	gemmPooled(gemmA{data: a}, gemmB{data: b}, c, m, k, n, true)
}

// GemmTAAcc computes C += Aᵀ×B with A stored K×M.
func GemmTAAcc(a, b, c []float32, m, k, n int) {
	checkGemm("GemmTAAcc", len(a), len(b), len(c), m, k, n)
	gemmPooled(gemmA{data: a, trans: true}, gemmB{data: b}, c, m, k, n, true)
}

// GemmTB computes C = A×Bᵀ where A is M×K, B is stored N×K, C is M×N.
func GemmTB(a, b, c []float32, m, k, n int) {
	checkGemm("GemmTB", len(a), len(b), len(c), m, k, n)
	gemmPooled(gemmA{data: a}, gemmB{data: b, trans: true}, c, m, k, n, false)
}

// relClose reports whether got is within tol relative tolerance of want.
func relClose(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*(1+math.Abs(want))
}

// naiveGemmOp is the reference O(mnk) product handling both transpose
// layouts, independent of the production kernels.
func naiveGemmOp(a, b []float32, m, k, n int, aT, bT bool) []float32 {
	c := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				var av, bv float32
				if aT {
					av = a[p*m+i]
				} else {
					av = a[i*k+p]
				}
				if bT {
					bv = b[j*k+p]
				} else {
					bv = b[p*n+j]
				}
				s += float64(av) * float64(bv)
			}
			c[i*n+j] = float32(s)
		}
	}
	return c
}

// TestGemmVariantsMatchNaiveOddShapes sweeps all three kernel variants over
// odd shapes that hit every edge-tile combination of the blocked path
// (partial micro-panels in M, N, and K) and checks them against the naive
// reference to 1e-4 relative tolerance.
func TestGemmVariantsMatchNaiveOddShapes(t *testing.T) {
	dims := []int{1, 3, 7, 17, 64}
	rng := rand.New(rand.NewSource(11))
	for _, m := range dims {
		for _, k := range dims {
			for _, n := range dims {
				a := randSlice(rng, m*k)
				b := randSlice(rng, k*n)
				at := make([]float32, k*m) // A stored K×M
				for i := 0; i < m; i++ {
					for p := 0; p < k; p++ {
						at[p*m+i] = a[i*k+p]
					}
				}
				bt := make([]float32, n*k) // B stored N×K
				for p := 0; p < k; p++ {
					for j := 0; j < n; j++ {
						bt[j*k+p] = b[p*n+j]
					}
				}
				want := naiveGemmOp(a, b, m, k, n, false, false)
				variants := []struct {
					name string
					run  func(c []float32)
				}{
					{"Gemm", func(c []float32) { Gemm(a, b, c, m, k, n) }},
					{"GemmTA", func(c []float32) { GemmTA(at, b, c, m, k, n) }},
					{"GemmTB", func(c []float32) { GemmTB(a, bt, c, m, k, n) }},
				}
				for _, v := range variants {
					c := make([]float32, m*n)
					v.run(c)
					for i := range c {
						if !relClose(float64(c[i]), float64(want[i]), 1e-4) {
							t.Fatalf("%s m=%d k=%d n=%d: c[%d]=%v want %v", v.name, m, k, n, i, c[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestGemmLargeShapesMatchNaive exercises the fully blocked path at shapes
// past every blocking boundary — {133, 257, 2065} spans two MC (132), two KC
// (256), and two NC (2048) blocks at once — for all three layout variants,
// so cross-block accumulation and boundary packing stay covered.
func TestGemmLargeShapesMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, dims := range [][3]int{{133, 257, 2065}, {6, 300, 16}, {150, 31, 100}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := randSlice(rng, m*k)
		b := randSlice(rng, k*n)
		at := make([]float32, k*m)
		for i := 0; i < m; i++ {
			for p := 0; p < k; p++ {
				at[p*m+i] = a[i*k+p]
			}
		}
		bt := make([]float32, n*k)
		for p := 0; p < k; p++ {
			for j := 0; j < n; j++ {
				bt[j*k+p] = b[p*n+j]
			}
		}
		want := naiveGemmOp(a, b, m, k, n, false, false)
		for _, v := range []struct {
			name string
			run  func(c []float32)
		}{
			{"Gemm", func(c []float32) { Gemm(a, b, c, m, k, n) }},
			{"GemmTA", func(c []float32) { GemmTA(at, b, c, m, k, n) }},
			{"GemmTB", func(c []float32) { GemmTB(a, bt, c, m, k, n) }},
		} {
			c := make([]float32, m*n)
			v.run(c)
			for i := range c {
				if !relClose(float64(c[i]), float64(want[i]), 1e-3) {
					t.Fatalf("%s dims %v: c[%d]=%v want %v", v.name, dims, i, c[i], want[i])
				}
			}
		}
	}
}

// TestGemmTAOversizedBackingSlice is the regression test for the bug where
// gemmTARows derived m from len(a)/k: with a backing slice larger than k*m,
// the transposed indexing read the wrong elements and produced garbage.
func TestGemmTAOversizedBackingSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m, k, n := 5, 7, 9
	at := randSlice(rng, k*m+37) // oversized: len(a)/k != m
	b := randSlice(rng, k*n+11)
	c := make([]float32, m*n+5)
	GemmTA(at, b, c, m, k, n)
	want := naiveGemmOp(at, b, m, k, n, true, false)
	for i := 0; i < m*n; i++ {
		if !relClose(float64(c[i]), float64(want[i]), 1e-4) {
			t.Fatalf("c[%d]=%v want %v (oversized backing slice)", i, c[i], want[i])
		}
	}
	// The same property must hold on the blocked path.
	m, k, n = 64, 48, 80
	at = randSlice(rng, k*m+129)
	b = randSlice(rng, k*n+7)
	c = make([]float32, m*n+3)
	GemmTA(at, b, c, m, k, n)
	want = naiveGemmOp(at, b, m, k, n, true, false)
	for i := 0; i < m*n; i++ {
		if !relClose(float64(c[i]), float64(want[i]), 1e-4) {
			t.Fatalf("blocked: c[%d]=%v want %v (oversized backing slice)", i, c[i], want[i])
		}
	}
}

// TestGemmAccVariantsAccumulate verifies the Acc entry points add onto the
// existing C contents for all three layouts.
func TestGemmAccVariantsAccumulate(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	m, k, n := 9, 6, 11
	a := randSlice(rng, m*k)
	b := randSlice(rng, k*n)
	at := make([]float32, k*m)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			at[p*m+i] = a[i*k+p]
		}
	}
	bt := make([]float32, n*k)
	for p := 0; p < k; p++ {
		for j := 0; j < n; j++ {
			bt[j*k+p] = b[p*n+j]
		}
	}
	prod := naiveGemmOp(a, b, m, k, n, false, false)
	for _, v := range []struct {
		name string
		run  func(c []float32)
	}{
		{"GemmAcc", func(c []float32) { GemmAcc(a, b, c, m, k, n) }},
		{"GemmTAAcc", func(c []float32) { GemmTAAcc(at, b, c, m, k, n) }},
		{"GemmTBAcc", func(c []float32) { GemmTBAcc(a, bt, c, m, k, n) }},
	} {
		c := make([]float32, m*n)
		for i := range c {
			c[i] = float32(i%3) - 1
		}
		v.run(c)
		for i := range c {
			want := float64(prod[i]) + float64(float32(i%3)-1)
			if !relClose(float64(c[i]), want, 1e-4) {
				t.Fatalf("%s: c[%d]=%v want %v", v.name, i, c[i], want)
			}
		}
	}
}

// TestGemmPanicsNameEntryPoint shorts each operand of each product entry
// point by one element in turn: the panic must name the entry point, the
// short buffer and the length it needed.
func TestGemmPanicsNameEntryPoint(t *testing.T) {
	const m, k, n = 3, 4, 5
	f32 := func(fn func(a, b, c []float32, m, k, n int)) func(la, lb, lc int) {
		return func(la, lb, lc int) { fn(make([]float32, la), make([]float32, lb), make([]float32, lc), m, k, n) }
	}
	for _, e := range []struct {
		name string
		run  func(la, lb, lc int)
	}{
		{"Gemm", f32(Gemm)},
		{"GemmAcc", f32(GemmAcc)},
		{"GemmTA", f32(GemmTA)},
		{"GemmTAAcc", f32(GemmTAAcc)},
		{"GemmTB", f32(GemmTB)},
		{"GemmTBAcc", f32(GemmTBAcc)},
		{"QGemm", func(la, lb, lc int) { QGemm(make([]int8, la), make([]uint8, lb), make([]int32, lc), m, k, n) }},
	} {
		lens := [3]int{m * k, k * n, m * n}
		for i, buf := range []string{"a", "b", "c"} {
			short := lens
			short[i]--
			msg := panicMessage(t, e.name, func() { e.run(short[0], short[1], short[2]) })
			want := fmt.Sprintf("tensor: %s: %s has %d elements, need %d", e.name, buf, short[i], lens[i])
			if msg != want {
				t.Errorf("%s with %s short: panic %q, want %q", e.name, buf, msg, want)
			}
		}
	}
}

// TestGemmConcurrentSharedPool hammers the persistent worker pool from many
// goroutines at once (run under -race to check the pool's synchronization).
func TestGemmConcurrentSharedPool(t *testing.T) {
	old := runtime.GOMAXPROCS(4) // force the parallel path even on 1-CPU CI
	defer runtime.GOMAXPROCS(old)
	rng := rand.New(rand.NewSource(15))
	m, k, n := 37, 52, 123 // above gemmParallelThreshold, odd edges
	a := randSlice(rng, m*k)
	b := randSlice(rng, k*n)
	want := naiveGemmOp(a, b, m, k, n, false, false)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := make([]float32, m*n)
			for iter := 0; iter < 10; iter++ {
				Gemm(a, b, c, m, k, n)
				for i := range c {
					if !relClose(float64(c[i]), float64(want[i]), 1e-3) {
						errs <- fmt.Errorf("c[%d]=%v want %v", i, c[i], want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// TestParallelForCoversAllParts checks the pool's part distribution is
// exactly-once for each part.
func TestParallelForCoversAllParts(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
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
				t.Fatalf("parts=%d: part %d ran %d times", parts, p, h)
			}
		}
	}
}

func benchGemm(b *testing.B, m, k, n int) {
	a := make([]float32, m*k)
	bb := make([]float32, k*n)
	c := make([]float32, m*n)
	for i := range a {
		a[i] = float32(i%7) - 3
	}
	for i := range bb {
		bb[i] = float32(i%5) - 2
	}
	b.SetBytes(int64(2 * m * k * n * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemm(a, bb, c, m, k, n)
	}
}

// Shapes from the PERCIVAL fork's hot path: a fire expand3 at 56², the
// paper-scale stem, and a mid-network fire.
func BenchmarkGemm64x144x3136(b *testing.B)  { benchGemm(b, 64, 144, 3136) }
func BenchmarkGemm96x196x12544(b *testing.B) { benchGemm(b, 96, 196, 12544) }
func BenchmarkGemm256x64x784(b *testing.B)   { benchGemm(b, 256, 64, 784) }
