//go:build amd64

package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// quadKernel is one assembly quad micro-kernel at its tile geometry.
type quadKernel struct {
	name   string
	mr, nr int
	run    func(quads int64, a *int8, b *uint8, c *int32, ldc int64, store bool)
}

// quadKernels lists the assembly quad kernels this CPU can run.
func quadKernels() []quadKernel {
	var ks []quadKernel
	if haveFMA {
		ks = append(ks, quadKernel{"avx2-4x16", mrQTile, nrQTile, qgemmKernel4x16})
	}
	if detectVNNI() {
		ks = append(ks, quadKernel{"avx512-vnni-8x32", vnniQTier.mr, vnniQTier.nr, qgemmKernelVNNI8x32})
	}
	return ks
}

// checkQuadKernel runs kernel k on the packed panels a and b, onto the tile
// init — accumulating, and storing over it, which must equal accumulating
// onto a zero tile — against the portable kernel at the same geometry, in a
// C whose rows sit ldc = nr+5 apart: the kernel must leave the columns
// between its rows alone.
func checkQuadKernel(t *testing.T, k quadKernel, quads int, a []int8, b []uint8, init []int32, what string) {
	t.Helper()
	ldc := k.nr + 5
	c := make([]int32, k.mr*ldc)
	for r := 0; r < k.mr; r++ {
		copy(c[r*ldc:], init[r*k.nr:(r+1)*k.nr])
		for j := k.nr; j < ldc; j++ {
			c[r*ldc+j] = int32(0x5EED0000 + r*ldc + j)
		}
	}
	for _, store := range []bool{false, true} {
		want := append([]int32(nil), c...)
		if store {
			for r := 0; r < k.mr; r++ {
				clear(want[r*ldc : r*ldc+k.nr])
			}
		}
		tileGeneric(4*quads, 4, a, b, want, ldc, k.mr, k.nr, false)
		got := append([]int32(nil), c...)
		k.run(int64(quads), &a[0], &b[0], &got[0], int64(ldc), store)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s %s quads=%d store=%v: c[%d,%d]=%d want %d", k.name, what, quads, store, i/ldc, i%ldc, got[i], want[i])
			}
		}
	}
}

// TestQGemmKernelMatchesGeneric checks the assembly micro-kernels against the
// portable one on identical packed panels at their own tile geometry: the
// AVX2 4×16 tile at a few depths, the VNNI 8×32 tile at every depth from 1
// to 150 quads, odd and even (the unrolled pair loop and its tail), on
// random operands — negative weights, so an operand-order bug cannot pass —
// and on the extremes, 255 × −128 on every lane (QMaxU8 × −128 for the
// AVX2 kernel, whose activations are 7-bit).
func TestQGemmKernelMatchesGeneric(t *testing.T) {
	if !haveQuantASM {
		t.Skip("no quantized assembly kernel on this platform")
	}
	rng := rand.New(rand.NewSource(12))
	for _, k := range quadKernels() {
		depths := []int{1, 2, 3, 17, 64}
		if k.mr == 8 {
			depths = depths[:0]
			for q := 1; q <= 150; q++ {
				depths = append(depths, q)
			}
		}
		for _, quads := range depths {
			a := make([]int8, quads*k.mr*4)
			b := make([]uint8, quads*k.nr*4)
			init := make([]int32, k.mr*k.nr)
			for i := range init {
				init[i] = int32(rng.Intn(1000) - 500)
			}
			for i := range a {
				a[i] = int8(rng.Intn(255) - 127)
			}
			for i := range b {
				b[i] = uint8(rng.Intn(QMaxU8 + 1))
			}
			checkQuadKernel(t, k, quads, a, b, init, "random")
			// VPDPBUSD sums byte products in int32, so any u8 goes; the
			// AVX2 kernel's pairwise int16 sums need activations ≤ QMaxU8.
			top := uint8(255)
			if k.mr == mrQTile {
				top = QMaxU8
			}
			for i := range a {
				a[i] = -128
			}
			for i := range b {
				b[i] = top
			}
			checkQuadKernel(t, k, quads, a, b, init, fmt.Sprintf("%d×−128", top))
		}
	}
}

// TestQGemmKernelWrapsLikeGeneric drives the accumulators through int32
// overflow: a C tile seeded within 2¹⁰ of MaxInt32 / MinInt32 under
// full-range ±127 × 127 operands. The kernels add in wrapping int32, as the
// portable kernel does; a saturating add anywhere on the way would show
// here and nowhere else.
func TestQGemmKernelWrapsLikeGeneric(t *testing.T) {
	if !haveQuantASM {
		t.Skip("no quantized assembly kernel on this platform")
	}
	rng := rand.New(rand.NewSource(14))
	for _, k := range quadKernels() {
		for _, quads := range []int{1, 2, 3, 4, 5, 17, 64, 129} {
			a := make([]int8, quads*k.mr*4)
			b := make([]uint8, quads*k.nr*4)
			init := make([]int32, k.mr*k.nr)
			for r := 0; r < k.mr; r++ {
				// Rows 0 and 1 (mod 4) push one way for the whole product, so
				// their sums cross the int32 boundary and stay across; rows 2
				// and 3 draw signs at random and cross it back and forth.
				for q := 0; q < quads; q++ {
					for p := 0; p < 4; p++ {
						v := int8(127)
						if r%4 == 1 || (r%4 >= 2 && rng.Intn(2) == 0) {
							v = -127
						}
						a[(q*k.mr+r)*4+p] = v
					}
				}
				for j := 0; j < k.nr; j++ {
					seed := math.MaxInt32 - int32(rng.Intn(1<<10))
					if r%4 == 1 || (r%4 == 3 && j%2 == 0) {
						seed = math.MinInt32 + int32(rng.Intn(1<<10))
					}
					init[r*k.nr+j] = seed
				}
			}
			for i := range b {
				b[i] = QMaxU8
				if rng.Intn(8) == 0 {
					b[i] = uint8(rng.Intn(QMaxU8 + 1))
				}
			}
			wrapped := append([]int32(nil), init...)
			tileGeneric(4*quads, 4, a, b, wrapped, k.nr, k.mr, k.nr, false)
			if wrapped[0] >= 0 {
				t.Fatalf("quads=%d: tile[0]=%d did not wrap; the test no longer reaches the overflow it is about", quads, wrapped[0])
			}
			checkQuadKernel(t, k, quads, a, b, init, "wrapping")
		}
	}
}

// TestQGemmKernelNameMatchesDetection pins the INT8 dispatch beside
// TestGemmKernelNameMatchesDetection: the tier descriptor is the one the
// flags select, and the VNNI kernel — ZMM width — is never selected where
// 512-bit execution is not (an old part, or PERCIVAL_NO_AVX512).
func TestQGemmKernelNameMatchesDetection(t *testing.T) {
	want, kind, mr, nr := "portable", tierKindQuad, mrQTile, nrQTile
	switch {
	case haveVNNI:
		want, kind, mr, nr = "avx512-vnni-8x32", tierKindQuadVNNI, 8, 32
	case haveQuantASM:
		want, kind = "avx2-4x16", tierKindQuadAVX2
	}
	if got := QGemmKernelName(); got != want || qgemmTier.name != want || qgemmTier.kind != kind || qgemmTier.mr != mr || qgemmTier.nr != nr {
		t.Fatalf("QGemmKernelName()=%q, tier %q kind %d %d×%d, want %q kind %d %d×%d (haveQuantASM=%v haveVNNI=%v)",
			got, qgemmTier.name, qgemmTier.kind, qgemmTier.mr, qgemmTier.nr, want, kind, mr, nr, haveQuantASM, haveVNNI)
	}
	if haveVNNI && !haveAVX512 {
		t.Fatal("haveVNNI without haveAVX512: the ZMM kernel would run where 512-bit execution is switched off")
	}
}

// quantTiers lists the tiers this CPU can run, portable first, each at its
// own geometry.
func quantTiers() []quantTier {
	tiers := []quantTier{{gemmTierT: gemmTierT{name: "portable", kind: tierKindQuad, mr: mrQTile, nr: nrQTile, mc: mcQBlock, kc: kcQBlock, nc: ncQBlock}}}
	if haveFMA {
		avx2 := tiers[0].gemmTierT
		avx2.name, avx2.kind = "avx2-4x16", tierKindQuadAVX2
		tiers = append(tiers, quantTier{gemmTierT: avx2, asm: true})
	}
	if detectVNNI() {
		tiers = append(tiers, quantTier{gemmTierT: vnniQTier, asm: true, vnni: true})
	}
	return tiers
}

func currentQuantTier() quantTier {
	return quantTier{gemmTierT: qgemmTier, asm: haveQuantASM, vnni: qgemmTier.kind == tierKindQuadVNNI}
}

// useQuantTier installs the tier's descriptor and row-helper flag; tests
// restore the detected tier with defer useQuantTier(currentQuantTier()).
func useQuantTier(q quantTier) { qgemmTier, haveQuantASM = q.gemmTierT, q.asm }

// BenchmarkQKernelTile times the assembly quad kernels alone on hot L1
// panels at the depths the paper net runs them — 49 quads (the stem's 7×7
// taps of one pixel word each) and 144 (a 3×3 expand over 16 squeeze
// planes) — accumulating into one tile, and reports dots/ns: int32 lanes
// updated with one 4-byte dot product each, mr·nr·quads a call. The VNNI
// tile is the INT8 engine's issue rate on AVX-512 parts.
func BenchmarkQKernelTile(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	for _, k := range quadKernels() {
		for _, quads := range []int{49, 144} {
			b.Run(fmt.Sprintf("%s/quads=%d", k.name, quads), func(b *testing.B) {
				a := make([]int8, quads*k.mr*4)
				for i := range a {
					a[i] = int8(rng.Intn(255) - 127)
				}
				bp := make([]uint8, quads*k.nr*4)
				for i := range bp {
					bp[i] = uint8(rng.Intn(QMaxU8 + 1))
				}
				c := make([]int32, k.mr*k.nr)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k.run(int64(quads), &a[0], &bp[0], &c[0], int64(k.nr), false)
				}
				b.ReportMetric(float64(k.mr*k.nr*quads)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "dots/ns")
			})
		}
	}
}

// TestPoolI32K3S2MatchesPoolRow pins the one-pass 3×3/2 accumulator pool
// to the separable one (poolRow) for every row width whose pooled row has 8
// to 40 outputs, odd and even, over several pooled rows at once and
// accumulators near both ends of the int32 range; the word after its last
// output stays untouched, and the input past the last window's last column,
// MaxInt32 everywhere, never reaches an output.
func TestPoolI32K3S2MatchesPoolRow(t *testing.T) {
	if !haveQuantASM {
		t.Skip("no AVX2+FMA on this CPU")
	}
	rng := rand.New(rand.NewSource(16))
	p := PoolSpec{K: 3, Stride: 2}
	for w := 17; w <= 82; w++ {
		_, pow := p.OutSize(3, w)
		for _, rows := range []int{1, 4} {
			src := make([]int32, (2*rows+1)*w)
			for i := range src {
				src[i] = math.MaxInt32
				if i <= 2*rows*w+2*pow {
					src[i] = []int32{math.MinInt32, math.MaxInt32 - 1, -1, 0, rng.Int31() - 1<<30}[rng.Intn(5)]
				}
			}
			want := make([]int32, rows*pow+1)
			scratch := make([]int32, p.ScratchLen(w))
			for r := 0; r < rows; r++ {
				poolRow(want[r*pow:(r+1)*pow], src[2*r*w:], w, p, scratch)
			}
			want[rows*pow] = 0x5EED
			got := make([]int32, len(want))
			got[rows*pow] = 0x5EED
			poolI32K3S2(&got[0], &src[0], int64(w), int64(pow), int64(rows))
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("w=%d pow=%d rows=%d: [%d]=%d want %d", w, pow, rows, i, got[i], want[i])
				}
			}
		}
	}
}

// FuzzPoolI32K3S2 holds the one-pass 3×3/2 accumulator pool, which every
// INT8 pool of the paper net runs, to the separable one (poolRow) on slabs of
// fuzzed accumulators: pooled widths 8, 9, 15, 16 and 17 (one vector, one
// past it, either side of two), odd and even row widths, 1–3 pooled rows.
// The slab is the input's bytes, four a little-endian accumulator, repeated
// to fill it; past the last window's last column it is MaxInt32, which no
// output may take, and the word after the last output must stay untouched.
// The seeds run under go test; make fuzz explores.
func FuzzPoolI32K3S2(f *testing.F) {
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 15; i++ {
		data := make([]byte, 4*(1+rng.Intn(400)))
		rng.Read(data)
		// Accumulators at both ends of the int32 range, and ties.
		for j := 0; j+4 <= len(data); j += 4 * (1 + rng.Intn(5)) {
			binary.LittleEndian.PutUint32(data[j:], []uint32{0x80000000, 0x7FFFFFFE, 0xFFFFFFFF, 0}[rng.Intn(4)])
		}
		f.Add(uint8(i%5), uint8(i/5), i%2 == 1, data)
	}
	widths := [...]int{8, 9, 15, 16, 17}
	f.Fuzz(func(t *testing.T, width, rows uint8, odd bool, data []byte) {
		if !haveQuantASM {
			t.Skip("no AVX2+FMA on this CPU")
		}
		p := PoolSpec{K: 3, Stride: 2}
		pow, n := widths[int(width)%len(widths)], 1+int(rows)%3
		w := 2*pow + 2
		if odd {
			w--
		}
		src := make([]int32, (2*n+1)*w)
		last := 2*n*w + 2*pow // the last window's bottom-right accumulator
		for i := range src {
			src[i] = math.MaxInt32
			if i <= last && len(data) >= 4 {
				j := 4 * i % (len(data) / 4 * 4)
				src[i] = int32(binary.LittleEndian.Uint32(data[j:]))
			}
		}
		want := make([]int32, n*pow+1)
		scratch := make([]int32, p.ScratchLen(w))
		for r := 0; r < n; r++ {
			poolRow(want[r*pow:(r+1)*pow], src[2*r*w:], w, p, scratch)
		}
		want[n*pow] = 0x5EED
		got := make([]int32, len(want))
		got[n*pow] = 0x5EED
		poolI32K3S2(&got[0], &src[0], int64(w), int64(pow), int64(n))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("w=%d pow=%d rows=%d: [%d]=%d want %d", w, pow, n, i, got[i], want[i])
			}
		}
	})
}

// FuzzCopyTaps holds the panel copy every convolution operand packs
// through (copyTaps, see packTaps) to the plain Go copy loop: segments of 1
// to 33 words, panel steps of 64 and 128 bytes (the 16- and 32-word tiles
// of both engines), 1 to 8 taps at offsets drawn from the input — a segment
// wider than a panel row only as a single tap, the unblocked path's row.
// The source ends at the last byte a tap reads and the panel rows at the
// last byte written; the buffer around them, and each row's bytes past its
// segment, must come out as the Go loop leaves them. The seeds run under go
// test; make fuzz explores.
func FuzzCopyTaps(f *testing.F) {
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 16; i++ {
		data := make([]byte, 1+rng.Intn(64))
		rng.Read(data)
		f.Add(uint8(i*3), i%2 == 1, uint8(i), data)
	}
	const guard = 64
	f.Fuzz(func(t *testing.T, width uint8, wide bool, taps uint8, data []byte) {
		if !haveQuantASM {
			t.Skip("no AVX2+FMA on this CPU")
		}
		if len(data) == 0 {
			return
		}
		n, step, quads := 1+int(width)%33, 64, 1+int(taps)%8
		if wide {
			step = 128
		}
		if 4*n > step {
			quads = 1
		}
		offs := make([]int, quads)
		reach := 0
		for q := range offs {
			offs[q] = 4 * (int(data[q%len(data)]) + q*int(data[0]))
			reach = max(reach, offs[q])
		}
		src := make([]byte, reach+4*n)
		for i := range src {
			src[i] = data[i%len(data)] ^ byte(i)
		}
		want := make([]byte, guard+(quads-1)*step+4*n+guard)
		for i := range want {
			want[i] = 0xA5
		}
		got := append([]byte(nil), want...)
		for q, off := range offs {
			copy(want[guard+q*step:][:4*n], src[off:])
		}
		copyTaps(&got[guard], int64(step), &src[0], &offs[0], int64(quads), int64(n))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d step=%d taps %v: byte %d (panel byte %d) = %#x, want %#x", n, step, offs, i, i-guard, got[i], want[i])
			}
		}
	})
}

// TestQGemmVNNITierMatchesAVX2Tier is the INT8 twin of
// TestGemmAVX512TierMatchesAVX2Tier: whole blocked products under the
// AVX512-VNNI 8×32 tier and the AVX2 4×16 tier must be bit-identical —
// integer sums do not depend on the tile that adds them — across every
// m%8, n%32 and quad-depth class, and so must the paper net's INT8 pass end
// to end: the stem with pool1 from RGBA bytes, six fires with pools after
// the second and fourth, and the classifier's accumulators, on seeded
// random weights and requantization constants. The portable tier joins the
// paper net's comparison outside -race.
func TestQGemmVNNITierMatchesAVX2Tier(t *testing.T) {
	if !detectVNNI() {
		t.Skip("no AVX512-VNNI on this CPU")
	}
	defer useQuantTier(currentQuantTier())
	tiers := quantTiers()
	vnni, avx2 := tiers[len(tiers)-1], tiers[1]
	// The blocked driver alone, whatever the product's size.
	product := func(q quantTier, a []int8, b []uint8, m, k, n int) []int32 {
		useQuantTier(q)
		tier := q.gemmTierT
		c := make([]int32, m*n)
		bop := qgemmB{data: b, ld: n, stage: make([]uint8, 4*n)}
		panels, buf := QWeights{data: a}.panels(tier, m, k)
		bp := make([]uint8, bBlockLen(tier, k, min(tier.nc, n)))
		for jc := 0; jc < n; jc += tier.nc {
			blocked[int8, uint8](&bop, tier, panels, bp, c, jc, n, m, k, jc, min(tier.nc, n-jc), false)
		}
		PutScratchI8(buf)
		return c
	}
	rng := rand.New(rand.NewSource(17))
	for _, k := range []int{3, 4, 196, 513, 576} {
		for _, m := range []int{1, 4, 7, 8, 9, 17, 96, 129} {
			for _, n := range []int{1, 16, 31, 32, 33, 63, 97, 169} {
				a, b := randQOperands(rng, m, k, n)
				c8, c4 := product(vnni, a, b, m, k, n), product(avx2, a, b, m, k, n)
				for i := range c8 {
					if c8[i] != c4[i] {
						t.Fatalf("m=%d k=%d n=%d: c[%d]=%d (vnni) vs %d (avx2)", m, k, n, i, c8[i], c4[i])
					}
				}
			}
		}
	}

	// The paper net: stem 96 and pool1 at 224, fires (squeeze, expand
	// 1×1 + 3×3) of 16/32+32 at 55, 32/64+64 at 27, 64/256+256 at 13, the
	// 2-class classifier.
	stemW, _ := randQOperands(rng, stemSpec.OutC, stemSpec.InC*stemSpec.KH*stemSpec.KW, 0)
	stem := QStem{Spec: stemSpec, ZP: 17, Pool: PoolSpec{K: 3, Stride: 2},
		RQ: Requant{Mult: make([]float32, stemSpec.OutC), Beta: make([]float32, stemSpec.OutC), ZOut: 3, ReLU: true}}
	for oc := range stem.RQ.Mult {
		stem.RQ.Mult[oc], stem.RQ.Beta[oc] = float32((0.5+rng.Float64())/(80*math.Sqrt(196))), float32(40+10*rng.NormFloat64())
	}
	type fireAt struct {
		f       QFire
		res     int
		poolAft bool
	}
	var fires []fireAt
	inC := stemSpec.OutC
	for i, d := range [][3]int{{16, 32, 32}, {16, 32, 32}, {32, 64, 64}, {32, 64, 64}, {64, 256, 256}, {64, 256, 256}} {
		f, _, _, _ := randQFire(rng, inC, d[0], d[1], d[2], 3, uint8(rng.Intn(20)), true)
		fires = append(fires, fireAt{f: f, res: []int{55, 27, 13}[i/2], poolAft: i == 1 || i == 3})
		inC = f.OutC()
	}
	classifier, _ := randQConv(rng, ConvSpec{InC: inC, OutC: 2, KH: 1, KW: 1, StrideH: 1, StrideW: 1}, 9, 0, false)
	pix := make([]uint8, 224*224*4)
	for i := range pix {
		pix[i] = uint8(rng.Intn(256))
	}
	var lut [256]uint8
	for i := range lut {
		lut[i] = uint8(i / 2)
	}
	pass := func(q quantTier) []int32 {
		useQuantTier(q)
		stem.W = PackQQuadWeights(stemW, stemSpec)
		x := make([]uint8, quadPlanes(96)*4*55*55)
		u8, i32 := qstemScratch(&stem, 224, 224)
		stem.ForwardInto(pix, 1, 224, 224, &lut, x, u8, i32)
		for _, fa := range fires {
			f, res := fa.f, fa.res
			sq, y := make([]uint8, quadPlanes(f.Squeeze.Spec.OutC)*4*res*res), make([]uint8, quadPlanes(f.OutC())*4*res*res)
			fu8, fi32 := qfireScratch(&f, res, res)
			fireForward(&f, x, 1, res, res, sq, y, fu8, fi32)
			x = y
			if fa.poolAft {
				x = maxPoolQuadsRef(x, quadPlanes(f.OutC()), res, res, PoolSpec{K: 3, Stride: 2})
			}
		}
		acc := make([]int32, 2*13*13)
		cu8, _ := classifier.ScratchLen(13, 13)
		classifier.AccInto(x, 13, 13, acc, make([]uint8, cu8))
		return acc
	}
	want := pass(avx2)
	others := []quantTier{vnni}
	if !raceEnabled {
		others = append(others, tiers[0])
	}
	for _, q := range others {
		got := pass(q)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("paper net: classifier accumulator %d = %d on %s, %d on %s", i, got[i], q.name, want[i], avx2.name)
			}
		}
	}
}
