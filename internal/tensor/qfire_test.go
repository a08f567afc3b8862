package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randQConv draws a quantized convolution for s: random s8 weights in their
// planar (c, ky, kx) order, which it returns beside the stage, packed in
// quad order, and requantization constants that spread the outputs across
// the byte range above and below the output zero point zOut.
func randQConv(rng *rand.Rand, s ConvSpec, zp uint8, zOut int32, relu bool) (QConv, []int8) {
	k := s.InC * s.KH * s.KW
	wq, _ := randQOperands(rng, s.OutC, k, 0)
	c := QConv{Spec: s, W: PackQQuadWeights(wq, s), ZP: zp, RQ: Requant{Mult: make([]float32, s.OutC), Beta: make([]float32, s.OutC), ZOut: zOut, ReLU: relu}}
	for oc := range c.RQ.Mult {
		c.RQ.Mult[oc] = float32((0.5 + rng.Float64()) / (80 * math.Sqrt(float64(k))))
		c.RQ.Beta[oc] = float32(60 + 20*rng.NormFloat64())
	}
	return c, wq
}

// randQFire draws a fire of inC input channels, sq squeeze channels and
// expands e1 and e3 wide: zp is the input zero point, zs the squeeze's output
// zero point and with it the expands' input one. It returns the three
// convolutions' planar weights beside it.
func randQFire(rng *rand.Rand, inC, sq, e1, e3 int, zp, zs uint8, relu bool) (f QFire, ws, w1, w3 []int8) {
	f.Squeeze, ws = randQConv(rng, ConvSpec{InC: inC, OutC: sq, KH: 1, KW: 1, StrideH: 1, StrideW: 1}, zp, int32(zs), relu)
	zOut := int32(rng.Intn(QMaxU8))
	f.Expand1, w1 = randQConv(rng, ConvSpec{InC: sq, OutC: e1, KH: 1, KW: 1, StrideH: 1, StrideW: 1}, zs, zOut, true)
	f.Expand3, w3 = randQConv(rng, ConvSpec{InC: sq, OutC: e3, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, zs, zOut, true)
	return f, ws, w1, w3
}

// qconvRef is one quantized convolution by the scalar oracle: the column
// matrix of each planar image in x ([n, InC, h, w]) with zero-point padding
// (oracleCol), times the planar weights wq (qgemmRef), requantized element
// by element (requantPlanes) into [n, OutC, outH, outW] planes.
func qconvRef(c *QConv, wq []int8, x []uint8, n, h, w int) []uint8 {
	s := c.Spec
	oh, ow := s.OutSize(h, w)
	il, ol := s.InC*h*w, s.OutC*oh*ow
	y := make([]uint8, 0, n*ol)
	for i := 0; i < n; i++ {
		acc := qgemmRef(wq, oracleCol(x[i*il:(i+1)*il], s.InC, h, w, s, c.ZP), s.OutC, s.InC*s.KH*s.KW, oh*ow)
		y = append(y, requantPlanes(acc, s.OutC, oh*ow, c.RQ)...)
	}
	return y
}

// qfireRef is the fire by the scalar oracle, from the planar input x: the
// squeeze's planes, and the output's quad planes — Expand1's channels, then
// Expand3's from the next whole plane on, spare lanes at their zero point.
func qfireRef(f *QFire, ws, w1, w3 []int8, x []uint8, n, h, w int) (sq, y []uint8) {
	hw := h * w
	sq = qconvRef(&f.Squeeze, ws, x, n, h, w)
	y1 := qconvRef(&f.Expand1, w1, sq, n, h, w)
	y3 := qconvRef(&f.Expand3, w3, sq, n, h, w)
	e1, e3 := f.Expand1.Spec.OutC, f.Expand3.Spec.OutC
	zOut := func() uint8 { return uint8(f.Expand1.RQ.ZOut) }
	for i := 0; i < n; i++ {
		y = append(y, quadsOf(y1[i*e1*hw:(i+1)*e1*hw], 1, e1, hw, zOut)...)
		y = append(y, quadsOf(y3[i*e3*hw:(i+1)*e3*hw], 1, e3, hw, zOut)...)
	}
	return sq, y
}

// TestQuadFireMatchesPlanar is the INT8 fire's differential test: QFire —
// the squeeze reading quad planes and writing them, both expands packing
// their panels from the squeeze's planes as words and writing the
// concatenated output's planes — must equal, byte for byte, the three
// convolutions by the scalar oracle (qfireRef), under every quantized kernel
// tier the CPU offers. The squeeze's quad planes are checked too, with the
// lanes past the squeeze's width at its zero point and a sentinel after the
// last plane; the input's spare lanes hold random bytes.
//
// Cases: the paper net's first fire of each size (55, 27, 13: h·w % 16 is 1
// or 9, so every plane ends in a ragged tail); the SmallConfig(16) fires,
// whose 1×1 expands take the unblocked small product; squeeze and expand
// widths that are no multiple of 4 (zero-weight lanes fill the last plane;
// Expand3 starts a plane after Expand1's padded last one), one small enough
// that the 3×3 expand is unblocked too; and a 65×65 fire whose squeeze takes
// two column blocks, the second ragged. Batch 1 and 3, zero points 0, 17 and
// 127, ReLU on and off. One arena serves every call, so each reads buffers
// another call left dirty.
//
// Mutations it catches: a tail written by transposeQuad over the ragged
// group (which zero-pads the whole 16-column group into the next plane);
// weights in (ky, kx, c) order without the c/4 plane index; a padding fill
// of 0 instead of four zero points; the small product reading quad row p
// instead of p/4; the padded lanes left unwritten; Expand3 written at
// channel offset Expand1.OutC instead of its plane.
func TestQuadFireMatchesPlanar(t *testing.T) {
	defer useQuantTier(currentQuantTier())
	cases := []struct {
		name            string
		inC, sq, e1, e3 int
		h, w            int
	}{
		{"paper fire1 55", 96, 16, 32, 32, 55, 55},
		{"paper fire3 27", 64, 32, 64, 64, 27, 27},
		{"paper fire5 13", 128, 64, 256, 256, 13, 13},
		{"small16 fire1 8", 16, 8, 8, 8, 8, 8},
		{"small16 fire3 4", 16, 12, 12, 12, 4, 4},
		{"small16 fire5 2", 24, 16, 16, 16, 2, 2},
		{"squeeze 10 at 11×13", 20, 10, 16, 24, 11, 13},
		{"squeeze 5, unblocked 3×3", 12, 5, 7, 9, 3, 3},
		{"squeeze 6 at 1×1", 8, 6, 4, 4, 1, 1},
		{"expands 6 at 5×7", 14, 4, 6, 6, 5, 7},
		{"two squeeze blocks 65", 8, 4, 8, 8, 65, 65},
	}
	const sentinel = 0xEE
	refs := map[[2]int][2][]uint8{} // every tier draws the same cases: one oracle run each
	for _, tier := range quantTiers() {
		useQuantTier(tier)
		rng := rand.New(rand.NewSource(50))
		for ci, cc := range cases {
			for bi, n := range []int{1, 3} {
				zp, zs := []uint8{0, 17, 127}[(ci+bi)%3], []uint8{17, 127, 0}[(ci+bi)%3]
				relu := (ci+bi)%2 == 0
				f, ws, w1, w3 := randQFire(rng, cc.inC, cc.sq, cc.e1, cc.e3, zp, zs, relu)
				name := fmt.Sprintf("%s %s batch %d zp %d/%d relu %v", tier.name, cc.name, n, zp, zs, relu)
				hw := cc.h * cc.w
				x := make([]uint8, n*cc.inC*hw)
				for i := range x {
					x[i] = uint8(rng.Intn(QMaxU8 + 1))
				}
				ref, ok := refs[[2]int{ci, bi}]
				if !ok {
					ref[0], ref[1] = qfireRef(&f, ws, w1, w3, x, n, cc.h, cc.w)
					refs[[2]int{ci, bi}] = ref
				}
				sq, want := ref[0], ref[1]
				xq := quadsOf(x, n, cc.inC, hw, func() uint8 { return uint8(rng.Intn(256)) })

				sqPlanes := quadPlanes(cc.sq)
				wantQ := quadsOf(sq, n, cc.sq, hw, func() uint8 { return zs })
				q := make([]uint8, len(wantQ)+4*nrQTile)
				for i := range q {
					q[i] = sentinel
				}
				u8, i32 := qfireScratch(&f, cc.h, cc.w)
				poison(u8, i32)
				f.Squeeze.ForwardInto(xq, n, cc.h, cc.w, q, sqPlanes, 0, u8, i32)
				for i, v := range wantQ {
					if q[i] != v {
						t.Fatalf("%s: squeeze quad plane %d of image %d, pixel %d lane %d = %d, want %d", name, i/(4*hw)%sqPlanes, i/(4*hw*sqPlanes), i/4%hw, i%4, q[i], v)
					}
				}
				for i, v := range q[len(wantQ):] {
					if v != sentinel {
						t.Fatalf("%s: squeeze wrote %d bytes past its quad planes", name, i+1)
					}
				}

				y := make([]uint8, len(want)+4*nrQTile)
				for i := range y {
					y[i] = sentinel
				}
				poison(u8, i32)
				fireForward(&f, xq, n, cc.h, cc.w, q, y, u8, i32)
				for i, v := range y[len(want):] {
					if v != sentinel {
						t.Fatalf("%s: the fire wrote %d bytes past its output", name, i+1)
					}
				}
				for i, v := range want {
					if y[i] != v {
						planes := len(want) / (n * 4 * hw)
						t.Fatalf("%s: image %d plane %d pixel %d lane %d = %d, oracle %d", name, i/(4*hw*planes), i/(4*hw)%planes, i/4%hw, i%4, y[i], v)
					}
				}
			}
		}
	}
}

// BenchmarkConvExpand3x3U8_13 is BenchmarkConvExpand3x3_13 on the INT8
// engine as the fire runs it: the last fire pair's 3×3 expand at 13×13, its
// panels packed as words from the squeeze's quad planes, GEMM, requantize.
func BenchmarkConvExpand3x3U8_13(b *testing.B) {
	rng := rand.New(rand.NewSource(33))
	s := expand3x3Spec
	e, _ := randQConv(rng, s, 17, 3, true)
	q := make([]uint8, quadPlanes(s.InC)*4*13*13)
	for i := range q {
		q[i] = uint8(rng.Intn(QMaxU8 + 1))
	}
	y := make([]uint8, quadPlanes(s.OutC)*4*13*13)
	u8, i32 := e.ScratchLen(13, 13)
	su8, si32 := make([]uint8, u8), make([]int32, i32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ForwardInto(q, 1, 13, 13, y, quadPlanes(s.OutC), 0, su8, si32)
	}
}

// BenchmarkQFire55 is the paper net's first fire as inference runs it: 96
// channels of 55×55 in quad planes, the squeeze into quad planes, both
// expands into the 64-channel concatenated output, on scratch held across
// passes as a forward plan holds it.
func BenchmarkQFire55(b *testing.B) {
	rng := rand.New(rand.NewSource(35))
	f, _, _, _ := randQFire(rng, 96, 16, 32, 32, 17, 3, true)
	x := make([]uint8, 96*55*55)
	for i := range x {
		x[i] = uint8(rng.Intn(QMaxU8 + 1))
	}
	y := make([]uint8, quadPlanes(f.OutC())*4*55*55)
	sq := make([]uint8, quadPlanes(16)*4*55*55)
	u8, i32 := qfireScratch(&f, 55, 55)
	run := func() { fireForward(&f, x, 1, 55, 55, sq, y, u8, i32) }
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
