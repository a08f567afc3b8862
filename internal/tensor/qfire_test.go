package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randQConv draws a quantized convolution for s: random s8 weights in their
// planar (c, ky, kx) order, which it returns beside the stage, packed in
// quad order when quads is set, and requantization constants that spread the
// outputs across the byte range above and below the output zero point zOut.
func randQConv(rng *rand.Rand, s ConvSpec, zp uint8, zOut int32, relu, quads bool) (QConv, []int8) {
	k := s.InC * s.KH * s.KW
	wq, _ := randQOperands(rng, s.OutC, k, 0)
	c := QConv{Spec: s, ZP: zp, RQ: Requant{Mult: make([]float32, s.OutC), Beta: make([]float32, s.OutC), ZOut: zOut, ReLU: relu}}
	for oc := range c.RQ.Mult {
		c.RQ.Mult[oc] = float32((0.5 + rng.Float64()) / (80 * math.Sqrt(float64(k))))
		c.RQ.Beta[oc] = float32(60 + 20*rng.NormFloat64())
	}
	if quads {
		c.W = PackQQuadWeights(wq, s)
	} else {
		c.W = PackQWeights(wq, s.OutC, k)
	}
	return c, wq
}

// randQFire draws a fire of inC input channels, sq squeeze channels and
// expands e1 and e3 wide: zp is the input zero point, zs the squeeze's output
// zero point and with it the expands' input one. It returns the expands'
// planar weights beside it.
func randQFire(rng *rand.Rand, inC, sq, e1, e3 int, zp, zs uint8, relu bool) (f QFire, w1, w3 []int8) {
	f.Squeeze, _ = randQConv(rng, ConvSpec{InC: inC, OutC: sq, KH: 1, KW: 1, StrideH: 1, StrideW: 1}, zp, int32(zs), relu, false)
	zOut := int32(rng.Intn(QMaxU8))
	f.Expand1, w1 = randQConv(rng, ConvSpec{InC: sq, OutC: e1, KH: 1, KW: 1, StrideH: 1, StrideW: 1}, zs, zOut, true, true)
	f.Expand3, w3 = randQConv(rng, ConvSpec{InC: sq, OutC: e3, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, zs, zOut, true, true)
	return f, w1, w3
}

// qfireRef is the fire as the planar engine computes it: the squeeze into
// [n, sq, h, w] planes, then each expand with its weights in (c, ky, kx)
// order into its channels of the concatenated output, all QConvForwardInto.
// It returns the squeeze's planes and the output.
func qfireRef(f *QFire, w1, w3 []int8, x []uint8, n, h, w int) (sq, y []uint8) {
	s, hw := f.Squeeze.Spec, h*w
	sq = make([]uint8, n*s.OutC*hw)
	QConvForwardInto(x, n, h, w, f.Squeeze.W, s, f.Squeeze.ZP, f.Squeeze.RQ, sq, s.OutC, 0)
	y = make([]uint8, n*f.OutC()*hw)
	for _, e := range []struct {
		c     *QConv
		wq    []int8
		chOff int
	}{{&f.Expand1, w1, 0}, {&f.Expand3, w3, f.Expand1.Spec.OutC}} {
		es := e.c.Spec
		planar := PackQWeights(e.wq, es.OutC, es.InC*es.KH*es.KW)
		QConvForwardInto(sq, n, h, w, planar, es, e.c.ZP, e.c.RQ, y, f.OutC(), e.chOff)
	}
	return sq, y
}

// TestQuadFireMatchesPlanar is the INT8 fire's differential test: the squeeze
// writing quad planes and both expands packing their panels from them as
// words (QFire) must equal, byte for byte, the three planar convolutions
// they replace (qfireRef), under every quantized kernel tier the CPU offers.
// The quad planes themselves are checked too, against the planar squeeze
// transposed, with the lanes past the squeeze's width at its zero point and
// a sentinel after the last plane.
//
// Cases: the paper net's first fire of each size (55, 27, 13: h·w % 16 is 1
// or 9, so every plane ends in a ragged tail); the SmallConfig(16) fires,
// whose 1×1 expands take the unblocked small product; squeeze widths that
// are no multiple of 4 (zero-weight lanes fill the last plane), one small
// enough that the 3×3 expand is unblocked too; and a 65×65 fire whose
// squeeze takes two column blocks, the second ragged. Batch 1 and 3, zero
// points 0, 17 and 127, ReLU on and off. One arena serves every call, so
// each reads buffers another call left dirty.
//
// Mutations it catches: the squeeze's tail written by transposeQuad over the
// ragged group (which zero-pads the whole 16-column group into the next
// plane); weights in (ky, kx, c) order without the c/4 plane index; a padding
// fill of 0 instead of four zero points; the small product reading quad row
// p instead of p/4; the padded lanes left unwritten.
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
		{"two squeeze blocks 65", 8, 4, 8, 8, 65, 65},
	}
	const sentinel = 0xEE
	a := NewArena()
	for _, tier := range quantTiers() {
		useQuantTier(tier)
		rng := rand.New(rand.NewSource(50))
		for ci, cc := range cases {
			for bi, n := range []int{1, 3} {
				zp, zs := []uint8{0, 17, 127}[(ci+bi)%3], []uint8{17, 127, 0}[(ci+bi)%3]
				relu := (ci+bi)%2 == 0
				f, w1, w3 := randQFire(rng, cc.inC, cc.sq, cc.e1, cc.e3, zp, zs, relu)
				name := fmt.Sprintf("%s %s batch %d zp %d/%d relu %v", tier.name, cc.name, n, zp, zs, relu)
				hw := cc.h * cc.w
				x := make([]uint8, n*cc.inC*hw)
				for i := range x {
					x[i] = uint8(rng.Intn(QMaxU8 + 1))
				}
				sq, want := qfireRef(&f, w1, w3, x, n, cc.h, cc.w)

				ql := f.quadLen(hw)
				q := make([]uint8, n*ql+4*nrQTile)
				for i := range q {
					q[i] = sentinel
				}
				f.squeezeInto(x, n, hw, q[:n*ql])
				for i := 0; i < n; i++ {
					for g := 0; g < ql/(4*hw); g++ {
						for j := 0; j < hw; j++ {
							for l := 0; l < 4; l++ {
								wv := uint8(zs)
								if c := g*4 + l; c < cc.sq {
									wv = sq[(i*cc.sq+c)*hw+j]
								}
								if got := q[i*ql+(g*hw+j)*4+l]; got != wv {
									t.Fatalf("%s: quad plane %d of image %d, pixel %d lane %d = %d, want %d", name, g, i, j, l, got, wv)
								}
							}
						}
					}
				}
				for i, v := range q[n*ql:] {
					if v != sentinel {
						t.Fatalf("%s: squeeze wrote %d bytes past its quad planes", name, i+1)
					}
				}

				xa := a.GetU8(len(x))
				copy(xa, x)
				y := f.Forward(xa, n, cc.h, cc.w, a)
				if len(y) != len(want) {
					t.Fatalf("%s: %d output bytes, want %d", name, len(y), len(want))
				}
				for i, v := range want {
					if y[i] != v {
						c := i / hw % f.OutC()
						t.Fatalf("%s: y[%d, %d, %d] = %d, planar %d", name, i/hw/f.OutC(), c, i%hw, y[i], v)
					}
				}
				a.PutU8(y)
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
	e, _ := randQConv(rng, s, 17, 3, true, true)
	q := make([]uint8, (s.InC+3)/4*4*13*13)
	for i := range q {
		q[i] = uint8(rng.Intn(QMaxU8 + 1))
	}
	y := make([]uint8, s.OutC*13*13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.quadConvInto(q, 1, 13, 13, y, s.OutC, 0)
	}
}

// BenchmarkQFire55 is the paper net's first fire as inference runs it: 96
// planar channels of 55×55 in, the squeeze into quad planes, both expands
// into the 64-channel concatenated output, every buffer from one arena. Each
// pass copies the input into an arena buffer first (0.29 MB), since the fire
// hands its input back to the arena.
func BenchmarkQFire55(b *testing.B) {
	rng := rand.New(rand.NewSource(35))
	f, _, _ := randQFire(rng, 96, 16, 32, 32, 17, 3, true)
	x := make([]uint8, 96*55*55)
	for i := range x {
		x[i] = uint8(rng.Intn(QMaxU8 + 1))
	}
	a := NewArena()
	run := func() {
		xa := a.GetU8(len(x))
		copy(xa, x)
		a.PutU8(f.Forward(xa, 1, 55, 55, a))
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
