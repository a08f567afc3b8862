package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// edgeRequant draws m channels' requantization onto its edges, where a
// window maximum is most easily taken in the wrong domain: per channel a
// constant map (Mult 0), a map so flat that neighbouring accumulators land
// on one byte, one so steep that most clamp at 0 or QMaxU8 (or zOut under
// ReLU), and Beta on a rounding midpoint.
func edgeRequant(rng *rand.Rand, m int, zOut int32) Requant {
	rq := Requant{Mult: make([]float32, m), Beta: make([]float32, m), ZOut: zOut}
	for oc := range rq.Mult {
		switch oc % 4 {
		case 0: // one byte everywhere
			rq.Mult[oc], rq.Beta[oc] = 0, float32(rng.Intn(QMaxU8+1))
		case 1: // neighbouring accumulators share a byte
			rq.Mult[oc], rq.Beta[oc] = 1.0/64, float32(zOut)+0.5
		case 2: // most values clamp at one end or the other
			rq.Mult[oc], rq.Beta[oc] = 9, float32(zOut)-2.5
		default:
			rq.Mult[oc], rq.Beta[oc] = 0.75, float32(rng.Intn(QMaxU8+1))+0.5
		}
	}
	return rq
}

// tieWeights draws s8 weights in {-1, 0, 1}: over a handful of input values
// the accumulators then tie within a window.
func tieWeights(rng *rand.Rand, n int) []int8 {
	wq := make([]int8, n)
	for i := range wq {
		wq[i] = int8(rng.Intn(3) - 1)
	}
	return wq
}

// tieBytes are the input bytes the tie tests draw from.
var tieBytes = []uint8{0, 1, 2, 3, 126, 127, 255}

// TestQStemPoolMatchesStemThenPool pins the fused INT8 stem to the two
// stages it replaces: QStem with a pool must equal, byte for byte, the same
// stem without one — its output materialized as quad planes — followed by a
// window scan (maxPoolQuadsRef), on tie weights and pixels and edge
// requantizations (edgeRequant). Every tier; batch 1 and 2, default blocks
// and one-row blocks — so windows straddle blocks and rows are carried
// between them — on the small cases.
func TestQStemPoolMatchesStemThenPool(t *testing.T) {
	defer useQuantTier(currentQuantTier())
	defer func(cols int) { qpoolBlockCols = cols }(qpoolBlockCols)
	cases := []struct {
		name string
		s    ConvSpec
		pool PoolSpec
		h, w int
	}{
		{"paper 224", stemSpec, PoolSpec{K: 3, Stride: 2}, 224, 224},
		{"paper shape 45×61", ConvSpec{InC: 4, OutC: 13, KH: 7, KW: 7, StrideH: 2, StrideW: 2, PadH: 3, PadW: 3}, PoolSpec{K: 3, Stride: 2}, 45, 61},
		{"stride 1 pool 2/2", ConvSpec{InC: 3, OutC: 9, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, PoolSpec{K: 2, Stride: 2}, 30, 34},
		{"overlapping pool 3/1", ConvSpec{InC: 4, OutC: 6, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, PoolSpec{K: 3, Stride: 1}, 19, 40},
		{"pool stride past window", ConvSpec{InC: 2, OutC: 5, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, PoolSpec{K: 2, Stride: 3}, 23, 33},
	}
	for _, tier := range quantTiers() {
		useQuantTier(tier)
		rng := rand.New(rand.NewSource(61))
		for ci, cc := range cases {
			s := cc.s
			wq := tieWeights(rng, s.OutC*s.InC*s.KH*s.KW)
			zOut := []int32{0, 9, QMaxU8}[ci%3]
			rq := edgeRequant(rng, s.OutC, zOut)
			for _, relu := range []bool{true, false} {
				rq.ReLU = relu
				fused := QStem{Spec: s, W: PackQQuadWeights(wq, s), RQ: rq, ZP: uint8(zOut), Pool: cc.pool}
				plain := fused
				plain.Pool = PoolSpec{}
				oh, ow := s.OutSize(cc.h, cc.w)
				planes := quadPlanes(s.OutC)
				batches, blocks := []int{1, 2}, []int{1024, 1}
				if cc.h*cc.w > 64*64 {
					batches, blocks = batches[:1], blocks[:1] // the small cases cover both
				}
				for _, n := range batches {
					pix := make([]uint8, n*cc.h*cc.w*4)
					for i := range pix {
						pix[i] = tieBytes[rng.Intn(len(tieBytes))]
					}
					full := make([]uint8, n*planes*4*oh*ow)
					u8, i32 := qstemScratch(&plain, cc.h, cc.w)
					plain.ForwardInto(pix, n, cc.h, cc.w, nil, full, u8, i32)
					want := maxPoolQuadsRef(full, n*planes, oh, ow, cc.pool)
					for _, cols := range blocks {
						qpoolBlockCols = cols
						name := fmt.Sprintf("%s %s relu %v batch %d block cols %d", tier.name, cc.name, relu, n, cols)
						got := make([]uint8, len(want))
						u8, i32 := qstemScratch(&fused, cc.h, cc.w)
						poison(u8, i32)
						fused.ForwardInto(pix, n, cc.h, cc.w, nil, got, u8, i32)
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("%s: pooled byte %d = %d, stem then pool %d", name, i, got[i], want[i])
							}
						}
					}
					qpoolBlockCols = 1024
				}
			}
		}
	}
}

// TestQFirePoolMatchesFireThenPool is the stem test's twin for the pools
// behind fires: a QFire whose expands carry the pool must write, byte for
// byte, what the unpooled fire's materialized concatenation pools to by
// window scan (maxPoolQuadsRef), spare lanes included, and nothing past it.
// Tie weights and squeeze planes, edge requantizations. Cases: the paper
// net's pooled fires at 55 and 27 (3×3/2, pooled widths 27 and 13: the
// one-pass kernel), SmallConfig(16)'s at 8 and 4 (2×2/2, pooled widths 4
// and 2, as every width below 8: poolRow), and an Expand1 width that is no
// multiple of 4, so its spare lanes sit between the expands. Every tier,
// batch 1 and 3, default blocks and one-row ones.
func TestQFirePoolMatchesFireThenPool(t *testing.T) {
	defer useQuantTier(currentQuantTier())
	defer func(cols int) { qpoolBlockCols = cols }(qpoolBlockCols)
	k3s2, k2s2 := PoolSpec{K: 3, Stride: 2}, PoolSpec{K: 2, Stride: 2}
	cases := []struct {
		name       string
		sq, e1, e3 int
		h, w       int
		pool       PoolSpec
	}{
		{"paper fire2 55", 16, 32, 32, 55, 55, k3s2},
		{"paper fire4 27", 32, 64, 64, 27, 27, k3s2},
		{"small16 fire2 8", 8, 8, 8, 8, 8, k2s2},
		{"small16 fire4 4", 12, 12, 12, 4, 4, k2s2},
		{"expand1 6 at 11×17", 5, 6, 7, 11, 17, k3s2},
	}
	const sentinel = 0xEE
	for _, tier := range quantTiers() {
		useQuantTier(tier)
		rng := rand.New(rand.NewSource(63))
		for ci, cc := range cases {
			zs, zOut := uint8([]int{0, 9, QMaxU8}[ci%3]), []int32{9, QMaxU8, 0}[ci%3]
			expand := func(oc, k int, s ConvSpec) QConv {
				s.InC, s.OutC, s.KH, s.KW, s.StrideH, s.StrideW = cc.sq, oc, k, k, 1, 1
				rq := edgeRequant(rng, oc, zOut)
				rq.ReLU = true
				return QConv{Spec: s, W: PackQQuadWeights(tieWeights(rng, oc*cc.sq*k*k), s), RQ: rq, ZP: zs}
			}
			plain := QFire{Expand1: expand(cc.e1, 1, ConvSpec{}), Expand3: expand(cc.e3, 3, ConvSpec{PadH: 1, PadW: 1})}
			pooled := plain
			pooled.Expand1.Pool, pooled.Expand3.Pool = cc.pool, cc.pool
			scratch := func(f *QFire) ([]uint8, []int32) { // the expands'; there is no squeeze
				u1, i1 := f.Expand1.ScratchLen(cc.h, cc.w)
				u3, i3 := f.Expand3.ScratchLen(cc.h, cc.w)
				return make([]uint8, max(u1, u3)), make([]int32, max(i1, i3))
			}
			sqPlanes, planes := quadPlanes(cc.sq), quadPlanes(plain.OutC())
			hw := cc.h * cc.w
			poh, pow := pooled.Expand1.OutSize(cc.h, cc.w)
			for _, n := range []int{1, 3} {
				// The squeeze's planes, spare lanes at its zero point.
				sq := make([]uint8, n*sqPlanes*4*hw)
				for i := range sq {
					sq[i] = zs
					if i/(4*hw)%sqPlanes*4+i%4 < cc.sq {
						sq[i] = tieBytes[rng.Intn(len(tieBytes))]
					}
				}
				full := make([]uint8, n*planes*4*hw)
				u8, i32 := scratch(&plain)
				plain.Expand1.ForwardInto(sq, n, cc.h, cc.w, full, planes, 0, u8, i32)
				plain.Expand3.ForwardInto(sq, n, cc.h, cc.w, full, planes, quadPlanes(cc.e1), u8, i32)
				want := maxPoolQuadsRef(full, n*planes, cc.h, cc.w, cc.pool)
				for _, cols := range []int{1024, 1} {
					qpoolBlockCols = cols
					name := fmt.Sprintf("%s %s batch %d block cols %d", tier.name, cc.name, n, cols)
					got := make([]uint8, len(want)+4*nrQTile)
					for i := range got {
						got[i] = sentinel
					}
					u8, i32 := scratch(&pooled)
					poison(u8, i32)
					pooled.Expand1.ForwardInto(sq, n, cc.h, cc.w, got, planes, 0, u8, i32)
					pooled.Expand3.ForwardInto(sq, n, cc.h, cc.w, got, planes, quadPlanes(cc.e1), u8, i32)
					for i, v := range want {
						if got[i] != v {
							t.Fatalf("%s: image %d plane %d pooled pixel %d lane %d = %d, fire then pool %d",
								name, i/(4*poh*pow*planes), i/(4*poh*pow)%planes, i/4%(poh*pow), i%4, got[i], v)
						}
					}
					for i, v := range got[len(want):] {
						if v != sentinel {
							t.Fatalf("%s: the pooled expands wrote %d bytes past their output", name, i+1)
						}
					}
				}
				qpoolBlockCols = 1024
			}
		}
	}
}

// TestConvPoolMatchesConvThenPoolAtTies is the FP32 twin: ConvStage with a
// pool must equal the unpooled stage, its biased and clamped output
// materialized, followed by MaxPoolForwardInto, bit for bit — on data drawn
// to make the bias add and the ReLU map different accumulators to one value.
// Inputs and weights are small integers, so products and sums are exact and
// windows tie; per channel the bias is −0.0, 0, a small value, or 2²⁴, past
// which the sums of neighbouring integer accumulators round to the same
// float32; with ReLU, most sums of a strongly negative bias clamp to +0.
// Every FP32 tier, batch 1 and 2, weights packed and not.
func TestConvPoolMatchesConvThenPoolAtTies(t *testing.T) {
	active := gemmTier
	defer func() { gemmTier = active }()
	cases := []struct {
		name string
		s    ConvSpec
		pool PoolSpec
		h, w int
	}{
		{"paper stem 224", ConvSpec{InC: 3, OutC: 24, KH: 7, KW: 7, StrideH: 2, StrideW: 2, PadH: 3, PadW: 3}, PoolSpec{K: 3, Stride: 2}, 224, 224},
		{"stride 1 pool 2/2", ConvSpec{InC: 5, OutC: 9, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, PoolSpec{K: 2, Stride: 2}, 60, 70},
		{"overlapping pool 3/1", ConvSpec{InC: 2, OutC: 7, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, PoolSpec{K: 3, Stride: 1}, 40, 90},
		{"unblocked product", ConvSpec{InC: 1, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, PoolSpec{K: 2, Stride: 2}, 6, 8},
	}
	for _, tier := range fp32Tiers() {
		gemmTier = tier
		rng := rand.New(rand.NewSource(62))
		for _, cc := range cases {
			s := cc.s
			k := s.InC * s.KH * s.KW
			wt := make([]float32, s.OutC*k)
			for i := range wt {
				wt[i] = float32(rng.Intn(5) - 2)
			}
			bias := make([]float32, s.OutC)
			for oc := range bias {
				bias[oc] = []float32{float32(math.Copysign(0, -1)), 0, 3, 1 << 24, -40}[oc%5]
			}
			oh, ow := s.OutSize(cc.h, cc.w)
			poh, pow := cc.pool.OutSize(oh, ow)
			for _, relu := range []bool{true, false} {
				for _, n := range []int{1, 2} {
					x := New(n, s.InC, cc.h, cc.w)
					for i := range x.Data {
						x.Data[i] = float32(rng.Intn(4))
					}
					plain := ConvStage{Spec: s, W: wt, Bias: bias, ReLU: relu}
					full := New(n, s.OutC, oh, ow)
					plain.ForwardInto(x, full, 0, convScratch(&plain, cc.h, cc.w))
					want := New(n, s.OutC, poh, pow)
					MaxPoolForwardInto(full, cc.pool, want, make([]float32, cc.pool.ScratchLen(ow)))
					for _, packed := range []*PackedWeights{nil, PackConvWeights(wt, s)} {
						name := fmt.Sprintf("%s %s relu %v batch %d packed %v", tier.name, cc.name, relu, n, packed != nil)
						st := ConvStage{Spec: s, W: wt, Packed: packed, Bias: bias, ReLU: relu, Pool: cc.pool}
						got := New(n, s.OutC, poh, pow)
						got.Fill(float32(math.NaN()))
						st.ForwardInto(x, got, 0, convScratch(&st, cc.h, cc.w))
						for i, wv := range want.Data {
							if g := got.Data[i]; math.Float32bits(g) != math.Float32bits(wv) {
								t.Fatalf("%s: y[%d] = %v (%#x), conv then pool %v (%#x)", name, i, g, math.Float32bits(g), wv, math.Float32bits(wv))
							}
						}
					}
				}
			}
		}
	}
}
