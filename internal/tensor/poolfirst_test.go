package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestQStemPoolMatchesStemThenPool pins the fused INT8 stem to the two
// stages it replaces: QStem with a pool must equal, byte for byte, the same
// stem without one — its output materialized as quad planes — followed by
// MaxPoolQuadsInto. The data is drawn to sit on the requantization's edges,
// where the window maximum is most easily taken in the wrong domain: weights
// in {-1, 0, 1} over a handful of pixel values, so accumulators tie within a
// window; and per channel a constant map (Mult 0), a map so flat that
// neighbouring accumulators land on one byte, one so steep that most clamp
// at 0 or QMaxU8 (or ZOut under ReLU), and Beta on a rounding midpoint.
// Every tier; batch 1 and 2, default blocks and one-row blocks — so windows
// straddle blocks and rows are carried between them — on the small cases.
func TestQStemPoolMatchesStemThenPool(t *testing.T) {
	defer useQuantTier(currentQuantTier())
	defer func(cols int) { qstemBlockCols = cols }(qstemBlockCols)
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
			k := s.InC * s.KH * s.KW
			wq := make([]int8, s.OutC*k)
			for i := range wq {
				wq[i] = int8(rng.Intn(3) - 1)
			}
			zOut := []int32{0, 9, QMaxU8}[ci%3]
			rq := Requant{Mult: make([]float32, s.OutC), Beta: make([]float32, s.OutC), ZOut: zOut}
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
			values := []uint8{0, 1, 2, 3, 126, 127, 255}
			for _, relu := range []bool{true, false} {
				rq.ReLU = relu
				fused := QStem{Spec: s, W: PackQQuadWeights(wq, s), RQ: rq, ZP: uint8(zOut), Pool: cc.pool}
				plain := fused
				plain.Pool = PoolSpec{}
				oh, ow := s.OutSize(cc.h, cc.w)
				poh, pow := cc.pool.OutSize(oh, ow)
				planes := quadPlanes(s.OutC)
				batches, blocks := []int{1, 2}, []int{1024, 1}
				if cc.h*cc.w > 64*64 {
					batches, blocks = batches[:1], blocks[:1] // the small cases cover both
				}
				for _, n := range batches {
					pix := make([]uint8, n*cc.h*cc.w*4)
					for i := range pix {
						pix[i] = values[rng.Intn(len(values))]
					}
					qstemBlockCols = 1024
					full := make([]uint8, n*planes*4*oh*ow)
					u8, i32 := qstemScratch(&plain, cc.h, cc.w)
					plain.ForwardInto(pix, n, cc.h, cc.w, nil, full, u8, i32)
					want := make([]uint8, n*planes*4*poh*pow)
					scratch := make([]uint8, cc.pool.QuadScratchLen(oh, ow))
					for i := 0; i < n; i++ {
						MaxPoolQuadsInto(full[i*planes*4*oh*ow:], planes, oh, ow, cc.pool, want[i*planes*4*poh*pow:], scratch)
					}
					for _, cols := range blocks {
						qstemBlockCols = cols
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
				}
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
					for _, packed := range []*PackedWeights{nil, PackWeights(wt, s.OutC, k)} {
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
