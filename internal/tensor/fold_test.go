package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// alphaFrame fills the alpha plane of an RGBA image (4×h×w, planes R, G, B,
// A) for one of alphaKinds, drawing the colour planes at random.
func alphaFrame(rng *rand.Rand, img []float32, h, w int, kind string) {
	for i := range img[:3*h*w] {
		img[i] = rng.Float32()
	}
	alpha := img[3*h*w : 4*h*w]
	for i := range alpha {
		alpha[i] = 1
	}
	const inv = float32(1) / 255
	switch kind {
	case "badge": // a translucent AdChoices-style box at the top right
		for y := 1; y < min(15, h); y++ {
			for x := max(w-15, 0); x < w-1; x++ {
				alpha[y*w+x] = float32(uint8(230)) * inv
			}
		}
	case "translucent":
		for i := range alpha {
			alpha[i] = float32(uint8(128)) * inv
		}
	case "random":
		for i := range alpha {
			alpha[i] = rng.Float32()
		}
	case "dirty-first":
		alpha[w/2] = float32(uint8(254)) * inv
	case "dirty-middle":
		alpha[h/2*w+w/3] = float32(uint8(254)) * inv
	case "dirty-last":
		alpha[(h-1)*w+w-1] = 0
	}
}

// alphaKinds are the alpha planes the fold is held to: opaque (every block
// folds), a corner badge (one block does not), fully translucent and random
// (none folds), and a single dirty pixel in the first, a middle and the last
// row (one block each does not).
var alphaKinds = []string{"opaque", "badge", "translucent", "random", "dirty-first", "dirty-middle", "dirty-last"}

// TestAlphaFoldMatchesUnfolded holds the alpha fold to the unfolded product
// bit for bit: a convolution stage over RGBA images with packed weights must
// give the same output, every bit, with the fold on and off — on every
// alpha kind, at batch 1 and at batch 3 (three kinds, so one image folds
// where its neighbour does not), under every FP32 tier, with the pool fused
// and without, at the paper net's stem and on small odd planes where a
// window reaches both borders. Then the seeds are poisoned: an opaque image
// must now differ (the fold ran) and a translucent one must not (it did
// not).
func TestAlphaFoldMatchesUnfolded(t *testing.T) {
	active := gemmTier
	defer func() { gemmTier = active; foldAlpha = true }()
	stemPool := PoolSpec{K: 3, Stride: 2}
	cases := []struct {
		s    ConvSpec
		h, w int
		pool PoolSpec
	}{
		{stemSpec, 224, 224, stemPool},
		{stemSpec, 224, 224, PoolSpec{}},
		{ConvSpec{InC: 4, OutC: 10, KH: 7, KW: 7, StrideH: 2, StrideW: 2, PadH: 3, PadW: 3}, 37, 41, stemPool},
		{ConvSpec{InC: 4, OutC: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 32, 32, PoolSpec{K: 2, Stride: 2}},
		// Windows taller than the image: every row is in both paddings.
		{ConvSpec{InC: 4, OutC: 9, KH: 7, KW: 5, StrideH: 1, StrideW: 2, PadH: 3, PadW: 2}, 5, 60, PoolSpec{}},
	}
	for _, tier := range fp32Tiers() {
		gemmTier = tier
		rng := rand.New(rand.NewSource(61))
		for ci, cc := range cases {
			s := cc.s
			k := s.InC * s.KH * s.KW
			wt := randSlice(rng, s.OutC*k)
			st := ConvStage{Spec: s, W: wt, Packed: PackConvWeights(wt, s), Bias: randSlice(rng, s.OutC), ReLU: true, Pool: cc.pool}
			oh, ow := s.OutSize(cc.h, cc.w)
			if cc.pool.K > 0 {
				oh, ow = cc.pool.OutSize(oh, ow)
			}
			scratch := convScratch(&st, cc.h, cc.w)
			frame := 4 * cc.h * cc.w
			run := func(x *Tensor, fold bool) *Tensor {
				foldAlpha = fold
				y := New(x.Shape[0], s.OutC, oh, ow)
				st.ForwardInto(x, y, 0, scratch)
				return y
			}
			same := func(name string, a, b *Tensor) bool {
				for i := range a.Data {
					if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
						t.Errorf("%s: y[%d] = %v (%#x) folded, %v (%#x) unfolded", name, i,
							a.Data[i], math.Float32bits(a.Data[i]), b.Data[i], math.Float32bits(b.Data[i]))
						return false
					}
				}
				return true
			}
			for ki, kind := range alphaKinds {
				for _, batch := range []int{1, 3} {
					x := New(batch, 4, cc.h, cc.w)
					for i := 0; i < batch; i++ {
						alphaFrame(rng, x.Data[i*frame:(i+1)*frame], cc.h, cc.w, alphaKinds[(ki+i)%len(alphaKinds)])
					}
					name := fmt.Sprintf("%s case %d %+v on %dx%d pool %+v: %s batch %d", tier.name, ci, s, cc.h, cc.w, cc.pool, kind, batch)
					if !same(name, run(x, true), run(x, false)) {
						return
					}
				}
			}

			sd := st.Packed.fold.seeds.Load()
			if sd == nil || sd.h != cc.h || sd.w != cc.w {
				t.Fatalf("%s case %d: no seeds for %dx%d", tier.name, ci, cc.h, cc.w)
			}
			clean := append([]float32(nil), sd.rows...)
			for i := range sd.rows {
				sd.rows[i] += 1
			}
			for _, kind := range []string{"opaque", "translucent"} {
				x := New(1, 4, cc.h, cc.w)
				alphaFrame(rng, x.Data, cc.h, cc.w, kind)
				y := run(x, false)
				poisoned := run(x, true)
				moved := false
				for i := range y.Data {
					moved = moved || math.Float32bits(y.Data[i]) != math.Float32bits(poisoned.Data[i])
				}
				if moved != (kind == "opaque") {
					t.Fatalf("%s case %d: %s frame moved=%v under poisoned seeds", tier.name, ci, kind, moved)
				}
			}
			copy(sd.rows, clean)
		}
	}
}

// TestOpaqueCatchesEveryTranslucentRead holds the fold's per-block test to a
// window-by-window oracle: with one translucent pixel on every row in turn,
// a column block that any of its windows reaches the pixel from must not
// pass as opaque, and on an opaque image every block must — for the blocks
// each FP32 tier cuts, pooled and not, at the paper net's stem and on small
// planes.
func TestOpaqueCatchesEveryTranslucentRead(t *testing.T) {
	cases := []struct {
		s    ConvSpec
		h, w int
		pool PoolSpec
	}{
		{stemSpec, 224, 224, PoolSpec{K: 3, Stride: 2}},
		{stemSpec, 224, 224, PoolSpec{}},
		{ConvSpec{InC: 4, OutC: 10, KH: 7, KW: 7, StrideH: 2, StrideW: 2, PadH: 3, PadW: 3}, 37, 41, PoolSpec{K: 3, Stride: 2}},
		{ConvSpec{InC: 4, OutC: 9, KH: 7, KW: 5, StrideH: 1, StrideW: 2, PadH: 3, PadW: 2}, 5, 60, PoolSpec{}},
		{ConvSpec{InC: 4, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 300, 7, PoolSpec{}},
	}
	rng := rand.New(rand.NewSource(63))
	for _, tier := range fp32Tiers() {
		for ci, cc := range cases {
			s := cc.s
			view := newConvView[float32](cc.h, cc.w, s, 0)
			view.useScratch(make([]float32, view.Len()))
			n := view.oh * view.ow
			_, step, _, _ := gemmSplit(tier, s.OutC, s.InC*s.KH*s.KW, n, cc.pool, view.ow)
			sd := newAlphaSeeds(make([]float32, s.OutC*s.KH*s.KW), s, cc.h, cc.w)
			img := make([]float32, 4*cc.h*cc.w)
			alpha := img[3*cc.h*cc.w:]
			for i := range alpha {
				alpha[i] = 1
			}
			view.setImage(img)
			for jc := 0; jc < n; jc += step {
				if !sd.opaque(&view, jc, min(step, n-jc)) {
					t.Fatalf("%s case %d: block at column %d of an opaque image is not opaque", tier.name, ci, jc)
				}
			}
			for py := 0; py < cc.h; py++ {
				px := rng.Intn(cc.w)
				alpha[py*cc.w+px] = 0.5
				view.setImage(img)
				for jc := 0; jc < n; jc += step {
					nc := min(step, n-jc)
					reads := false
					for j := jc; j < jc+nc && !reads; j++ {
						y0, x0 := j/view.ow*s.StrideH-s.PadH, j%view.ow*s.StrideW-s.PadW
						reads = py >= y0 && py < y0+s.KH && px >= x0 && px < x0+s.KW
					}
					if reads && sd.opaque(&view, jc, nc) {
						t.Fatalf("%s case %d: block at column %d reads translucent (%d,%d) but passes as opaque", tier.name, ci, jc, py, px)
					}
				}
				alpha[py*cc.w+px] = 1
			}
		}
	}
}
