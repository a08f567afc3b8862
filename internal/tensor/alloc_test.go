package tensor

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
)

// TestForwardStagesAllocateNothing pins the zero-allocation steady state of
// every stage inference runs, at the paper net's shapes, in the package that
// would cause a regression: an epilogue, operand view or edge tile that
// escapes to the heap shows here as one allocation per call. The stages run
// on scratch the test holds, as a forward plan's do; the public Gemm and
// QGemm take theirs from the scratch pools, so each stage runs once to warm
// them and the count runs with the collector off, which would empty them.
// The count runs at one P: the parallel path allocates its fan-out by
// design.
func TestForwardStagesAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rng := rand.New(rand.NewSource(51))

	stage := func(s ConvSpec, pool PoolSpec, res int) (ConvStage, *Tensor, *Tensor) {
		w := randSlice(rng, s.OutC*s.InC*s.KH*s.KW)
		st := ConvStage{Spec: s, W: w, Packed: PackWeights(w, s.OutC, s.InC*s.KH*s.KW), Bias: randSlice(rng, s.OutC), ReLU: true, Pool: pool}
		oh, ow := s.OutSize(res, res)
		if pool.K > 0 {
			oh, ow = pool.OutSize(oh, ow)
		}
		return st, FromSlice(randSlice(rng, s.InC*res*res), 1, s.InC, res, res), New(1, s.OutC, oh, ow)
	}
	stemPool, stemX, stemY := stage(stemSpec, PoolSpec{K: 3, Stride: 2}, 224)
	expand, expandX, expandY := stage(expand3x3Spec, PoolSpec{}, 13)

	k := stemSpec.InC * stemSpec.KH * stemSpec.KW
	wq, _ := randQOperands(rng, stemSpec.OutC, k, 0)
	qstem := QStem{Spec: stemSpec, W: PackQQuadWeights(wq, stemSpec), ZP: 17, Pool: PoolSpec{K: 3, Stride: 2},
		RQ: Requant{Mult: make([]float32, stemSpec.OutC), Beta: make([]float32, stemSpec.OutC), ZOut: 3, ReLU: true}}
	pix := make([]uint8, 224*224*4)
	for i := range pix {
		pix[i] = uint8(rng.Intn(256))
	}
	oh, ow := qstem.OutSize(224, 224)
	qstemY := make([]uint8, quadPlanes(stemSpec.OutC)*4*oh*ow)
	qstemU8, qstemI32 := qstemScratch(&qstem, 224, 224)

	fire, _, _, _ := randQFire(rng, 96, 16, 64, 64, 17, 3, true)
	fireX := make([]uint8, quadPlanes(96)*4*55*55)
	for i := range fireX {
		fireX[i] = uint8(rng.Intn(QMaxU8 + 1))
	}
	fireSq, fireY := make([]uint8, quadPlanes(16)*4*55*55), make([]uint8, quadPlanes(fire.OutC())*4*55*55)
	fireU8, fireI32 := qfireScratch(&fire, 55, 55)

	classifier, _ := randQConv(rng, ConvSpec{InC: 512, OutC: 2, KH: 1, KW: 1, StrideH: 1, StrideW: 1}, 17, 3, false)
	classX := make([]uint8, quadPlanes(512)*4*13*13)
	for i := range classX {
		classX[i] = uint8(rng.Intn(QMaxU8 + 1))
	}
	classAcc := make([]int32, 2*13*13)
	classU8, _ := classifier.ScratchLen(13, 13)
	classScratch := make([]uint8, classU8)
	stemScratch, expandScratch := convScratch(&stemPool, 224, 224), convScratch(&expand, 13, 13)

	const m, gk, n = 64, 144, 3136
	ga, gb, gc := randSlice(rng, m*gk), randSlice(rng, gk*n), make([]float32, m*n)
	qa, qb := randQOperands(rng, m, gk, n)
	qc := make([]int32, m*n)

	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"ConvStage.ForwardInto stem+pool1 224", func() { stemPool.ForwardInto(stemX, stemY, 0, stemScratch) }},
		{"ConvStage.ForwardInto expand3x3 13", func() { expand.ForwardInto(expandX, expandY, 0, expandScratch) }},
		{"QStem.ForwardInto stem+pool1 224", func() { qstem.ForwardInto(pix, 1, 224, 224, nil, qstemY, qstemU8, qstemI32) }},
		{"QConv.ForwardInto fire 55", func() { fireForward(&fire, fireX, 1, 55, 55, fireSq, fireY, fireU8, fireI32) }},
		{"QConv.AccInto conv10 13", func() { classifier.AccInto(classX, 13, 13, classAcc, classScratch) }},
		{"Gemm 64x144x3136", func() { Gemm(ga, gb, gc, m, gk, n) }},
		{"QGemm 64x144x3136", func() { QGemm(qa, qb, qc, m, gk, n) }},
	} {
		tc.run()
		if allocs := testing.AllocsPerRun(3, tc.run); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

// convScratch returns scratch for st over h×w images.
func convScratch(st *ConvStage, h, w int) []float32 { return make([]float32, st.ScratchLen(h, w)) }

// qstemScratch returns scratch for st over h×w images.
func qstemScratch(st *QStem, h, w int) ([]uint8, []int32) {
	u8, i32 := st.ScratchLen(h, w)
	return make([]uint8, u8), make([]int32, i32)
}

// poison fills INT8 scratch with bytes and accumulators no stage could take
// for its own output, so a stage that reads what it did not write shows.
func poison(u8 []uint8, i32 []int32) {
	for i := range u8 {
		u8[i] = 0xFF
	}
	for i := range i32 {
		i32[i] = -1
	}
}

// qfireScratch returns scratch for each of f's convolutions over h×w
// images.
func qfireScratch(f *QFire, h, w int) ([]uint8, []int32) {
	var u8, i32 int
	for _, c := range [...]*QConv{&f.Squeeze, &f.Expand1, &f.Expand3} {
		cu8, ci32 := c.ScratchLen(h, w)
		u8, i32 = max(u8, cu8), max(i32, ci32)
	}
	return make([]uint8, u8), make([]int32, i32)
}

// fireForward runs f on the n h×w images of x as a forward plan does: three
// convolution stages, the squeeze into sq, then both expands into their
// slots of the concatenation y.
func fireForward(f *QFire, x []uint8, n, h, w int, sq, y, u8 []uint8, i32 []int32) {
	sqPlanes, outPlanes := quadPlanes(f.Squeeze.Spec.OutC), quadPlanes(f.OutC())
	f.Squeeze.ForwardInto(x, n, h, w, sq, sqPlanes, 0, u8, i32)
	f.Expand1.ForwardInto(sq, n, h, w, y, outPlanes, 0, u8, i32)
	f.Expand3.ForwardInto(sq, n, h, w, y, outPlanes, quadPlanes(f.Expand1.Spec.OutC), u8, i32)
}
