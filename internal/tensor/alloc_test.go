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
// escapes to the heap shows here as one allocation per call. Each stage runs
// once to warm the scratch pools; the count runs at one P (the parallel path
// allocates its fan-out by design) with the collector off, since the
// scratch pools are sync.Pools a collection would empty.
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
	arena := NewArena()

	fire, _, _, _ := randQFire(rng, 96, 16, 64, 64, 17, 3, true)
	fireX := make([]uint8, quadPlanes(96)*4*55*55)
	for i := range fireX {
		fireX[i] = uint8(rng.Intn(QMaxU8 + 1))
	}

	classifier, _ := randQConv(rng, ConvSpec{InC: 512, OutC: 2, KH: 1, KW: 1, StrideH: 1, StrideW: 1}, 17, 3, false)
	classX := make([]uint8, quadPlanes(512)*4*13*13)
	for i := range classX {
		classX[i] = uint8(rng.Intn(QMaxU8 + 1))
	}
	classAcc := make([]int32, 2*13*13)

	const m, gk, n = 64, 144, 3136
	ga, gb, gc := randSlice(rng, m*gk), randSlice(rng, gk*n), make([]float32, m*n)
	qa, qb := randQOperands(rng, m, gk, n)
	qc := make([]int32, m*n)

	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"ConvStage.ForwardInto stem+pool1 224", func() { stemPool.ForwardInto(stemX, stemY, 0) }},
		{"ConvStage.ForwardInto expand3x3 13", func() { expand.ForwardInto(expandX, expandY, 0) }},
		{"QStem.ForwardInto stem+pool1 224", func() { qstem.ForwardInto(pix, 1, 224, 224, nil, qstemY, arena) }},
		{"QFire.Forward 55", func() {
			x := arena.GetU8(len(fireX))
			copy(x, fireX)
			arena.PutU8(fire.Forward(x, 1, 55, 55, arena))
		}},
		{"QConv.AccInto conv10 13", func() { classifier.AccInto(classX, 13, 13, classAcc) }},
		{"Gemm 64x144x3136", func() { Gemm(ga, gb, gc, m, gk, n) }},
		{"QGemm 64x144x3136", func() { QGemm(qa, qb, qc, m, gk, n) }},
	} {
		tc.run()
		if allocs := testing.AllocsPerRun(3, tc.run); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}
