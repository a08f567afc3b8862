package nn

// RaceEnabled exposes raceEnabled to the external test package.
const RaceEnabled = raceEnabled

// InputTable exposes inputTable to the external test package.
var InputTable = inputTable

// BuildTestNet exposes buildTestNet to the external test package.
var BuildTestNet = buildTestNet

// PlanRegion is one region of a compiled plan: Size elements of slab Slab
// from Off on, live from stage First through Last.
type PlanRegion struct{ Slab, Off, Size, First, Last int }

// Stage kinds of an FP32 plan, as PlanLayout.Kinds holds them.
const (
	StageConv = stageConv
	StagePool = stagePool
)

// PlanLayout is what the plan tests read of a compiled plan: its regions,
// its slab lengths, and each stage's input and output region and kind
// (an FP32 plan's stage* or an INT8 plan's qStage* constant).
type PlanLayout struct {
	Regions []PlanRegion
	Slabs   [3]int
	Stages  [][2]int
	Kinds   []int
}

// FP32Layout compiles net's plan for n images of c×h×w.
func FP32Layout(net *Sequential, n, c, h, w int) PlanLayout {
	return layoutOf(net.plan(nil, n, c, h, w))
}

// Int8Layout compiles q's plan for n frames of h×w.
func Int8Layout(q *QuantizedSequential, n, h, w int) PlanLayout {
	return layoutOf(q.plan(nil, n, h, w))
}

func layoutOf(p *plan) PlanLayout {
	l := PlanLayout{Slabs: p.slabs}
	for _, r := range p.regions {
		l.Regions = append(l.Regions, PlanRegion{r.slab, r.off, r.size, r.first, r.last})
	}
	for _, st := range p.stages {
		l.Stages = append(l.Stages, [2]int{st.in, st.out})
		l.Kinds = append(l.Kinds, st.kind)
	}
	return l
}
