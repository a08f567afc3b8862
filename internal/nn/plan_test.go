package nn_test

import (
	"fmt"
	"testing"

	"percival/internal/imaging"
	"percival/internal/nn"
	"percival/internal/squeezenet"
	"percival/internal/synth"
	"percival/internal/tensor"
)

// TestPlanLiveness checks the liveness pass on the paper net and on
// SmallConfig 16, 32 and 64, on both engines, for plans compiled at every
// batch from 1 to 16: no two regions of a slab that are live at one stage
// overlap, every region lies inside its slab, and no stage's output aliases
// its input. It also pins the FP32 stage list to the INT8 one's shape:
// every pool runs in its producer's epilogue, so there is no pool stage,
// and a fire is exactly its three convolutions.
func TestPlanLiveness(t *testing.T) {
	configs := []squeezenet.Config{squeezenet.PaperConfig(), squeezenet.SmallConfig(16), squeezenet.SmallConfig(32), squeezenet.SmallConfig(64)}
	for _, cfg := range configs {
		net, err := squeezenet.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		squeezenet.PretrainedInit(net, 1)
		calib := []*tensor.Tensor{imaging.PrepareInput(synth.SampleFrames(3, 1)[0], cfg.InputRes)}
		qnet, err := nn.Quantize(net, calib)
		if err != nil {
			t.Fatal(err)
		}
		fires, convs := 0, 0
		for _, l := range net.Layers {
			switch l.(type) {
			case *nn.Fire:
				fires++
			case *nn.Conv2D:
				convs++
			}
		}
		res := cfg.InputRes
		for n := 1; n <= 16; n++ {
			name := fmt.Sprintf("%s fp32 batch %d", cfg.Name, n)
			fp32 := nn.FP32Layout(net, n, cfg.InChannels, res, res)
			checkLayout(t, name, fp32)
			convStages := 0
			for s, kind := range fp32.Kinds {
				switch kind {
				case nn.StagePool:
					t.Fatalf("%s: stage %d is a standalone max pool", name, s)
				case nn.StageConv:
					convStages++
				}
			}
			if want := 3*fires + convs; convStages != want {
				t.Fatalf("%s: %d conv stages, want %d: three for each of %d fires and one for each of %d other convolutions", name, convStages, want, fires, convs)
			}
			checkLayout(t, fmt.Sprintf("%s int8 batch %d", cfg.Name, n), nn.Int8Layout(qnet, n, res, res))
		}
	}
}

func checkLayout(t *testing.T, name string, l nn.PlanLayout) {
	t.Helper()
	overlap := func(a, b nn.PlanRegion) bool {
		return a.Slab == b.Slab && a.Size > 0 && b.Size > 0 && a.Off < b.Off+b.Size && b.Off < a.Off+a.Size
	}
	for i, a := range l.Regions {
		if a.Off < 0 || a.Off+a.Size > l.Slabs[a.Slab] {
			t.Fatalf("%s: region %d [%d, %d) lies outside its %d-element slab %d", name, i, a.Off, a.Off+a.Size, l.Slabs[a.Slab], a.Slab)
		}
		for j, b := range l.Regions[:i] {
			if a.First <= b.Last && b.First <= a.Last && overlap(a, b) {
				t.Fatalf("%s: regions %d [%d, %d) and %d [%d, %d) of slab %d overlap, both live at stages %d..%d",
					name, j, b.Off, b.Off+b.Size, i, a.Off, a.Off+a.Size, a.Slab, max(a.First, b.First), min(a.Last, b.Last))
			}
		}
	}
	for s, io := range l.Stages {
		if in, out := l.Regions[io[0]], l.Regions[io[1]]; overlap(in, out) {
			t.Fatalf("%s: stage %d writes region %d over its input, region %d", name, s, io[1], io[0])
		}
	}
}

// TestPlanFollowsTheArena pins which plan a pass runs: a state warmed at a
// batch runs every smaller batch in that plan, without growing, and a state
// that only scores single frames is sized for one frame even after another
// state of the same network warmed to a larger batch.
func TestPlanFollowsTheArena(t *testing.T) {
	cfg := squeezenet.SmallConfig(32)
	net, err := squeezenet.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	squeezenet.PretrainedInit(net, 1)
	x := imaging.PrepareInput(synth.SampleFrames(9, 1)[0], cfg.InputRes)
	batch := func(n int) *tensor.Tensor {
		b := tensor.New(n, x.Shape[1], x.Shape[2], x.Shape[3])
		for i := 0; i < n; i++ {
			copy(b.Data[i*len(x.Data):], x.Data)
		}
		return b
	}
	slabBytes := func(l nn.PlanLayout) int { return 4*l.Slabs[0] + l.Slabs[1] + 4*l.Slabs[2] }
	warm := tensor.NewArena()
	nn.PredictArena(net, batch(8), warm)
	if got, want := warm.Bytes(), slabBytes(nn.FP32Layout(net, 8, x.Shape[1], x.Shape[2], x.Shape[3])); got != want {
		t.Fatalf("arena warmed at 8 holds %d bytes, want the 8-frame plan's %d", got, want)
	}
	for n := 1; n <= 8; n++ {
		nn.PredictArena(net, batch(n), warm)
		if got := warm.Bytes(); got != slabBytes(nn.FP32Layout(net, 8, x.Shape[1], x.Shape[2], x.Shape[3])) {
			t.Fatalf("batch %d grew the arena warmed at 8 to %d bytes", n, got)
		}
	}
	single := tensor.NewArena()
	nn.PredictArena(net, batch(1), single)
	if got, want := single.Bytes(), slabBytes(nn.FP32Layout(net, 1, x.Shape[1], x.Shape[2], x.Shape[3])); got != want || got >= warm.Bytes() {
		t.Fatalf("a fresh arena scoring one frame holds %d bytes, want the 1-frame plan's %d (the 8-frame state holds %d)", got, want, warm.Bytes())
	}
}
