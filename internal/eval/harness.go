// Package eval reproduces every table and figure in the paper's evaluation
// (Section 5). Each experiment is a method on Harness that returns a typed
// report and can render itself as a paper-style table; percival-eval and the
// repository benchmarks are thin wrappers around these runners.
//
// Experiments run at a reduced input resolution and corpus scale by default
// so the whole suite completes on CPU in minutes; Res/Scale raise both
// toward paper scale. EXPERIMENTS.md records paper-versus-measured numbers.
package eval

import (
	"fmt"
	"io"
	"math/rand"
	"sync"

	"percival/internal/core"
	"percival/internal/dataset"
	"percival/internal/nn"
	"percival/internal/squeezenet"
	"percival/internal/synth"
)

// Harness owns the shared state of an evaluation run: the trained model and
// the scaling knobs.
type Harness struct {
	// Res is the network input resolution (paper: 224; default 32).
	Res int
	// Scale multiplies evaluation-set sizes (1.0 = the reduced default;
	// paper-scale sets are ~10× larger).
	Scale float64
	// TrainSamples sizes the synthetic training crawl.
	TrainSamples int
	// Epochs is the training budget.
	Epochs int
	// Seed drives all randomness.
	Seed int64
	// Out receives progress lines (nil = silent).
	Out io.Writer

	once  sync.Once
	model *nn.Sequential
	arch  squeezenet.Config
	err   error
}

// NewHarness returns a harness with the reduced-scale defaults.
func NewHarness(out io.Writer) *Harness {
	return &Harness{
		Res:          32,
		Scale:        1,
		TrainSamples: 700,
		Epochs:       8,
		Seed:         1,
		Out:          out,
	}
}

func (h *Harness) logf(format string, args ...any) {
	if h.Out != nil {
		fmt.Fprintf(h.Out, format, args...)
	}
}

// n scales an evaluation-set size.
func (h *Harness) n(base int) int {
	v := int(float64(base) * h.Scale)
	if v < 8 {
		v = 8
	}
	return v
}

// Model returns the shared trained network, training it on first use on the
// synthetic crawl distribution (§4.4.2's final dataset stands in here).
func (h *Harness) Model() (*nn.Sequential, error) {
	h.once.Do(func() {
		if h.Res >= 224 {
			h.arch = squeezenet.PaperConfig()
		} else {
			h.arch = squeezenet.SmallConfig(h.Res)
		}
		h.logf("training %s on %d synthetic crawl samples (%d epochs)...\n",
			h.arch.Name, h.TrainSamples, h.Epochs)
		train := dataset.Generate(h.Seed+100, synth.CrawlStyle(), h.TrainSamples)
		train.Dedup(2)
		train.Balance(rand.New(rand.NewSource(h.Seed + 101)))
		cfg := dataset.FastTraining(h.arch, h.Epochs)
		cfg.Seed = h.Seed
		cfg.Log = h.Out
		h.model, h.err = dataset.Train(cfg, train)
	})
	return h.model, h.err
}

// Service wraps the shared model in a PERCIVAL classifier service: the
// paper's classify-every-image inspector.
func (h *Harness) Service() (*core.Percival, error) {
	net, err := h.Model()
	if err != nil {
		return nil, err
	}
	return core.New(net, h.arch, core.Options{})
}
