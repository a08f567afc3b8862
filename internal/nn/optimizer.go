package nn

// SGD implements stochastic gradient descent with classical momentum and an
// optional L2 weight decay, the optimizer PERCIVAL was trained with (§4.3:
// momentum β=0.9, lr=0.001, batch 24).
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64

	params   []*Param
	velocity [][]float32
}

// NewSGD builds an optimizer over the given parameters.
func NewSGD(params []*Param, lr, momentum, weightDecay float64) *SGD {
	vel := make([][]float32, len(params))
	for i, p := range params {
		vel[i] = make([]float32, p.W.Len())
	}
	return &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay, params: params, velocity: vel}
}

// Step applies one update: v = β·v − lr·(g + wd·w); w += v. Gradients are
// left untouched; call ZeroGrads before the next accumulation.
func (o *SGD) Step() {
	lr := float32(o.LR)
	mom := float32(o.Momentum)
	wd := float32(o.WeightDecay)
	for i, p := range o.params {
		v := o.velocity[i]
		w := p.W.Data
		g := p.Grad.Data
		for j := range w {
			grad := g[j] + wd*w[j]
			v[j] = mom*v[j] - lr*grad
			w[j] += v[j]
		}
		p.Changed()
	}
}

// ZeroGrads clears all parameter gradients.
func (o *SGD) ZeroGrads() {
	for _, p := range o.params {
		p.ZeroGrad()
	}
}

// StepLR is the paper's step learning-rate schedule: multiply the rate by
// Gamma every StepEpochs epochs (§4.3: γ=0.1 every 30 epochs).
type StepLR struct {
	Base       float64
	Gamma      float64
	StepEpochs int
}

// At returns the learning rate for the given zero-based epoch.
func (s StepLR) At(epoch int) float64 {
	lr := s.Base
	for e := s.StepEpochs; e <= epoch; e += s.StepEpochs {
		lr *= s.Gamma
	}
	return lr
}

// PaperSchedule returns the exact schedule from §4.3.
func PaperSchedule() StepLR { return StepLR{Base: 0.001, Gamma: 0.1, StepEpochs: 30} }
