package nn

import (
	"math"
	"math/rand"
)

// InitHe fills every convolution weight with Kaiming-He normal noise
// (std = sqrt(2/fan_in)) and zeroes biases. The RNG is caller-supplied so
// initialization is deterministic under a fixed seed.
func InitHe(l Layer, rng *rand.Rand) {
	for _, p := range l.Params() {
		p.Changed()
		if len(p.W.Shape) == 1 { // bias
			p.W.Zero()
			continue
		}
		fanIn := p.W.Shape[1] // conv weights are [OutC, InC*KH*KW]
		std := math.Sqrt(2 / float64(fanIn))
		for i := range p.W.Data {
			p.W.Data[i] = float32(rng.NormFloat64() * std)
		}
	}
}

// InitXavier fills weights with Glorot-uniform noise; useful for the final
// classifier convolution where He can saturate the softmax early.
func InitXavier(l Layer, rng *rand.Rand) {
	for _, p := range l.Params() {
		p.Changed()
		if len(p.W.Shape) == 1 {
			p.W.Zero()
			continue
		}
		fanIn, fanOut := p.W.Shape[1], p.W.Shape[0]
		limit := math.Sqrt(6 / float64(fanIn+fanOut))
		for i := range p.W.Data {
			p.W.Data[i] = float32((rng.Float64()*2 - 1) * limit)
		}
	}
}
