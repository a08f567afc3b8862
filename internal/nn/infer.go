package nn

import (
	"fmt"

	"percival/internal/tensor"
)

// This file implements the zero-allocation inference path. Unlike
// Layer.Forward, which allocates a fresh output tensor per layer, the infer
// path draws every intermediate buffer from a tensor.Arena and returns each
// layer's input to the arena as soon as it has been consumed. After one
// warm-up pass the arena's free lists hold every buffer the network needs and
// a forward pass performs no heap allocation.
//
// Ownership protocol: forwardInfer receives `owned` reporting whether x
// belongs to the arena. A layer that produces a new output from an owned
// input must PutTensor the input; in-place layers pass ownership through.
// The tensor returned by ForwardInfer/PredictArena is arena-owned: callers
// copy out what they need, then PutTensor it (or stop using the arena).

// inferLayer is implemented by layers that support arena-backed inference.
// Layers without it fall back to Forward(x, false) and their outputs are
// treated as heap-owned.
type inferLayer interface {
	forwardInfer(x *tensor.Tensor, a *tensor.Arena, owned bool) (*tensor.Tensor, bool)
}

// ForwardInfer runs an inference-mode forward pass drawing all intermediate
// buffers from a. The returned tensor is owned by the arena: copy out any
// values before returning it (or the arena) to a pool. An adjacent Conv2D,
// ReLU and unpadded MaxPool run as one stage.
func (s *Sequential) ForwardInfer(x *tensor.Tensor, a *tensor.Arena) *tensor.Tensor {
	return s.forwardInferArena(x, a, false)
}

// forwardInferArena is ForwardInfer with the caller saying whether x is a's.
func (s *Sequential) forwardInferArena(x *tensor.Tensor, a *tensor.Arena, owned bool) *tensor.Tensor {
	y, owned := s.forwardInfer(x, a, owned)
	if !owned {
		// Normalize the contract: hand back an arena-owned copy so callers
		// can treat the result uniformly. Only reachable when the network is
		// empty or ends in a non-arena layer.
		c := a.GetTensor(y.Shape...)
		copy(c.Data, y.Data)
		return c
	}
	return y
}

// forwardInfer implements inferLayer, peephole-fusing a Conv2D with the ReLU
// and then the unpadded MaxPool that follow it: the pool runs in the
// convolution's epilogue and the convolution's own output — the paper net's
// largest tensor, 4.8 MB a frame after the stem — is never written.
func (s *Sequential) forwardInfer(x *tensor.Tensor, a *tensor.Arena, owned bool) (*tensor.Tensor, bool) {
	for i := 0; i < len(s.Layers); i++ {
		l := s.Layers[i]
		if c, ok := l.(*Conv2D); ok {
			st := c.stage()
			if i+1 < len(s.Layers) {
				if _, isRelu := s.Layers[i+1].(*ReLU); isRelu {
					st.ReLU = true
					i++
				}
			}
			if i+1 < len(s.Layers) {
				if m, isPool := s.Layers[i+1].(*MaxPool); isPool && m.Spec.Pad == 0 {
					st.Pool = m.Spec
					i++
				}
			}
			x, owned = c.inferStage(&st, x, a, owned)
			continue
		}
		if il, ok := l.(inferLayer); ok {
			x, owned = il.forwardInfer(x, a, owned)
			continue
		}
		y := l.Forward(x, false)
		if owned && y != x {
			a.PutTensor(x)
		}
		x, owned = y, owned && y == x
	}
	return x, owned
}

// packedWeights returns the weights' GEMM panels, packed on first use and
// again after any rewrite of Wt (Param.Changed), then shared by every
// goroutine and engine replica inferring through this layer. Goroutines
// racing on the first use may each pack once; they store equal panels.
func (c *Conv2D) packedWeights() *tensor.PackedWeights {
	gen := c.Wt.gen.Load()
	if p := c.pack.Load(); p != nil && p.gen == gen {
		return p.weights
	}
	k := c.Spec.InC * c.Spec.KH * c.Spec.KW
	p := &convPack{gen: gen, weights: tensor.PackWeights(c.Wt.W.Data, c.Spec.OutC, k)}
	c.pack.Store(p)
	return p.weights
}

// stage returns the convolution as an inference stage with packed weights;
// callers add the ReLU and pool they fuse behind it.
func (c *Conv2D) stage() tensor.ConvStage {
	return tensor.ConvStage{Spec: c.Spec, W: c.Wt.W.Data, Packed: c.packedWeights(), Bias: c.Bias.W.Data}
}

// inferStage runs st — c's stage — from x into a fresh arena tensor.
func (c *Conv2D) inferStage(st *tensor.ConvStage, x *tensor.Tensor, a *tensor.Arena, owned bool) (*tensor.Tensor, bool) {
	if len(x.Shape) != 4 || x.Shape[1] != c.Spec.InC {
		panic(fmt.Sprintf("nn: conv %s: input shape %s, want [N,%d,H,W]", c.name, shapeStr(x.Shape), c.Spec.InC))
	}
	oh, ow := c.Spec.OutSize(x.Shape[2], x.Shape[3])
	if st.Pool.K > 0 {
		oh, ow = st.Pool.OutSize(oh, ow)
	}
	y := a.GetTensor(x.Shape[0], c.Spec.OutC, oh, ow)
	st.ForwardInto(x, y, 0)
	if owned {
		a.PutTensor(x)
	}
	return y, true
}

func (c *Conv2D) forwardInfer(x *tensor.Tensor, a *tensor.Arena, owned bool) (*tensor.Tensor, bool) {
	st := c.stage()
	return c.inferStage(&st, x, a, owned)
}

// forwardInfer for ReLU clamps in place on arena-owned tensors. A caller-
// owned input is copied into the arena first: Predict promises x is left
// untouched, and a standalone head ReLU would otherwise scribble on it.
func (r *ReLU) forwardInfer(x *tensor.Tensor, a *tensor.Arena, owned bool) (*tensor.Tensor, bool) {
	if !owned {
		y := a.GetTensor(x.Shape...)
		for i, v := range x.Data {
			if v < 0 {
				v = 0
			}
			y.Data[i] = v
		}
		return y, true
	}
	for i, v := range x.Data {
		if v < 0 {
			x.Data[i] = 0
		}
	}
	return x, owned
}

func (m *MaxPool) forwardInfer(x *tensor.Tensor, a *tensor.Arena, owned bool) (*tensor.Tensor, bool) {
	oh, ow := m.Spec.OutSize(x.Shape[2], x.Shape[3])
	y := a.GetTensor(x.Shape[0], x.Shape[1], oh, ow)
	tensor.MaxPoolForwardInto(x, m.Spec, y)
	if owned {
		a.PutTensor(x)
	}
	return y, true
}

func (g *GlobalAvgPool) forwardInfer(x *tensor.Tensor, a *tensor.Arena, owned bool) (*tensor.Tensor, bool) {
	y := a.GetTensor(x.Shape[0], x.Shape[1])
	tensor.GlobalAvgPoolInto(x, y.Data)
	if owned {
		a.PutTensor(x)
	}
	return y, true
}

// forwardInfer for Dropout is the identity: dropout only acts in training.
func (d *Dropout) forwardInfer(x *tensor.Tensor, a *tensor.Arena, owned bool) (*tensor.Tensor, bool) {
	return x, owned
}

// forwardInfer for Fire fuses each convolution with its ReLU and writes the
// two expand branches directly into their slots of the concatenated output,
// eliminating the intermediate expand tensors and the concat copy.
func (f *Fire) forwardInfer(x *tensor.Tensor, a *tensor.Arena, owned bool) (*tensor.Tensor, bool) {
	sq, ex1, ex3 := f.Squeeze.stage(), f.Expand1.stage(), f.Expand3.stage()
	sq.ReLU, ex1.ReLU, ex3.ReLU = true, true, true
	s, _ := f.Squeeze.inferStage(&sq, x, a, owned)
	n, h, w := s.Shape[0], s.Shape[2], s.Shape[3]
	e1, e3 := f.Expand1.Spec.OutC, f.Expand3.Spec.OutC
	y := a.GetTensor(n, e1+e3, h, w)
	ex1.ForwardInto(s, y, 0)
	ex3.ForwardInto(s, y, e1)
	a.PutTensor(s)
	return y, true
}

// PredictArena runs inference using buffers from a and returns per-sample
// class probabilities ([N,C]) in an arena-owned tensor: copy out the scores
// you need, then PutTensor it before releasing the arena.
func PredictArena(net *Sequential, x *tensor.Tensor, a *tensor.Arena) *tensor.Tensor {
	return predictArena(net, x, a, false)
}

// PredictArenaOwned is PredictArena for an x that came from a.GetTensor and
// that the caller is done with: the pass returns x to a as soon as the first
// layer has read it, so the input's buffer serves the later, smaller layers
// instead of sitting out the pass (the paper net then runs in two buffers,
// input + pooled stem output). x must not be used afterwards.
func PredictArenaOwned(net *Sequential, x *tensor.Tensor, a *tensor.Arena) *tensor.Tensor {
	return predictArena(net, x, a, true)
}

func predictArena(net *Sequential, x *tensor.Tensor, a *tensor.Arena, owned bool) *tensor.Tensor {
	logits := net.forwardInferArena(x, a, owned)
	probs := a.GetTensor(logits.Shape[0], logits.Shape[1])
	tensor.SoftmaxInto(logits, probs.Data)
	a.PutTensor(logits)
	return probs
}
