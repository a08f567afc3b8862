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
// values before returning it (or the arena) to a pool. Adjacent
// Conv2D+ReLU pairs are fused into a single output pass.
func (s *Sequential) ForwardInfer(x *tensor.Tensor, a *tensor.Arena) *tensor.Tensor {
	y, owned := s.forwardInfer(x, a, false)
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

// forwardInfer implements inferLayer, peephole-fusing Conv2D+ReLU pairs.
func (s *Sequential) forwardInfer(x *tensor.Tensor, a *tensor.Arena, owned bool) (*tensor.Tensor, bool) {
	for i := 0; i < len(s.Layers); i++ {
		l := s.Layers[i]
		if c, ok := l.(*Conv2D); ok {
			relu := false
			if i+1 < len(s.Layers) {
				if _, isRelu := s.Layers[i+1].(*ReLU); isRelu {
					relu = true
					i++
				}
			}
			x, owned = c.inferConv(x, a, owned, relu)
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

// inferConv is the arena conv forward, optionally fusing the following ReLU.
func (c *Conv2D) inferConv(x *tensor.Tensor, a *tensor.Arena, owned, relu bool) (*tensor.Tensor, bool) {
	if len(x.Shape) != 4 || x.Shape[1] != c.Spec.InC {
		panic(fmt.Sprintf("nn: conv %s: input shape %s, want [N,%d,H,W]", c.name, shapeStr(x.Shape), c.Spec.InC))
	}
	oh, ow := c.Spec.OutSize(x.Shape[2], x.Shape[3])
	y := a.GetTensor(x.Shape[0], c.Spec.OutC, oh, ow)
	tensor.ConvForwardInto(x, c.Wt.W.Data, c.Bias.W.Data, c.Spec, y, 0, relu)
	if owned {
		a.PutTensor(x)
	}
	return y, true
}

func (c *Conv2D) forwardInfer(x *tensor.Tensor, a *tensor.Arena, owned bool) (*tensor.Tensor, bool) {
	return c.inferConv(x, a, owned, false)
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
	s, _ := f.Squeeze.inferConv(x, a, owned, true)
	n, h, w := s.Shape[0], s.Shape[2], s.Shape[3]
	e1, e3 := f.Expand1.Spec.OutC, f.Expand3.Spec.OutC
	y := a.GetTensor(n, e1+e3, h, w)
	tensor.ConvForwardInto(s, f.Expand1.Wt.W.Data, f.Expand1.Bias.W.Data, f.Expand1.Spec, y, 0, true)
	tensor.ConvForwardInto(s, f.Expand3.Wt.W.Data, f.Expand3.Bias.W.Data, f.Expand3.Spec, y, e1, true)
	a.PutTensor(s)
	return y, true
}

// PredictArena runs inference using buffers from a and returns per-sample
// class probabilities ([N,C]) in an arena-owned tensor: copy out the scores
// you need, then PutTensor it before releasing the arena.
func PredictArena(net *Sequential, x *tensor.Tensor, a *tensor.Arena) *tensor.Tensor {
	logits := net.ForwardInfer(x, a)
	probs := a.GetTensor(logits.Shape[0], logits.Shape[1])
	tensor.SoftmaxInto(logits, probs.Data)
	a.PutTensor(logits)
	return probs
}
