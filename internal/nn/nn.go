// Package nn implements the neural-network layer abstraction PERCIVAL's
// detection model is built from: composable layers with forward/backward
// passes, the SqueezeNet "fire" module, SGD-with-momentum training (the
// paper's §4.3 recipe), deterministic initialization, and a compact binary
// model format suitable for shipping inside a browser binary.
package nn

import (
	"fmt"
	"sync/atomic"

	"percival/internal/tensor"
)

// Param is a learnable tensor together with its gradient accumulator.
type Param struct {
	Name string
	W    *tensor.Tensor
	Grad *tensor.Tensor

	// gen counts rewrites of W (see Changed).
	gen atomic.Uint64
}

// Changed records a rewrite of W's values. The inference path keeps forms
// derived from the weights (a convolution's packed GEMM panels) and compares
// this count before every use, so whatever writes W.Data — an optimizer
// step, an initializer, Load — calls Changed on each Param it writes, and
// the next inference pass rebuilds from the new weights. Like any write to
// W, it must not run concurrently with inference on the same model.
func (p *Param) Changed() { p.gen.Add(1) }

// NewParam allocates a parameter and matching zero gradient.
func NewParam(name string, shape ...int) *Param {
	return &Param{Name: name, W: tensor.New(shape...), Grad: tensor.New(shape...)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Layer is one stage of the network. Forward with train=false must be safe
// to call concurrently from multiple goroutines (PERCIVAL runs one classifier
// instance per raster worker); train=true may retain per-call state for the
// subsequent Backward and is single-goroutine only.
type Layer interface {
	// Name identifies the layer for serialization and debugging.
	Name() string
	// Forward runs the layer. It may modify x in place for activation
	// layers; callers must not reuse x afterwards.
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward consumes the upstream gradient and returns the gradient with
	// respect to the layer input, accumulating parameter gradients.
	Backward(dy *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's learnable parameters (possibly empty).
	Params() []*Param
}

// Sequential chains layers in order. Its forward plans (see plan.go) are
// compiled from Layers on first use at each input shape: the list must not
// change once the network has run inference.
type Sequential struct {
	Layers []Layer

	plans planCache
}

// NewSequential builds a sequential network from the given layers.
func NewSequential(layers ...Layer) *Sequential {
	return &Sequential{Layers: layers}
}

// Name implements Layer.
func (s *Sequential) Name() string { return "sequential" }

// Forward runs every layer in order.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward propagates the gradient through every layer in reverse.
func (s *Sequential) Backward(dy *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		dy = s.Layers[i].Backward(dy)
	}
	return dy
}

// Params collects parameters from all layers.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ParamCount returns the total number of scalar weights.
func ParamCount(l Layer) int {
	n := 0
	for _, p := range l.Params() {
		n += p.W.Len()
	}
	return n
}

// SizeBytes returns the serialized float32 weight footprint, the number the
// paper quotes when calling the PERCIVAL model "less than 2 MB".
func SizeBytes(l Layer) int { return ParamCount(l) * 4 }

// shapeStr formats a shape for error messages.
func shapeStr(s []int) string { return fmt.Sprint(s) }
