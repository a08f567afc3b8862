package engine

import (
	"percival/internal/nn"
	"percival/internal/tensor"
)

// Engine names used by the built-in backends and the selection flags.
const (
	FP32Name = "fp32"
	Int8Name = "int8"
)

// FP32Backend runs inference on the float32 arena fast path
// (nn.PredictArena over the trained Sequential).
type FP32Backend struct {
	base
	net *nn.Sequential
}

// NewFP32 wraps a trained network as a Backend at the given input
// resolution.
func NewFP32(net *nn.Sequential, res int) *FP32Backend {
	b := &FP32Backend{net: net}
	b.base = base{
		name: FP32Name,
		res:  res,
		predict: func(x *tensor.Tensor, a *tensor.Arena) *tensor.Tensor {
			return nn.PredictArenaOwned(net, x, a)
		},
	}
	return b
}

// Net exposes the wrapped network (model introspection, size reporting).
func (b *FP32Backend) Net() *nn.Sequential { return b.net }

// SizeBytes is the float32 weight footprint.
func (b *FP32Backend) SizeBytes() int { return nn.SizeBytes(b.net) }

// Replicate shares the weights and starts with no warm state.
func (b *FP32Backend) Replicate() Backend { return NewFP32(b.net, b.res) }

// Int8Backend runs inference on the quantized INT8 engine.
type Int8Backend struct {
	base
	qnet *nn.QuantizedSequential
}

// NewInt8 wraps a calibrated quantized network as a Backend at the given
// input resolution.
func NewInt8(qnet *nn.QuantizedSequential, res int) *Int8Backend {
	b := &Int8Backend{qnet: qnet}
	b.base = base{
		name: Int8Name,
		res:  res,
		predict: func(x *tensor.Tensor, a *tensor.Arena) *tensor.Tensor {
			probs := qnet.PredictArena(x, a)
			a.PutTensor(x)
			return probs
		},
	}
	return b
}

// QNet exposes the wrapped quantized network.
func (b *Int8Backend) QNet() *nn.QuantizedSequential { return b.qnet }

// SizeBytes is the INT8 weight footprint.
func (b *Int8Backend) SizeBytes() int { return b.qnet.SizeBytes() }

// Replicate shares the quantized weights and starts with no warm state.
func (b *Int8Backend) Replicate() Backend { return NewInt8(b.qnet, b.res) }
