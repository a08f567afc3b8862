package engine

import (
	"percival/internal/imaging"
	"percival/internal/nn"
	"percival/internal/tensor"
)

// Engine names used by the built-in backends and the selection flags.
const (
	FP32Name = "fp32"
	Int8Name = "int8"
)

// FP32Backend runs inference on the float32 forward plan (nn.PredictArena
// over the trained Sequential). Each frame is scaled into the plan's byte
// region and converted into its slot of the plan's input region.
type FP32Backend struct {
	base
	net *nn.Sequential
}

// NewFP32 wraps a trained network as a Backend at the given input
// resolution.
func NewFP32(net *nn.Sequential, res int) *FP32Backend {
	b := &FP32Backend{net: net}
	per := 4 * res * res
	b.base = base{
		name: FP32Name,
		res:  res,
		infer: func(st *inferState, chunk []*imaging.Bitmap) *tensor.Tensor {
			x, pix := nn.InputArena(net, st.arena, len(chunk), 4, res, res)
			scaled := imaging.Bitmap{W: res, H: res, Pix: pix}
			for i, f := range chunk {
				imaging.ResizeBilinearInto(f, &scaled)
				imaging.ToTensorInto(&scaled, x.Data[i*per:(i+1)*per])
			}
			return nn.PredictArena(net, x, st.arena)
		},
		size: func(a *tensor.Arena, n int) { nn.InputArena(net, a, n, 4, res, res) },
	}
	return b
}

// Net exposes the wrapped network (model introspection, size reporting).
func (b *FP32Backend) Net() *nn.Sequential { return b.net }

// SizeBytes is the float32 weight footprint.
func (b *FP32Backend) SizeBytes() int { return nn.SizeBytes(b.net) }

// Replicate shares the weights and starts with no warm state.
func (b *FP32Backend) Replicate() Backend { return NewFP32(b.net, b.res) }

// Int8Backend runs inference on the quantized INT8 engine. Frames reach the
// network as the scaled bitmaps' bytes: each frame is resized straight into
// the plan's input region, whose pixels the network's stem maps through its
// input table as it reads them (nn.QuantizedSequential.PredictArenaU8), so
// no float tensor, no planes and no separate scaled frame are built, and
// none sits in the warm state.
type Int8Backend struct {
	base
	qnet *nn.QuantizedSequential
}

// NewInt8 wraps a calibrated quantized network as a Backend at the given
// input resolution.
func NewInt8(qnet *nn.QuantizedSequential, res int) *Int8Backend {
	b := &Int8Backend{qnet: qnet}
	per := 4 * res * res
	b.base = base{
		name: Int8Name,
		res:  res,
		infer: func(st *inferState, chunk []*imaging.Bitmap) *tensor.Tensor {
			pix := qnet.InputArenaU8(st.arena, len(chunk), res, res)
			scaled := imaging.Bitmap{W: res, H: res}
			for i, f := range chunk {
				scaled.Pix = pix[i*per : (i+1)*per]
				imaging.ResizeBilinearInto(f, &scaled)
			}
			return qnet.PredictArenaU8(pix, len(chunk), res, res, st.arena)
		},
		size: func(a *tensor.Arena, n int) { qnet.InputArenaU8(a, n, res, res) },
	}
	return b
}

// QNet exposes the wrapped quantized network.
func (b *Int8Backend) QNet() *nn.QuantizedSequential { return b.qnet }

// SizeBytes is the INT8 weight footprint.
func (b *Int8Backend) SizeBytes() int { return b.qnet.SizeBytes() }

// Replicate shares the quantized weights and starts with no warm state.
func (b *Int8Backend) Replicate() Backend { return NewInt8(b.qnet, b.res) }
