package nn

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"percival/internal/tensor"
)

// Conv2D is a 2-D convolution layer with optional bias.
type Conv2D struct {
	name string
	Spec tensor.ConvSpec
	Wt   *Param // [OutC, InC*KH*KW]
	Bias *Param // [OutC]

	// training-only state (single goroutine)
	lastIn *tensor.Tensor

	// pack caches the weights' GEMM panels for the inference path (see
	// packedWeights). Training never reads it.
	pack atomic.Pointer[convPack]
}

// convPack is a convolution's packed weights and the Wt generation they were
// packed from.
type convPack struct {
	gen     uint64
	weights *tensor.PackedWeights
}

// NewConv2D constructs a convolution layer with zeroed weights; call an
// initializer (He, Xavier) or load weights before use.
func NewConv2D(name string, spec tensor.ConvSpec) *Conv2D {
	k := spec.InC * spec.KH * spec.KW
	return &Conv2D{
		name: name,
		Spec: spec,
		Wt:   NewParam(name+".weight", spec.OutC, k),
		Bias: NewParam(name+".bias", spec.OutC),
	}
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.name }

// Forward implements Layer. Inference calls share nothing mutable and are
// goroutine-safe.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(x.Shape) != 4 || x.Shape[1] != c.Spec.InC {
		panic(fmt.Sprintf("nn: conv %s: input shape %s, want [N,%d,H,W]", c.name, shapeStr(x.Shape), c.Spec.InC))
	}
	y := tensor.ConvForward(x, c.Wt.W.Data, c.Bias.W.Data, c.Spec)
	if train {
		c.lastIn = x
	}
	return y
}

// Backward implements Layer.
func (c *Conv2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if c.lastIn == nil {
		panic("nn: conv backward without forward(train=true)")
	}
	scratch := tensor.GetScratch(c.Spec.ColScratchLen(c.lastIn.Shape[2], c.lastIn.Shape[3]))
	dx := tensor.ConvBackward(c.lastIn, dy, c.Wt.W.Data, c.Wt.Grad.Data, c.Bias.Grad.Data, c.Spec, *scratch)
	tensor.PutScratch(scratch)
	c.lastIn = nil
	return dx
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.Wt, c.Bias} }

// ReLU is the rectified-linear activation. It operates in place.
type ReLU struct {
	name string
	mask []bool
}

// NewReLU constructs a ReLU layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Name implements Layer.
func (r *ReLU) Name() string { return r.name }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		r.mask = tensor.ReLUForward(x)
	} else {
		for i, v := range x.Data {
			if v < 0 {
				x.Data[i] = 0
			}
		}
	}
	return x
}

// Backward implements Layer.
func (r *ReLU) Backward(dy *tensor.Tensor) *tensor.Tensor {
	return tensor.ReLUBackward(dy, r.mask)
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// MaxPool is a square max-pooling layer.
type MaxPool struct {
	name string
	Spec tensor.PoolSpec
	// argmaxP is pooled scratch (tensor.GetScratchI32) held between
	// Forward(train=true) and Backward, like the other cross-call scratch.
	argmaxP *[]int32
	inShape []int
}

// NewMaxPool constructs a max-pooling layer.
func NewMaxPool(name string, k, stride int) *MaxPool {
	return &MaxPool{name: name, Spec: tensor.PoolSpec{K: k, Stride: stride}}
}

// Name implements Layer.
func (m *MaxPool) Name() string { return m.name }

// Forward implements Layer. The inference path skips argmax bookkeeping
// entirely; the training path draws the argmax buffer from the shared
// int32 scratch pool and returns it in Backward.
func (m *MaxPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	oh, ow := m.Spec.OutSize(x.Shape[2], x.Shape[3])
	y := tensor.New(x.Shape[0], x.Shape[1], oh, ow)
	if !train {
		tensor.MaxPoolForwardInto(x, m.Spec, y, make([]float32, m.Spec.ScratchLen(x.Shape[3])))
		return y
	}
	if m.argmaxP != nil { // forward without backward: recycle the old scratch
		tensor.PutScratchI32(m.argmaxP)
	}
	m.argmaxP = tensor.GetScratchI32(y.Len())
	tensor.MaxPoolForwardArgmax(x, m.Spec, y, *m.argmaxP)
	m.inShape = append(m.inShape[:0], x.Shape...)
	return y
}

// Backward implements Layer.
func (m *MaxPool) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if m.argmaxP == nil {
		panic("nn: maxpool backward without forward(train=true)")
	}
	dx := tensor.MaxPoolBackward(dy, *m.argmaxP, m.inShape)
	tensor.PutScratchI32(m.argmaxP)
	m.argmaxP = nil
	return dx
}

// Params implements Layer.
func (m *MaxPool) Params() []*Param { return nil }

// GlobalAvgPool reduces each channel plane to its mean, then flattens to
// [N,C]. SqueezeNet-style classifier head.
type GlobalAvgPool struct {
	name    string
	inShape []int
}

// NewGlobalAvgPool constructs the layer.
func NewGlobalAvgPool(name string) *GlobalAvgPool { return &GlobalAvgPool{name: name} }

// Name implements Layer.
func (g *GlobalAvgPool) Name() string { return g.name }

// Forward implements Layer.
func (g *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		g.inShape = append([]int(nil), x.Shape...)
	}
	y := tensor.GlobalAvgPoolForward(x)
	return y.Reshape(x.Shape[0], x.Shape[1])
}

// Backward implements Layer.
func (g *GlobalAvgPool) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dy4 := dy.Reshape(dy.Shape[0], dy.Shape[1], 1, 1)
	return tensor.GlobalAvgPoolBackward(dy4, g.inShape)
}

// Params implements Layer.
func (g *GlobalAvgPool) Params() []*Param { return nil }

// Dropout zeroes activations with probability P during training and scales
// the survivors by 1/(1-P) (inverted dropout); it is the identity at
// inference time. SqueezeNet places a 0.5 dropout before its final conv.
type Dropout struct {
	name string
	P    float64
	rng  *rand.Rand
	mask []bool
}

// NewDropout constructs a dropout layer with its own deterministic RNG.
func NewDropout(name string, p float64, seed int64) *Dropout {
	return &Dropout{name: name, P: p, rng: rand.New(rand.NewSource(seed))}
}

// Name implements Layer.
func (d *Dropout) Name() string { return d.name }

// Forward implements Layer.
func (d *Dropout) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train || d.P <= 0 {
		return x
	}
	scale := float32(1 / (1 - d.P))
	d.mask = make([]bool, len(x.Data))
	for i := range x.Data {
		if d.rng.Float64() < d.P {
			x.Data[i] = 0
		} else {
			d.mask[i] = true
			x.Data[i] *= scale
		}
	}
	return x
}

// Backward implements Layer.
func (d *Dropout) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if d.mask == nil {
		return dy
	}
	scale := float32(1 / (1 - d.P))
	for i := range dy.Data {
		if d.mask[i] {
			dy.Data[i] *= scale
		} else {
			dy.Data[i] = 0
		}
	}
	return dy
}

// Params implements Layer.
func (d *Dropout) Params() []*Param { return nil }
