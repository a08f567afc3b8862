package nn

import (
	"fmt"

	"percival/internal/tensor"
)

// This file is the FP32 inference path. Layer.Forward allocates a fresh
// output per layer and stays the reference a pass is tested against; a pass
// here runs the network's forward plan (plan.go) in a tensor.Arena. The
// first pass at an input shape compiles the plan from fuse's units, the
// walk the INT8 engine (quant.go) is built from too: a Conv2D with the ReLU
// and unpadded MaxPool behind it is one stage, a Fire is its three
// convolutions with the expands writing their slots of the concatenation —
// pooled, when an unpadded MaxPool follows the fire — and every activation
// and stage scratch gets its place in the arena's float slab. Once the
// arena has run the plan a pass allocates nothing. The tensors a pass
// returns are views of the arena: copy out what you need before its next
// pass.

// Stage kinds of an FP32 plan.
const (
	stageConv    = iota // a tensor.ConvStage: conv, bias, optional ReLU and pool
	stageReLU           // a ReLU behind no convolution, never in place
	stagePool           // a max pool behind neither a convolution nor a fire
	stageGAP            // global average pooling to [N,C]
	stageSoftmax        // the probabilities PredictArena returns
)

// unit is one step of a network's fused layer walk: a layer, and what runs
// in its epilogue.
type unit struct {
	layer Layer
	relu  bool            // a Conv2D's ReLU
	pool  tensor.PoolSpec // when K > 0, the unpadded max pool behind a Conv2D or Fire
}

// fuse is the one decision of what fuses into what, read by both engines:
// layers with nested Sequentials spliced in and Dropout (the identity at
// inference) left out, each Conv2D bound to the ReLU and the unpadded
// MaxPool right behind it, and each Fire to the unpadded MaxPool right
// behind it.
func fuse(layers []Layer) []unit {
	var us []unit
	for _, l := range flatten(nil, layers) {
		if _, ok := l.(*Dropout); ok {
			continue
		}
		if n := len(us); n > 0 && us[n-1].absorb(l) {
			continue
		}
		us = append(us, unit{layer: l})
	}
	return us
}

// absorb binds l into u's epilogue and reports whether it did: a ReLU right
// behind a Conv2D, and an unpadded MaxPool right behind a Conv2D (and its
// ReLU) or a Fire.
func (u *unit) absorb(l Layer) bool {
	if u.pool.K > 0 {
		return false
	}
	switch u.layer.(type) {
	case *Conv2D:
		if _, ok := l.(*ReLU); ok && !u.relu {
			u.relu = true
			return true
		}
	case *Fire:
	default:
		return false
	}
	if m, ok := l.(*MaxPool); ok && m.Spec.Pad == 0 {
		u.pool = m.Spec
		return true
	}
	return false
}

// compilePlan compiles layers' forward pass into p, for images of
// p.key.c×h×w. A layer without an inference stage, or one that cannot take
// its input, panics here, before any pass runs.
func compilePlan(p *plan, layers []Layer) {
	k := p.key
	cur := p.newAct(k.c, k.h, k.w)
	for _, u := range fuse(layers) {
		switch l := u.layer.(type) {
		case *Conv2D:
			cur = p.addConv(stage{kind: stageConv, conv: l, relu: u.relu, pool: u.pool}, cur, -1)
		case *Fire:
			sq := p.addConv(stage{kind: stageConv, conv: l.Squeeze, relu: true}, cur, -1)
			h, w := p.dims[sq][1], p.dims[sq][2] // both expands keep the squeeze's size
			if u.pool.K > 0 {
				h, w = u.pool.OutSize(h, w)
			}
			y := p.newAct(l.OutChannels(), h, w)
			p.addConv(stage{kind: stageConv, conv: l.Expand1, relu: true, pool: u.pool}, sq, y)
			cur = p.addConv(stage{kind: stageConv, conv: l.Expand3, relu: true, pool: u.pool, chOff: l.Expand1.Spec.OutC}, sq, y)
		case *ReLU:
			cur = p.add(stage{kind: stageReLU}, cur, p.newAct(p.dims[cur]...), slabF32, 0, 0)
		case *MaxPool:
			c, h, w := p.image(cur, l.Name())
			oh, ow := l.Spec.OutSize(h, w)
			cur = p.add(stage{kind: stagePool, pool: l.Spec}, cur, p.newAct(c, oh, ow), slabF32, l.Spec.ScratchLen(w), 0)
		case *GlobalAvgPool:
			c, _, _ := p.image(cur, l.Name())
			cur = p.add(stage{kind: stageGAP}, cur, p.newAct(c), slabF32, 0, 0)
		default:
			panic(fmt.Sprintf("nn: layer %s (%T) has no inference stage", l.Name(), l))
		}
	}
	p.logits = cur
	p.probs = p.add(stage{kind: stageSoftmax}, cur, p.newAct(p.dims[cur][0]), slabF32, 0, 0)
	p.pix = p.region(region{slab: slabU8, size: k.h * k.w * 4})
}

// flatten appends layers to dst with every nested Sequential spliced in.
func flatten(dst, layers []Layer) []Layer {
	for _, l := range layers {
		if s, ok := l.(*Sequential); ok {
			dst = flatten(dst, s.Layers)
		} else {
			dst = append(dst, l)
		}
	}
	return dst
}

// newAct adds a float activation of shape dims an image.
func (p *plan) newAct(dims ...int) int {
	per := 1
	for _, d := range dims {
		per *= d
	}
	i := p.act(slabF32, per)
	p.dims[i] = dims
	return i
}

// image returns activation i's channels and size, or panics naming the
// layer that wanted an image.
func (p *plan) image(i int, name string) (c, h, w int) {
	if d := p.dims[i]; len(d) == 3 {
		return d[0], d[1], d[2]
	}
	panic(fmt.Sprintf("nn: %s: input shape %s, want [N,C,H,W]", name, shapeStr(p.dims[i])))
}

// addConv adds st over activation in into out — when out is -1, a new
// activation of the convolution's (or its pool's) output — and returns out.
func (p *plan) addConv(st stage, in, out int) int {
	s, d := st.conv.Spec, p.dims[in]
	if len(d) != 3 || d[0] != s.InC {
		panic(fmt.Sprintf("nn: conv %s: input shape %s, want [N,%d,H,W]", st.conv.name, shapeStr(d), s.InC))
	}
	if out < 0 {
		oh, ow := s.OutSize(d[1], d[2])
		if st.pool.K > 0 {
			oh, ow = st.pool.OutSize(oh, ow)
		}
		out = p.newAct(s.OutC, oh, ow)
	}
	cs := tensor.ConvStage{Spec: s, ReLU: st.relu, Pool: st.pool}
	return p.add(st, in, out, slabF32, cs.ScratchLen(d[1], d[2]), 0)
}

// run makes one pass of x's n images through p in a, calling observe, when
// set, with each convolution and its output. It returns the logits and the
// probabilities, views of a.
func (p *plan) run(x *tensor.Tensor, a *tensor.Arena, observe func(*Conv2D, []float32)) (logits, probs *tensor.Tensor) {
	n := x.Shape[0]
	f, _, _ := p.slabsIn(a)
	ts := a.Tensors(len(p.dims))
	for i := 1; i < len(ts); i++ {
		if p.dims[i] != nil {
			ts[i].Shape = append(append(ts[i].Shape[:0], n), p.dims[i]...)
			ts[i].Data = view(f, &p.regions[i], n)
		}
	}
	for i := range p.stages {
		st := &p.stages[i]
		in, out, scratch := x, &ts[st.out], view(f, &p.regions[st.scratch], n)
		if st.in > 0 {
			in = &ts[st.in]
		}
		switch st.kind {
		case stageConv:
			c := st.conv
			cs := tensor.ConvStage{Spec: c.Spec, W: c.Wt.W.Data, Packed: c.packedWeights(), Bias: c.Bias.W.Data, ReLU: st.relu, Pool: st.pool}
			cs.ForwardInto(in, out, st.chOff, scratch)
			if observe != nil {
				observe(c, out.Data)
			}
		case stageReLU:
			for j, v := range in.Data {
				if v < 0 {
					v = 0
				}
				out.Data[j] = v
			}
		case stagePool:
			tensor.MaxPoolForwardInto(in, st.pool, out, scratch)
		case stageGAP:
			tensor.GlobalAvgPoolInto(in, out.Data)
		case stageSoftmax:
			tensor.SoftmaxInto(in, out.Data)
		}
	}
	return &ts[p.logits], &ts[p.probs]
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

// plan returns the plan a runs n images of c×h×w in (see planCache.get).
func (s *Sequential) plan(a *tensor.Arena, n, c, h, w int) *plan {
	return s.plans.get(a, planKey{c: c, h: h, w: w}, n, func(p *plan) { compilePlan(p, s.Layers) })
}

// forward runs the plan for x ([N,C,H,W]) on x in a.
func (s *Sequential) forward(x *tensor.Tensor, a *tensor.Arena) (logits, probs *tensor.Tensor) {
	if len(x.Shape) != 4 {
		panic(fmt.Sprintf("nn: input shape %s, want [N,C,H,W]", shapeStr(x.Shape)))
	}
	return s.plan(a, x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]).run(x, a, nil)
}

// ForwardInfer runs the network's forward plan on x ([N,C,H,W], left
// untouched) in a and returns the logits, a view of a.
func (s *Sequential) ForwardInfer(x *tensor.Tensor, a *tensor.Arena) *tensor.Tensor {
	logits, _ := s.forward(x, a)
	return logits
}

// PredictArena runs the network's forward plan on x in a and returns the
// per-sample class probabilities ([N,C]), a view of a.
func PredictArena(net *Sequential, x *tensor.Tensor, a *tensor.Arena) *tensor.Tensor {
	_, probs := net.forward(x, a)
	return probs
}

// InputArena returns where n images of c×h×w wait in a for net's forward
// plan: x, the [n,c,h,w] tensor over the plan's input region, whose place
// later stages reuse once PredictArena's first has read it, and pix, h·w·4
// bytes for one RGBA8 frame on its way into x. Both are a's until its next
// pass.
func InputArena(net *Sequential, a *tensor.Arena, n, c, h, w int) (x *tensor.Tensor, pix []uint8) {
	p := net.plan(a, n, c, h, w)
	f, u, _ := p.slabsIn(a)
	x = &a.Tensors(len(p.dims))[0]
	x.Shape = append(x.Shape[:0], n, c, h, w)
	x.Data = view(f, &p.regions[0], n)
	return x, view(u, &p.regions[p.pix], n)
}
