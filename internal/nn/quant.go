package nn

import (
	"fmt"
	"slices"

	"percival/internal/tensor"
)

// This file implements the post-training INT8 inference engine: a
// QuantizedSequential runs the way Sequential.ForwardInfer does — a forward
// plan per input size, every buffer in the arena's slabs, fused
// conv+bias+ReLU in the requantize pass and direct-to-concat fire expands —
// but carries activations as u8 (≤ tensor.QMaxU8) in quad planes, four
// channels of a pixel per 32-bit word (see tensor.QConv), and weights as
// per-output-channel s8, accumulating in int32 through the quantized GEMM.
//
// A Calibrator performs the calibration pass: it replays the FP32 network
// over calibration inputs, records per-quant-point activation ranges, and
// folds every scale, bias, and zero-point compensation into two per-channel
// constants (mult, beta) consumed by the fused requantize epilogue, so the
// hot path touches no quantization arithmetic beyond one FMA per element.

// QuantizedSequential is the INT8 counterpart of a Sequential whose fused
// layer walk (fuse, which the FP32 plan compiles from too) is a first
// Conv2D+ReLU over at most four channels, then fires, then a final Conv2D
// and GlobalAvgPool, with an unpadded max pool behind the first convolution
// or any fire. Build one with Quantize.
//
// That first convolution, and its pool, run as one tensor.QStem reading the
// input as pixels — four bytes each, channel-minor, as a bitmap holds them —
// so a frame's bytes go from the bitmap to the stem through the input table
// without being split into planes. A fire's pool runs in both of its
// expands (tensor.QConv.Pool), which write the pooled concatenation, as the
// FP32 plan's expands do: pooling passes the quantization parameters and
// the channel layout through unchanged.
type QuantizedSequential struct {
	inQ tensor.QuantParams
	// inLUT is the whole input conversion for a pixel byte p: the float
	// p·(1/255) a frame's tensor would hold, through QuantizeU8 with inQ.
	inLUT   [256]uint8
	stem    tensor.QStem
	body    []tensor.QFire
	final   qFinal
	classes int

	plans planCache
}

// qFinal is the classifier convolution fused with global average pooling:
// the int32 accumulators are averaged per channel and mapped straight to
// FP32 logits (GAP and the affine dequantization commute), so the network
// leaves the quantized domain exactly once, on C·N values. conv's RQ is
// unused.
type qFinal struct {
	conv       tensor.QConv
	mult, beta []float32
}

// SizeBytes returns the quantized weight footprint (s8 weights plus the
// per-channel requantization constants), the number that shrinks 4× from
// the FP32 model.
func (q *QuantizedSequential) SizeBytes() int {
	total := q.stem.W.Len() + 8*len(q.stem.RQ.Mult)
	for i := range q.body {
		f := &q.body[i]
		for _, c := range [...]*tensor.QConv{&f.Squeeze, &f.Expand1, &f.Expand3} {
			total += c.W.Len() + 8*len(c.RQ.Mult)
		}
	}
	return total + q.final.conv.W.Len() + 8*len(q.final.mult)
}

// inputTable maps a pixel byte p straight to the network's quantized input
// for the value p/255 that imaging.ToTensorInto would have produced:
// QuantizeU8 over ToTensorInto's 256 possible outputs. PredictArenaU8's stem
// reads a frame's bytes through it, and so scores exactly as the float
// tensor does through PredictArena.
func inputTable(inQ tensor.QuantParams) (lut [256]uint8) {
	const inv = float32(1) / 255 // imaging.ToTensorInto's
	var vals [256]float32
	for p := range vals {
		vals[p] = float32(p) * inv
	}
	tensor.QuantizeU8(lut[:], vals[:], inQ)
	return lut
}

// Stage kinds of an INT8 plan.
const (
	qStageStem     = iota // the stem (and pool1) from the input pixels
	qStageConv            // a fire's squeeze or expand, the latter maybe pooled
	qStageClassify        // the classifier and GAP into the logits
	qStageSoftmax         // the probabilities
)

// compile compiles the forward pass into p, for frames of p.key.h×w.
func (q *QuantizedSequential) compile(p *plan) {
	h, w := p.key.h, p.key.w
	p.pix = p.act(slabU8, h*w*4)
	c := q.stem.Spec.OutC
	u8, i32 := q.stem.ScratchLen(h, w)
	stem := stage{kind: qStageStem, h: h, w: w}
	h, w = q.stem.OutSize(h, w)
	cur := p.add(stem, p.pix, p.act(slabU8, quadBytes(c, h, w)), slabU8, u8, i32)
	conv := func(e *tensor.QConv, in, out, planes, off int) int {
		u8, i32 := e.ScratchLen(h, w)
		return p.add(stage{kind: qStageConv, qconv: e, h: h, w: w, planes: planes, chOff: off}, in, out, slabU8, u8, i32)
	}
	for i := range q.body {
		f := &q.body[i]
		sqC := f.Squeeze.Spec.OutC
		sq := conv(&f.Squeeze, cur, p.act(slabU8, quadBytes(sqC, h, w)), (sqC+3)/4, 0)
		c = f.OutC()
		oh, ow := f.Expand1.OutSize(h, w)
		y := p.act(slabU8, quadBytes(c, oh, ow))
		conv(&f.Expand1, sq, y, (c+3)/4, 0)
		cur = conv(&f.Expand3, sq, y, (c+3)/4, (f.Expand1.Spec.OutC+3)/4)
		h, w = oh, ow
	}
	fc := &q.final.conv
	u8, _ = fc.ScratchLen(h, w)
	fh, fw := fc.Spec.OutSize(h, w) // the accumulators are the classifier's int32 scratch
	p.logits = p.add(stage{kind: qStageClassify, h: h, w: w}, cur, p.act(slabF32, q.classes), slabU8, u8, fc.Spec.OutC*fh*fw)
	p.probs = p.add(stage{kind: qStageSoftmax}, p.logits, p.act(slabF32, q.classes), slabU8, 0, 0)
}

// quadBytes is the size of an image's activation of c channels of h×w in
// quad planes.
func quadBytes(c, h, w int) int { return (c + 3) / 4 * 4 * h * w }

// run makes one pass of the n frames of pix (see tensor.QStem; each byte
// through lut, nil when already quantized) through p in a and returns the
// logits and the probabilities, views of a.
func (q *QuantizedSequential) run(p *plan, pix []uint8, n int, lut *[256]uint8, a *tensor.Arena) (logits, probs *tensor.Tensor) {
	f, u, i32 := p.slabsIn(a)
	ts := a.Tensors(2)
	for j, r := range [2]int{p.logits, p.probs} {
		ts[j].Shape = append(ts[j].Shape[:0], n, q.classes)
		ts[j].Data = view(f, &p.regions[r], n)
	}
	for i := range p.stages {
		st := &p.stages[i]
		x, y := pix, view(u, &p.regions[st.out], n)
		if st.kind != qStageStem {
			x = view(u, &p.regions[st.in], n)
		}
		su, si := view(u, &p.regions[st.scratch], n), view(i32, &p.regions[st.i32], n)
		switch st.kind {
		case qStageStem:
			q.stem.ForwardInto(x, n, st.h, st.w, lut, y, su, si)
		case qStageConv:
			st.qconv.ForwardInto(x, n, st.h, st.w, y, st.planes, st.chOff, su, si)
		case qStageClassify:
			q.final.forward(x, n, st.h, st.w, si, su, ts[0].Data)
		case qStageSoftmax:
			tensor.SoftmaxInto(&ts[0], ts[1].Data)
		}
	}
	return &ts[0], &ts[1]
}

// forward runs the classifier over the n images of h×w quad planes in x
// into logits, one image at a time through acc.
func (f *qFinal) forward(x []uint8, n, h, w int, acc []int32, scratch []uint8, logits []float32) {
	s := f.conv.Spec
	oh, ow := s.OutSize(h, w)
	spatial, il := oh*ow, len(x)/n
	inv := 1 / float32(spatial)
	for i := 0; i < n; i++ {
		f.conv.AccInto(x[i*il:(i+1)*il], h, w, acc, scratch)
		for oc := 0; oc < s.OutC; oc++ {
			var sum int64
			for _, v := range acc[oc*spatial : (oc+1)*spatial] {
				sum += int64(v)
			}
			logits[i*s.OutC+oc] = f.mult[oc]*float32(sum)*inv + f.beta[oc]
		}
	}
}

// plan returns the plan a runs n frames of h×w in (see planCache.get).
func (q *QuantizedSequential) plan(a *tensor.Arena, n, h, w int) *plan {
	return q.plans.get(a, planKey{h: h, w: w}, n, q.compile)
}

// ForwardInfer runs a quantized forward pass in a on the same [N,C,H,W]
// float32 input as the FP32 path, quantized at the entry into the stem's
// pixel layout in the plan's input region, and returns the logits
// [N, classes], a view of a.
func (q *QuantizedSequential) ForwardInfer(x *tensor.Tensor, a *tensor.Arena) *tensor.Tensor {
	logits, _ := q.forwardFloat(x, a)
	return logits
}

// PredictArena is ForwardInfer returning per-sample class probabilities
// ([N,C]) — the INT8 counterpart of nn.PredictArena.
func (q *QuantizedSequential) PredictArena(x *tensor.Tensor, a *tensor.Arena) *tensor.Tensor {
	_, probs := q.forwardFloat(x, a)
	return probs
}

func (q *QuantizedSequential) forwardFloat(x *tensor.Tensor, a *tensor.Arena) (logits, probs *tensor.Tensor) {
	if len(x.Shape) != 4 || x.Shape[1] != q.stem.Spec.InC {
		panic(fmt.Sprintf("nn: QuantizedSequential: input shape %s, want [N,%d,H,W]", shapeStr(x.Shape), q.stem.Spec.InC))
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	pix := q.InputArenaU8(a, n, h, w)
	tensor.QuantizePixelsU8(pix, x.Data, n, c, h*w, q.inQ)
	return q.run(q.plan(a, n, h, w), pix, n, nil, a)
}

// InputArenaU8 returns the plan's input region in a for n frames of h×w:
// n·h·w·4 bytes for PredictArenaU8 to read, a's until its next pass.
func (q *QuantizedSequential) InputArenaU8(a *tensor.Arena, n, h, w int) []uint8 {
	p := q.plan(a, n, h, w)
	_, u, _ := p.slabsIn(a)
	return view(u, &p.regions[p.pix], n)
}

// PredictArenaU8 is PredictArena for frames as they are decoded: pix holds n
// h×w RGBA8 bitmaps back to back, 4 bytes a pixel, whose bytes the stem maps
// through the network's input table as it reads them — what PredictArena
// scores for the float tensor imaging.ToTensorInto makes of the same
// bitmaps. pix is usually InputArenaU8's region, whose place later stages
// reuse once the stem has read it.
func (q *QuantizedSequential) PredictArenaU8(pix []uint8, n, h, w int, a *tensor.Arena) *tensor.Tensor {
	if len(pix) < n*h*w*4 {
		panic(fmt.Sprintf("nn: QuantizedSequential: %d pixel bytes, want %d bitmaps of %d×%d", len(pix), n, w, h))
	}
	_, probs := q.run(q.plan(a, n, h, w), pix, n, &q.inLUT, a)
	return probs
}

// observer tracks the real-valued range of one quantization point.
type observer struct {
	min, max float32
	seen     bool
}

func (o *observer) observe(data []float32) {
	for _, v := range data {
		if !o.seen {
			o.min, o.max, o.seen = v, v, true
			continue
		}
		if v < o.min {
			o.min = v
		}
		if v > o.max {
			o.max = v
		}
	}
}

func (o *observer) params() tensor.QuantParams {
	return tensor.ChooseQuantParams(o.min, o.max)
}

// Quantize builds the INT8 engine from a trained FP32 network, calibrating
// activation ranges on the given input tensors (each [N,C,H,W]; a handful of
// representative frames suffices). The FP32 network is not modified. A caller
// that can produce its inputs one at a time feeds a Calibrator itself and
// never holds the set.
func Quantize(net *Sequential, calib []*tensor.Tensor) (*QuantizedSequential, error) {
	c, err := NewCalibrator(net)
	if err != nil {
		return nil, err
	}
	for _, x := range calib {
		if _, err := c.Observe(x); err != nil {
			return nil, err
		}
	}
	return c.Quantize()
}

// Calibrator is the calibration pass as a stream: Observe replays the FP32
// network over one input at a time, recording the range of every tensor that
// will live in the quantized domain and returning the probabilities the pass
// computed, and Quantize builds the engine from the ranges seen. The replay
// is the network's FP32 forward plan — the one PredictArena serves, built
// from the same fused units as the engine, so each pool runs where the INT8
// one does — a frame at a time, so the pass holds one frame's working set
// however many frames it is shown. Not safe for concurrent use.
type Calibrator struct {
	net   *Sequential
	stem  unit    // the first of fuse's units: a convolution with ReLU and any pool
	fires []unit  // the units between it and the classifier, each a fire and any pool
	final *Conv2D // the classifier, the last unit but the GlobalAvgPool
	inObs observer
	// obs watches the outputs that are quantization points: the stem's
	// (after the pool fused into it, the only values the INT8 stem
	// requantizes, since it pools raw accumulators), and each fire's squeeze
	// and concatenation (whose last writer is Expand3; pooled, when a pool
	// follows the fire, as the INT8 expands requantize only pooled values).
	obs   map[*Conv2D]*observer
	probs tensor.Tensor // the last Observe's probabilities
}

// NewCalibrator checks that net's fused layer walk is one the INT8 engine
// runs and returns a calibrator for it. The network is read, never
// modified.
func NewCalibrator(net *Sequential) (*Calibrator, error) {
	us := fuse(net.Layers)
	if len(us) < 2 {
		return nil, fmt.Errorf("nn: Quantize: network too short")
	}
	if _, ok := us[len(us)-1].layer.(*GlobalAvgPool); !ok {
		return nil, fmt.Errorf("nn: Quantize: network must end in GlobalAvgPool, got %T", us[len(us)-1].layer)
	}
	head := us[len(us)-2]
	final, ok := head.layer.(*Conv2D)
	if !ok || head.relu || head.pool.K > 0 {
		return nil, fmt.Errorf("nn: Quantize: no classifier convolution (without ReLU or pool) right before GlobalAvgPool")
	}
	us = us[:len(us)-2]
	// The stem packs one input pixel's channels into one 4-byte quad of the
	// quantized GEMM (see tensor.QStem).
	if len(us) == 0 || !us[0].relu {
		return nil, fmt.Errorf("nn: Quantize: the INT8 engine reads its input through a convolution with ReLU before the classifier, and the network does not start with one")
	}
	stem := us[0].layer.(*Conv2D)
	if stem.Spec.InC > 4 {
		return nil, fmt.Errorf("nn: Quantize: first convolution %s reads %d input channels; the INT8 engine packs one input pixel's channels into a 4-byte quad, so it takes at most 4",
			stem.Name(), stem.Spec.InC)
	}
	// After the stem every activation is quad planes, which only fires and
	// the classifier read; every pool runs in the epilogue of the stem or a
	// fire's expands, unpadded.
	c := &Calibrator{net: net, stem: us[0], fires: us[1:], final: final, obs: map[*Conv2D]*observer{stem: {}}}
	for _, u := range c.fires {
		switch l := u.layer.(type) {
		case *Fire:
			c.obs[l.Squeeze], c.obs[l.Expand3] = &observer{}, &observer{}
		case *Conv2D:
			return nil, fmt.Errorf("nn: Quantize: convolution %s follows the first one outside a fire module; the INT8 engine runs convolutions after its first only as fire squeezes and expands and as the classifier, so it cannot take this network (the FP32 engine still serves it)",
				l.Name())
		case *MaxPool:
			if l.Spec.Pad != 0 {
				return nil, fmt.Errorf("nn: Quantize: max pool %s is padded (pad %d); the INT8 engine pools only without padding, so it cannot take this network (the FP32 engine still serves it)",
					l.Name(), l.Spec.Pad)
			}
			return nil, fmt.Errorf("nn: Quantize: max pool %s follows neither the first convolution nor a fire module; the INT8 engine pools only in the epilogue of one of those, so it cannot take this network (the FP32 engine still serves it)",
				l.Name())
		default:
			return nil, fmt.Errorf("nn: Quantize: unsupported layer %T (%s)", l, l.Name())
		}
	}
	return c, nil
}

// Observe records the ranges net's activations take on x ([N,C,H,W], any N)
// and returns the [N,classes] probabilities of the pass that saw them —
// PredictArena's for x, bit for bit — a view valid until the next call.
// Observing a batch equals observing its frames one by one.
func (c *Calibrator) Observe(x *tensor.Tensor) (*tensor.Tensor, error) {
	if inC := c.stem.layer.(*Conv2D).Spec.InC; len(x.Shape) != 4 || x.Shape[1] != inC {
		return nil, fmt.Errorf("nn: Quantize: calibration tensor shape %v, want [N,%d,H,W]", x.Shape, inC)
	}
	c.inObs.observe(x.Data)
	a := tensor.GetArena()
	defer tensor.PutArena(a)
	n, ch, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	p, per, classes := c.net.plan(a, 1, ch, h, w), ch*h*w, c.final.Spec.OutC
	c.probs.Shape = append(c.probs.Shape[:0], n, classes)
	c.probs.Data = slices.Grow(c.probs.Data[:0], n*classes)[:n*classes]
	for i := 0; i < n; i++ {
		_, probs := p.run(tensor.FromSlice(x.Data[i*per:(i+1)*per], 1, ch, h, w), a, c.observe)
		copy(c.probs.Data[i*classes:], probs.Data)
	}
	return &c.probs, nil
}

// observe records conv's output y if it is a quantization point.
func (c *Calibrator) observe(conv *Conv2D, y []float32) {
	if o := c.obs[conv]; o != nil {
		o.observe(y)
	}
}

// Quantize builds the INT8 engine from the ranges observed so far. Each
// call quantizes the weights afresh; the calibrator can go on observing.
func (c *Calibrator) Quantize() (*QuantizedSequential, error) {
	if !c.inObs.seen {
		return nil, fmt.Errorf("nn: Quantize: empty calibration set")
	}
	// Assemble the quantized ops, threading each stage's output params into
	// the next stage's input params. Each pool runs in its producer's
	// epilogue.
	q := &QuantizedSequential{inQ: c.inObs.params(), classes: c.final.Spec.OutC}
	q.inLUT = inputTable(q.inQ)
	stem := c.stem.layer.(*Conv2D)
	curQ := c.obs[stem].params()
	sc, err := buildQConv(stem, q.inQ, curQ, true, quadGap{})
	if err != nil {
		return nil, err
	}
	q.stem = tensor.QStem{Spec: sc.Spec, W: sc.W, RQ: sc.RQ, ZP: sc.ZP, Pool: c.stem.pool}
	var gap quadGap // in the current activation's layout
	for _, u := range c.fires {
		fire := u.layer.(*Fire)
		sqQ, outQ := c.obs[fire.Squeeze].params(), c.obs[fire.Expand3].params()
		var f tensor.QFire
		for _, b := range [...]struct {
			dst     *tensor.QConv
			conv    *Conv2D
			in, out tensor.QuantParams
			gap     quadGap
		}{
			{&f.Squeeze, fire.Squeeze, curQ, sqQ, gap},
			{&f.Expand1, fire.Expand1, sqQ, outQ, quadGap{}},
			{&f.Expand3, fire.Expand3, sqQ, outQ, quadGap{}},
		} {
			if *b.dst, err = buildQConv(b.conv, b.in, b.out, true, b.gap); err != nil {
				return nil, err
			}
		}
		f.Expand1.Pool, f.Expand3.Pool = u.pool, u.pool
		q.body = append(q.body, f)
		e1 := f.Expand1.Spec.OutC
		curQ, gap = outQ, quadGap{at: e1, pad: (e1+3)/4*4 - e1}
	}
	q.final = buildQFinal(c.final, curQ, gap)
	return q, nil
}

// quadGap is where an activation's quad-plane layout departs from its
// channels: a fire's concatenation pads Expand1's channels to a multiple of
// 4, so the channels from at on sit pad lanes further along. The zero value
// is no gap.
type quadGap struct{ at, pad int }

// widen returns the s8 weights wq of a convolution s ([OutC, InC·KH·KW] in
// (c, ky, kx) order) and s itself over the layout's channels: pad zero input
// channels inserted at at. Zero weights add nothing to an accumulator or to
// Σw, so the convolution's requantization constants still hold.
func (g quadGap) widen(wq []int8, s tensor.ConvSpec) ([]int8, tensor.ConvSpec) {
	if g.pad == 0 {
		return wq, s
	}
	taps := s.KH * s.KW
	k, head := s.InC*taps, g.at*taps
	s.InC += g.pad
	kw := s.InC * taps
	w := make([]int8, s.OutC*kw)
	for oc := 0; oc < s.OutC; oc++ {
		copy(w[oc*kw:], wq[oc*k:oc*k+head])
		copy(w[oc*kw+head+g.pad*taps:], wq[oc*k+head:(oc+1)*k])
	}
	return w, s
}

// buildQConv quantizes one convolution's weights, widened over gap and
// packed in quad order, and folds its requantize constants, which it
// refuses unless they never decrease (checkMonotonic).
func buildQConv(c *Conv2D, inQ, outQ tensor.QuantParams, relu bool, gap quadGap) (tensor.QConv, error) {
	wq, rq := quantizeConv(c, inQ, outQ, relu)
	if err := checkMonotonic(c.Name(), rq); err != nil {
		return tensor.QConv{}, err
	}
	wq, s := gap.widen(wq, c.Spec)
	return tensor.QConv{Spec: s, W: tensor.PackQQuadWeights(wq, s), RQ: rq, ZP: uint8(inQ.Zero)}, nil
}

// checkMonotonic refuses a requantization that could decrease as its
// accumulator grows: a negative or NaN multiplier on some channel. Every
// INT8 pool — the stem's and those in fire expands — takes each window's
// maximum of raw accumulators and requantizes only that, which equals
// pooling the real-valued outputs only under a map that never decreases. It
// is checked once, where a stage is built; the stages run unchecked.
func checkMonotonic(stage string, rq tensor.Requant) error {
	for oc, m := range rq.Mult {
		if !(m >= 0) {
			return fmt.Errorf("nn: Quantize: %s channel %d: requantization multiplier %v is negative or NaN; the INT8 pools need a requantization that never decreases", stage, oc, m)
		}
	}
	return nil
}

// quantizeConv returns a convolution's s8 weights, in its own (c, ky, kx)
// order, and the requantization that folds sW·sIn/sOut and
// bias − sW·sIn·zIn·Σw (plus zOut) per output channel.
func quantizeConv(c *Conv2D, inQ, outQ tensor.QuantParams, relu bool) ([]int8, tensor.Requant) {
	k := c.Spec.InC * c.Spec.KH * c.Spec.KW
	wq, ws, wsum := tensor.QuantizeWeightsPerChannel(c.Wt.W.Data, c.Spec.OutC, k)
	mult := make([]float32, c.Spec.OutC)
	beta := make([]float32, c.Spec.OutC)
	for oc := range mult {
		m := ws[oc] * inQ.Scale
		mult[oc] = m / outQ.Scale
		beta[oc] = (c.Bias.W.Data[oc]-m*float32(inQ.Zero)*float32(wsum[oc]))/outQ.Scale + float32(outQ.Zero)
	}
	return wq, tensor.Requant{Mult: mult, Beta: beta, ZOut: outQ.Zero, ReLU: relu}
}

// buildQFinal quantizes the classifier convolution, reading quad planes
// laid out with gap, whose epilogue maps accumulators straight to FP32
// logits.
func buildQFinal(c *Conv2D, inQ tensor.QuantParams, gap quadGap) qFinal {
	k := c.Spec.InC * c.Spec.KH * c.Spec.KW
	wq, ws, wsum := tensor.QuantizeWeightsPerChannel(c.Wt.W.Data, c.Spec.OutC, k)
	mult := make([]float32, c.Spec.OutC)
	beta := make([]float32, c.Spec.OutC)
	for oc := range mult {
		mult[oc] = ws[oc] * inQ.Scale
		beta[oc] = c.Bias.W.Data[oc] - mult[oc]*float32(inQ.Zero)*float32(wsum[oc])
	}
	wq, s := gap.widen(wq, c.Spec)
	return qFinal{conv: tensor.QConv{Spec: s, W: tensor.PackQQuadWeights(wq, s), ZP: uint8(inQ.Zero)}, mult: mult, beta: beta}
}
