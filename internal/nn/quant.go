package nn

import (
	"fmt"
	"math"

	"percival/internal/tensor"
)

// This file implements the post-training INT8 inference engine: a
// QuantizedSequential mirrors Sequential.ForwardInfer — arena-backed,
// zero-alloc steady state, fused conv+bias+ReLU in the requantize pass and
// direct-to-concat fire expands — but carries activations as u8
// (≤ tensor.QMaxU8) in quad planes, four channels of a pixel per 32-bit word
// (see tensor.QConv), and weights as per-output-channel s8, accumulating in
// int32 through the quantized GEMM.
//
// A Calibrator performs the calibration pass: it replays the FP32 network
// over calibration inputs, records per-quant-point activation ranges, and
// folds every scale, bias, and zero-point compensation into two per-channel
// constants (mult, beta) consumed by the fused requantize epilogue, so the
// hot path touches no quantization arithmetic beyond one FMA per element.

// qAct is a quantized activation tensor threaded between ops: n images of
// ⌈c/4⌉ quad planes of h×w, where c counts the channels as the planes lay
// them out, a concatenation's padding lanes included (see quadGap). The
// backing buffer belongs to the inference arena.
type qAct struct {
	data       []uint8
	n, c, h, w int
}

func (x qAct) planes() int   { return (x.c + 3) / 4 }
func (x qAct) imageLen() int { return x.planes() * 4 * x.h * x.w }

// qOp is one stage of the quantized pipeline.
type qOp interface {
	forward(x qAct, a *tensor.Arena) qAct
}

// QuantizedSequential is the INT8 counterpart of a Sequential restricted to
// the inference-path layer vocabulary (a first Conv2D+ReLU over at most four
// channels, then Fire, unpadded MaxPool and Dropout, a final Conv2D and
// GlobalAvgPool). Build one with Quantize.
//
// That first convolution, and the max pool when one follows it, run as one
// tensor.QStem reading the input as pixels — four bytes each, channel-minor,
// as a bitmap holds them — so a frame's bytes go from the bitmap to the stem
// through the input table without being split into planes.
type QuantizedSequential struct {
	inQ tensor.QuantParams
	// inLUT is the whole input conversion for a pixel byte p: the float
	// p·(1/255) a frame's tensor would hold, through QuantizeU8 with inQ.
	inLUT   [256]uint8
	stem    tensor.QStem
	ops     []qOp
	final   *qFinal
	classes int
}

// Classes returns the output class count.
func (q *QuantizedSequential) Classes() int { return q.classes }

// InputQuant exposes the calibrated input quantization parameters.
func (q *QuantizedSequential) InputQuant() tensor.QuantParams { return q.inQ }

// SizeBytes returns the quantized weight footprint (s8 weights plus the
// per-channel requantization constants), the number that shrinks 4× from
// the FP32 model.
func (q *QuantizedSequential) SizeBytes() int {
	total := q.stem.W.Len() + 8*len(q.stem.RQ.Mult)
	addConv := func(c *tensor.QConv) { total += c.W.Len() + 8*len(c.RQ.Mult) }
	for _, op := range q.ops {
		if f, ok := op.(*qFire); ok {
			addConv(&f.Squeeze)
			addConv(&f.Expand1)
			addConv(&f.Expand3)
		}
	}
	total += q.final.conv.W.Len() + 8*len(q.final.mult)
	return total
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

// ForwardInfer runs a quantized forward pass drawing every buffer from a.
// It accepts the same [N,C,H,W] float32 input as the FP32 path (quantization
// happens at the entry, into the stem's pixel layout) and returns
// arena-owned logits [N, classes]: copy out what you need, then PutTensor.
func (q *QuantizedSequential) ForwardInfer(x *tensor.Tensor, a *tensor.Arena) *tensor.Tensor {
	if len(x.Shape) != 4 || x.Shape[1] != q.stem.Spec.InC {
		panic(fmt.Sprintf("nn: QuantizedSequential: input shape %s, want [N,%d,H,W]", shapeStr(x.Shape), q.stem.Spec.InC))
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	pix := a.GetU8(n * h * w * 4)
	tensor.QuantizePixelsU8(pix, x.Data, n, c, h*w, q.inQ)
	return q.forward(pix, n, h, w, nil, a)
}

// forward runs the pass on n h×w images of pixels (see tensor.QStem), each
// byte through lut (nil: already quantized). pix is a's and goes back to it
// once the stem has read it.
func (q *QuantizedSequential) forward(pix []uint8, n, h, w int, lut *[256]uint8, a *tensor.Arena) *tensor.Tensor {
	oh, ow := q.stem.OutSize(h, w)
	cur := qAct{n: n, c: q.stem.Spec.OutC, h: oh, w: ow}
	cur.data = a.GetU8(n * cur.imageLen())
	q.stem.ForwardInto(pix, n, h, w, lut, cur.data, a)
	a.PutU8(pix)
	for _, op := range q.ops {
		cur = op.forward(cur, a)
	}
	return q.final.forward(cur, a)
}

// PredictArena runs quantized inference and returns per-sample class
// probabilities ([N,C]) in an arena-owned tensor — the INT8 counterpart of
// nn.PredictArena.
func (q *QuantizedSequential) PredictArena(x *tensor.Tensor, a *tensor.Arena) *tensor.Tensor {
	return softmaxArena(q.ForwardInfer(x, a), a)
}

// softmaxArena turns arena-owned logits into arena-owned probabilities.
func softmaxArena(logits *tensor.Tensor, a *tensor.Arena) *tensor.Tensor {
	probs := a.GetTensor(logits.Shape[0], logits.Shape[1])
	tensor.SoftmaxInto(logits, probs.Data)
	a.PutTensor(logits)
	return probs
}

// PredictArenaU8 is PredictArena for frames as they are decoded: pix holds n
// h×w RGBA8 bitmaps back to back, 4 bytes a pixel, whose bytes the stem maps
// through the network's input table as it reads them — what PredictArena
// scores for the float tensor imaging.ToTensorInto makes of the same
// bitmaps. pix must come from a.GetU8; the pass returns it there and the
// caller must not use it afterwards.
func (q *QuantizedSequential) PredictArenaU8(pix []uint8, n, h, w int, a *tensor.Arena) *tensor.Tensor {
	if len(pix) < n*h*w*4 {
		panic(fmt.Sprintf("nn: QuantizedSequential: %d pixel bytes, want %d bitmaps of %d×%d", len(pix), n, w, h))
	}
	return softmaxArena(q.forward(pix, n, h, w, &q.inLUT, a), a)
}

// qFire runs a quantized fire module (see tensor.QFire): squeeze, then both
// expand branches written straight into their slots of the concatenated
// output. Both expands requantize into the shared quantization parameters of
// the concatenated tensor, so the concat is free.
type qFire struct{ tensor.QFire }

func (f *qFire) forward(x qAct, a *tensor.Arena) qAct {
	if x.c != f.Squeeze.Spec.InC {
		panic(fmt.Sprintf("nn: quantized fire: input has %d channels, want %d", x.c, f.Squeeze.Spec.InC))
	}
	return qAct{data: f.Forward(x.data, x.n, x.h, x.w, a), n: x.n, c: f.OutC(), h: x.h, w: x.w}
}

// qPool max-pools in the quantized domain, plane by plane; quantization
// parameters and the channel layout pass through unchanged (max commutes
// with the monotonic dequantization map).
type qPool struct {
	spec tensor.PoolSpec
}

func (p *qPool) forward(x qAct, a *tensor.Arena) qAct {
	oh, ow := p.spec.OutSize(x.h, x.w)
	y := qAct{n: x.n, c: x.c, h: oh, w: ow}
	y.data = a.GetU8(x.n * y.imageLen())
	tensor.MaxPoolQuadsInto(x.data, x.n*x.planes(), x.h, x.w, p.spec, y.data)
	a.PutU8(x.data)
	return y
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

func (f *qFinal) forward(x qAct, a *tensor.Arena) *tensor.Tensor {
	s := f.conv.Spec
	if x.c != s.InC {
		panic(fmt.Sprintf("nn: quantized classifier: input has %d channels, want %d", x.c, s.InC))
	}
	oh, ow := s.OutSize(x.h, x.w)
	spatial := oh * ow
	acc := a.GetI32(s.OutC * spatial)
	out := a.GetTensor(x.n, s.OutC)
	il := x.imageLen()
	inv := 1 / float32(spatial)
	for i := 0; i < x.n; i++ {
		f.conv.AccInto(x.data[i*il:(i+1)*il], x.h, x.w, acc)
		for oc := 0; oc < s.OutC; oc++ {
			var sum int64
			for _, v := range acc[oc*spatial : (oc+1)*spatial] {
				sum += int64(v)
			}
			out.Data[i*s.OutC+oc] = f.mult[oc]*float32(sum)*inv + f.beta[oc]
		}
	}
	a.PutI32(acc)
	a.PutU8(x.data)
	return out
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

// calibNode is one stage of the parsed FP32 network with the observers that
// watch its outputs during calibration.
type calibNode struct {
	conv  *Conv2D  // fused conv(+ReLU) or final conv
	relu  bool     // ReLU fused after conv
	fire  *Fire    // fire module
	pool  *MaxPool // max pooling
	out   observer // output range (conv / fire concat)
	sqOut observer // fire squeeze output range
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
		if err := c.Observe(x); err != nil {
			return nil, err
		}
	}
	return c.Quantize()
}

// Calibrator is the calibration pass as a stream: Observe replays the FP32
// network over one input at a time, recording the range of every tensor that
// will live in the quantized domain, and Quantize builds the engine from the
// ranges seen. The replay is the inference path's (fused ReLU, packed
// weights, expands written into their concat slots) a frame at a time, every
// tensor back in one private arena as soon as its consumer has read it, so
// the pass holds one frame's working set however many frames it is shown.
// Not safe for concurrent use.
type Calibrator struct {
	nodes   []*calibNode
	final   *Conv2D
	classes int
	inC     int // input channels the first convolution expects
	inObs   observer
	arena   *tensor.Arena
}

// NewCalibrator checks that net matches the quantizable topology and
// returns a calibrator for it. The network is read, never modified.
func NewCalibrator(net *Sequential) (*Calibrator, error) {
	nodes, finalConv, classes, err := parseQuantizable(net)
	if err != nil {
		return nil, err
	}
	// The stem packs one input pixel's channels into one 4-byte quad of the
	// quantized GEMM (see tensor.QStem).
	if len(nodes) == 0 || nodes[0].conv == nil {
		return nil, fmt.Errorf("nn: Quantize: the INT8 engine reads its input through a convolution with ReLU before the classifier, and the network does not start with one")
	}
	stem := nodes[0].conv
	if stem.Spec.InC > 4 {
		return nil, fmt.Errorf("nn: Quantize: first convolution %s reads %d input channels; the INT8 engine packs one input pixel's channels into a 4-byte quad, so it takes at most 4",
			stem.Name(), stem.Spec.InC)
	}
	// After the stem every activation is quad planes, which only fires,
	// unpadded pools and the classifier read.
	for _, nd := range nodes[1:] {
		switch {
		case nd.conv != nil:
			return nil, fmt.Errorf("nn: Quantize: convolution %s follows the first one outside a fire module; the INT8 engine runs convolutions after its first only as fire squeezes and expands and as the classifier, so it cannot take this network (the FP32 engine still serves it)",
				nd.conv.Name())
		case nd.pool != nil && nd.pool.Spec.Pad != 0:
			return nil, fmt.Errorf("nn: Quantize: max pool %s is padded (pad %d); the INT8 engine pools only without padding, so it cannot take this network (the FP32 engine still serves it)",
				nd.pool.Name(), nd.pool.Spec.Pad)
		}
	}
	return &Calibrator{nodes: nodes, final: finalConv, classes: classes, inC: stem.Spec.InC, arena: tensor.NewArena()}, nil
}

// Observe records the ranges net's activations take on x ([N,C,H,W], any N).
// Observing a batch equals observing its frames one by one.
func (c *Calibrator) Observe(x *tensor.Tensor) error {
	if len(x.Shape) != 4 || x.Shape[1] != c.inC {
		return fmt.Errorf("nn: Quantize: calibration tensor shape %v, want [N,%d,H,W]", x.Shape, c.inC)
	}
	c.inObs.observe(x.Data)
	a := c.arena
	per := x.Shape[1] * x.Shape[2] * x.Shape[3]
	for i := 0; i < x.Shape[0]; i++ {
		cur, owned := tensor.FromSlice(x.Data[i*per:(i+1)*per], 1, x.Shape[1], x.Shape[2], x.Shape[3]), false
		for _, nd := range c.nodes {
			switch {
			case nd.conv != nil:
				st := nd.conv.stage()
				st.ReLU = nd.relu
				cur, owned = nd.conv.inferStage(&st, cur, a, owned)
				nd.out.observe(cur.Data)
			case nd.fire != nil:
				// Fire.forwardInfer's body, stopping to look at the squeeze.
				f := nd.fire
				sq, ex1, ex3 := f.Squeeze.stage(), f.Expand1.stage(), f.Expand3.stage()
				sq.ReLU, ex1.ReLU, ex3.ReLU = true, true, true
				s, _ := f.Squeeze.inferStage(&sq, cur, a, owned)
				nd.sqOut.observe(s.Data)
				e1 := f.Expand1.Spec.OutC
				y := a.GetTensor(1, f.OutChannels(), s.Shape[2], s.Shape[3])
				ex1.ForwardInto(s, y, 0)
				ex3.ForwardInto(s, y, e1)
				a.PutTensor(s)
				nd.out.observe(y.Data)
				cur, owned = y, true
			case nd.pool != nil:
				cur, owned = nd.pool.forwardInfer(cur, a, owned)
			}
		}
		if owned {
			a.PutTensor(cur)
		}
	}
	return nil
}

// Quantize builds the INT8 engine from the ranges observed so far. Each
// call quantizes the weights afresh; the calibrator can go on observing.
func (c *Calibrator) Quantize() (*QuantizedSequential, error) {
	if !c.inObs.seen {
		return nil, fmt.Errorf("nn: Quantize: empty calibration set")
	}
	// Assemble the quantized ops, threading each stage's output params into
	// the next stage's input params.
	q := &QuantizedSequential{inQ: c.inObs.params(), classes: c.classes}
	q.inLUT = inputTable(q.inQ)
	// The first node is the stem (NewCalibrator checked), and a pool right
	// after it runs in its epilogue. Every other node is a fire or a pool.
	stem, curQ := c.nodes[0], c.nodes[0].out.params()
	sc := buildQConv(stem.conv, q.inQ, curQ, stem.relu, quadGap{})
	q.stem = tensor.QStem{Spec: sc.Spec, W: sc.W, RQ: sc.RQ, ZP: sc.ZP}
	rest := c.nodes[1:]
	if len(rest) > 0 && rest[0].pool != nil {
		q.stem.Pool, rest = rest[0].pool.Spec, rest[1:]
	}
	var gap quadGap // in the current activation's layout
	for _, nd := range rest {
		switch {
		case nd.fire != nil:
			sqQ := nd.sqOut.params()
			outQ := nd.out.params()
			f := &qFire{tensor.QFire{
				Squeeze: buildQConv(nd.fire.Squeeze, curQ, sqQ, true, gap),
				Expand1: buildQConv(nd.fire.Expand1, sqQ, outQ, true, quadGap{}),
				Expand3: buildQConv(nd.fire.Expand3, sqQ, outQ, true, quadGap{}),
			}}
			q.ops = append(q.ops, f)
			e1 := f.Expand1.Spec.OutC
			curQ, gap = outQ, quadGap{at: e1, pad: (e1+3)/4*4 - e1}
		case nd.pool != nil:
			q.ops = append(q.ops, &qPool{spec: nd.pool.Spec})
		}
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

// parseQuantizable walks the layer list and checks it matches the supported
// inference topology.
func parseQuantizable(net *Sequential) (nodes []*calibNode, finalConv *Conv2D, classes int, err error) {
	layers := net.Layers
	if len(layers) < 2 {
		return nil, nil, 0, fmt.Errorf("nn: Quantize: network too short")
	}
	last := layers[len(layers)-1]
	if _, ok := last.(*GlobalAvgPool); !ok {
		return nil, nil, 0, fmt.Errorf("nn: Quantize: network must end in GlobalAvgPool, got %T", last)
	}
	body := layers[:len(layers)-1]
	for i := 0; i < len(body); i++ {
		switch l := body[i].(type) {
		case *Conv2D:
			relu := false
			if i+1 < len(body) {
				if _, ok := body[i+1].(*ReLU); ok {
					relu = true
					i++
				}
			}
			if !relu && i == len(body)-1 {
				finalConv = l
				classes = l.Spec.OutC
				continue
			}
			if !relu {
				return nil, nil, 0, fmt.Errorf("nn: Quantize: conv %s without ReLU is only supported as the classifier head", l.Name())
			}
			nodes = append(nodes, &calibNode{conv: l, relu: true})
		case *Fire:
			nodes = append(nodes, &calibNode{fire: l})
		case *MaxPool:
			nodes = append(nodes, &calibNode{pool: l})
		case *Dropout:
			// identity at inference
		default:
			return nil, nil, 0, fmt.Errorf("nn: Quantize: unsupported layer %T (%s)", l, l.Name())
		}
	}
	if finalConv == nil {
		return nil, nil, 0, fmt.Errorf("nn: Quantize: no classifier convolution before GlobalAvgPool")
	}
	return nodes, finalConv, classes, nil
}

// buildQConv quantizes one convolution's weights, widened over gap and
// packed in quad order, and folds its requantize constants.
func buildQConv(c *Conv2D, inQ, outQ tensor.QuantParams, relu bool, gap quadGap) tensor.QConv {
	wq, rq := quantizeConv(c, inQ, outQ, relu)
	wq, s := gap.widen(wq, c.Spec)
	return tensor.QConv{Spec: s, W: tensor.PackQQuadWeights(wq, s), RQ: rq, ZP: uint8(inQ.Zero)}
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
func buildQFinal(c *Conv2D, inQ tensor.QuantParams, gap quadGap) *qFinal {
	k := c.Spec.InC * c.Spec.KH * c.Spec.KW
	wq, ws, wsum := tensor.QuantizeWeightsPerChannel(c.Wt.W.Data, c.Spec.OutC, k)
	mult := make([]float32, c.Spec.OutC)
	beta := make([]float32, c.Spec.OutC)
	for oc := range mult {
		mult[oc] = ws[oc] * inQ.Scale
		beta[oc] = c.Bias.W.Data[oc] - mult[oc]*float32(inQ.Zero)*float32(wsum[oc])
	}
	wq, s := gap.widen(wq, c.Spec)
	return &qFinal{conv: tensor.QConv{Spec: s, W: tensor.PackQQuadWeights(wq, s), ZP: uint8(inQ.Zero)}, mult: mult, beta: beta}
}

// TopAgreement computes the fraction of samples whose argmax class matches
// between two probability (or logit) tensors of shape [N,C] — the
// accuracy-parity metric gating the quantized mode.
func TopAgreement(a, b *tensor.Tensor) float64 {
	if !a.SameShape(b) || len(a.Shape) != 2 {
		panic(fmt.Sprintf("nn: TopAgreement: shapes %v vs %v", a.Shape, b.Shape))
	}
	n, c := a.Shape[0], a.Shape[1]
	if n == 0 {
		return math.NaN()
	}
	agree := 0
	for i := 0; i < n; i++ {
		if tensor.Argmax(a.Data[i*c:(i+1)*c]) == tensor.Argmax(b.Data[i*c:(i+1)*c]) {
			agree++
		}
	}
	return float64(agree) / float64(n)
}
