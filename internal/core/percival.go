// Package core implements PERCIVAL, the paper's primary contribution: a
// deep-learning frame classifier embedded at the rendering pipeline's
// decode/raster choke point. It wraps the compressed SqueezeNet fork with
// the pre-processing the paper describes (§3.3: scale the decoded buffer to
// the network input, build a tensor, forward pass, clear the buffer on an
// ad verdict). Its InspectFrame is the synchronous deployment from §1:
// classification runs inside the raster task, adding its latency to the
// rendering critical path (the Fig. 14/15 treatment).
//
// core memoizes nothing and runs nothing in the background. The paper's
// asynchronous mode — render first, memorize the verdict, block the ad on
// the next visit (§6) — is the browser rendering through a serve.Server,
// which owns the verdict store, the bounded queues and the batching.
package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"percival/internal/engine"
	"percival/internal/imaging"
	"percival/internal/nn"
	"percival/internal/squeezenet"
	"percival/internal/tensor"
)

// Mode is the deployment mode; Synchronous is its only value.
//
// Deprecated: InspectFrame always classifies in the raster task, and the
// render-first mode is browser.Config.RenderFirst on a serve.Server. Mode
// survives only because bench/rig.go sets it (bench/ is frozen with
// BENCHMARK.json until ROADMAP 1(c)); nothing else may set it.
type Mode int

// Synchronous classifies in the raster task (blocks rendering).
//
// Deprecated: see Mode.
const Synchronous Mode = 0

// Options configures a PERCIVAL instance.
type Options struct {
	// Threshold is the ad-probability above which a frame is blocked.
	// 0.5 reproduces argmax; raising it trades recall for precision.
	Threshold float64
	// Mode does nothing.
	//
	// Deprecated: kept only for bench/rig.go (see the Mode type).
	Mode Mode
	// MinFrameEdge skips classification of tiny images (spacer gifs,
	// 1-px tracking pixels) that cannot be ads; 0 uses a default of 20.
	MinFrameEdge int
	// DisableCache does nothing: core keeps no verdict store, serve does.
	//
	// Deprecated: kept only for bench/rig.go (bench/ is frozen with
	// BENCHMARK.json until ROADMAP 1(c)); nothing else may set it.
	DisableCache bool
	// Quantized requests the INT8 inference engine. The model is quantized
	// at load time, calibrated on CalibFrames, and gated by an
	// accuracy-parity check against the FP32 path on the same frames
	// (restricted to frames FP32 classifies with some margin): if top-1
	// agreement falls below ParityMinAgreement the service silently stays
	// on FP32 (QuantizedActive reports the outcome).
	Quantized bool
	// CalibFrames are representative decoded frames used for quantization
	// calibration and the parity gate. Required when Quantized is set.
	CalibFrames []*imaging.Bitmap
	// ParityMinAgreement is the minimum FP32-vs-INT8 top-1 agreement for
	// the quantized engine to activate. 0 uses the default of 0.99.
	ParityMinAgreement float64
}

// Percival is the classifier service. One instance serves all raster
// workers: inference is stateless and goroutine-safe, matching the paper's
// per-worker parallelism (§3.1).
type Percival struct {
	net  *nn.Sequential
	cfg  squeezenet.Config
	opts Options

	// backends is the registry of named inference engines. "fp32" is always
	// registered; "int8" joins it when Options.Quantized was set, and becomes
	// the default only when the accuracy-parity gate passed — engine choice
	// is registry policy, not inline branching on the classify paths.
	backends *engine.Registry
	// active is the default backend every classify path routes through.
	active engine.Backend
	// parityAgreement records the measured FP32-vs-INT8 top-1 agreement when
	// quantization was requested (whether or not the gate passed).
	parityAgreement float64

	// single recycles the one-frame scratch (frames+scores slices) Classify
	// wraps around the batched backend entry point, keeping the single-frame
	// path zero-alloc; the warm per-goroutine inference state itself lives
	// inside each engine.Backend.
	single sync.Pool

	// stats
	classified  atomic.Int64
	blocked     atomic.Int64
	totalNanos  atomic.Int64
	inPathNanos atomic.Int64
}

// New builds a PERCIVAL service around a trained network.
func New(net *nn.Sequential, cfg squeezenet.Config, opts Options) (*Percival, error) {
	if net == nil {
		return nil, fmt.Errorf("core: nil network")
	}
	if opts.Threshold == 0 {
		opts.Threshold = 0.5
	}
	if opts.Threshold < 0 || opts.Threshold >= 1 {
		return nil, fmt.Errorf("core: threshold %v out of range (0,1)", opts.Threshold)
	}
	if opts.MinFrameEdge == 0 {
		opts.MinFrameEdge = 20
	}
	p := &Percival{
		net:      net,
		cfg:      cfg,
		opts:     opts,
		backends: engine.NewRegistry(),
	}
	if err := p.backends.Register(engine.FP32Name, engine.NewFP32(net, cfg.InputRes)); err != nil {
		return nil, err
	}
	if opts.Quantized {
		if err := p.enableQuantized(); err != nil {
			return nil, err
		}
	}
	p.active = p.backends.Default()
	return p, nil
}

// enableQuantized quantizes the model on the calibration frames, registers
// the INT8 backend, and runs the accuracy-parity gate: INT8 becomes the
// registry default only if its top-1 verdicts agree with FP32 on at least
// ParityMinAgreement of the frames; otherwise it stays registered (callers
// may still select it by name) while FP32 keeps the default slot. Each frame
// runs through the FP32 net once: the calibration pass runs the plan the
// FP32 backend serves, and its probabilities are the gate's FP32 scores.
func (p *Percival) enableQuantized() error {
	if len(p.opts.CalibFrames) == 0 {
		return fmt.Errorf("core: quantized mode requires calibration frames")
	}
	minAgree := p.opts.ParityMinAgreement
	if minAgree == 0 {
		minAgree = 0.99
	}
	res := p.cfg.InputRes
	// One scaled bitmap and one input tensor serve every frame, and the
	// calibrator holds one frame's activations: set-up memory does not grow
	// with len(CalibFrames).
	calib, err := nn.NewCalibrator(p.net)
	if err != nil {
		return fmt.Errorf("core: quantize: %w", err)
	}
	scaled := imaging.NewBitmap(res, res)
	x := tensor.New(1, 4, res, res)
	fpScores := make([]float64, len(p.opts.CalibFrames))
	for i, f := range p.opts.CalibFrames {
		imaging.ResizeBilinearInto(f, scaled)
		imaging.ToTensorInto(scaled, x.Data)
		probs, err := calib.Observe(x)
		if err != nil {
			return fmt.Errorf("core: quantize: %w", err)
		}
		fpScores[i] = float64(probs.Data[1]) // class 1 = ad, as the backends read it
	}
	qnet, err := calib.Quantize()
	if err != nil {
		return fmt.Errorf("core: quantize: %w", err)
	}
	int8be := engine.NewInt8(qnet, res)
	if err := p.backends.Register(engine.Int8Name, int8be); err != nil {
		return err
	}
	// Margin-filtered agreement on the service's own decision function:
	// verdicts are compared at the configured Threshold, and frames FP32
	// itself scores within parityMargin of that boundary are excluded —
	// they flip under any numeric perturbation and say nothing about
	// quantization fidelity. If every frame is borderline there is nothing
	// to distinguish and the engines are considered in parity.
	const parityMargin = 0.05
	// INT8 scores a frame at a time (a score does not depend on its batch)
	// on a replica closed behind the gate: a backend keeps its warm states
	// for life, and one left in the registered backend by the gate would be
	// a state nothing asked for (serve lanes run their own replicas).
	int8rep := int8be.Replicate()
	defer int8rep.Close()
	var qScore [1]float64
	agree, counted := 0, 0
	for i, fpScore := range fpScores {
		if math.Abs(fpScore-p.opts.Threshold) < parityMargin {
			continue
		}
		counted++
		int8rep.InferBatchInto(p.opts.CalibFrames[i:i+1], qScore[:])
		if (fpScore >= p.opts.Threshold) == (qScore[0] >= p.opts.Threshold) {
			agree++
		}
	}
	if counted == 0 {
		p.parityAgreement = 1
	} else {
		p.parityAgreement = float64(agree) / float64(counted)
	}
	if p.parityAgreement >= minAgree {
		if err := p.backends.SetDefault(engine.Int8Name); err != nil {
			return err
		}
	}
	return nil
}

// QuantizedActive reports whether inference runs on the INT8 engine (the
// parity gate passed and made it the default backend).
func (p *Percival) QuantizedActive() bool {
	return p.backends.DefaultName() == engine.Int8Name
}

// ParityAgreement returns the measured FP32-vs-INT8 top-1 agreement on the
// calibration frames (0 when quantization was not requested).
func (p *Percival) ParityAgreement() float64 { return p.parityAgreement }

// QuantizedModelSizeBytes returns the INT8 weight footprint, or 0 when the
// quantized engine is inactive.
func (p *Percival) QuantizedModelSizeBytes() int {
	if !p.QuantizedActive() {
		return 0
	}
	if b, ok := p.backends.Get(engine.Int8Name); ok {
		return b.(*engine.Int8Backend).SizeBytes()
	}
	return 0
}

// Engine returns the active (default) inference backend — the seam serve
// dispatch replicates per shard.
func (p *Percival) Engine() engine.Backend { return p.active }

// Backends exposes the named-backend registry for selection policy
// (serving flags, multi-model routing).
func (p *Percival) Backends() *engine.Registry { return p.backends }

// singleScratch is the pooled one-frame view Classify wraps around the
// batched backend entry point.
type singleScratch struct {
	frames [1]*imaging.Bitmap
	out    [1]float64
}

func (p *Percival) getSingle() *singleScratch {
	if sc, ok := p.single.Get().(*singleScratch); ok {
		return sc
	}
	return &singleScratch{}
}

// Classify runs the active backend on a decoded frame and returns the ad
// probability. Safe for concurrent use; steady-state calls allocate nothing
// (the backend's warm per-goroutine arena state plus a pooled one-frame
// scratch).
func (p *Percival) Classify(frame *imaging.Bitmap) float64 {
	start := time.Now()
	sc := p.getSingle()
	sc.frames[0] = frame
	p.active.InferBatchInto(sc.frames[:1], sc.out[:1])
	score := sc.out[0]
	sc.frames[0] = nil
	p.single.Put(sc)
	p.classified.Add(1)
	p.totalNanos.Add(time.Since(start).Nanoseconds())
	return score
}

// ClassifyBatch scores a set of frames in chunked batched forward passes
// through the active backend.
func (p *Percival) ClassifyBatch(frames []*imaging.Bitmap) []float64 {
	if len(frames) == 0 {
		return nil
	}
	return p.ClassifyBatchInto(frames, make([]float64, len(frames)))
}

// ClassifyBatchInto is ClassifyBatch writing scores into a caller-provided
// slice (len(out) >= len(frames)), so steady-state batched callers allocate
// nothing. Chunking (16 frames per forward pass) lives in the backend.
// Returns out[:len(frames)].
func (p *Percival) ClassifyBatchInto(frames []*imaging.Bitmap, out []float64) []float64 {
	if len(frames) == 0 {
		return out[:0]
	}
	start := time.Now()
	out = p.active.InferBatchInto(frames, out)
	p.classified.Add(int64(len(frames)))
	p.totalNanos.Add(time.Since(start).Nanoseconds())
	return out
}

// IsAd applies the decision threshold to a frame.
func (p *Percival) IsAd(frame *imaging.Bitmap) bool {
	return p.Classify(frame) >= p.opts.Threshold
}

// IsAdBatch applies the decision threshold to a batch scored via
// ClassifyBatch (chunked forward passes over a warm arena) — the batched
// counterpart of IsAd, sharing its verdict rule.
func (p *Percival) IsAdBatch(frames []*imaging.Bitmap) []bool {
	scores := p.ClassifyBatch(frames)
	verdicts := make([]bool, len(scores))
	for i, s := range scores {
		verdicts[i] = s >= p.opts.Threshold
	}
	return verdicts
}

// InspectFrame implements raster.FrameInspector — PERCIVAL's attachment
// point in the rendering pipeline: frames too small to be ads pass, every
// other frame is classified now and blocked (before it is drawn) when its
// score reaches the threshold. Every sighting runs the model; memoizing
// verdicts across sightings is serve's job.
func (p *Percival) InspectFrame(src string, frame *imaging.Bitmap) bool {
	start := time.Now()
	defer func() { p.inPathNanos.Add(time.Since(start).Nanoseconds()) }()
	if frame.W < p.opts.MinFrameEdge || frame.H < p.opts.MinFrameEdge {
		return false
	}
	ad := p.Classify(frame) >= p.opts.Threshold
	if ad {
		p.blocked.Add(1)
	}
	return ad
}

// Stats reports service counters.
type Stats struct {
	Classified int64
	Blocked    int64
	// AvgClassifyMS is the mean model latency per classified frame.
	AvgClassifyMS float64
	// InPathMS is the cumulative time spent inside InspectFrame — the
	// rendering critical path.
	InPathMS float64
}

// Stats returns a snapshot of the service counters.
func (p *Percival) Stats() Stats {
	n := p.classified.Load()
	s := Stats{
		Classified: n,
		Blocked:    p.blocked.Load(),
		InPathMS:   float64(p.inPathNanos.Load()) / 1e6,
	}
	if n > 0 {
		s.AvgClassifyMS = float64(p.totalNanos.Load()) / float64(n) / 1e6
	}
	return s
}

// ModelSizeBytes returns the float32 weight footprint of the wrapped model.
func (p *Percival) ModelSizeBytes() int { return nn.SizeBytes(p.net) }

// InputRes returns the network input resolution.
func (p *Percival) InputRes() int { return p.cfg.InputRes }

// Threshold returns the active decision threshold.
func (p *Percival) Threshold() float64 { return p.opts.Threshold }
