package main

import (
	"fmt"
	"syscall"
	"time"

	"percival/internal/core"
	"percival/internal/imaging"
	"percival/internal/serve"
	"percival/internal/squeezenet"
)

// rig is one workload, set up and ready to be driven. newX(seed) is the
// timed set-up (everything the program does before it can serve: model,
// service, server, warm arenas, warm caches, and the seed's inputs);
// prepare is the harness's own untimed work (reference outputs).
type rig interface {
	// prepare computes the reference outputs the timed phase is checked
	// against. Called once, on the rig that will be measured.
	prepare() error
	// run drives the workload for about d and reports what happened. A nil
	// tracer records no spans. It may be called more than once.
	run(d time.Duration, tr *tracer) *phase
	// sampleFrames returns a few of the workload's own frames, one per size
	// class where it has them, for the layer ladder.
	sampleFrames() []*imaging.Bitmap
	close()
}

// phase is what one timed phase observed.
type phase struct {
	// attempted and failed count operations (Submit calls, page renders). A
	// shed, errored or wrongly-scored operation is failed.
	attempted, failed int
	// frames is the number of verdicts delivered; modelFrames how many of
	// them the model actually scored during the phase.
	frames, modelFrames int64
	// fps and p50MS are the phase's own estimates of frames_per_s and
	// frame_p50_ms (see README.md for what each means per workload).
	fps, p50MS float64
	// latMS are the per-verdict blocking times the p50 came from.
	latMS []float64
	wall  time.Duration
	cpuMS float64
	// int8 says the phase's model runs were on the INT8 engine.
	int8 bool

	serve *serveCounters // nil when the workload has no serve.Server
	wire  *wireCounters  // nil when nothing crossed a wire
	page  *pageNumbers   // nil for the serve workloads
}

// serveCounters are serve.Metrics deltas over a phase.
type serveCounters struct {
	submitted, hits, coalesced, classified, shed, batches, busyNS int64
	lanes                                                         int
}

func snapServe(srv *serve.Server) serveCounters {
	m := srv.Metrics()
	c := serveCounters{
		submitted:  m.Submitted.Load(),
		hits:       m.CacheHits.Load(),
		coalesced:  m.Coalesced.Load(),
		classified: m.Classified.Load(),
		shed:       m.Shed.Load(),
		batches:    m.Batches.Load(),
		lanes:      len(m.LaneBusyNS),
	}
	for i := range m.LaneBusyNS {
		c.busyNS += m.LaneBusyNS[i].Load()
	}
	return c
}

func (c serveCounters) since(start serveCounters) *serveCounters {
	return &serveCounters{
		submitted:  c.submitted - start.submitted,
		hits:       c.hits - start.hits,
		coalesced:  c.coalesced - start.coalesced,
		classified: c.classified - start.classified,
		shed:       c.shed - start.shed,
		batches:    c.batches - start.batches,
		busyNS:     c.busyNS - start.busyNS,
		lanes:      c.lanes,
	}
}

// wireCounters are transport and fleet deltas over a phase.
type wireCounters struct {
	bytesOut, framesPixels, framesDedup int64
	hedges, fallbacks, errors           int64
}

func (c wireCounters) since(start wireCounters) *wireCounters {
	return &wireCounters{
		bytesOut:     c.bytesOut - start.bytesOut,
		framesPixels: c.framesPixels - start.framesPixels,
		framesDedup:  c.framesDedup - start.framesDedup,
		hedges:       c.hedges - start.hedges,
		fallbacks:    c.fallbacks - start.fallbacks,
		errors:       c.errors - start.errors,
	}
}

// buildService builds the model every workload uses — the paper-scale
// network with the deterministic warm start (latency does not depend on
// training) — behind a cache-less core.Percival. With calib frames it asks
// for the INT8 engine and fails unless that engine activates: a throughput
// number must never silently fall back to FP32.
func buildService(calib []*imaging.Bitmap) (*core.Percival, error) {
	cfg := squeezenet.PaperConfig()
	net, err := squeezenet.Build(cfg)
	if err != nil {
		return nil, fmt.Errorf("build network: %w", err)
	}
	squeezenet.PretrainedInit(net, 1)
	opts := core.Options{Mode: core.Synchronous, DisableCache: true}
	if calib != nil {
		opts.Quantized = true
		opts.CalibFrames = calib
		opts.ParityMinAgreement = 0.01 // activation only; parity is eval's subject
	}
	svc, err := core.New(net, cfg, opts)
	if err != nil {
		return nil, fmt.Errorf("build service: %w", err)
	}
	if calib != nil && !svc.QuantizedActive() {
		return nil, fmt.Errorf("INT8 engine did not activate (parity %.3f)", svc.ParityAgreement())
	}
	return svc, nil
}

// cpuMS is the process's user+system CPU time so far.
func cpuMS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's high-water resident set (Linux reports KB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// onePerSize picks the first frame of every size class from a size-major
// frame set with perSize frames per class.
func onePerSize(frames []*imaging.Bitmap, perSize int) []*imaging.Bitmap {
	var out []*imaging.Bitmap
	for i := 0; i < len(frames); i += perSize {
		out = append(out, frames[i])
	}
	return out
}
