package serve

// AdmissionController is the unified per-shard overload controller: one
// component that co-adapts the levers the serving edge has — batch cap (how
// much work one dispatch bites off), shed deadline, and admission itself
// (whether a new leader request may enter the bounded queue at all) — from
// one smoothed pressure signal, instead of three mechanisms each reading
// its own tea leaves.
//
// Pressure folds the signals the stack already produces into one EWMA in
// [0, ~1.25]:
//
//   - queue occupancy: every leader admission observes len(queue)/cap —
//     the direct "are we keeping up" signal;
//   - dispatch wait: every leader a shard's loop pops for dispatch observes
//     its queue age over the shed deadline — catches lane saturation while
//     queues still look shallow;
//   - remote congestion: when the backend caps each peer's in-flight
//     chunks (engine.WindowReporter), mean in-flight/limit saturation is
//     sampled — catches a congested fleet before the local queue backs up.
//
// The pressure drives a graded brownout ladder with hysteresis, replacing
// the old binary deadline shed:
//
//   stage 0 normal     — blocking admission (bounded by the shed deadline),
//                        full batch cap;
//   stage 1 cache-only — over-budget requests get cache/coalesce service
//                        only: admission stops blocking, a full queue sheds
//                        immediately instead of queueing doomed work;
//   stage 2 degraded   — batch cap and shed deadline halve: smaller bites,
//                        tighter deadlines;
//   stage 3 shed       — new leader work is shed at the edge; cache and
//                        coalesce hits are still answered (repeats are the
//                        common case — the cache IS the brownout capacity).
//
// Transitions move one stage at a time: escalate after pressure has held
// above admEnter for EnterHold, release after it has held below admExit for
// ExitHold. The gap between the two thresholds plus the hold times is the
// hysteresis that keeps the ladder from flapping on a bursty boundary load.

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"percival/internal/engine"
	"percival/internal/metrics"
)

// BrownoutStage is the admission controller's position on the overload
// ladder.
type BrownoutStage int32

// Ladder stages, mildest first.
const (
	BrownoutNormal    BrownoutStage = iota // full service
	BrownoutCacheOnly                      // over-budget requests: cache/coalesce only
	BrownoutDegraded                       // halved batch cap, tightened deadline
	BrownoutShed                           // new leader work shed at the edge
)

// String names the stage for /healthz and logs.
func (st BrownoutStage) String() string {
	switch st {
	case BrownoutNormal:
		return "normal"
	case BrownoutCacheOnly:
		return "cache-only"
	case BrownoutDegraded:
		return "degraded"
	case BrownoutShed:
		return "shed"
	}
	return fmt.Sprintf("stage(%d)", int32(st))
}

// Admission constants and the defaults of AdmissionOptions.
const (
	// admEnter / admExit bound the hysteresis band: escalate above the
	// first, release below the second.
	admEnter = 0.75
	admExit  = 0.35
	// admWinPeriod rate-limits Windows sampling.
	admWinPeriod        = 25 * time.Millisecond
	admDefaultEnterHold = 100 * time.Millisecond
	admDefaultExitHold  = 300 * time.Millisecond
	admDefaultAlpha     = 0.1
	// admDefaultWaitNorm normalizes dispatch waits into pressure when no
	// shed deadline is configured.
	admDefaultWaitNorm = 100 * time.Millisecond
	// admWindowWeight discounts the remote-saturation signal: a pipeline
	// briefly running at its in-flight cap is normal; only sustained saturation
	// should push past admEnter.
	admWindowWeight = 0.9
)

// AdmissionOptions tunes an AdmissionController. The zero value gets
// defaults from NewAdmissionController.
type AdmissionOptions struct {
	// EnterHold / ExitHold are how long pressure must sit past a threshold
	// before the ladder moves one stage (defaults 100ms / 300ms — brownout
	// engages faster than it releases).
	EnterHold time.Duration
	ExitHold  time.Duration
	// Alpha is the pressure EWMA smoothing factor (default 0.1).
	Alpha float64
	// Windows feeds remote in-flight saturation into the pressure
	// signal. serve.New wires the service backend automatically when it
	// reports windows (fleet or remote) and this is nil.
	Windows engine.WindowReporter
}

func (o AdmissionOptions) withDefaults() AdmissionOptions {
	if o.EnterHold <= 0 {
		o.EnterHold = admDefaultEnterHold
	}
	if o.ExitHold <= 0 {
		o.ExitHold = admDefaultExitHold
	}
	if o.Alpha <= 0 || o.Alpha > 1 {
		o.Alpha = admDefaultAlpha
	}
	return o
}

// AdmissionController is the unified overload controller (see the package
// comment above the type set). Safe for concurrent use from every shard's
// submitters and dispatch loops.
type AdmissionController struct {
	opts AdmissionOptions

	stage    atomic.Int32
	pressure atomic.Uint64 // math.Float64bits of the EWMA
	deadline atomic.Int64  // configured shed deadline, ns (wait normalizer)

	// ladder/bookkeeping state, TryLock'd from the hot path: a submission
	// that loses the race simply leaves the evaluation to the winner.
	mu      sync.Mutex
	above   time.Time // since when pressure has sat above admEnter
	below   time.Time // since when pressure has sat below admExit
	lastWin time.Time // last Windows sample
	winSat  float64   // last sampled mean in-flight/limit over peers

	transitions metrics.Counter // ladder moves, either direction
	// admSheds counts requests the ladder shed at admission (stage >= 1
	// queue-full rejections and stage-3 edge sheds), not deadline sheds
	admSheds metrics.Counter

	now func() time.Time // test clock hook
}

// NewAdmissionController builds a controller at stage 0.
func NewAdmissionController(opts AdmissionOptions) *AdmissionController {
	opts = opts.withDefaults()
	return &AdmissionController{opts: opts, now: time.Now}
}

// Stage returns the ladder's current stage.
func (c *AdmissionController) Stage() BrownoutStage {
	return BrownoutStage(c.stage.Load())
}

// Pressure returns the smoothed pressure signal.
func (c *AdmissionController) Pressure() float64 {
	return math.Float64frombits(c.pressure.Load())
}

// setDeadline publishes the configured shed deadline as the dispatch-wait
// normalizer (serve.New calls this; a zero deadline falls back to
// admDefaultWaitNorm).
func (c *AdmissionController) setDeadline(d time.Duration) { c.deadline.Store(int64(d)) }

func (c *AdmissionController) waitNorm() time.Duration {
	if d := time.Duration(c.deadline.Load()); d > 0 {
		return d
	}
	return admDefaultWaitNorm
}

// observe folds one pressure sample into the EWMA (CAS loop: the hot path
// never blocks on a lock for this).
func (c *AdmissionController) observe(x float64) {
	for {
		old := c.pressure.Load()
		p := math.Float64frombits(old)
		p += c.opts.Alpha * (x - p)
		if c.pressure.CompareAndSwap(old, math.Float64bits(p)) {
			return
		}
	}
}

// AdmitQueue is called once per leader admission with the shard queue's
// occupancy. It feeds the pressure signal, advances the ladder, and returns
// the stage the submission must obey.
func (c *AdmissionController) AdmitQueue(qlen, qcap int) BrownoutStage {
	x := 0.0
	if qcap > 0 {
		x = float64(qlen) / float64(qcap)
	}
	if c.opts.Windows != nil {
		if sat := c.sampleWindows(); sat*admWindowWeight > x {
			x = sat * admWindowWeight
		}
	}
	c.observe(x)
	c.evaluate(c.now())
	return c.Stage()
}

// sampleWindows refreshes the remote-saturation reading at most once per
// admWinPeriod and returns the latest value: the mean, over peers, of
// in-flight depth against the peer's in-flight limit. A fleet pinned at
// its limits is congested no matter how shallow the local queues are. The
// reporter's rows cover only peers that can take traffic (the fleet
// excludes evicted and draining peers — see Fleet.WindowStats), so a
// mid-drain topology change does not dilute the mean with a quiescing
// peer; an empty row set (no routable peer, dispatch on the local
// fallback) reads as zero remote saturation.
func (c *AdmissionController) sampleWindows() float64 {
	now := c.now()
	if !c.mu.TryLock() {
		return 0 // a concurrent sampler owns the fresh value this instant
	}
	defer c.mu.Unlock()
	if now.Sub(c.lastWin) >= admWinPeriod {
		c.lastWin = now
		stats := c.opts.Windows.WindowStats()
		sat := 0.0
		for _, st := range stats {
			sat += min(float64(st.InFlight)/float64(max(st.Limit, 1)), 1)
		}
		if len(stats) > 0 {
			sat /= float64(len(stats))
		}
		c.winSat = sat
	}
	return c.winSat
}

// evaluate advances the hysteresis ladder: one stage per EnterHold above
// admEnter, one stage back per ExitHold below admExit. TryLock —
// concurrent submissions race to evaluate and only one needs to win.
func (c *AdmissionController) evaluate(now time.Time) {
	if !c.mu.TryLock() {
		return
	}
	defer c.mu.Unlock()
	p := c.Pressure()
	st := c.stage.Load()
	switch {
	case p >= admEnter:
		c.below = time.Time{}
		if c.above.IsZero() {
			c.above = now
		}
		if st < int32(BrownoutShed) && now.Sub(c.above) >= c.opts.EnterHold {
			c.stage.Store(st + 1)
			c.transitions.Inc()
			c.above = now // the next step needs its own sustained hold
		}
	case p <= admExit:
		c.above = time.Time{}
		if c.below.IsZero() {
			c.below = now
		}
		if st > int32(BrownoutNormal) && now.Sub(c.below) >= c.opts.ExitHold {
			c.stage.Store(st - 1)
			c.transitions.Inc()
			c.below = now
		}
	default:
		// inside the hysteresis band: hold the stage, restart both clocks
		c.above, c.below = time.Time{}, time.Time{}
	}
}

// ObserveShed counts one ladder-driven admission shed. Deliberately not a
// pressure input: at stage 3 every leader sheds, and feeding those back in
// would pin the pressure high after the load is gone — the ladder could
// never release. Occupancy and dispatch waits are the ground truth.
func (c *AdmissionController) ObserveShed() { c.admSheds.Inc() }

// ObserveDispatchWait feeds one leader's queue age (sampled as it leaves
// the queue) into the pressure signal, normalized by the shed deadline. In
// a coalescing service the queue can stay structurally shallow — the leader
// population is bounded by the distinct-creative count — while every leader
// still ages toward the deadline; this per-pop sample is what reads
// saturation when occupancy cannot. Rate-matched with the per-admission
// occupancy samples, so neither signal drowns the other in the shared EWMA.
// Stage 3 sheds leaders at the edge, so no pops happen there and the signal
// naturally decays — the ladder can always release.
func (c *AdmissionController) ObserveDispatchWait(age time.Duration) {
	x := float64(age) / float64(c.waitNorm())
	if x > 1.25 {
		x = 1.25
	}
	c.observe(x)
}

// ObserveOverloadShed feeds one deadline-driven shed — a leader that aged
// out at the queue door or at dispatch — into the pressure signal at the
// saturation ceiling, weighted by the whole request mass it took down (the
// leader plus every follower coalesced behind it). Mass matters: in a
// coalescing service one stalled leader can carry hundreds of submissions,
// and counting it as a single sample lets the high-rate low-pressure
// admission samples drown the event. This is NOT the ladder's own shedding
// (ObserveShed): ladder sheds are the controller's output and feeding them
// back would pin the pressure at stage 3 forever; deadline sheds only
// happen when dispatch genuinely cannot keep up.
func (c *AdmissionController) ObserveOverloadShed(mass int) {
	if mass < 1 {
		mass = 1
	}
	// fold equivalent to mass consecutive observations of the ceiling
	const x = 1.25
	w := 1 - math.Pow(1-c.opts.Alpha, float64(mass))
	for {
		old := c.pressure.Load()
		p := math.Float64frombits(old)
		p += w * (x - p)
		if c.pressure.CompareAndSwap(old, math.Float64bits(p)) {
			return
		}
	}
}

// BatchCap is the stage-adjusted dispatch bite: the configured MaxBatch
// normally, half (floor 1) under degraded brownout.
func (c *AdmissionController) BatchCap(configured int) int {
	if c.Stage() >= BrownoutDegraded {
		if configured >= 2 {
			return configured / 2
		}
		return 1
	}
	return configured
}

// ShedDeadline is the stage-adjusted shed deadline: configured normally,
// halved under degraded brownout (0 stays 0 — disabled is disabled).
func (c *AdmissionController) ShedDeadline(configured time.Duration) time.Duration {
	if configured > 0 && c.Stage() >= BrownoutDegraded {
		return configured / 2
	}
	return configured
}

// Expose renders the controller's gauges in Prometheus text exposition
// format (the daemon's /metrics appends this when admission is on).
func (c *AdmissionController) Expose() string {
	return fmt.Sprintf("percival_serve_brownout_stage %d\n", c.Stage()) +
		fmt.Sprintf("percival_serve_admission_pressure %.4f\n", c.Pressure()) +
		metrics.ExposeCounter("percival_serve_brownout_transitions_total", &c.transitions) +
		metrics.ExposeCounter("percival_serve_admission_sheds_total", &c.admSheds)
}
