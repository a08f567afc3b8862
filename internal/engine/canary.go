package engine

// Agreement-gated model canary: the automated rollout primitive over the
// backend registry (the daemon's /classify takes no ?model= selection; only
// the BatchHandler that bench/ mounts reads one). An operator (or the
// retrain pipeline) registers a new model version and begins a canary; the
// controller shifts a configurable fraction of live traffic to the
// candidate, shadow-scores the same frames on the incumbent path, and
// tracks per-frame verdict agreement (same side of the blocking threshold)
// over a sliding hold window. Agreement holding at or above the floor for
// a full window promotes the candidate to registry default; agreement
// dipping below the floor — any time after a minimum sample count — rolls
// the rollout back. No wall-clock holds, no manual gate: the agreement
// floor is the only driver, so a disagreeing model can never be promoted
// by timeout and an agreeing one is never held hostage by one.
//
// The dispatch half is CanaryBackend, a Backend proxy layered over the
// serving backend (local engine or fleet). It is passthrough when no
// rollout is running, so steady-state serving pays one atomic load per
// batch. During a rollout a deterministic counter split sends every Nth
// chunk to the candidate; those chunks are scored twice (candidate answers
// the caller, incumbent is the shadow reference), which is the canary's
// cost — Fraction bounds it.

import (
	"fmt"
	"log"
	"math"
	"sync"
	"sync/atomic"

	"percival/internal/imaging"
)

// CanaryState is a rollout's position in the canary state machine.
type CanaryState int32

const (
	// CanaryIdle: no rollout has been started.
	CanaryIdle CanaryState = iota
	// CanaryRunning: a traffic fraction is shifted to the candidate and
	// agreement is being measured.
	CanaryRunning
	// CanaryPromoted: agreement held at or above the floor for a full hold
	// window; the candidate is the registry default now.
	CanaryPromoted
	// CanaryRolledBack: agreement dipped below the floor (or the rollout
	// was canceled); all traffic is back on the incumbent.
	CanaryRolledBack
)

// String names the state for /admin/topology and logs.
func (s CanaryState) String() string {
	switch s {
	case CanaryIdle:
		return "idle"
	case CanaryRunning:
		return "running"
	case CanaryPromoted:
		return "promoted"
	case CanaryRolledBack:
		return "rolled_back"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// CanaryOptions tunes a rollout. The zero value gets defaults from
// BeginCanary.
type CanaryOptions struct {
	// Fraction of chunks shifted to the candidate while running (default
	// 0.05). Those chunks are scored twice (shadow reference), so this
	// also bounds the rollout's compute overhead. >= 1 shifts everything.
	Fraction float64
	// Floor is the verdict-agreement ratio the candidate must hold
	// (default 0.99, the INT8 parity gate's bar).
	Floor float64
	// HoldWindow is the sliding window of shadowed frames the floor must
	// hold over for promotion (default 256).
	HoldWindow int
	// MinSamples is how many shadowed frames must be observed before a
	// dip can roll the rollout back (default 64) — one early disagreeing
	// chunk should count against the window, not kill the rollout alone.
	MinSamples int
	// Threshold is the ad-probability verdict boundary agreement is
	// measured at (default 0.5, the serving default).
	Threshold float64
}

func (o CanaryOptions) withDefaults() CanaryOptions {
	if o.Fraction <= 0 {
		o.Fraction = 0.05
	}
	if o.Floor <= 0 || o.Floor > 1 {
		o.Floor = 0.99
	}
	if o.HoldWindow <= 0 {
		o.HoldWindow = 256
	}
	if o.MinSamples <= 0 {
		o.MinSamples = 64
	}
	if o.Threshold <= 0 || o.Threshold >= 1 {
		o.Threshold = 0.5
	}
	return o
}

// canaryController is one rollout's live state, owned by the registry.
type canaryController struct {
	reg       *Registry
	candidate string
	incumbent string
	cand      Backend
	opts      CanaryOptions

	stateA atomic.Int32  // CanaryState; transitions by CAS only
	flips  atomic.Uint64 // chunk rotor for the deterministic traffic split
	period uint64        // every period-th chunk rides the canary

	mu       sync.Mutex
	ring     []bool // per-frame agreement, sliding hold window
	pos      int
	filled   int
	winAgree int   // agreeing frames currently in the ring
	agree    int64 // lifetime agreeing frames
	total    int64 // lifetime shadowed frames
}

func (c *canaryController) state() CanaryState {
	return CanaryState(c.stateA.Load())
}

// take decides whether this chunk rides the canary: a deterministic
// counter split (every period-th chunk), so the shifted fraction is exact
// and reproducible rather than sampled.
func (c *canaryController) take() bool {
	if c.period <= 1 {
		return true
	}
	return c.flips.Add(1)%c.period == 0
}

// observe folds one shadowed chunk's agreement into the window and drives
// the state machine: rollback on a dip past MinSamples, promotion on a
// full window at or above the floor. The registry default flip happens
// outside the controller lock — SetDefault takes the registry lock, and
// BeginCanary holds it while reading controller state, so nesting the two
// here would invert the order.
func (c *canaryController) observe(agreed, total int) {
	if total <= 0 {
		return
	}
	c.mu.Lock()
	if c.state() != CanaryRunning {
		c.mu.Unlock()
		return
	}
	for i := 0; i < total; i++ {
		ok := i < agreed // order within a chunk is immaterial to a ratio
		if c.filled == len(c.ring) {
			if c.ring[c.pos] {
				c.winAgree--
			}
		} else {
			c.filled++
		}
		c.ring[c.pos] = ok
		if ok {
			c.winAgree++
		}
		c.pos = (c.pos + 1) % len(c.ring)
	}
	c.agree += int64(agreed)
	c.total += int64(total)
	ratio := float64(c.winAgree) / float64(c.filled)
	samples := c.total
	var promote, rollback bool
	if samples >= int64(c.opts.MinSamples) && ratio < c.opts.Floor {
		rollback = c.stateA.CompareAndSwap(int32(CanaryRunning), int32(CanaryRolledBack))
	} else if c.filled == len(c.ring) && ratio >= c.opts.Floor {
		promote = c.stateA.CompareAndSwap(int32(CanaryRunning), int32(CanaryPromoted))
	}
	c.mu.Unlock()
	if rollback {
		log.Printf("engine: canary %s rolled back: window agreement %.4f < floor %.4f after %d shadowed frames",
			c.candidate, ratio, c.opts.Floor, samples)
	}
	if promote {
		if err := c.reg.SetDefault(c.candidate); err != nil {
			// the candidate was deregistered mid-rollout; the promotion is
			// moot but the state already says promoted — log loudly
			log.Printf("engine: canary %s promoted but default flip failed: %v", c.candidate, err)
		} else {
			log.Printf("engine: canary %s promoted over %s: agreement %.4f >= floor %.4f for a %d-frame window",
				c.candidate, c.incumbent, ratio, c.opts.Floor, len(c.ring))
		}
	}
}

// CanaryStatus is the rollout's introspection surface (/admin/topology).
type CanaryStatus struct {
	Active          bool    `json:"active"`
	State           string  `json:"state"`
	Candidate       string  `json:"candidate,omitempty"`
	Incumbent       string  `json:"incumbent,omitempty"`
	Fraction        float64 `json:"fraction,omitempty"`
	Floor           float64 `json:"floor,omitempty"`
	HoldWindow      int     `json:"hold_window,omitempty"`
	Samples         int64   `json:"samples"`
	Agreement       float64 `json:"agreement"`        // lifetime ratio
	WindowFill      int     `json:"window_fill"`      // frames in the ring
	WindowAgreement float64 `json:"window_agreement"` // ring ratio
}

func (c *canaryController) status() CanaryStatus {
	st := c.state()
	c.mu.Lock()
	defer c.mu.Unlock()
	out := CanaryStatus{
		Active:     st == CanaryRunning,
		State:      st.String(),
		Candidate:  c.candidate,
		Incumbent:  c.incumbent,
		Fraction:   c.opts.Fraction,
		Floor:      c.opts.Floor,
		HoldWindow: len(c.ring),
		Samples:    c.total,
		WindowFill: c.filled,
	}
	if c.total > 0 {
		out.Agreement = float64(c.agree) / float64(c.total)
	}
	if c.filled > 0 {
		out.WindowAgreement = float64(c.winAgree) / float64(c.filled)
	}
	return out
}

// BeginCanary starts an agreement-gated rollout of the named candidate
// against the current default. One rollout at a time; a finished
// (promoted or rolled-back) controller is replaced, a running one is an
// error. The candidate must serve the incumbent's resolution — the
// shadowed frames are pre-processed once for both.
func (r *Registry) BeginCanary(candidate string, opts CanaryOptions) error {
	opts = opts.withDefaults()
	r.mu.Lock()
	defer r.mu.Unlock()
	cand, ok := r.m[candidate]
	if !ok {
		return fmt.Errorf("engine: canary candidate %q not registered", candidate)
	}
	if candidate == r.def {
		return fmt.Errorf("engine: canary candidate %q is already the default", candidate)
	}
	if inc := r.m[r.def]; inc != nil && cand.InputRes() != inc.InputRes() {
		return fmt.Errorf("engine: canary candidate %q serves res %d, incumbent %q serves %d",
			candidate, cand.InputRes(), r.def, inc.InputRes())
	}
	if old := r.canary.Load(); old != nil && old.state() == CanaryRunning {
		return fmt.Errorf("engine: canary %q already running", old.candidate)
	}
	ctl := &canaryController{
		reg:       r,
		candidate: candidate,
		incumbent: r.def,
		cand:      cand,
		opts:      opts,
		ring:      make([]bool, opts.HoldWindow),
	}
	if opts.Fraction < 1 {
		ctl.period = uint64(math.Round(1 / opts.Fraction))
	}
	ctl.stateA.Store(int32(CanaryRunning))
	r.canary.Store(ctl)
	log.Printf("engine: canary %s vs %s started: fraction %.3f, floor %.4f over %d frames",
		candidate, r.def, opts.Fraction, opts.Floor, opts.HoldWindow)
	return nil
}

// CancelCanary aborts a running rollout (an operator judgment call outside
// the agreement gate); traffic snaps back to the incumbent on the next
// chunk. Reports whether a running rollout was actually canceled.
func (r *Registry) CancelCanary() bool {
	ctl := r.canary.Load()
	if ctl == nil {
		return false
	}
	if ctl.stateA.CompareAndSwap(int32(CanaryRunning), int32(CanaryRolledBack)) {
		log.Printf("engine: canary %s canceled", ctl.candidate)
		return true
	}
	return false
}

// CanaryStatus snapshots the active (or most recent) rollout; the zero
// value means no rollout has ever been started.
func (r *Registry) CanaryStatus() CanaryStatus {
	ctl := r.canary.Load()
	if ctl == nil {
		return CanaryStatus{State: CanaryIdle.String()}
	}
	return ctl.status()
}

// CanaryBackend is the dispatch half of the rollout: a Backend proxy over
// the serving path (local engine or fleet) that consults the registry's
// canary controller per batch. Idle and finished states are passthrough;
// a running rollout splits chunks by the controller's rotor and shadow-
// scores the shifted ones; a promoted rollout routes everything to the
// candidate. Like every Backend, one instance serves one dispatch lane —
// serve replicates it per shard, and each replica lazily replicates its
// own candidate lane when a rollout appears.
type CanaryBackend struct {
	reg *Registry

	mu     sync.Mutex
	base   Backend           // incumbent serving path for this lane
	ctl    *canaryController // controller this lane last synced against
	cand   Backend           // lane-local candidate replica
	shadow []float64         // incumbent shadow-score scratch
}

// NewCanaryBackend wraps the serving backend with the rollout proxy.
func NewCanaryBackend(reg *Registry, base Backend) *CanaryBackend {
	return &CanaryBackend{reg: reg, base: base}
}

// syncLocked adopts a controller change: a promoted rollout's candidate
// replica becomes the lane's steady route (the registry default already
// flipped; this flips the lane), any other outgoing replica is released.
func (cb *CanaryBackend) syncLocked(ctl *canaryController) {
	if cb.cand != nil {
		if cb.ctl != nil && cb.ctl.state() == CanaryPromoted {
			cb.base = cb.cand
		} else {
			cb.cand.Close()
		}
		cb.cand = nil
	}
	cb.ctl = ctl
	if ctl != nil {
		cb.cand = ctl.cand.Replicate()
	}
}

// InferBatchInto is the unkeyed dispatch.
func (cb *CanaryBackend) InferBatchInto(frames []*imaging.Bitmap, out []float64) []float64 {
	return cb.InferKeyedInto(frames, nil, out)
}

// InferKeyedInto (KeyedBackend) routes one batch through the rollout state
// machine. The daemon always puts this proxy between the serving layer and
// the fleet, so the caller's keys pass through to incumbent, candidate and
// shadow alike.
func (cb *CanaryBackend) InferKeyedInto(frames []*imaging.Bitmap, keys [][32]byte, out []float64) []float64 {
	checkKeys(frames, keys)
	ctl := cb.reg.canary.Load()
	cb.mu.Lock()
	if ctl != cb.ctl {
		cb.syncLocked(ctl)
	}
	base, cand := cb.base, cb.cand
	if ctl == nil {
		cb.mu.Unlock()
		return InferKeyed(base, frames, keys, out)
	}
	switch ctl.state() {
	case CanaryPromoted:
		cb.mu.Unlock()
		return InferKeyed(cand, frames, keys, out)
	case CanaryRunning:
		if ctl.take() {
			if cap(cb.shadow) < len(frames) {
				cb.shadow = make([]float64, len(frames))
			}
			ref := cb.shadow[:len(frames)]
			cb.mu.Unlock()
			// the candidate answers the caller; the incumbent shadow-scores
			// the same frames as the agreement reference
			out = InferKeyed(cand, frames, keys, out)
			InferKeyed(base, frames, keys, ref)
			agreed := 0
			thr := ctl.opts.Threshold
			for i := range out {
				if (out[i] >= thr) == (ref[i] >= thr) {
					agreed++
				}
			}
			ctl.observe(agreed, len(out))
			return out
		}
	}
	cb.mu.Unlock()
	return InferKeyed(base, frames, keys, out)
}

// baseNow reads the lane's current steady route.
func (cb *CanaryBackend) baseNow() Backend {
	cb.mu.Lock()
	defer cb.mu.Unlock()
	return cb.base
}

// Name identifies the underlying serving path (the proxy is invisible in
// /healthz — operators see the canary through /admin/topology).
func (cb *CanaryBackend) Name() string { return cb.baseNow().Name() }

// InputRes is the serving path's input resolution.
func (cb *CanaryBackend) InputRes() int { return cb.baseNow().InputRes() }

// Stats reports the serving path's counters.
func (cb *CanaryBackend) Stats() Stats { return cb.baseNow().Stats() }

// Replicate hands a sibling lane over the same registry: the base
// replicates, the candidate lane is created lazily when a rollout appears.
func (cb *CanaryBackend) Replicate() Backend {
	return NewCanaryBackend(cb.reg, cb.baseNow().Replicate())
}

// Warm warms the serving path (candidate lanes warm on first replicate).
func (cb *CanaryBackend) Warm(maxBatch int) { cb.baseNow().Warm(maxBatch) }

// Close releases the lane's backends.
func (cb *CanaryBackend) Close() {
	cb.mu.Lock()
	base, cand := cb.base, cb.cand
	cb.cand = nil
	cb.mu.Unlock()
	if cand != nil {
		cand.Close()
	}
	base.Close()
}

// PeerHealth forwards fleet supervision through the proxy (HealthReporter
// discovery type-asserts the shard backend, which is now this proxy).
func (cb *CanaryBackend) PeerHealth() []PeerHealthInfo {
	if hr, ok := cb.baseNow().(HealthReporter); ok {
		return hr.PeerHealth()
	}
	return nil
}

// WindowStats forwards congestion windows through the proxy (the admission
// controller's saturation feed).
func (cb *CanaryBackend) WindowStats() []WindowStat {
	if wr, ok := cb.baseNow().(WindowReporter); ok {
		return wr.WindowStats()
	}
	return nil
}
