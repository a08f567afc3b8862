package engine

// CubicWindow is a per-remote-replica congestion window: it bounds how many
// chunks are in flight against one peer at a time, and adapts that bound to
// the peer's observed round-trip behaviour the way TCP CUBIC adapts cwnd —
// slow-start to probe a fresh peer, a cubic growth curve in congestion
// avoidance (fast recovery toward the last known-good window, cautious
// plateau around it, then accelerating probe beyond), and multiplicative
// backoff on loss signals (chunk timeout, injected failure, hedge fire,
// eviction).
//
// Before the window existed, the only per-peer in-flight bound was the
// shard topology itself: one serve shard per peer keeps roughly one chunk
// in flight per lane, but failover, hedging and multi-worker shards all
// stack extra chunks onto whichever peer looks healthy, and a peer that is
// merely slow keeps absorbing new chunks while its queue (and the tail)
// grows without bound. The window closes that loop: RTT inflation and
// timeouts shrink it, so a congested peer sees its offered load cut
// instead of compounded.
//
// The RTT estimator is the fleet's latency EWMA (metrics.EWMA: mean +
// smoothed mean absolute deviation) shared with the hedging trigger, and
// derives the retransmission-timeout the transport uses as its adaptive
// per-attempt budget: RTO = mean + 4·dev (the RFC 6298 shape with the
// EWMA's deviation standing in for RTTVAR), floored so scheduler noise on
// a fast fleet never produces a hair-trigger timeout, and never exceeding
// the configured per-attempt ceiling.
//
// The shape follows ndn-dpdk's ndn/segmented fetch logic (CUBIC window +
// RTT estimator driving an in-flight fetch pipeline); constants are the
// RFC 8312 defaults (C=0.4, beta=0.7).

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"percival/internal/metrics"
)

// CUBIC and RTO defaults; see WindowOptions.
const (
	windowDefaultInitial = 4
	windowDefaultMax     = 64
	windowDefaultBeta    = 0.7
	windowDefaultC       = 0.4
	windowDefaultRTOMin  = 200 * time.Millisecond
	// windowRTOSamples is how many RTT samples must be observed before the
	// adaptive RTO is trusted over the configured per-attempt timeout.
	windowRTOSamples = 8
)

// WindowOptions tunes a CubicWindow. The zero value gets defaults from
// NewCubicWindow.
type WindowOptions struct {
	// Initial is the starting (and post-Reset) window (default 4).
	Initial float64
	// Max caps the window (default 64). The floor is always 1: a peer that
	// can take any traffic at all can take one chunk.
	Max float64
	// Beta is the multiplicative-decrease factor applied on loss
	// (default 0.7, the RFC 8312 value).
	Beta float64
	// C is the cubic growth-scaling constant (default 0.4).
	C float64
	// RTOMin floors the adaptive retransmission timeout (default 200ms) so
	// a fast fleet's scheduler noise never produces hair-trigger timeouts.
	RTOMin time.Duration
}

func (o WindowOptions) withDefaults() WindowOptions {
	if o.Initial <= 0 {
		o.Initial = windowDefaultInitial
	}
	if o.Max <= 0 {
		o.Max = windowDefaultMax
	}
	if o.Initial > o.Max {
		o.Initial = o.Max
	}
	if o.Beta <= 0 || o.Beta >= 1 {
		o.Beta = windowDefaultBeta
	}
	if o.C <= 0 {
		o.C = windowDefaultC
	}
	if o.RTOMin <= 0 {
		o.RTOMin = windowDefaultRTOMin
	}
	return o
}

// CubicWindow is the adaptive in-flight bound for one peer. Safe for
// concurrent use; one window is shared by every replica dialing the same
// peer (Replicate copies the pointer), so all lanes see one congestion
// picture.
type CubicWindow struct {
	opts WindowOptions
	rtt  *metrics.EWMA // round-trip latency, milliseconds; shared with hedging

	mu       sync.Mutex
	cwnd     float64
	wmax     float64 // window at the last loss (the cubic plateau target)
	ssthresh float64 // slow-start/congestion-avoidance boundary
	k        float64 // cubic inflection offset, seconds
	epoch    time.Time
	lastLoss time.Time
	inflight int
	wake     chan struct{} // closed+replaced to broadcast to parked Acquires
	parked   int           // Acquires that may be waiting on wake

	losses  atomic.Int64
	blocked atomic.Int64 // Acquire calls that had to wait

	now func() time.Time // test clock hook
}

// NewCubicWindow builds a window in slow start at the initial size.
func NewCubicWindow(opts WindowOptions) *CubicWindow {
	opts = opts.withDefaults()
	w := &CubicWindow{
		opts: opts,
		rtt:  metrics.NewEWMA(0.2),
		wake: make(chan struct{}),
		now:  time.Now,
	}
	w.resetLocked()
	return w
}

// resetLocked restores the fresh-peer state: initial window, slow start
// straight to Max, no loss history. Callers hold mu (or own the window
// exclusively, as in NewCubicWindow).
func (w *CubicWindow) resetLocked() {
	w.cwnd = w.opts.Initial
	w.wmax = w.opts.Initial
	w.ssthresh = w.opts.Max
	w.k = 0
	w.epoch = time.Time{}
	w.lastLoss = time.Time{}
}

// RTT returns the shared round-trip estimator (milliseconds) — the same
// EWMA the fleet's hedging trigger reads.
func (w *CubicWindow) RTT() *metrics.EWMA { return w.rtt }

// limitLocked is the integer in-flight bound: the window floor is 1 chunk.
func (w *CubicWindow) limitLocked() int {
	n := int(w.cwnd)
	if n < 1 {
		n = 1
	}
	return n
}

// Acquire blocks until an in-flight slot frees up (or ctx ends, reporting
// false). Every successful Acquire must be paired with one Release.
func (w *CubicWindow) Acquire(ctx context.Context) bool {
	waited := false
	for {
		w.mu.Lock()
		if w.inflight < w.limitLocked() {
			w.inflight++
			w.mu.Unlock()
			return true
		}
		wake := w.wake
		w.parked++
		w.mu.Unlock()
		if !waited {
			waited = true
			w.blocked.Add(1)
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return false
		}
	}
}

// Release frees one in-flight slot and wakes every waiter (the window is
// small; a broadcast retry is cheaper than tracked handoff).
func (w *CubicWindow) Release() {
	w.mu.Lock()
	if w.inflight > 0 {
		w.inflight--
	}
	w.wakeLocked()
	w.mu.Unlock()
}

// wakeLocked broadcasts to the parked Acquires by closing the channel they
// wait on and arming a fresh one. With nobody parked — every chunk of an
// uncongested peer — it does nothing, so the common path allocates no
// channel. (An Acquire that gave up on its context stays counted until the
// next broadcast; the cost is one spare channel, never a missed wake-up.)
func (w *CubicWindow) wakeLocked() {
	if w.parked == 0 {
		return
	}
	w.parked = 0
	close(w.wake)
	w.wake = make(chan struct{})
}

// OnSuccess feeds one successful round trip: the RTT sample goes to the
// shared estimator, and the window grows — by one chunk per ack in slow
// start, along the cubic curve in congestion avoidance.
func (w *CubicWindow) OnSuccess(rtt time.Duration) {
	w.rtt.Observe(float64(rtt.Nanoseconds()) / 1e6)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.cwnd < w.ssthresh {
		w.cwnd++
	} else {
		if w.epoch.IsZero() {
			// entering congestion avoidance without a loss epoch (slow start
			// ran straight into ssthresh): the curve starts here
			w.epoch = w.now()
			w.wmax = w.cwnd
			w.k = 0
		}
		// W_cubic(t) = C·(t−K)³ + Wmax: concave recovery toward the last
		// known-good window, plateau around it, convex probe past it.
		t := w.now().Sub(w.epoch).Seconds()
		target := w.opts.C*math.Pow(t-w.k, 3) + w.wmax
		if target > w.cwnd {
			w.cwnd += (target - w.cwnd) / w.cwnd
		} else {
			// on or above the curve: probe gently so the window still moves
			w.cwnd += 0.01 / w.cwnd
		}
	}
	if w.cwnd > w.opts.Max {
		w.cwnd = w.opts.Max
	}
	// growth can unblock waiters even without a release
	w.wakeLocked()
}

// OnLoss applies the multiplicative decrease for one congestion signal — a
// chunk timeout, a transport failure, or a hedge firing against this peer.
// Concurrent chunks failing together are one congestion event, not many:
// decreases within one smoothed RTT of the last are coalesced, so a burst
// of losses cannot collapse the window straight to the floor.
func (w *CubicWindow) OnLoss() {
	now := w.now()
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.lastLoss.IsZero() && now.Sub(w.lastLoss) < w.guardLocked() {
		return
	}
	w.lastLoss = now
	w.losses.Add(1)
	w.backoffLocked(now)
}

// backoffLocked is the CUBIC decrease: remember the pre-loss window as the
// plateau target, cut cwnd by beta, recompute the inflection offset K.
func (w *CubicWindow) backoffLocked(now time.Time) {
	if w.cwnd < w.wmax {
		// fast convergence (RFC 8312 §4.6): losing again below the previous
		// plateau means the bandwidth shrank — release the slot sooner
		w.wmax = w.cwnd * (2 - w.opts.Beta) / 2
	} else {
		w.wmax = w.cwnd
	}
	w.cwnd *= w.opts.Beta
	if w.cwnd < 1 {
		w.cwnd = 1
	}
	w.ssthresh = w.cwnd
	w.k = math.Cbrt(w.wmax * (1 - w.opts.Beta) / w.opts.C)
	w.epoch = now
}

// guardLocked is the loss-coalescing interval: one smoothed RTT, or the RTO
// floor before the estimator warms up.
func (w *CubicWindow) guardLocked() time.Duration {
	if ms := w.rtt.Value(); ms > 0 {
		return time.Duration(ms * float64(time.Millisecond))
	}
	return w.opts.RTOMin
}

// Collapse drops the window to the floor — the eviction signal: the peer
// stopped answering entirely, so the next probe after re-admission should
// start from one chunk... unless Reset is called (re-admission does), which
// restores the fresh-peer state instead.
func (w *CubicWindow) Collapse() {
	now := w.now()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.losses.Add(1)
	w.lastLoss = now
	w.wmax = w.cwnd
	w.cwnd = 1
	w.ssthresh = 1
	w.k = math.Cbrt(w.wmax * (1 - w.opts.Beta) / w.opts.C)
	w.epoch = now
}

// Reset restores the fresh-peer state — window, loss history, and the RTT
// estimator (a peer re-admitted after eviction must not inherit its
// pre-eviction latency or congestion picture).
func (w *CubicWindow) Reset() {
	w.rtt.Reset()
	w.mu.Lock()
	w.resetLocked()
	w.wakeLocked()
	w.mu.Unlock()
}

// SeedRTT primes the RTT estimator with one measured round trip — the
// /modelz handshake RTT at dial and re-admission time. The seed is an
// ordinary sample: on a fresh estimator it becomes the mean that later
// dispatch samples blend into, and it counts toward N(), so the fleet's
// hedge trigger (N() >= 3) arms after two dispatch samples instead of
// three and the adaptive RTO (windowRTOSamples) after seven instead of
// eight. A peer therefore enters with a measured latency on /healthz and
// hedges one chunk sooner than an unseeded one would.
func (w *CubicWindow) SeedRTT(d time.Duration) {
	if d <= 0 {
		return
	}
	w.rtt.Observe(float64(d.Nanoseconds()) / 1e6)
}

// RTO derives the adaptive per-attempt timeout from the estimator:
// mean + 4·dev milliseconds (RFC 6298 shape), floored at RTOMin. Zero
// means "no opinion yet" — before windowRTOSamples observations the
// caller's configured timeout stands.
func (w *CubicWindow) RTO() time.Duration {
	if w.rtt.N() < windowRTOSamples {
		return 0
	}
	ms := w.rtt.Value() + 4*w.rtt.Deviation()
	d := time.Duration(ms * float64(time.Millisecond))
	if d < w.opts.RTOMin {
		d = w.opts.RTOMin
	}
	return d
}

// WindowStat is one window's live state — the /metrics and admission-
// controller surface.
type WindowStat struct {
	Peer     string  `json:"peer"`
	Cwnd     float64 `json:"cwnd"`
	InFlight int     `json:"in_flight"`
	Losses   int64   `json:"losses"`
	Blocked  int64   `json:"blocked"`
	RTOMS    float64 `json:"rto_ms"`
}

// Stat snapshots the window (Peer is filled by the owner).
func (w *CubicWindow) Stat() WindowStat {
	w.mu.Lock()
	cwnd, inflight := w.cwnd, w.inflight
	w.mu.Unlock()
	return WindowStat{
		Cwnd:     cwnd,
		InFlight: inflight,
		Losses:   w.losses.Load(),
		Blocked:  w.blocked.Load(),
		RTOMS:    float64(w.RTO().Nanoseconds()) / 1e6,
	}
}

// WindowReporter is implemented by backends that gate per-peer in-flight
// depth with congestion windows; the serving layer's admission controller
// reads remote congestion through it without a concrete-type dependency.
type WindowReporter interface {
	WindowStats() []WindowStat
}
