package engine

// peerWindow is a remote peer's in-flight bound and round-trip estimator.
// It caps how many chunks are in flight against one peer at a fixed
// windowLimit: failover, hedging and multi-worker shards can stack extra
// chunks onto whichever peer looks healthy, and the cap keeps that stack
// bounded. The cap does not adapt. An adaptive (TCP CUBIC) window was
// measured against a peer that slows down without failing: every hedge
// fire and timed-out attempt shrank it, chunks then waited out their whole
// budget for a slot, and frames failed open beside a healthy sibling
// (PERFORMANCE.md, "The per-peer in-flight cap"). A slow peer is answered
// by hedging and eviction, which read the estimator below.
//
// The RTT estimator is the fleet's latency EWMA (metrics.EWMA: mean +
// smoothed mean absolute deviation) shared with the hedging trigger, and
// derives the retransmission-timeout the transport uses as its adaptive
// per-attempt budget: RTO = mean + 4·dev (the RFC 6298 shape with the
// EWMA's deviation standing in for RTTVAR), floored so scheduler noise on
// a fast fleet never produces a hair-trigger timeout, and never exceeding
// the configured per-attempt ceiling.

import (
	"context"
	"sync/atomic"
	"time"

	"percival/internal/metrics"
)

const (
	// windowLimit is how many chunks may be in flight against one peer.
	windowLimit = 64
	// windowRTOMin floors the adaptive RTO so a fast fleet's scheduler
	// noise never produces hair-trigger timeouts.
	windowRTOMin = 200 * time.Millisecond
	// windowRTOSamples is how many RTT samples must be observed before the
	// adaptive RTO is trusted over the configured per-attempt timeout.
	windowRTOSamples = 8
)

// peerWindow is one peer's in-flight cap and RTT estimator. Safe for
// concurrent use; one window is shared by every replica dialing the same
// peer (Replicate copies the pointer), so all lanes count against one cap.
type peerWindow struct {
	rtt   *metrics.EWMA // round-trip latency, milliseconds; shared with hedging
	slots chan struct{} // semaphore: one element per chunk in flight

	losses  atomic.Int64 // failed attempts and hedge fires against the peer
	blocked atomic.Int64 // Acquire calls that had to wait
}

func newPeerWindow() *peerWindow {
	return &peerWindow{
		rtt:   metrics.NewEWMA(0.2),
		slots: make(chan struct{}, windowLimit),
	}
}

// RTT returns the shared round-trip estimator (milliseconds) — the same
// EWMA the fleet's hedging trigger reads.
func (w *peerWindow) RTT() *metrics.EWMA { return w.rtt }

// Acquire blocks until an in-flight slot frees up (or ctx ends, reporting
// false). Every successful Acquire must be paired with one Release.
func (w *peerWindow) Acquire(ctx context.Context) bool {
	select {
	case w.slots <- struct{}{}:
		return true
	default:
	}
	w.blocked.Add(1)
	select {
	case w.slots <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

// Release frees the slot of one successful Acquire.
func (w *peerWindow) Release() { <-w.slots }

// OnSuccess feeds one successful round trip to the shared estimator.
func (w *peerWindow) OnSuccess(rtt time.Duration) {
	w.rtt.Observe(float64(rtt.Nanoseconds()) / 1e6)
}

// OnLoss counts one failed attempt or hedge fire against the peer.
func (w *peerWindow) OnLoss() { w.losses.Add(1) }

// Reset clears the RTT estimator: a peer re-admitted after eviction must
// not inherit its pre-eviction latency.
func (w *peerWindow) Reset() { w.rtt.Reset() }

// SeedRTT primes the RTT estimator with one measured round trip — the
// /modelz handshake RTT at dial and re-admission time. The seed is an
// ordinary sample: on a fresh estimator it becomes the mean that later
// dispatch samples blend into, and it counts toward N(), so the fleet's
// hedge trigger (N() >= 3) arms after two dispatch samples instead of
// three and the adaptive RTO (windowRTOSamples) after seven instead of
// eight. A peer therefore enters with a measured latency on /healthz and
// hedges one chunk sooner than an unseeded one would.
func (w *peerWindow) SeedRTT(d time.Duration) {
	if d <= 0 {
		return
	}
	w.rtt.Observe(float64(d.Nanoseconds()) / 1e6)
}

// RTO derives the adaptive per-attempt timeout from the estimator:
// mean + 4·dev milliseconds (RFC 6298 shape), floored at windowRTOMin.
// Zero means "no opinion yet" — before windowRTOSamples observations the
// caller's configured timeout stands.
func (w *peerWindow) RTO() time.Duration {
	if w.rtt.N() < windowRTOSamples {
		return 0
	}
	ms := w.rtt.Value() + 4*w.rtt.Deviation()
	return max(time.Duration(ms*float64(time.Millisecond)), windowRTOMin)
}

// WindowStat is one window's live state — the /metrics and admission-
// controller surface.
type WindowStat struct {
	Peer     string  `json:"peer"`
	Limit    int     `json:"limit"`
	InFlight int     `json:"in_flight"`
	Losses   int64   `json:"losses"`
	Blocked  int64   `json:"blocked"`
	RTOMS    float64 `json:"rto_ms"`
}

// Stat snapshots the window (Peer is filled by the owner).
func (w *peerWindow) Stat() WindowStat {
	return WindowStat{
		Limit:    cap(w.slots),
		InFlight: len(w.slots),
		Losses:   w.losses.Load(),
		Blocked:  w.blocked.Load(),
		RTOMS:    float64(w.RTO().Nanoseconds()) / 1e6,
	}
}

// WindowReporter is implemented by backends that cap per-peer in-flight
// depth; the serving layer's admission controller reads remote saturation
// through it without a concrete-type dependency.
type WindowReporter interface {
	WindowStats() []WindowStat
}
