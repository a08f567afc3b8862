package engine

// Fleet is the self-healing control plane over a set of RemoteBackend
// peers. A bare RemoteBackend routes blindly: a dead peer sheds its
// shard's traffic (score 0) until a human restarts something, retries are
// the peer's own problem, and a merely slow peer poisons its shard's tail
// unchecked. Fleet closes those gaps with four mechanisms:
//
//   - Health-gated eviction: every chunk outcome feeds a per-peer
//     supervisor. EvictAfter consecutive chunk failures trip the peer from
//     healthy to evicted — it stops receiving traffic instantly, and the
//     chunk that tripped it (plus everything after) re-routes to the next
//     routable peer, then to the local Fallback backend, and only fails
//     open when nothing at all can score frames.
//
//   - Redial state machine: eviction starts a background redialer that
//     probes the peer with a fresh /modelz handshake on an exponential
//     backoff ladder (RedialBase doubling up to RedialMax, +/-50% jitter).
//     The peer is re-admitted only after a handshake that still speaks the
//     right wire version at the right resolution — a peer that came back
//     as something else stays out — and the wire connection follows the
//     listener the handshake advertises now. The probe's round trip seeds
//     the latency EWMA so the peer re-enters warm, not blind.
//
//     healthy --EvictAfter consecutive failures--> evicted
//     evicted --backoff elapsed--> redialing --handshake ok--> healthy
//     redialing --handshake failed--> evicted (backoff doubles)
//     healthy --DrainRemovePeer--> draining --in-flight quiesced--> removed
//
//   - Hedged requests: each peer's chunk latency feeds an EWMA (mean +
//     mean absolute deviation). When a chunk has waited past the peer's
//     HedgeQuantile-derived delay, the same chunk is re-issued to a second
//     routable peer; the first success wins and the loser is canceled via
//     context propagation through post(). A slow peer costs one hedge
//     instead of a tail-latency spike.
//
//   - Live membership: the peer set is a copy-on-write snapshot behind an
//     atomic pointer, so AddPeer and DrainRemovePeer (the /admin/peers
//     control plane) mutate topology while dispatch runs lock-free against
//     whatever snapshot it loaded. Removal drains first — the peer stops
//     receiving new chunks, in-flight chunks quiesce through its
//     congestion window, then it leaves the snapshot.
//
// Placement itself — which peer a lane prefers, which peer serves a chunk,
// which peer runs a hedge arm — is delegated to the Router seam
// (router.go): static round-robin pinning by default, weighted
// least-loaded placement off the window/EWMA signals when configured.
//
// Fleet is an ordinary Backend: serve shards call Replicate and get a
// replica carrying a dispatch-lane ordinal (the router maps it to a
// preferred peer against live membership) with its own Stats counters,
// while all replicas share one health table — an eviction observed by one
// shard protects every shard.

import (
	"context"
	"fmt"
	"log"
	"math"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"percival/internal/imaging"
	"percival/internal/metrics"
)

// PeerState is a supervised peer's position in the health state machine.
type PeerState int32

const (
	// PeerHealthy: the peer receives traffic.
	PeerHealthy PeerState = iota
	// PeerEvicted: tripped by consecutive failures; no traffic until the
	// redialer re-admits it. The redial backoff is counting down.
	PeerEvicted
	// PeerRedialing: a re-admission handshake is in flight right now.
	PeerRedialing
	// PeerDraining: DrainRemovePeer is quiescing the peer — no new chunks
	// are placed on it while its in-flight chunks finish, then it leaves
	// the fleet. Terminal: a draining peer is never re-admitted.
	PeerDraining
)

// String names the state for /healthz and logs.
func (s PeerState) String() string {
	switch s {
	case PeerHealthy:
		return "healthy"
	case PeerEvicted:
		return "evicted"
	case PeerRedialing:
		return "redialing"
	case PeerDraining:
		return "draining"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// FleetOptions tunes the supervisor. The zero value gets defaults from
// NewFleet.
type FleetOptions struct {
	// EvictAfter is how many consecutive chunk failures trip a peer to
	// evicted (default 3). Lower is jumpier, higher tolerates more flap.
	EvictAfter int
	// RedialBase is the first redial backoff after an eviction (default
	// 250ms); it doubles per failed probe up to RedialMax (default 15s),
	// with +/-50% jitter on every sleep.
	RedialBase time.Duration
	RedialMax  time.Duration
	// HedgeQuantile derives the hedge delay from each peer's latency EWMA:
	// a chunk waiting past approximately this quantile of the peer's
	// recent latency is re-issued to a second healthy peer (default 0.99;
	// <= 0 or >= 1 disables hedging). Hedging needs at least two healthy
	// peers and a few observed chunks to arm.
	HedgeQuantile float64
	// HedgeMin floors the hedge delay so a fast fleet does not hedge every
	// chunk on scheduler noise (default 2ms).
	HedgeMin time.Duration
	// HedgeMax caps the hedge delay (default 0: the peer's whole chunk
	// budget). The EWMA trigger chases whatever latency it observes — under
	// congestion or a degrading peer the derived delay inflates until
	// hedges never fire — so operators with a latency SLO should pin the
	// ceiling near it.
	HedgeMax time.Duration
	// Fallback, when set, scores chunks locally when no healthy peer
	// remains — the "-peers front also holds a model" deployment. Without
	// it an all-evicted fleet fails open, same as a lone RemoteBackend.
	Fallback Backend
	// Router is the placement policy (router.go). Nil means StaticRouter —
	// the pre-seam round-robin pinning, bit-for-bit.
	Router Router
}

func (o FleetOptions) withDefaults() FleetOptions {
	if o.EvictAfter <= 0 {
		o.EvictAfter = 3
	}
	if o.RedialBase <= 0 {
		o.RedialBase = 250 * time.Millisecond
	}
	if o.RedialMax <= 0 {
		o.RedialMax = 15 * time.Second
	}
	if o.HedgeQuantile == 0 {
		o.HedgeQuantile = 0.99
	}
	if o.HedgeMin <= 0 {
		o.HedgeMin = 2 * time.Millisecond
	}
	if o.Router == nil {
		o.Router = &StaticRouter{}
	}
	return o
}

// fleetPeer is one supervised peer: the transport plus its health state.
type fleetPeer struct {
	b *RemoteBackend

	state atomic.Int32 // PeerState
	// gone flips when the peer has been removed from the fleet snapshot;
	// a late redialer or failure recorder observing it stands down.
	gone        atomic.Bool
	consecFails atomic.Int64
	// consecCancels counts hedge losses where this peer's arm was canceled
	// before producing a real outcome. A blackholed peer that is always
	// rescued by the hedge never *fails* (canceled arms are not health
	// signals), so once this streak reaches EvictAfter the peer's next
	// chunk runs unhedged — a live probe that must genuinely succeed or
	// genuinely fail, restoring eviction liveness.
	consecCancels atomic.Int64
	evictions     metrics.Counter
	redials       metrics.Counter // probe attempts (successful or not)
	hedgeWins     metrics.Counter // chunks this peer rescued as the hedge
	// lat aliases the peer's congestion-window RTT estimator: the window
	// observes every attempt's round trip inside tryChunk, and the hedge
	// trigger and weighted router read the same stream here — one feed,
	// three consumers.
	lat *metrics.EWMA // attempt latency, milliseconds
}

// routable reports whether the router may place new chunks on the peer:
// healthy only — evicted, redialing and draining peers take no traffic.
func (p *fleetPeer) routable() bool {
	return PeerState(p.state.Load()) == PeerHealthy
}

// recordSuccess resets the failure streaks and charges the scored frames to
// the peer's own counters (fleet dispatch goes through tryChunk, below the
// peer's InferBatchInto accounting). The latency model is NOT fed here:
// tryChunk already observed the attempt's round trip into the shared window
// EWMA, and a second observation would double-weight every sample.
func (p *fleetPeer) recordSuccess(nframes int) {
	p.consecFails.Store(0)
	p.consecCancels.Store(0)
	p.b.frames.Add(int64(nframes))
}

// PeerHealthInfo is one peer's row of the fleet health snapshot — the
// /healthz and /metrics surface.
type PeerHealthInfo struct {
	Peer          string    `json:"peer"`
	State         string    `json:"state"`
	StateCode     PeerState `json:"state_code"`
	ConsecFails   int64     `json:"consec_fails"`
	Evictions     int64     `json:"evictions"`
	Redials       int64     `json:"redials"`
	HedgeWins     int64     `json:"hedge_wins"`
	LatencyEWMAMS float64   `json:"latency_ewma_ms"`
	LatencyDevMS  float64   `json:"latency_dev_ms"`
	Frames        int64     `json:"frames"`
	Errors        int64     `json:"errors"`
	// congestion-window state (see CubicWindow)
	Cwnd           float64 `json:"cwnd"`
	WindowInFlight int     `json:"window_in_flight"`
	WindowLosses   int64   `json:"window_losses"`
	RTOMS          float64 `json:"rto_ms"`
	// wire link state (see TransportStats); the byte counters make the
	// dedup tier's wire savings visible per peer
	WireBytesOut   int64 `json:"wire_bytes_out"`
	WireBytesIn    int64 `json:"wire_bytes_in"`
	WireFramesPix  int64 `json:"wire_frames_pixels"`
	WireFramesDdup int64 `json:"wire_frames_dedup"`
	WireDials      int64 `json:"wire_dials"`
}

// HealthReporter is implemented by backends that supervise peers; the
// serving layer and the daemon's health endpoints discover fleet state
// through it without a concrete-type dependency.
type HealthReporter interface {
	PeerHealth() []PeerHealthInfo
}

// Fleet fronts supervised remote peers as one Backend. Safe for concurrent
// use; replicas share the health table and the live membership snapshot.
type Fleet struct {
	opts   FleetOptions
	router Router
	res    int     // shared peer input resolution, fixed for the fleet's life
	zHi    float64 // sigma multiplier derived from HedgeQuantile

	// peers is the copy-on-write membership snapshot: dispatch loads it
	// once per chunk and routes against that view, while AddPeer and
	// DrainRemovePeer swap in a new slice under peersMu. A chunk racing a
	// removal may still try the departed peer once; it fails over like any
	// other chunk failure.
	peers   atomic.Pointer[[]*fleetPeer]
	peersMu sync.Mutex // serializes membership mutation, never dispatch

	next atomic.Int64 // dispatch-lane ordinal source (Replicate, batches)

	hedges    metrics.Counter // hedges issued
	hedgeWins metrics.Counter // hedges that beat the primary
	fallbacks metrics.Counter // chunks scored by the local Fallback

	chunks  chunkPool // pooled dispatch chunks (lazy wire encodings)
	arms    sync.Pool // *hedgeArm
	timers  sync.Pool // *time.Timer hedge-delay timers, stopped and drained
	closed  chan struct{}
	closeMu sync.Mutex
	redials sync.WaitGroup

	batches atomic.Int64
	frames  atomic.Int64
	errors  atomic.Int64
}

// NewFleet builds a supervised fleet over peers, which must all serve the
// same input resolution, and starts its control plane.
func NewFleet(peers []*RemoteBackend, opts FleetOptions) (*Fleet, error) {
	if len(peers) == 0 {
		return nil, fmt.Errorf("engine: fleet needs at least one peer")
	}
	opts = opts.withDefaults()
	res := peers[0].InputRes()
	for _, p := range peers[1:] {
		if p.InputRes() != res {
			return nil, fmt.Errorf("engine: fleet mixes resolutions %d and %d (%s)",
				res, p.InputRes(), p.Name())
		}
	}
	if opts.Fallback != nil && opts.Fallback.InputRes() != res {
		return nil, fmt.Errorf("engine: fleet fallback serves res %d, peers serve %d",
			opts.Fallback.InputRes(), res)
	}
	f := &Fleet{
		opts:   opts,
		router: opts.Router,
		res:    res,
		closed: make(chan struct{}),
	}
	// Quantile -> sigma multiplier through the normal inverse CDF, with the
	// EWMA's mean-absolute-deviation scaled to sigma (~1.25x for normal
	// samples). An approximation — chunk latency is not normal — but the
	// hedge delay only needs to sit past the bulk of the distribution.
	if q := opts.HedgeQuantile; q > 0.5 && q < 1 {
		f.zHi = 1.25 * math.Sqrt2 * math.Erfinv(2*q-1)
	}
	list := make([]*fleetPeer, len(peers))
	for i, b := range peers {
		list[i] = &fleetPeer{b: b, lat: b.win.RTT()}
	}
	f.peers.Store(&list)
	return f, nil
}

// peerList loads the current membership snapshot (never nil).
func (f *Fleet) peerList() []*fleetPeer {
	return *f.peers.Load()
}

// Router reports the active placement policy (the /admin/topology surface).
func (f *Fleet) Router() Router { return f.router }

// Name identifies the fleet and its current size.
func (f *Fleet) Name() string { return fmt.Sprintf("fleet(%d)", len(f.peerList())) }

// InputRes is the shared peer resolution.
func (f *Fleet) InputRes() int { return f.res }

// Peers returns the supervised transports (stats introspection).
func (f *Fleet) Peers() []*RemoteBackend {
	peers := f.peerList()
	out := make([]*RemoteBackend, len(peers))
	for i, p := range peers {
		out[i] = p.b
	}
	return out
}

// PeerHealth snapshots every peer's supervisor state.
func (f *Fleet) PeerHealth() []PeerHealthInfo {
	peers := f.peerList()
	out := make([]PeerHealthInfo, len(peers))
	for i, p := range peers {
		st := p.b.Stats()
		win := p.b.win.Stat()
		tr := p.b.TransportStats()
		state := PeerState(p.state.Load())
		out[i] = PeerHealthInfo{
			Peer:           p.b.Peer(),
			State:          state.String(),
			StateCode:      state,
			ConsecFails:    p.consecFails.Load(),
			Evictions:      p.evictions.Load(),
			Redials:        p.redials.Load(),
			HedgeWins:      p.hedgeWins.Load(),
			LatencyEWMAMS:  p.lat.Value(),
			LatencyDevMS:   p.lat.Deviation(),
			Frames:         st.Frames,
			Errors:         st.Errors,
			Cwnd:           win.Cwnd,
			WindowInFlight: win.InFlight,
			WindowLosses:   win.Losses,
			RTOMS:          win.RTOMS,
			WireBytesOut:   tr.BytesOut,
			WireBytesIn:    tr.BytesIn,
			WireFramesPix:  tr.FramesPixels,
			WireFramesDdup: tr.FramesDedup,
			WireDials:      tr.Dials,
		}
	}
	return out
}

// WindowStats reports the congestion-window state of every peer that can
// actually take traffic (WindowReporter) — the serve admission
// controller's remote-saturation signal. Evicted and draining peers are
// excluded: their windows are collapsed or quiescing by design, and
// averaging them in would misreport a healthy fleet as saturated (or a
// drained one as idle capacity).
func (f *Fleet) WindowStats() []WindowStat {
	peers := f.peerList()
	out := make([]WindowStat, 0, len(peers))
	for _, p := range peers {
		if !p.routable() {
			continue
		}
		st := p.b.win.Stat()
		st.Peer = p.b.Peer()
		out = append(out, st)
	}
	return out
}

// Hedges reports the number of hedged chunks issued.
func (f *Fleet) Hedges() int64 { return f.hedges.Load() }

// HedgeWins reports how many hedges beat their primary.
func (f *Fleet) HedgeWins() int64 { return f.hedgeWins.Load() }

// Fallbacks reports chunks scored by the local Fallback backend.
func (f *Fleet) Fallbacks() int64 { return f.fallbacks.Load() }

// Stats aggregates the fleet's own dispatch counters (replicas keep their
// own, like every Replicate).
func (f *Fleet) Stats() Stats {
	return Stats{Batches: f.batches.Load(), Frames: f.frames.Load(), Errors: f.errors.Load()}
}

// AddPeer admits a freshly-dialed peer into the fleet — the POST
// /admin/peers control plane. The backend must already have passed its
// dial-time /modelz handshake (NewRemote enforces it) and serve the
// fleet's resolution; it enters healthy, with its window's EWMA seeded
// from that handshake, and starts taking traffic on the next chunk that
// loads the new snapshot.
func (f *Fleet) AddPeer(rb *RemoteBackend) error {
	if rb == nil {
		return fmt.Errorf("engine: fleet cannot add a nil peer")
	}
	if rb.InputRes() != f.res {
		return fmt.Errorf("engine: fleet serves res %d, new peer %s serves %d",
			f.res, rb.Peer(), rb.InputRes())
	}
	f.peersMu.Lock()
	defer f.peersMu.Unlock()
	select {
	case <-f.closed:
		return fmt.Errorf("engine: fleet is closed")
	default:
	}
	cur := f.peerList()
	for _, p := range cur {
		if p.b.Peer() == rb.Peer() {
			return fmt.Errorf("engine: fleet already has peer %s", rb.Peer())
		}
	}
	next := make([]*fleetPeer, 0, len(cur)+1)
	next = append(next, cur...)
	next = append(next, &fleetPeer{b: rb, lat: rb.win.RTT()})
	f.peers.Store(&next)
	log.Printf("engine: fleet added peer %s (%d peers)", rb.Peer(), len(next))
	return nil
}

// DrainRemovePeer removes the peer matching id ("host:port" or the full
// base URL) — the DELETE /admin/peers/{id} control plane. A healthy peer
// drains first: it stops receiving new chunks immediately (the router
// skips draining peers) and its in-flight chunks are waited out through
// the congestion window, up to timeout (default 5s; removal proceeds
// regardless after it, logged). Evicted and redialing peers have no
// traffic to drain and are removed at once. Returns the removed backend
// (already closed) so the caller can deregister it elsewhere. The last
// peer of a fallback-less fleet is refused: removing it would turn every
// subsequent chunk into a fail-open.
func (f *Fleet) DrainRemovePeer(id string, timeout time.Duration) (*RemoteBackend, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	f.peersMu.Lock()
	cur := f.peerList()
	var victim *fleetPeer
	for _, p := range cur {
		if peerMatches(p.b.Peer(), id) {
			victim = p
			break
		}
	}
	if victim == nil {
		f.peersMu.Unlock()
		return nil, fmt.Errorf("engine: fleet has no peer %q", id)
	}
	if len(cur) == 1 && f.opts.Fallback == nil {
		f.peersMu.Unlock()
		return nil, fmt.Errorf("engine: refusing to remove %s: last peer of a fallback-less fleet", victim.b.Peer())
	}
	if PeerState(victim.state.Load()) == PeerDraining {
		f.peersMu.Unlock()
		return nil, fmt.Errorf("engine: peer %s is already draining", victim.b.Peer())
	}
	// stop new placements: the router never picks a non-healthy peer, so
	// flipping the state is the whole admission cut. Evicted/redialing
	// peers fail the CAS and skip straight to removal below.
	draining := victim.state.CompareAndSwap(int32(PeerHealthy), int32(PeerDraining))
	f.peersMu.Unlock()

	if draining {
		// quiesce: every dispatch holds one window slot for its whole try
		// (tryChunk), so InFlight reaching 0 means no chunk is against the
		// peer. A chunk that picked the peer from a pre-drain snapshot but
		// has not acquired yet can slip through; it either completes
		// against the still-listening process or fails over — never open.
		deadline := time.Now().Add(timeout)
		for victim.b.win.Stat().InFlight > 0 && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		if victim.b.win.Stat().InFlight > 0 {
			log.Printf("engine: fleet removing %s with chunks still in flight after %v drain", victim.b.Peer(), timeout)
		}
	}

	f.peersMu.Lock()
	cur = f.peerList()
	next := make([]*fleetPeer, 0, len(cur))
	for _, p := range cur {
		if p != victim {
			next = append(next, p)
		}
	}
	f.peers.Store(&next)
	victim.gone.Store(true)
	f.peersMu.Unlock()
	victim.b.Close()
	log.Printf("engine: fleet removed peer %s (%d peers left)", victim.b.Peer(), len(next))
	return victim.b, nil
}

// peerMatches resolves a control-plane peer id against a normalized base
// URL: the full URL or just its host:port both address the peer.
func peerMatches(peerBase, id string) bool {
	if peerBase == id {
		return true
	}
	u, err := url.Parse(peerBase)
	return err == nil && u.Host == id
}

// InferBatchInto is the unkeyed dispatch: each chunk's content keys are
// hashed when (and if) its transport probes with them.
func (f *Fleet) InferBatchInto(frames []*imaging.Bitmap, out []float64) []float64 {
	return f.InferKeyedInto(frames, nil, out)
}

// InferKeyedInto (KeyedBackend) dispatches chunks through the supervisor on
// a fresh dispatch lane per batch (round-robin under the static router).
func (f *Fleet) InferKeyedInto(frames []*imaging.Bitmap, keys [][32]byte, out []float64) []float64 {
	lane := int(f.next.Add(1) - 1)
	return f.inferBatch(lane, frames, keys, out, &f.batches, &f.frames, &f.errors)
}

// Replicate hands out the next dispatch-lane ordinal: N serve shards over
// N peers yields a lane per peer under the static router, and a lane whose
// peer is out fails over instead of failing open. The lane is stored raw
// (not modded) so the router can re-map it when membership changes
// underneath it.
func (f *Fleet) Replicate() Backend {
	return &fleetReplica{f: f, pref: int(f.next.Add(1) - 1)}
}

// Warm pings every peer (logging and counting dead ones — see
// RemoteBackend.Warm) and warms the fallback's arenas.
func (f *Fleet) Warm(maxBatch int) {
	for _, p := range f.peerList() {
		p.b.Warm(maxBatch)
	}
	if f.opts.Fallback != nil {
		f.opts.Fallback.Warm(maxBatch)
	}
}

// Close stops the control plane (waiting out every redialer) and releases
// the peers' connections. The fallback backend is the caller's — typically
// the daemon's serving engine — and is not closed here.
func (f *Fleet) Close() {
	f.closeMu.Lock()
	select {
	case <-f.closed:
	default:
		close(f.closed)
	}
	f.closeMu.Unlock()
	f.redials.Wait()
	for _, p := range f.peerList() {
		p.b.Close()
	}
}

// fleetReplica is a shard's lane into the fleet: its own counters and
// dispatch-lane ordinal, everything else shared.
type fleetReplica struct {
	f    *Fleet
	pref int // lane ordinal; the router maps it to a preferred peer

	batches atomic.Int64
	frames  atomic.Int64
	errors  atomic.Int64
}

func (r *fleetReplica) Name() string  { return r.f.Name() }
func (r *fleetReplica) InputRes() int { return r.f.InputRes() }
func (r *fleetReplica) Stats() Stats {
	return Stats{Batches: r.batches.Load(), Frames: r.frames.Load(), Errors: r.errors.Load()}
}
func (r *fleetReplica) Replicate() Backend { return r.f.Replicate() }
func (r *fleetReplica) Warm(maxBatch int) {
	peers := r.f.peerList()
	if len(peers) == 0 {
		return
	}
	peers[r.f.router.Pin(r.pref, len(peers))].b.Warm(maxBatch)
}
func (r *fleetReplica) Close() {} // the fleet owns the shared transports

// PeerHealth lets a shard replica answer for the whole fleet (the serving
// layer discovers health through any replica).
func (r *fleetReplica) PeerHealth() []PeerHealthInfo { return r.f.PeerHealth() }

// WindowStats lets a shard replica report the whole fleet's windows.
func (r *fleetReplica) WindowStats() []WindowStat { return r.f.WindowStats() }

func (r *fleetReplica) InferBatchInto(frames []*imaging.Bitmap, out []float64) []float64 {
	return r.InferKeyedInto(frames, nil, out)
}

func (r *fleetReplica) InferKeyedInto(frames []*imaging.Bitmap, keys [][32]byte, out []float64) []float64 {
	return r.f.inferBatch(r.pref, frames, keys, out, &r.batches, &r.frames, &r.errors)
}

// inferBatch chunks a batch (keyed or not) through the supervisor on behalf
// of the fleet or one of its replicas, charging the caller's counters.
func (f *Fleet) inferBatch(lane int, frames []*imaging.Bitmap, keys [][32]byte, out []float64, batches, nframes, errs *atomic.Int64) []float64 {
	checkKeys(frames, keys)
	if len(frames) == 0 {
		return out[:0]
	}
	out = out[:len(frames)]
	for lo := 0; lo < len(frames); lo += BatchChunk {
		hi := min(lo+BatchChunk, len(frames))
		if f.dispatchChunk(lane, frames[lo:hi], chunkKeys(keys, lo, hi), out[lo:hi]) {
			batches.Add(1)
		} else {
			// Fail open only once every peer and the fallback are gone:
			// score 0 renders the frame, same contract as RemoteBackend.
			for i := lo; i < hi; i++ {
				out[i] = 0
			}
			errs.Add(1)
		}
	}
	nframes.Add(int64(len(frames)))
	return out
}

// dispatchChunk scores one chunk somewhere: the router's pick (hedged),
// failing over across the remaining routable peers, then the local
// fallback. Reports whether a real verdict was produced. The chunk routes
// against one consistent membership snapshot; if that view runs out while
// membership has changed under it (a peer admitted after the load, every
// peer it holds draining away), it routes once more against the live one
// before giving up. keys (the caller's, or nil) travel in the chunk to
// every peer that sees it; the local fallback reads pixels and has no use
// for them.
func (f *Fleet) dispatchChunk(lane int, frames []*imaging.Bitmap, keys [][32]byte, out []float64) bool {
	snap := f.peers.Load()
	peers := *snap
	// one wireChunk per dispatch, shared by every failover try and hedge
	// arm: its content keys are computed at most once no matter how many
	// peers see the chunk
	chunk := f.chunks.get(frames, keys)
	defer f.chunks.put(chunk)

	pref := f.router.Pin(lane, len(peers))
	var tried [8]*fleetPeer // failover path; fleets are small
	ntried := 0
	skip := func(p *fleetPeer) bool {
		for i := 0; i < ntried; i++ {
			if tried[i] == p {
				return true
			}
		}
		return false
	}
	for refreshed := false; ; refreshed = true {
		// Pick never returns a tried peer, so this ends within len(peers)
		for ntried < len(tried) {
			p := f.router.Pick(peers, pref, skip, ntried == 0)
			if p == nil {
				break
			}
			if f.sendHedged(peers, p, pref, chunk, out) {
				return true
			}
			tried[ntried] = p
			ntried++
		}
		live := f.peers.Load()
		if refreshed || live == snap {
			break
		}
		snap, peers = live, *live
		pref = f.router.Pin(lane, len(peers))
	}
	if f.opts.Fallback != nil {
		f.opts.Fallback.InferBatchInto(frames, out)
		f.fallbacks.Inc()
		return true
	}
	return false
}

// chunkBudget bounds one peer's whole try (retries and backoffs included).
func (f *Fleet) chunkBudget(p *fleetPeer) time.Duration {
	return p.b.timeout * time.Duration(p.b.retries+1)
}

// hedgeDelay derives the tail-latency trigger for a peer: EWMA mean plus
// the HedgeQuantile sigma multiple of the smoothed deviation. Zero means
// "do not hedge" — before any latency signal exists, or with hedging off.
func (f *Fleet) hedgeDelay(p *fleetPeer) time.Duration {
	if f.zHi == 0 || p.lat.N() < 3 {
		return 0
	}
	// Too many consecutive canceled hedge losses: run this chunk unhedged
	// as a live probe (see fleetPeer.consecCancels). The probe's cost is one
	// potential tail spike per EvictAfter hedge wins against a dead peer.
	if p.consecCancels.Load() >= int64(f.opts.EvictAfter) {
		return 0
	}
	ms := p.lat.Value() + f.zHi*p.lat.Deviation()
	d := time.Duration(ms * float64(time.Millisecond))
	if d < f.opts.HedgeMin {
		d = f.opts.HedgeMin
	}
	if f.opts.HedgeMax > 0 && d > f.opts.HedgeMax {
		d = f.opts.HedgeMax
	}
	if budget := f.chunkBudget(p); d > budget {
		d = budget
	}
	return d
}

// hedgeArm is one try of a chunk against one peer, run on its own goroutine
// so the dispatcher can race it against the hedge timer and the other arm.
// Each arm runs under one cancelable deadline — the peer's whole chunk
// budget; the per-attempt RTO is the transport's business. Arms are pooled
// with their score buffer and result channel; the dispatcher waits every
// arm it started out before returning, so a recycled arm has no goroutine
// (or canceled context) left behind it.
type hedgeArm struct {
	peer   *fleetPeer
	out    []float64 // the arm's own scores; copied out if it wins
	cancel context.CancelFunc
	res    chan error // buffered(1)
}

func (a *hedgeArm) run(ctx context.Context, chunk *wireChunk) {
	a.res <- a.peer.b.tryChunk(ctx, chunk, a.out)
}

// startArm issues chunk (n frames) to peer p on a pooled arm.
func (f *Fleet) startArm(p *fleetPeer, chunk *wireChunk, n int) *hedgeArm {
	a, _ := f.arms.Get().(*hedgeArm)
	if a == nil {
		a = &hedgeArm{res: make(chan error, 1)}
	}
	a.peer, a.out = p, resized(a.out, n)
	ctx, cancel := context.WithTimeout(context.Background(), f.chunkBudget(p))
	a.cancel = cancel
	go a.run(ctx, chunk)
	return a
}

// putArm recycles an arm whose result has been received.
func (f *Fleet) putArm(a *hedgeArm) {
	a.cancel()
	a.peer = nil
	f.arms.Put(a)
}

// settle records one finished arm's outcome against its peer, copies a
// success into out (nil: the chunk was decided by the other arm) and
// recycles the arm. Reports whether out now holds the chunk's scores.
func (f *Fleet) settle(a *hedgeArm, err error, out []float64) bool {
	defer f.putArm(a)
	if err != nil {
		f.recordFailure(a.peer)
		return false
	}
	a.peer.recordSuccess(len(a.out))
	if out == nil {
		return false
	}
	copy(out, a.out)
	return true
}

// sendHedged runs one chunk against peer p, re-issuing it to the router's
// hedge pick once p's hedge delay expires; the first success cancels the
// other arm. Reports whether the chunk was scored into out; failures are
// recorded against every peer that actually failed.
func (f *Fleet) sendHedged(peers []*fleetPeer, p *fleetPeer, pref int, chunk *wireChunk, out []float64) bool {
	var h *fleetPeer
	delay := f.hedgeDelay(p)
	if delay > 0 {
		h = f.router.Hedge(peers, pref, p)
	}
	primary := f.startArm(p, chunk, len(out))
	if h == nil {
		// no hedge candidate (or hedging unarmed): plain dispatch
		return f.settle(primary, <-primary.res, out)
	}
	timer, _ := f.timers.Get().(*time.Timer)
	if timer == nil {
		timer = time.NewTimer(delay)
	} else {
		timer.Reset(delay)
	}
	select {
	case err := <-primary.res:
		stopTimer(timer)
		f.timers.Put(timer)
		// a primary that failed before the hedge fired falls back to the
		// dispatchChunk failover loop rather than hedging a known failure
		return f.settle(primary, err, out)
	case <-timer.C:
		f.timers.Put(timer)
	}

	// Primary is past its tail trigger: issue the hedge and race the arms.
	// The loser is canceled and always waited out, so no goroutine (or
	// scratch buffer) outlives the chunk. Firing is itself a congestion
	// signal against the primary — it blew past its own tail estimate — so
	// its window backs off (coalesced to one decrease per RTT, so a burst
	// of hedges against a briefly-slow peer is one event, not a collapse).
	p.b.win.OnLoss()
	f.hedges.Inc()
	hedge := f.startArm(h, chunk, len(out))
	// finish publishes the winner after draining the canceled loser. A
	// canceled loser's error is not a health signal against its peer (the
	// cancellation raced a possibly-fine request), so only its success is
	// recorded.
	finish := func(winner, loser *hedgeArm) bool {
		loser.cancel()
		if err := <-loser.res; err == nil {
			loser.peer.recordSuccess(len(loser.out))
		} else {
			// not a failure — but the streak feeds the unhedged-probe trigger
			// in hedgeDelay so a dead peer cannot hide behind its hedges
			// forever
			loser.peer.consecCancels.Add(1)
		}
		f.putArm(loser)
		if winner == hedge {
			winner.peer.hedgeWins.Inc()
			f.hedgeWins.Inc()
		}
		return f.settle(winner, nil, out)
	}
	select {
	case err := <-primary.res:
		if err == nil {
			return finish(primary, hedge)
		}
		// primary failed for real; let the hedge finish the chunk
		f.settle(primary, err, nil)
		return f.settle(hedge, <-hedge.res, out)
	case err := <-hedge.res:
		if err == nil {
			return finish(hedge, primary)
		}
		f.settle(hedge, err, nil)
		return f.settle(primary, <-primary.res, out)
	}
}

// recordFailure advances the supervisor: one more consecutive failure, and
// past EvictAfter the peer trips to evicted and its redialer starts. The
// CAS guarantees exactly one redialer per eviction — and keeps a draining
// or removed peer out of the redial machine entirely.
func (f *Fleet) recordFailure(p *fleetPeer) {
	if p.gone.Load() {
		return
	}
	if p.consecFails.Add(1) < int64(f.opts.EvictAfter) {
		return
	}
	if !p.state.CompareAndSwap(int32(PeerHealthy), int32(PeerEvicted)) {
		return
	}
	p.evictions.Inc()
	// the peer stopped answering entirely: drop its window to the floor so
	// a racing in-flight dispatch cannot stack chunks onto a dead peer
	p.b.win.Collapse()
	log.Printf("engine: fleet evicted %s after %d consecutive failures", p.b.Peer(), p.consecFails.Load())
	f.redials.Add(1)
	go f.redial(p)
}

// redial is the background re-admission state machine for one evicted
// peer: sleep the jittered backoff, probe /modelz, re-admit on a valid
// handshake (re-pointing the wire at the listener it advertises), double
// the backoff and stay evicted otherwise. A peer removed from the fleet
// mid-redial is abandoned.
func (f *Fleet) redial(p *fleetPeer) {
	defer f.redials.Done()
	backoff := f.opts.RedialBase
	for {
		timer := time.NewTimer(jitter(backoff))
		select {
		case <-timer.C:
		case <-f.closed:
			timer.Stop()
			return
		}
		if p.gone.Load() {
			return
		}
		p.state.Store(int32(PeerRedialing))
		p.redials.Inc()
		probeStart := time.Now()
		info, err := p.b.handshake()
		probeRTT := time.Since(probeStart)
		if err == nil {
			err = checkWire(p.b.tr.host, info)
		}
		if err == nil && info.InputRes != p.b.res {
			err = fmt.Errorf("engine: peer %s came back serving res %d, want %d", p.b.tr.host, info.InputRes, p.b.res)
		}
		if err == nil {
			if p.gone.Load() {
				return
			}
			// fresh handshake at the right version and resolution: re-admit
			// with a clean slate — stale pre-eviction latency must not arm
			// the hedge trigger against a peer that just came back, and the
			// window restarts in slow start (Reset clears the shared EWMA).
			// The probe's own round trip then seeds the estimator, so the
			// weighted router scores the re-admitted peer off a live
			// measurement instead of a cold optimistic prior. The wire
			// follows the listener the peer advertises now: a peer
			// restarted on another port would otherwise be re-admitted
			// against the old one and evicted again by every chunk.
			p.b.tr.repoint(info.WireAddr)
			p.consecFails.Store(0)
			p.consecCancels.Store(0)
			p.b.win.Reset()
			p.b.win.SeedRTT(probeRTT)
			p.state.Store(int32(PeerHealthy))
			log.Printf("engine: fleet re-admitted %s", p.b.Peer())
			return
		}
		p.state.Store(int32(PeerEvicted))
		log.Printf("engine: fleet redial %s failed (next in ~%v): %v", p.b.Peer(), backoff*2, err)
		backoff *= 2
		if backoff > f.opts.RedialMax {
			backoff = f.opts.RedialMax
		}
		select {
		case <-f.closed:
			return
		default:
		}
	}
}

// jitter spreads a delay uniformly over [d/2, 3d/2).
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return backoffDelay(1, d, d)
}
