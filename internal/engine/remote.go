package engine

// RemoteBackend proxies InferBatchInto to another percival-serve, so one
// daemon can front a fleet of model processes: the front keeps the serving
// edge (decode, batching, verdict cache, shedding) and the peers keep the
// arenas and the weights. It is an ordinary Backend — serve shards
// replicate it exactly like the in-process engines. It learns a peer through
// the GET /modelz handshake (remotehttp.go) and sends it chunks over the
// persistent-socket wire (sockwire.go).
//
// Failure semantics are fail-open: classification guards rendering, so a
// peer that cannot be reached within the retry budget must never block or
// break the page. A failed chunk resolves every frame to score 0 ("not an
// ad", render it) and counts one Stats.Errors — the same contract as
// serve's StatusShed, applied at the transport layer.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"percival/internal/imaging"
)

// RemoteOptions tunes a RemoteBackend. The zero value gets defaults from
// NewRemote. The per-peer in-flight cap is not an option: every peer takes
// at most windowLimit (64) chunks at once, shared by all its replicas (see
// peerWindow).
type RemoteOptions struct {
	// Timeout bounds each attempt, handshake included (default 5s).
	Timeout time.Duration
	// Retries is how many times a failed batch attempt is re-sent before
	// the chunk fails open. The zero value means no retries — the value
	// given is the value used (percival-serve's -peer-retries flag carries
	// the daemon default of 2); negative values are treated as 0.
	Retries int
	// RetryBackoff is the base delay before the first retry; further
	// attempts back off exponentially (base, 2x, 4x, ...) with +/-50%
	// jitter so a struggling peer is never hammered by an instant retry
	// storm (default 10ms). Capped at RetryBackoffMax (default 250ms).
	// A retry whose backoff would outlive the chunk's overall deadline is
	// skipped — the chunk fails over immediately instead of sleeping into
	// a guaranteed timeout.
	RetryBackoff    time.Duration
	RetryBackoffMax time.Duration
	// ExpectRes, when non-zero, rejects a peer whose input resolution
	// differs — the proxy's frames would be pre-processed for the wrong
	// network.
	ExpectRes int
	// Transport must be empty or "socket".
	//
	// Deprecated: the wire-v3 socket is the only dispatch transport. Any
	// other value is refused at dial time rather than silently ignored.
	Transport string
}

func (o RemoteOptions) withDefaults() RemoteOptions {
	if o.Timeout <= 0 {
		o.Timeout = 5 * time.Second
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 10 * time.Millisecond
	}
	if o.RetryBackoffMax <= 0 {
		o.RetryBackoffMax = 250 * time.Millisecond
	}
	return o
}

// RemoteBackend is a Backend whose forward passes run on a peer
// percival-serve reached over the persistent-socket wire. Safe for
// concurrent use.
type RemoteBackend struct {
	peer       string // normalized base URL ("http://host:port")
	modelzURL  string // GET handshake target
	name       string
	instanceID string // peer daemon's per-process identity (may be "")
	res        int
	timeout    time.Duration
	retries    int
	backoff    time.Duration
	backoffMax time.Duration
	tr         *sockTransport // shared across replicas, like win
	chunks     *chunkPool     // shared across replicas: pooled dispatch chunks
	win        *peerWindow    // shared across replicas: one in-flight cap per peer

	batches atomic.Int64
	frames  atomic.Int64
	errors  atomic.Int64
}

// NewRemote performs the GET /modelz handshake with peer ("host:port" or a
// full URL) to learn the engine name, input resolution and wire listener,
// and returns the proxy backend. The handshake must succeed and advertise a
// wire-v3 listener: registering an unreachable, mismatched or socketless
// peer is a deployment error, not a runtime condition to fail open on. The
// wire connection itself is dialed on first use (or by Warm).
func NewRemote(peer string, opts RemoteOptions) (*RemoteBackend, error) {
	opts = opts.withDefaults()
	if !strings.Contains(peer, "://") {
		peer = "http://" + peer
	}
	u, err := url.Parse(peer)
	if err != nil || u.Host == "" {
		return nil, fmt.Errorf("engine: remote peer %q: invalid address", peer)
	}
	if opts.Transport != "" && opts.Transport != "socket" {
		return nil, fmt.Errorf("engine: remote peer %s: transport %q is not supported: peers are reached over the wire-v3 socket only (leave Transport empty)",
			u.Host, opts.Transport)
	}
	base := u.Scheme + "://" + u.Host
	b := &RemoteBackend{
		peer:       base,
		modelzURL:  base + "/modelz",
		timeout:    opts.Timeout,
		retries:    opts.Retries,
		backoff:    opts.RetryBackoff,
		backoffMax: opts.RetryBackoffMax,
		chunks:     &chunkPool{},
		win:        newPeerWindow(),
	}
	dialStart := time.Now()
	info, err := b.handshake()
	if err != nil {
		return nil, fmt.Errorf("engine: remote peer %s: %w", u.Host, err)
	}
	// the handshake round trip is the latency EWMA's first sample, so the
	// hedge trigger and the adaptive RTO each arm one dispatch sample
	// sooner (see peerWindow.SeedRTT)
	b.win.SeedRTT(time.Since(dialStart))
	if err := checkWire(u.Host, info); err != nil {
		return nil, err
	}
	if info.InputRes <= 0 {
		return nil, fmt.Errorf("engine: remote peer %s: input resolution %d", u.Host, info.InputRes)
	}
	if opts.ExpectRes > 0 && info.InputRes != opts.ExpectRes {
		return nil, fmt.Errorf("engine: remote peer %s serves res %d, want %d",
			u.Host, info.InputRes, opts.ExpectRes)
	}
	b.res = info.InputRes
	b.instanceID = info.InstanceID
	b.name = "remote:" + info.Engine + "@" + u.Host
	b.tr = newSockTransport(u.Host, info.WireAddr)
	return b, nil
}

// checkWire refuses, at dial and redial time, a peer this front cannot reach
// over the socket wire, saying what is wrong and what to do about it. A
// version-skewed peer would otherwise fail every chunk while its handshake
// looks healthy.
func checkWire(host string, info ModelzInfo) error {
	switch {
	case info.WireVersion < wireVersionSock:
		return fmt.Errorf("engine: peer %s speaks wire v%d; upgrade it to v%d", host, info.WireVersion, wireVersionSock)
	case info.WireVersion > wireVersionSock:
		return fmt.Errorf("engine: peer %s speaks wire v%d, this front v%d; upgrade the front", host, info.WireVersion, wireVersionSock)
	case info.WireAddr == "":
		return fmt.Errorf("engine: peer %s advertises no wire listener; restart it with -wire-listen", host)
	}
	return nil
}

// handshake fetches and decodes the peer's /modelz document.
func (b *RemoteBackend) handshake() (ModelzInfo, error) {
	ctx, cancel := context.WithTimeout(context.Background(), b.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.modelzURL, nil)
	if err != nil {
		return ModelzInfo{}, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return ModelzInfo{}, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return ModelzInfo{}, fmt.Errorf("modelz: %s", resp.Status)
	}
	var info ModelzInfo
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&info); err != nil {
		return ModelzInfo{}, fmt.Errorf("modelz: %w", err)
	}
	return info, nil
}

// Name identifies the proxied engine and its peer
// ("remote:fp32@10.0.0.7:8093").
func (b *RemoteBackend) Name() string { return b.name }

// Peer returns the normalized peer base URL.
func (b *RemoteBackend) Peer() string { return b.peer }

// InstanceID returns the peer daemon's per-process identity from the dial
// handshake ("" when the peer predates the field). Dialers use it to
// reject self-dials: a -peers or /admin/peers address that loops back to
// the dialing daemon would score every chunk through an infinite proxy
// recursion.
func (b *RemoteBackend) InstanceID() string { return b.instanceID }

// InputRes is the peer's network input resolution (from the handshake).
func (b *RemoteBackend) InputRes() int { return b.res }

// Stats reports proxied batches/frames and the fail-open error count.
func (b *RemoteBackend) Stats() Stats {
	return Stats{Batches: b.batches.Load(), Frames: b.frames.Load(), Errors: b.errors.Load()}
}

// InferBatchInto is the unkeyed dispatch: each chunk's content keys are
// hashed when its probe is built.
func (b *RemoteBackend) InferBatchInto(frames []*imaging.Bitmap, out []float64) []float64 {
	return b.InferKeyedInto(frames, nil, out)
}

// InferKeyedInto (KeyedBackend) proxies frames to the peer in
// BatchChunk-sized requests — one forward pass per request on the peer —
// and fails open (score 0) for any chunk still failing after the retry
// budget.
func (b *RemoteBackend) InferKeyedInto(frames []*imaging.Bitmap, keys [][32]byte, out []float64) []float64 {
	checkKeys(frames, keys)
	if len(frames) == 0 {
		return out[:0]
	}
	out = out[:len(frames)]
	for lo := 0; lo < len(frames); lo += BatchChunk {
		hi := min(lo+BatchChunk, len(frames))
		b.inferChunk(frames[lo:hi], chunkKeys(keys, lo, hi), out[lo:hi])
	}
	b.frames.Add(int64(len(frames)))
	return out
}

func (b *RemoteBackend) inferChunk(frames []*imaging.Bitmap, keys [][32]byte, out []float64) {
	chunk := b.chunks.get(frames, keys)
	defer b.chunks.put(chunk)
	// overall chunk budget: one per-attempt timeout per attempt; backoff
	// sleeps spend from the same budget, so a retry that cannot finish in
	// time is abandoned early rather than slept into
	ctx, cancel := context.WithTimeout(context.Background(), b.timeout*time.Duration(b.retries+1))
	defer cancel()
	if err := b.tryChunk(ctx, chunk, out); err != nil {
		// Fail open: the peer cannot score this chunk and the verdict is
		// unknown. Score 0 renders the frame — the serving edge's shed
		// semantics, applied here.
		for i := range out {
			out[i] = 0
		}
		b.errors.Add(1)
	}
}

// tryChunk runs the retry loop of one chunk against this peer:
// bounded exponential backoff with jitter between attempts, bailing out as
// soon as ctx's deadline would be exceeded. Unlike inferChunk it reports
// failure instead of failing open — the fleet layer re-routes a failed
// chunk to another replica before giving up on a verdict.
//
// The whole try holds one of the peer's fixed in-flight slots
// (windowLimit), so however many lanes, failovers and hedges land on one
// peer, at most that many chunks are against it at once. Every successful
// attempt's round trip feeds the peer's RTT estimator, and every failed one
// counts as a loss.
func (b *RemoteBackend) tryChunk(ctx context.Context, chunk *wireChunk, out []float64) error {
	if !b.win.Acquire(ctx) {
		// no slot freed within the chunk budget: the peer is saturated,
		// which the caller treats like any other chunk failure (the fleet
		// fails over; standalone use fails open)
		return fmt.Errorf("engine: peer %s: in-flight cap saturated: %w", b.peer, ctx.Err())
	}
	defer b.win.Release()
	var lastErr error
	for attempt := 0; attempt <= b.retries; attempt++ {
		if attempt > 0 {
			delay := backoffDelay(attempt, b.backoff, b.backoffMax)
			if dl, ok := ctx.Deadline(); ok && time.Now().Add(delay).After(dl) {
				return lastErr // the backoff alone would outlive the budget
			}
			timer := time.NewTimer(delay)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return lastErr
			}
		}
		start := time.Now()
		err := b.attempt(ctx, start, chunk, out)
		if err == nil {
			b.batches.Add(1)
			b.win.OnSuccess(time.Since(start))
			return nil
		}
		if ctx.Err() != context.Canceled {
			// a canceled hedge loser is not a loss — the cancellation raced
			// a possibly-fine request; everything else (timeout, broken
			// connection, protocol error) counts. Every socket failure is
			// retryable: the retry redials.
			b.win.OnLoss()
		}
		lastErr = err
		if ctx.Err() != nil {
			return lastErr
		}
	}
	return lastErr
}

// backoffDelay is the exponential retry ladder: base doubled per attempt,
// capped at ceil, with +/-50% jitter so synchronized failures do not retry
// in lockstep.
func backoffDelay(attempt int, base, ceil time.Duration) time.Duration {
	d := base
	for i := 1; i < attempt && d < ceil; i++ {
		d *= 2
	}
	if d > ceil {
		d = ceil
	}
	if d <= 0 {
		return 0
	}
	// uniform in [d/2, 3d/2)
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// attempt runs one round trip of a chunk, started at start: bounded by the
// per-attempt timeout, capped by the peer's RTO once its estimator has
// warmed up, and by the caller's context (the whole try's budget; hedged
// dispatch cancels the losing arm through it).
func (b *RemoteBackend) attempt(ctx context.Context, start time.Time, chunk *wireChunk, out []float64) error {
	timeout := b.timeout
	if rto := b.win.RTO(); rto > 0 && rto < timeout {
		// adaptive RTO: once the RTT estimator has warmed up, an attempt
		// that has outlived mean+4·dev is almost certainly lost — retry it
		// (or fail over) instead of sleeping out the configured ceiling.
		timeout = rto
	}
	deadline := start.Add(timeout)
	if dl, ok := ctx.Deadline(); ok && dl.Before(deadline) {
		deadline = dl
	}
	return b.tr.roundTrip(ctx, deadline, chunk, out)
}

// WindowStats reports this peer's in-flight cap state (WindowReporter).
func (b *RemoteBackend) WindowStats() []WindowStat {
	st := b.win.Stat()
	st.Peer = b.peer
	return []WindowStat{st}
}

// TransportStats reports the peer link's byte and dedup accounting (shared
// across replicas, like the connection itself).
func (b *RemoteBackend) TransportStats() TransportStats { return b.tr.stats.snapshot() }

// Replicate returns a proxy to the same peer sharing this backend's
// transport (one connection picture per peer), chunk pool and window (one
// in-flight cap and RTT estimator per peer) with its own counters — the
// per-shard replica serve dispatch wants.
func (b *RemoteBackend) Replicate() Backend {
	return &RemoteBackend{
		peer:       b.peer,
		modelzURL:  b.modelzURL,
		name:       b.name,
		instanceID: b.instanceID,
		res:        b.res,
		timeout:    b.timeout,
		retries:    b.retries,
		backoff:    b.backoff,
		backoffMax: b.backoffMax,
		tr:         b.tr,
		chunks:     b.chunks,
		win:        b.win,
	}
}

// Warm dials the peer's wire connection so it is live before the first
// real dispatch. The peer warms its own arenas at startup. A peer that is
// already dead at warm time is an operational signal, not a silent no-op:
// the failure is logged and counted in Stats.Errors so it shows up on
// /metrics before the first real dispatch discovers it.
func (b *RemoteBackend) Warm(maxBatch int) {
	ctx, cancel := context.WithTimeout(context.Background(), b.timeout)
	defer cancel()
	if err := b.tr.warm(ctx); err != nil {
		b.errors.Add(1)
		log.Printf("engine: warm %s: %v", b.peer, err)
	}
}

// Close drops the wire connection. The connection is shared and Close is
// non-terminal: sibling replicas stay usable (the next dispatch redials)
// and Close is idempotent.
func (b *RemoteBackend) Close() { b.tr.Close() }

// drainClose consumes the rest of an HTTP response body so the connection
// can be reused, then closes it.
func drainClose(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, 1<<20))
	body.Close()
}
