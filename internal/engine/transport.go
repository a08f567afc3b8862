package engine

// The pluggable transport seam under RemoteBackend. A Transport carries one
// chunk of frames to a peer and brings the scores back; RemoteBackend owns
// everything above it — retry ladder, congestion window, RTO-capped attempt
// timeouts, fail-open — so the wire can change without touching the
// dispatch semantics. Two transports exist:
//
//   - httpTransport: one POST /classify/batch per chunk, wire v1. The
//     universal fallback every peer speaks.
//   - sockTransport (sockwire.go): one hot TCP connection per peer, wire v2
//     framing multiplexed by request ID, with the hash-first dedup tier.
//
// The interface is sealed (its methods take the package-private wireChunk),
// so pluggability is an engine-internal seam, not an extension point —
// the negotiated wire format must stay in lockstep with remotehttp.go.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"percival/internal/imaging"
)

// wireChunk is one dispatch chunk in flight to a peer: the frames, the
// content keys the caller already holds for them (a keyed dispatch), and
// lazily-computed wire representations, each computed at most once however
// many transport attempts and hedge arms share the chunk. Hedged dispatch
// hands the same *wireChunk to two peers concurrently, so the lazy fields
// are mutex-guarded.
type wireChunk struct {
	frames []*imaging.Bitmap

	mu    sync.Mutex
	body  []byte     // v1 HTTP body (header + dims + pixels), built on demand
	keys  [][32]byte // content keys: the caller's, or hashed on demand for the dedup probe
	phash []uint64   // perceptual hashes, built on demand alongside keys
}

// reset re-arms a pooled chunk for a new frame set, keeping the amortized
// buffer capacity. keys is empty or the frames' imaging.ContentKeys in
// order; they are copied, so the caller's slice is its own again on return.
func (c *wireChunk) reset(frames []*imaging.Bitmap, keys [][32]byte) {
	c.frames = frames
	c.body = c.body[:0]
	c.keys = append(c.keys[:0], keys...)
	c.phash = c.phash[:0]
}

// pixelBody returns the chunk's v1 HTTP encoding, building it on first use.
func (c *wireChunk) pixelBody() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.body) == 0 {
		c.body = encodeFrames(c.body[:0], c.frames)
	}
	return c.body
}

// forfeitBody detaches the encoded body from the chunk so that nothing
// encodes into its backing array again. A failed HTTP attempt calls it:
// net/http may still be copying the request to the socket after Do returns
// (a peer can answer 503 without reading it, a timeout abandons the write),
// and the chunk, buffer included, goes back to a pool. A retry re-encodes
// into a fresh buffer; a successful attempt keeps it, because the peer has
// read the whole request and the transport has finished writing it.
func (c *wireChunk) forfeitBody() {
	c.mu.Lock()
	c.body = nil
	c.mu.Unlock()
}

// contentKeys returns the chunk's content keys and perceptual hashes,
// computing on first use only what is missing: a chunk reset with its keys
// is not hashed again (the serving layer keyed each frame at Submit), an
// unkeyed one pays sha256.Sum256 per frame here; both pay the pooled 8×8
// downscale once. Nothing allocates once the chunk's slices are warm.
func (c *wireChunk) contentKeys() ([][32]byte, []uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, f := range c.frames[len(c.keys):] {
		c.keys = append(c.keys, imaging.ContentKey(f))
	}
	for _, f := range c.frames[len(c.phash):] {
		c.phash = append(c.phash, imaging.PerceptualHashPooled(f))
	}
	return c.keys, c.phash
}

// chunkPool pools *wireChunk across dispatches (RemoteBackend and Fleet
// each own one; replicas share their parent's).
type chunkPool struct{ p sync.Pool }

func (cp *chunkPool) get(frames []*imaging.Bitmap, keys [][32]byte) *wireChunk {
	c, _ := cp.p.Get().(*wireChunk)
	if c == nil {
		c = &wireChunk{}
	}
	c.reset(frames, keys)
	return c
}

func (cp *chunkPool) put(c *wireChunk) {
	c.frames = nil
	cp.p.Put(c)
}

// TransportStats is one transport's byte and dedup accounting — the
// /healthz and /metrics surface for "what is this peer link costing".
type TransportStats struct {
	// Kind names the wire ("http", "socket").
	Kind string `json:"kind"`
	// Chunks counts round trips attempted (per transport attempt, so a
	// retried chunk counts each attempt).
	Chunks int64 `json:"chunks"`
	// BytesOut/BytesIn count wire payload bytes (message framing included,
	// transport-protocol overhead like HTTP headers excluded).
	BytesOut int64 `json:"bytes_out"`
	BytesIn  int64 `json:"bytes_in"`
	// FramesPixels counts frames whose pixels crossed the wire;
	// FramesDedup counts frames answered by the hash probe alone. Their
	// ratio is the dedup tier's hit rate.
	FramesPixels int64 `json:"frames_pixels"`
	FramesDedup  int64 `json:"frames_dedup"`
	// Dials counts socket (re)connections; 0 for HTTP.
	Dials int64 `json:"dials"`
}

// transportCounters is the live atomic half of TransportStats.
type transportCounters struct {
	chunks       atomic.Int64
	bytesOut     atomic.Int64
	bytesIn      atomic.Int64
	framesPixels atomic.Int64
	framesDedup  atomic.Int64
	dials        atomic.Int64
}

func (t *transportCounters) snapshot(kind string) TransportStats {
	return TransportStats{
		Kind:         kind,
		Chunks:       t.chunks.Load(),
		BytesOut:     t.bytesOut.Load(),
		BytesIn:      t.bytesIn.Load(),
		FramesPixels: t.framesPixels.Load(),
		FramesDedup:  t.framesDedup.Load(),
		Dials:        t.dials.Load(),
	}
}

// Transport is one way of carrying chunks to a peer. Implementations are
// safe for concurrent use and shared across a peer's replicas (one
// connection picture per peer, like the congestion window).
type Transport interface {
	// Kind names the wire for health surfaces ("http", "socket").
	Kind() string
	// Stats snapshots the transport's byte/dedup counters.
	Stats() TransportStats
	// Close releases the transport's connections. It must be idempotent
	// and must tolerate sibling replicas still holding the transport: a
	// closed transport re-establishes what it needs on the next roundTrip.
	Close()

	// roundTrip runs one attempt of one chunk: scores land in
	// out[:len(chunk.frames)]. retryable reports whether a further attempt
	// could succeed (transport errors yes, peer rejections no). The attempt
	// ends at its RTO-capped deadline or when ctx — the whole try's budget
	// and the hedge loser's cancellation — does, whichever comes first.
	roundTrip(ctx context.Context, deadline time.Time, chunk *wireChunk, out []float64) (retryable bool, err error)
	// warm pre-establishes connections so the first dispatch pays no setup.
	warm(ctx context.Context) error
	// compatible reports whether a fresh handshake document still matches
	// what this transport needs from the peer (redial re-admission check).
	compatible(info ModelzInfo) bool
}

// httpTransport is wire v1: one POST per chunk over a pooled HTTP client.
type httpTransport struct {
	peer     string // normalized base URL, for error text
	batchURL string
	client   *http.Client
	stats    transportCounters
}

func newHTTPTransport(peer, batchURL string, client *http.Client) *httpTransport {
	return &httpTransport{peer: peer, batchURL: batchURL, client: client}
}

func (t *httpTransport) Kind() string          { return "http" }
func (t *httpTransport) Stats() TransportStats { return t.stats.snapshot("http") }

// Close releases idle connections. The client is shared across replicas and
// stays usable; CloseIdleConnections is naturally idempotent.
func (t *httpTransport) Close() { t.client.CloseIdleConnections() }

// warm is a no-op: the /modelz handshake RemoteBackend.Warm performs over
// the same client already populates the connection pool.
func (t *httpTransport) warm(ctx context.Context) error { return nil }

// compatible accepts any peer inside the proxy's version range: HTTP v1 is
// the floor every peer speaks.
func (t *httpTransport) compatible(info ModelzInfo) bool {
	return wireCompatible(info.WireVersion)
}

func (t *httpTransport) roundTrip(ctx context.Context, deadline time.Time, chunk *wireChunk, out []float64) (retryable bool, err error) {
	ctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	defer func() {
		if err != nil {
			chunk.forfeitBody()
		}
	}()
	body := chunk.pixelBody()
	t.stats.chunks.Add(1)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.batchURL, bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := t.client.Do(req)
	if err != nil {
		return true, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode >= 500, fmt.Errorf("engine: peer %s: %s", t.peer, resp.Status)
	}
	if err := decodeScoresInto(resp.Body, out); err != nil {
		return true, err
	}
	t.stats.bytesOut.Add(int64(len(body)))
	t.stats.bytesIn.Add(int64(wireHeaderLen + 8*len(out)))
	t.stats.framesPixels.Add(int64(len(chunk.frames)))
	return false, nil
}

// wireCompatible reports whether a peer's advertised wire version falls in
// this proxy's [wireVersion, wireVersionSock] acceptance range.
func wireCompatible(v int) bool {
	return v >= wireVersion && v <= wireVersionSock
}
