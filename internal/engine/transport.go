package engine

// The dispatch chunk and its accounting. A wireChunk is what RemoteBackend
// and Fleet hand the socket wire (sockwire.go): one chunk of frames and their
// content keys, shared by every retry, failover try and hedge arm that
// carries it to a peer.

import (
	"sync"
	"sync/atomic"

	"percival/internal/imaging"
)

// wireChunk is one dispatch chunk in flight to a peer: the frames and their
// content keys — the caller's (a keyed dispatch), or hashed at most once on
// first use however many attempts and hedge arms share the chunk. Hedged
// dispatch hands the same *wireChunk to two peers concurrently, so the lazy
// keys are mutex-guarded.
type wireChunk struct {
	frames []*imaging.Bitmap

	mu   sync.Mutex
	keys [][32]byte // content keys: the caller's, or hashed on demand for the probe
}

// reset re-arms a pooled chunk for a new frame set, keeping the amortized
// key capacity. keys is empty or the frames' imaging.ContentKeys in order;
// they are copied, so the caller's slice is its own again on return.
func (c *wireChunk) reset(frames []*imaging.Bitmap, keys [][32]byte) {
	c.frames = frames
	c.keys = append(c.keys[:0], keys...)
}

// contentKeys returns the chunk's content keys, hashing on first use only
// the frames that arrived without one: a chunk reset with its keys is not
// hashed again (the serving layer keyed each frame at Submit), an unkeyed
// one pays sha256.Sum256 per frame here. Nothing allocates once the chunk's
// key slice is warm.
func (c *wireChunk) contentKeys() [][32]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, f := range c.frames[len(c.keys):] {
		c.keys = append(c.keys, imaging.ContentKey(f))
	}
	return c.keys
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

// TransportStats is one peer link's byte and dedup accounting — the
// /healthz and /metrics surface for "what is this peer link costing".
type TransportStats struct {
	// Chunks counts round trips attempted (per attempt, so a retried chunk
	// counts each attempt).
	Chunks int64 `json:"chunks"`
	// BytesOut/BytesIn count wire message bytes, framing included.
	BytesOut int64 `json:"bytes_out"`
	BytesIn  int64 `json:"bytes_in"`
	// FramesPixels counts frames whose pixels crossed the wire;
	// FramesDedup counts frames answered by the key probe alone. Their
	// ratio is the dedup tier's hit rate.
	FramesPixels int64 `json:"frames_pixels"`
	FramesDedup  int64 `json:"frames_dedup"`
	// Dials counts socket (re)connections.
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

func (t *transportCounters) snapshot() TransportStats {
	return TransportStats{
		Chunks:       t.chunks.Load(),
		BytesOut:     t.bytesOut.Load(),
		BytesIn:      t.bytesIn.Load(),
		FramesPixels: t.framesPixels.Load(),
		FramesDedup:  t.framesDedup.Load(),
		Dials:        t.dials.Load(),
	}
}
