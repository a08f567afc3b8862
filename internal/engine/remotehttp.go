package engine

// The HTTP surface of a peer, shared by RemoteBackend (the client in
// remote.go) and the endpoints cmd/percival-serve mounts: the JSON handshake
// GET /modelz every front dials first, and the client-facing binary batch
// endpoint POST /classify/batch. Fronts never dispatch over HTTP: chunks
// travel over the persistent-socket wire (sockwire.go) whose listener the
// handshake advertises.
//
// Batch endpoint, one message per HTTP exchange. Request body
// (little-endian):
//
//	magic   "PCVB"            4 bytes
//	version uint16            1
//	count   uint32            frames in the batch
//	frame   w uint32, h uint32, then w*h*4 RGBA bytes, count times
//
// Response body:
//
//	magic   "PCVS"            4 bytes
//	version uint16            1
//	count   uint32            equals the request count
//	score   float64 bits (ad-class probability), count times
//
// Wire v3 — the dispatch wire (sockwire.go): the same magics and
// little-endian layout, carried as multiplexed messages over one hot TCP
// connection. Every message header carries a request ID (echoed by the
// response, so responses may arrive out of order) and a flags word:
//
//	magic   "PCVB"/"PCVS"     4 bytes
//	version uint16            3
//	id      uint32            request ID, echoed by the response
//	flags   uint32            sockFlagProbe (request) / sockFlagMask (response)
//	count   uint32            entries that follow
//
// A request with sockFlagProbe carries count × 32-byte content key — the
// hash-first dedup tier: the peer answers from its verdict cache and never
// sees the pixels. Its response carries sockFlagMask: a ceil(count/8) hit
// bitmask followed by one float64 score per set bit. A request without
// sockFlagProbe carries count × (32-byte content key + w uint32 + h uint32
// + w*h*4 RGBA bytes) — pixels for the probe misses, keyed so the peer can
// store the verdicts it scores without re-hashing; its response is count ×
// float64 scores.
//
// The handshake names the wire: wire_version is the dispatch wire version
// the peer speaks and wire_addr its socket listener. A front refuses, at
// dial and at redial, a peer that is not on v3 or advertises no listener.
//
// Frames travel at their original resolution: the peer runs the exact same
// pre-processing (ResizeBilinearInto + ToTensorInto) an in-process backend
// would, so a proxied verdict is bit-identical to local dispatch — and a
// dedup hit is answered from a cache filled by those same model runs, so
// it is bit-identical too.

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"

	"percival/internal/imaging"
)

const (
	batchMagic = "PCVB"
	scoreMagic = "PCVS"
	// wireVersion is the batch endpoint's message version.
	wireVersion = 1
	// wireVersionSock is the dispatch wire's version (sockwire.go), the one
	// a peer's /modelz advertises and a front requires.
	wireVersionSock = 3
	// wireHeaderLen is the shared magic+version+count prefix length.
	wireHeaderLen = 4 + 2 + 4
	// maxWireFrames bounds one batch request or wire message; a front chunks
	// by BatchChunk, so anything near this limit is a misbehaving client, not
	// a big batch.
	maxWireFrames = 4096
	// maxWireEdge/maxWireFrameBytes bound one frame before its pixel buffer
	// is allocated, so a lying header cannot over-allocate the peer.
	maxWireEdge       = 1 << 15
	maxWireFrameBytes = 32 << 20
)

// CheckFrameDims is the one bound on a raw RGBA frame's claimed dimensions,
// applied at every edge that takes them from outside the process (both wire
// decoders and the daemon's /classify) before a pixel buffer is sized from
// them. The byte size is computed in int64 after the per-edge check, so no
// w*h*4 can wrap — on a 32-bit platform 32768×32768×4 is 2^32, and on any
// platform an unchecked 2^62×1×4 is 0 and "matches" an empty body.
func CheckFrameDims(w, h int) error {
	if w <= 0 || h <= 0 || w > maxWireEdge || h > maxWireEdge || int64(w)*int64(h)*4 > maxWireFrameBytes {
		return fmt.Errorf("frame is %dx%d (edges 1..%d, at most %d bytes)", w, h, maxWireEdge, maxWireFrameBytes)
	}
	return nil
}

// decodeFrames reads a batch request body, validating every frame header
// before allocating its pixel buffer.
func decodeFrames(r io.Reader) ([]*imaging.Bitmap, error) {
	br := bufio.NewReader(r)
	var hdr [wireHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("engine: batch header: %w", err)
	}
	if string(hdr[:4]) != batchMagic {
		return nil, fmt.Errorf("engine: not a frame batch (magic %q)", hdr[:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != wireVersion {
		return nil, fmt.Errorf("engine: batch version %d, want %d", v, wireVersion)
	}
	count := binary.LittleEndian.Uint32(hdr[6:10])
	if count == 0 || count > maxWireFrames {
		return nil, fmt.Errorf("engine: batch of %d frames (1..%d)", count, maxWireFrames)
	}
	frames := make([]*imaging.Bitmap, 0, count)
	for i := uint32(0); i < count; i++ {
		var dims [8]byte
		if _, err := io.ReadFull(br, dims[:]); err != nil {
			return nil, fmt.Errorf("engine: frame %d header: %w", i, err)
		}
		w := int(binary.LittleEndian.Uint32(dims[0:4]))
		h := int(binary.LittleEndian.Uint32(dims[4:8]))
		if err := CheckFrameDims(w, h); err != nil {
			return nil, fmt.Errorf("engine: frame %d: %w", i, err)
		}
		b := imaging.NewBitmap(w, h)
		if _, err := io.ReadFull(br, b.Pix); err != nil {
			return nil, fmt.Errorf("engine: frame %d pixels: %w", i, err)
		}
		frames = append(frames, b)
	}
	return frames, nil
}

// encodeScores appends the batch response encoding of scores to buf.
func encodeScores(buf []byte, scores []float64) []byte {
	buf = append(buf, scoreMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, wireVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(scores)))
	for _, s := range scores {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s))
	}
	return buf
}

// httpWire carries the server-side counters of the HTTP batch endpoint —
// the /metrics view of the batch traffic clients send here. WriteErrors
// is the interesting one: a response write that failed mid-stream surfaces
// client-side as a confusing truncation error, so the serving side must
// count it as its own signal.
var httpWire struct {
	requests    atomic.Int64
	bytesIn     atomic.Int64
	bytesOut    atomic.Int64
	writeErrors atomic.Int64
}

// HTTPWireStats is a snapshot of the HTTP batch endpoint's wire counters.
type HTTPWireStats struct {
	Requests    int64
	BytesIn     int64
	BytesOut    int64
	WriteErrors int64
}

// WireHTTPStats snapshots the process-wide HTTP batch-endpoint counters.
func WireHTTPStats() HTTPWireStats {
	return HTTPWireStats{
		Requests:    httpWire.requests.Load(),
		BytesIn:     httpWire.bytesIn.Load(),
		BytesOut:    httpWire.bytesOut.Load(),
		WriteErrors: httpWire.writeErrors.Load(),
	}
}

// countingReader counts bytes drawn from an HTTP request body.
type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func (c countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// BatchHandler serves POST /classify/batch: length-prefixed raw-RGBA frames
// in, scores out, one forward pass per request on the selected backend.
// ?model= selects a registry entry (Registry.Select, lenient about unknown
// names); def serves when the parameter is absent. reg may be nil for a
// single-engine peer.
func BatchHandler(reg *Registry, def Backend) http.HandlerFunc {
	// one well-behaved request is at most BatchChunk max-size frames
	const maxBatchBody = BatchChunk*(maxWireFrameBytes+8) + wireHeaderLen
	return func(w http.ResponseWriter, r *http.Request) {
		httpWire.requests.Add(1)
		body := countingReader{r: http.MaxBytesReader(w, r.Body, maxBatchBody), n: &httpWire.bytesIn}
		frames, err := decodeFrames(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		b := def
		if name := r.URL.Query().Get("model"); name != "" && reg != nil {
			b = reg.Select(name)
		}
		scores := make([]float64, len(frames))
		b.InferBatchInto(frames, scores)
		payload := encodeScores(make([]byte, 0, wireHeaderLen+8*len(scores)), scores)
		// Content-Length lets the client distinguish a truncated score
		// stream from a complete one instead of hitting an opaque decode
		// error, and keeps the connection reusable without chunked framing.
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(payload)))
		if _, err := w.Write(payload); err != nil {
			// the client is gone or the connection broke mid-response; the
			// forward pass is already spent, so make the loss observable
			httpWire.writeErrors.Add(1)
			return
		}
		httpWire.bytesOut.Add(int64(len(payload)))
	}
}

// ModelzInfo is the GET /modelz handshake payload: everything a proxy needs
// to validate a peer before routing traffic to it.
type ModelzInfo struct {
	// WireVersion is the dispatch wire version the peer speaks
	// (wireVersionSock). A front refuses any other version at dial time,
	// because every chunk would deterministically fail otherwise.
	WireVersion int `json:"wire_version"`
	// WireAddr is the peer's persistent-socket listener ("host:port"; an
	// empty or wildcard host is resolved against the peer's HTTP host).
	// Empty means the peer runs no listener and cannot serve a front.
	WireAddr string `json:"wire_addr,omitempty"`
	// Engine is the backend the wire listener scores with.
	Engine string `json:"engine"`
	// InputRes is that backend's network input resolution; a proxy refuses
	// a peer whose resolution differs from its own pre-processing contract.
	InputRes int `json:"input_res"`
	// Threshold is the peer's ad-probability blocking threshold.
	Threshold float64 `json:"threshold"`
	// Backends lists the peer's registry entries: the canary's candidates,
	// and the ?model= selections of a BatchHandler where one is mounted
	// (bench/ mounts it; the daemon's /classify ignores ?model=).
	Backends []string `json:"backends,omitempty"`
	// InstanceID is the serving daemon's per-process identity (random at
	// startup). Dialers compare it against their own to reject self-dials
	// — an address looping back to the dialing daemon would proxy chunks
	// into itself recursively. Empty from peers predating the field.
	InstanceID string `json:"instance_id,omitempty"`
}

// ModelzHandlerWire is ModelzHandlerID without an instance ID to advertise.
//
// Deprecated: call ModelzHandlerID with an empty instanceID.
func ModelzHandlerWire(reg *Registry, def Backend, threshold float64, wireAddr string) http.HandlerFunc {
	return ModelzHandlerID(reg, def, threshold, wireAddr, "")
}

// ModelzHandlerID serves GET /modelz, the proxy handshake, for a peer whose
// wire listener at wireAddr scores with def (empty: no listener, and no
// front can dial the peer). instanceID is the daemon's per-process
// identity, letting dialing proxies detect self-dials (see
// ModelzInfo.InstanceID).
func ModelzHandlerID(reg *Registry, def Backend, threshold float64, wireAddr, instanceID string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var names []string
		if reg != nil {
			names = reg.Names()
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(ModelzInfo{
			WireVersion: wireVersionSock,
			WireAddr:    wireAddr,
			Engine:      def.Name(),
			InputRes:    def.InputRes(),
			Threshold:   threshold,
			Backends:    names,
			InstanceID:  instanceID,
		})
	}
}
