package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"percival/internal/imaging"
	"percival/internal/synth"
)

// newPeer stands up an in-process percival-serve wire surface over the
// given backend: the two endpoints a RemoteBackend speaks.
func newPeer(t testing.TB, reg *Registry, def Backend) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle("POST /classify/batch", BatchHandler(reg, def))
	mux.Handle("GET /modelz", ModelzHandler(reg, def, 0.5))
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestWireFrameRoundTrip: the batch encoding must reproduce every frame
// bit-for-bit, and the score encoding every score.
func TestWireFrameRoundTrip(t *testing.T) {
	frames := synth.SampleFrames(3, 5)
	enc := encodeFrames(nil, frames)
	got, err := decodeFrames(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(frames) {
		t.Fatalf("decoded %d frames, want %d", len(got), len(frames))
	}
	for i := range frames {
		if got[i].W != frames[i].W || got[i].H != frames[i].H {
			t.Fatalf("frame %d: %dx%d, want %dx%d", i, got[i].W, got[i].H, frames[i].W, frames[i].H)
		}
		if !bytes.Equal(got[i].Pix, frames[i].Pix) {
			t.Fatalf("frame %d: pixel mismatch", i)
		}
	}
	scores := []float64{0, 0.25, 1, math.SmallestNonzeroFloat64}
	out := make([]float64, len(scores))
	if err := decodeScoresInto(bytes.NewReader(encodeScores(nil, scores)), out); err != nil {
		t.Fatal(err)
	}
	for i := range scores {
		if out[i] != scores[i] {
			t.Fatalf("score %d: %v, want %v", i, out[i], scores[i])
		}
	}
}

// TestWireRejectsMalformedBatches: a lying header must error out before any
// pixel buffer is allocated, never over-allocate or succeed partially.
func TestWireRejectsMalformedBatches(t *testing.T) {
	frames := synth.SampleFrames(3, 1)
	good := encodeFrames(nil, frames)
	cases := map[string][]byte{
		"bad magic":     append([]byte("XXXX"), good[4:]...),
		"bad version":   append(append([]byte(batchMagic), 0xff, 0xff), good[6:]...),
		"zero count":    append(append([]byte{}, good[:6]...), 0, 0, 0, 0),
		"huge count":    append(append([]byte{}, good[:6]...), 0xff, 0xff, 0xff, 0xff),
		"truncated pix": good[:len(good)-8],
		"giant frame dim": func() []byte {
			b := append([]byte{}, good...)
			copy(b[10:14], []byte{0xff, 0xff, 0xff, 0x7f})
			return b
		}(),
	}
	for name, enc := range cases {
		if _, err := decodeFrames(bytes.NewReader(enc)); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
	// score count must match the caller's frame count
	if err := decodeScoresInto(bytes.NewReader(encodeScores(nil, []float64{1, 2})), make([]float64, 3)); err == nil {
		t.Error("score-count mismatch not rejected")
	}
}

// TestWireFrameSizeOverflow: regression for the decodeFrames size guard
// computing w*h*4 in int — 32768x32768x4 is exactly 2^32, which wraps to 0
// on 32-bit platforms and sails past the byte bound. The guard must do the
// arithmetic in int64 and reject the frame on every platform.
func TestWireFrameSizeOverflow(t *testing.T) {
	good := encodeFrames(nil, synth.SampleFrames(3, 1))
	b := append([]byte{}, good[:wireHeaderLen]...)
	var dims [8]byte
	// both edges at the maxWireEdge limit: the per-edge checks pass, only
	// the (overflow-prone) byte bound can reject it
	binary.LittleEndian.PutUint32(dims[0:4], 1<<15)
	binary.LittleEndian.PutUint32(dims[4:8], 1<<15)
	b = append(b, dims[:]...)
	if frames, err := decodeFrames(bytes.NewReader(b)); err == nil {
		t.Fatalf("2^32-byte frame accepted (%d frames decoded)", len(frames))
	}
}

// TestBatchHandlerContentLengthAndCounters: the batch endpoint must declare
// Content-Length on its binary response (the body is fully assembled before
// the write) and account the exchange in the wire counters, including
// failed writes.
func TestBatchHandlerContentLengthAndCounters(t *testing.T) {
	net, res := testNet(t, 16)
	local := NewFP32(net, res)
	defer local.Close()
	ts := newPeer(t, nil, local)

	before := WireHTTPStats()
	frames := synth.SampleFrames(5, 3)
	body := encodeFrames(nil, frames)
	resp, err := http.Post(ts.URL+"/classify/batch", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	wantLen := int64(wireHeaderLen + 8*len(frames))
	if resp.ContentLength != wantLen {
		t.Fatalf("Content-Length %d, want %d", resp.ContentLength, wantLen)
	}
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(payload)) != wantLen {
		t.Fatalf("body %d bytes, want %d", len(payload), wantLen)
	}
	after := WireHTTPStats()
	if after.Requests != before.Requests+1 {
		t.Fatalf("requests %d -> %d, want +1", before.Requests, after.Requests)
	}
	if after.BytesIn-before.BytesIn != int64(len(body)) {
		t.Fatalf("bytesIn moved %d, want %d", after.BytesIn-before.BytesIn, len(body))
	}
	if after.BytesOut-before.BytesOut != wantLen {
		t.Fatalf("bytesOut moved %d, want %d", after.BytesOut-before.BytesOut, wantLen)
	}
}

// TestRemoteDefaultClientIdleConns: the default HTTP client must keep a
// congestion window's worth of idle connections per peer — net/http's
// default of 2 would churn TCP setup on every >2-deep burst.
func TestRemoteDefaultClientIdleConns(t *testing.T) {
	o := RemoteOptions{}.withDefaults()
	tr, ok := o.Client.Transport.(*http.Transport)
	if !ok {
		t.Fatalf("default client transport %T, want *http.Transport", o.Client.Transport)
	}
	if tr.MaxIdleConnsPerHost != o.WindowMax || tr.MaxIdleConnsPerHost < 3 {
		t.Fatalf("MaxIdleConnsPerHost %d, want WindowMax %d", tr.MaxIdleConnsPerHost, o.WindowMax)
	}
	// an explicit client is never overridden
	c := &http.Client{}
	if o2 := (RemoteOptions{Client: c}).withDefaults(); o2.Client != c {
		t.Fatal("explicit client replaced by defaults")
	}
}

// TestRemoteMatchesLocalBackend is the tentpole's correctness anchor: a
// frame proxied over the wire must score exactly what the peer's backend
// scores locally — same pre-processing, same forward pass, bit-identical
// float64 on the wire.
func TestRemoteMatchesLocalBackend(t *testing.T) {
	net, res := testNet(t, 16)
	local := NewFP32(net, res)
	defer local.Close()
	ts := newPeer(t, nil, local)

	rb, err := NewRemote(ts.URL, RemoteOptions{ExpectRes: res})
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	if rb.InputRes() != res {
		t.Fatalf("remote res %d, want %d", rb.InputRes(), res)
	}
	if want := "remote:" + FP32Name + "@"; len(rb.Name()) <= len(want) || rb.Name()[:len(want)] != want {
		t.Fatalf("remote name %q", rb.Name())
	}

	// more frames than one chunk, so the client-side chunk loop runs
	frames := synth.SampleFrames(7, BatchChunk+5)
	want := make([]float64, len(frames))
	local.InferBatchInto(frames, want)
	got := make([]float64, len(frames))
	rb.InferBatchInto(frames, got)
	for i := range frames {
		if got[i] != want[i] {
			t.Fatalf("frame %d: remote %v, local %v", i, got[i], want[i])
		}
	}
	st := rb.Stats()
	if st.Frames != int64(len(frames)) || st.Batches != 2 || st.Errors != 0 {
		t.Fatalf("remote stats %+v", st)
	}
}

// TestRemoteHandshake: construction must reject unreachable peers and
// resolution mismatches — deployment errors, not fail-open conditions.
func TestRemoteHandshake(t *testing.T) {
	net, res := testNet(t, 16)
	local := NewFP32(net, res)
	defer local.Close()
	ts := newPeer(t, nil, local)

	if _, err := NewRemote(ts.URL, RemoteOptions{ExpectRes: res + 8}); err == nil {
		t.Fatal("resolution mismatch not rejected")
	}
	if _, err := NewRemote("http://127.0.0.1:1", RemoteOptions{Timeout: 200 * time.Millisecond}); err == nil {
		t.Fatal("unreachable peer not rejected")
	}
	if _, err := NewRemote("://not a url", RemoteOptions{}); err == nil {
		t.Fatal("invalid address not rejected")
	}

	// a version-skewed peer (past the whole [v1, v2] acceptance range) must
	// be refused at dial time, not fail every batch open at runtime
	skew := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(ModelzInfo{WireVersion: wireVersionSock + 1, Engine: "fp32", InputRes: res})
	}))
	defer skew.Close()
	if _, err := NewRemote(skew.URL, RemoteOptions{}); err == nil {
		t.Fatal("wire-version skew not rejected")
	}

	// a wire-v2 peer is inside the range: a v1-only proxy preference and the
	// auto negotiation must both interoperate with it over HTTP when it
	// advertises no socket listener
	v2http := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(ModelzInfo{WireVersion: wireVersionSock, Engine: "fp32", InputRes: res})
	}))
	defer v2http.Close()
	rb, err := NewRemote(v2http.URL, RemoteOptions{})
	if err != nil {
		t.Fatalf("v2 peer without socket listener rejected: %v", err)
	}
	if rb.tr.Kind() != "http" {
		t.Fatalf("negotiated %s transport for a peer with no wire addr, want http", rb.tr.Kind())
	}

	// requesting the socket wire from a peer that cannot serve it is a
	// deployment error, refused at dial time
	if _, err := NewRemote(v2http.URL, RemoteOptions{Transport: "socket"}); err == nil {
		t.Fatal("socket transport against socketless peer not rejected")
	}
}

// TestRemoteRetriesAndFailsOpen: a transient peer error is absorbed by the
// retry budget; a peer that stays down fails the chunk open (score 0,
// Errors counted) instead of blocking or panicking.
func TestRemoteRetriesAndFailsOpen(t *testing.T) {
	net, res := testNet(t, 16)
	local := NewFP32(net, res)
	defer local.Close()

	var fails atomic.Int64
	mux := http.NewServeMux()
	mux.Handle("GET /modelz", ModelzHandler(nil, local, 0.5))
	batch := BatchHandler(nil, local)
	mux.HandleFunc("POST /classify/batch", func(w http.ResponseWriter, r *http.Request) {
		if fails.Add(-1) >= 0 {
			http.Error(w, "flake", http.StatusServiceUnavailable)
			return
		}
		batch(w, r)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	rb, err := NewRemote(ts.URL, RemoteOptions{Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	frames := synth.SampleFrames(7, 2)
	want := make([]float64, len(frames))
	local.InferBatchInto(frames, want)

	// one 503, then the retry succeeds
	fails.Store(1)
	got := make([]float64, len(frames))
	rb.InferBatchInto(frames, got)
	if got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("retry did not recover: %v, want %v", got, want)
	}
	if st := rb.Stats(); st.Errors != 0 {
		t.Fatalf("transient flake counted as failure: %+v", st)
	}

	// peer stays down: every attempt fails, the chunk fails open
	fails.Store(1 << 30)
	got[0], got[1] = 0.9, 0.9
	rb.InferBatchInto(frames, got)
	if got[0] != 0 || got[1] != 0 {
		t.Fatalf("failed chunk must score 0 (fail open), got %v", got)
	}
	if st := rb.Stats(); st.Errors != 1 {
		t.Fatalf("fail-open not counted: %+v", st)
	}
}

// TestHTTPChunkBodyNotReusedWhileInFlight: a peer that answers 503 without
// reading the request leaves net/http's write loop still copying the chunk's
// body when the attempt returns; the chunk and its buffer are pooled, so the
// next dispatch must not encode into that array. The race detector is the
// oracle (`make race`).
func TestHTTPChunkBodyNotReusedWhileInFlight(t *testing.T) {
	net, res := testNet(t, 16)
	local := NewFP32(net, res)
	defer local.Close()
	mux := http.NewServeMux()
	mux.Handle("GET /modelz", ModelzHandler(nil, local, 0.5))
	mux.HandleFunc("POST /classify/batch", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "busy", http.StatusServiceUnavailable) // body left unread
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	rb, err := NewRemote(ts.URL, RemoteOptions{Transport: "http"})
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	// past any socket buffer, so the write is still going when the 503 lands
	frames := []*imaging.Bitmap{imaging.NewBitmap(1024, 1024)}
	out := make([]float64, 1)
	const rounds = 20
	for i := 0; i < rounds; i++ {
		frames[0].Pix[0] = byte(i)
		rb.InferBatchInto(frames, out)
	}
	if st := rb.Stats(); st.Errors != rounds {
		t.Fatalf("stats %+v, want %d fail-open chunks", st, rounds)
	}
}

// TestRemoteDoesNotRetryRejections: a 4xx means the peer rejected this
// exact request — re-sending the same body cannot succeed, so the retry
// budget must not be spent on it.
func TestRemoteDoesNotRetryRejections(t *testing.T) {
	net, res := testNet(t, 16)
	local := NewFP32(net, res)
	defer local.Close()

	var attempts atomic.Int64
	mux := http.NewServeMux()
	mux.Handle("GET /modelz", ModelzHandler(nil, local, 0.5))
	mux.HandleFunc("POST /classify/batch", func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		http.Error(w, "rejected", http.StatusBadRequest)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	rb, err := NewRemote(ts.URL, RemoteOptions{Retries: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	out := make([]float64, 1)
	rb.InferBatchInto(synth.SampleFrames(7, 1), out)
	if out[0] != 0 {
		t.Fatalf("rejected chunk must fail open, scored %v", out[0])
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("peer saw %d attempts of a non-retryable rejection, want 1", got)
	}
	if st := rb.Stats(); st.Errors != 1 {
		t.Fatalf("rejection not counted as fail-open: %+v", st)
	}
}

// TestBatchHandlerModelSelection: ?model= must resolve through
// Registry.Select on both wire endpoints, with the lenient
// fallback-to-default for unknown names.
func TestBatchHandlerModelSelection(t *testing.T) {
	net, res := testNet(t, 16)
	a, b := NewFP32(net, res), NewFP32(net, res)
	defer a.Close()
	defer b.Close()
	reg := NewRegistry()
	if err := reg.Register("fp32", a); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("fp32@2", b); err != nil {
		t.Fatal(err)
	}
	ts := newPeer(t, reg, a)

	rb, err := NewRemote(ts.URL, RemoteOptions{Model: "fp32@2"})
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	frames := synth.SampleFrames(7, 3)
	out := make([]float64, len(frames))
	rb.InferBatchInto(frames, out)
	if got := b.Stats().Frames; got != int64(len(frames)) {
		t.Fatalf("named model served %d frames, want %d", got, int64(len(frames)))
	}
	if a.Stats().Frames != 0 {
		t.Fatalf("default backend served %d frames for a named request", a.Stats().Frames)
	}

	// unknown model name falls back to the registry default
	rb2, err := NewRemote(ts.URL, RemoteOptions{Model: "no-such-model"})
	if err != nil {
		t.Fatal(err)
	}
	defer rb2.Close()
	rb2.InferBatchInto(frames[:1], out[:1])
	if a.Stats().Frames != 1 {
		t.Fatalf("unknown model did not fall back to default (default served %d)", a.Stats().Frames)
	}
}

// TestRemoteConcurrentDispatch exercises the shared buffer pool and
// counters from concurrent submitters (meaningful under -race, which
// `make race` runs over this package).
func TestRemoteConcurrentDispatch(t *testing.T) {
	net, res := testNet(t, 16)
	local := NewFP32(net, res)
	defer local.Close()
	ts := newPeer(t, nil, local)
	rb, err := NewRemote(ts.URL, RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()

	frames := synth.SampleFrames(7, 4)
	want := make([]float64, len(frames))
	local.InferBatchInto(frames, want)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]float64, len(frames))
			for i := 0; i < 8; i++ {
				rb.InferBatchInto(frames, out)
				for j := range out {
					if out[j] != want[j] {
						t.Errorf("concurrent dispatch: frame %d scored %v, want %v", j, out[j], want[j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if st := rb.Stats(); st.Frames != 4*8*int64(len(frames)) || st.Errors != 0 {
		t.Fatalf("stats %+v", st)
	}
}
