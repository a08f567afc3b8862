package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"percival/internal/faultinject"
	"percival/internal/imaging"
	"percival/internal/synth"
)

// encodeFrames appends the batch endpoint's request encoding of frames to
// buf — what a client of POST /classify/batch sends.
func encodeFrames(buf []byte, frames []*imaging.Bitmap) []byte {
	buf = append(buf, batchMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, wireVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(frames)))
	for _, f := range frames {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(f.W))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(f.H))
		buf = append(buf, f.Pix...)
	}
	return buf
}

// newBatchPeer serves POST /classify/batch over def (reg may be nil).
func newBatchPeer(t testing.TB, reg *Registry, def Backend) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle("POST /classify/batch", BatchHandler(reg, def))
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
	enc = encodeScores(nil, scores)
	if string(enc[:4]) != scoreMagic || binary.LittleEndian.Uint16(enc[4:6]) != wireVersion ||
		binary.LittleEndian.Uint32(enc[6:10]) != uint32(len(scores)) || len(enc) != wireHeaderLen+8*len(scores) {
		t.Fatalf("score header % x (%d bytes)", enc[:wireHeaderLen], len(enc))
	}
	for i := range scores {
		if got := math.Float64frombits(binary.LittleEndian.Uint64(enc[wireHeaderLen+8*i:])); got != scores[i] {
			t.Fatalf("score %d: %v, want %v", i, got, scores[i])
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
	ts := newBatchPeer(t, nil, local)

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

// TestRemoteMatchesLocalBackend is the remote backend's correctness anchor:
// a frame proxied over the wire must score exactly what the peer's backend
// scores locally — same pre-processing, same forward pass, bit-identical
// float64 on the wire.
func TestRemoteMatchesLocalBackend(t *testing.T) {
	net, res := testNet(t, 16)
	local := NewFP32(net, res)
	defer local.Close()
	ts, _ := newWirePeer(t, local, nil)

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

// TestRemoteHandshake: construction must reject unreachable peers,
// resolution mismatches and version skew — deployment errors, not fail-open
// conditions.
func TestRemoteHandshake(t *testing.T) {
	net, res := testNet(t, 16)
	local := NewFP32(net, res)
	defer local.Close()
	ts, _ := newWirePeer(t, local, nil)

	if _, err := NewRemote(ts.URL, RemoteOptions{ExpectRes: res + 8}); err == nil {
		t.Fatal("resolution mismatch not rejected")
	}
	if _, err := NewRemote("http://127.0.0.1:1", RemoteOptions{Timeout: 200 * time.Millisecond}); err == nil {
		t.Fatal("unreachable peer not rejected")
	}
	if _, err := NewRemote("://not a url", RemoteOptions{}); err == nil {
		t.Fatal("invalid address not rejected")
	}
	// a peer on a newer wire than this front's must be refused at dial
	// time, not fail every batch open at runtime
	skew := handshakePeer(t, ModelzInfo{WireVersion: wireVersionSock + 1, WireAddr: "127.0.0.1:9", Engine: "fp32", InputRes: res})
	if _, err := NewRemote(skew.URL, RemoteOptions{}); err == nil || !strings.Contains(err.Error(), "upgrade the front") {
		t.Fatalf("wire-version skew: %v, want a refusal that says to upgrade the front", err)
	}
}

// handshakePeer answers GET /modelz with info and nothing else.
func handshakePeer(t *testing.T, info ModelzInfo) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(info)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestDialRefusesPeerWithoutWireV3: the socket is the only dispatch wire,
// so a peer a front cannot reach over wire v3 is refused at dial time with
// a message that names the peer and says what to do.
func TestDialRefusesPeerWithoutWireV3(t *testing.T) {
	net, res := testNet(t, 16)
	local := NewFP32(net, res)
	defer local.Close()
	v2 := handshakePeer(t, ModelzInfo{WireVersion: 2, WireAddr: "127.0.0.1:9", Engine: "fp32", InputRes: res})
	noListener := handshakePeer(t, ModelzInfo{WireVersion: wireVersionSock, Engine: "fp32", InputRes: res})
	good, _ := newWirePeer(t, local, nil)
	host := func(ts *httptest.Server) string { return strings.TrimPrefix(ts.URL, "http://") }

	for _, tc := range []struct {
		what string
		peer *httptest.Server
		opts RemoteOptions
		fix  string
	}{
		{"v2 peer", v2, RemoteOptions{}, "speaks wire v2; upgrade it"},
		{"v3 peer without a listener", noListener, RemoteOptions{}, "advertises no wire listener; restart it with -wire-listen"},
		{"http transport", good, RemoteOptions{Transport: "http"}, "leave Transport empty"},
	} {
		_, err := NewRemote(tc.peer.URL, tc.opts)
		if err == nil {
			t.Errorf("%s: dial succeeded", tc.what)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, host(tc.peer)) || !strings.Contains(msg, tc.fix) {
			t.Errorf("%s: refusal %q, want it to name %s and say %q", tc.what, msg, host(tc.peer), tc.fix)
		}
	}
	// the deprecated spelling of the only transport still dials
	rb, err := NewRemote(good.URL, RemoteOptions{Transport: "socket"})
	if err != nil {
		t.Fatalf(`Transport "socket" refused: %v`, err)
	}
	rb.Close()
}

// flakeOnce is a peer's verdict store that clears the injected fault at
// the first probe lookup after its first n: with n the chunk's frame
// count, the first probe's answer is written into the fault and every
// later one is not — exactly one failed attempt, however the goroutines
// interleave.
type flakeOnce struct {
	VerdictCache
	inj *faultinject.Injector
	n   atomic.Int64
}

func (c *flakeOnce) LookupVerdict(key [32]byte) (float64, bool) {
	if c.n.Add(-1) == -1 {
		c.inj.Set(faultinject.Fault{})
	}
	return c.VerdictCache.LookupVerdict(key)
}

// TestRemoteRetriesAndFailsOpen: a transient peer error is absorbed by the
// retry budget; a peer that stays down fails the chunk open (score 0,
// Errors counted) instead of blocking or panicking.
func TestRemoteRetriesAndFailsOpen(t *testing.T) {
	net, res := testNet(t, 16)
	local := NewFP32(net, res)
	defer local.Close()
	inj := faultinject.NewInjector(1)
	cache := &flakeOnce{VerdictCache: NewVerdictMap(0), inj: inj}
	ts, _ := newInjectedPeer(t, local, cache, inj)

	rb, err := NewRemote(ts.URL, RemoteOptions{Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	frames := synth.SampleFrames(7, 2)
	want := make([]float64, len(frames))
	local.InferBatchInto(frames, want)

	// the peer drops the connection in place of its first answer, then the
	// retry redials and succeeds
	cache.n.Store(int64(len(frames)))
	inj.Set(faultinject.Fault{ErrorRate: 1})
	got := make([]float64, len(frames))
	rb.InferBatchInto(frames, got)
	if got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("retry did not recover: %v, want %v", got, want)
	}
	if st := rb.Stats(); st.Errors != 0 {
		t.Fatalf("transient flake counted as failure: %+v", st)
	}
	if st := rb.TransportStats(); st.Chunks != 2 || st.Dials != 2 {
		t.Fatalf("transport %+v, want 2 attempts over 2 dials (one retry)", st)
	}

	// peer stays down: every attempt fails, the chunk fails open
	inj.Set(faultinject.Fault{ErrorRate: 1})
	got[0], got[1] = 0.9, 0.9
	rb.InferBatchInto(frames, got)
	if got[0] != 0 || got[1] != 0 {
		t.Fatalf("failed chunk must score 0 (fail open), got %v", got)
	}
	if st := rb.Stats(); st.Errors != 1 {
		t.Fatalf("fail-open not counted: %+v", st)
	}
}

// TestBatchHandlerModelSelection: ?model= on the batch endpoint must resolve
// through Registry.Select, with the lenient fallback-to-default for unknown
// names.
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
	ts := newBatchPeer(t, reg, a)
	post := func(model string, frames []*imaging.Bitmap) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/classify/batch?model="+model, "application/octet-stream",
			bytes.NewReader(encodeFrames(nil, frames)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("?model=%s: %s", model, resp.Status)
		}
	}

	frames := synth.SampleFrames(7, 3)
	post("fp32@2", frames)
	if got := b.Stats().Frames; got != int64(len(frames)) {
		t.Fatalf("named model served %d frames, want %d", got, int64(len(frames)))
	}
	if a.Stats().Frames != 0 {
		t.Fatalf("default backend served %d frames for a named request", a.Stats().Frames)
	}

	// unknown model name falls back to the registry default
	post("no-such-model", frames[:1])
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
	ts, _ := newWirePeer(t, local, NewVerdictMap(0))
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
