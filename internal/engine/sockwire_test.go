package engine

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"percival/internal/faultinject"
	"percival/internal/imaging"
	"percival/internal/synth"
)

// read decodes one whole response message (the client side of the fuzzed
// surface): the header, then readBody. The connection's reader splits the
// two, so only the tests decode a response whole.
func (r *sockResp) read(br *bufio.Reader) error {
	id, flags, count, err := readSockHeader(br, scoreMagic, "response")
	if err != nil {
		return err
	}
	r.id = id
	return r.readBody(br, flags, count)
}

// newWirePeer stands up a peer the way percival-serve -wire-listen mounts
// one: a wire listener scoring with def (probes answered from cache, which
// may be nil) advertised through the /modelz handshake.
func newWirePeer(t testing.TB, def Backend, cache VerdictCache) (*httptest.Server, *WireServer) {
	return newInjectedPeer(t, def, cache, nil)
}

// newInjectedPeer is newWirePeer behind inj — Listener on the wire,
// Middleware on /modelz — so a blackholed peer fails its redial probes too.
// A nil inj injects nothing.
func newInjectedPeer(t testing.TB, def Backend, cache VerdictCache, inj *faultinject.Injector) (*httptest.Server, *WireServer) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWireServer(WireServerOptions{Backend: def, Cache: cache})
	mux := http.NewServeMux()
	mux.Handle("GET /modelz", ModelzHandlerID(nil, def, 0.5, ln.Addr().String(), ""))
	var h http.Handler = mux
	var wln net.Listener = ln
	if inj != nil {
		h, wln = faultinject.Middleware(inj, mux), faultinject.Listener(inj, ln)
	}
	go ws.Serve(wln)
	t.Cleanup(ws.Close)
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts, ws
}

// TestSockWireBitIdentical is the transport's acceptance anchor: verdicts
// over the persistent socket — cold and dedup-warm — must be bit-identical
// to in-process scoring, and the warm pass must travel probe bytes, not
// pixel bytes.
func TestSockWireBitIdentical(t *testing.T) {
	net_, res := testNet(t, 16)
	local := NewFP32(net_, res)
	defer local.Close()
	ts, ws := newWirePeer(t, local, NewVerdictMap(0))

	rb, err := NewRemote(ts.URL, RemoteOptions{ExpectRes: res, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()

	frames := synth.SampleFrames(7, 2*BatchChunk+3)
	want := make([]float64, len(frames))
	local.InferBatchInto(frames, want)

	got := make([]float64, len(frames))
	rb.InferBatchInto(frames, got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cold frame %d: socket %v, local %v", i, got[i], want[i])
		}
	}
	cold := rb.TransportStats()
	if cold.FramesPixels != int64(len(frames)) {
		t.Fatalf("cold pass sent %d pixel frames, want %d", cold.FramesPixels, len(frames))
	}

	// warm pass: the peer's verdict cache knows every frame, so the probes
	// answer everything and no pixels travel
	for i := range got {
		got[i] = -1
	}
	rb.InferBatchInto(frames, got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("warm frame %d: socket %v, local %v", i, got[i], want[i])
		}
	}
	warm := rb.TransportStats()
	if warm.FramesPixels != cold.FramesPixels {
		t.Fatalf("warm pass re-sent pixels (%d -> %d)", cold.FramesPixels, warm.FramesPixels)
	}
	if warm.FramesDedup != int64(len(frames)) {
		t.Fatalf("warm pass deduped %d frames, want %d", warm.FramesDedup, len(frames))
	}
	warmBytes := warm.BytesOut - cold.BytesOut
	if warmBytes <= 0 || warmBytes*10 > cold.BytesOut {
		t.Fatalf("warm pass cost %d bytes vs cold %d, want >=10x cut", warmBytes, cold.BytesOut)
	}
	// wire v3: a probe is one header per chunk plus the 32-byte key alone
	chunks := int64((len(frames) + BatchChunk - 1) / BatchChunk)
	if want := chunks*sockHeaderLen + int64(len(frames))*wireKeyLen; warmBytes != want {
		t.Fatalf("warm pass sent %d bytes, want %d (%d probe headers + %d keys)", warmBytes, want, chunks, len(frames))
	}
	if st := ws.Stats(); st.ProbeHits == 0 || st.FramesScored != int64(len(frames)) {
		t.Fatalf("wire server stats %+v", st)
	}
	if st := rb.Stats(); st.Errors != 0 {
		t.Fatalf("socket wire failed open: %+v", st)
	}
}

// TestSockWireRedialsAfterClose: Close drops the hot connection but is not
// terminal — sibling replicas share the transport, so the next dispatch
// must redial instead of failing.
func TestSockWireRedialsAfterClose(t *testing.T) {
	net_, res := testNet(t, 16)
	local := NewFP32(net_, res)
	defer local.Close()
	ts, _ := newWirePeer(t, local, nil)

	rb, err := NewRemote(ts.URL, RemoteOptions{ExpectRes: res, Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	frames := synth.SampleFrames(13, 3)
	want := make([]float64, len(frames))
	local.InferBatchInto(frames, want)
	got := make([]float64, len(frames))

	rep := rb.Replicate().(*RemoteBackend)
	rb.InferBatchInto(frames, got)
	dials := rb.TransportStats().Dials
	rb.Close() // replica rep still holds the transport
	rep.InferBatchInto(frames, got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-Close frame %d: %v, want %v", i, got[i], want[i])
		}
	}
	if st := rep.Stats(); st.Errors != 0 {
		t.Fatalf("replica failed open after sibling Close: %+v", st)
	}
	if d := rb.TransportStats().Dials; d != dials+1 {
		t.Fatalf("dials %d -> %d, want one redial", dials, d)
	}
}

// gatedCache holds every probe lookup until release is closed, closing
// arrived at the first.
type gatedCache struct {
	VerdictCache
	arrived, release chan struct{}
	once             sync.Once
}

func (c *gatedCache) LookupVerdict(key [32]byte) (float64, bool) {
	c.once.Do(func() { close(c.arrived) })
	<-c.release
	return c.VerdictCache.LookupVerdict(key)
}

// TestSockWireCloseLetsInFlightFinish: Close retires the hot connection
// rather than failing what is on it — a round trip already waiting there
// (a chunk that raced a fleet's drain of the peer) gets its answer, and the
// next round trip dials a fresh connection.
func TestSockWireCloseLetsInFlightFinish(t *testing.T) {
	net_, res := testNet(t, 16)
	local := NewFP32(net_, res)
	defer local.Close()
	cache := &gatedCache{VerdictCache: NewVerdictMap(0), arrived: make(chan struct{}), release: make(chan struct{})}
	ts, _ := newWirePeer(t, local, cache)
	rb, err := NewRemote(ts.URL, RemoteOptions{ExpectRes: res, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	frames := synth.SampleFrames(29, 2)
	want := make([]float64, len(frames))
	local.InferBatchInto(frames, want)

	got := make([]float64, len(frames))
	done := make(chan struct{})
	go func() {
		defer close(done)
		rb.InferBatchInto(frames, got)
	}()
	<-cache.arrived // the probe is in flight on the hot connection
	rb.Close()
	close(cache.release)
	<-done
	assertBitEqual(t, "in flight across Close", got, want)
	if st := rb.Stats(); st.Errors != 0 {
		t.Fatalf("Close failed an in-flight round trip open: %+v", st)
	}
	if d := rb.TransportStats().Dials; d != 2 {
		t.Fatalf("%d dials, want 2: the pixels after Close ride a fresh connection", d)
	}
}

// TestSockWireConcurrent: the multiplexed connection must carry many
// concurrent chunks (out-of-order responses, shared pending table) with
// every verdict bit-identical. Run under -race this is the transport's
// synchronization gate.
func TestSockWireConcurrent(t *testing.T) {
	net_, res := testNet(t, 16)
	local := NewFP32(net_, res)
	defer local.Close()
	ts, _ := newWirePeer(t, local, NewVerdictMap(0))

	rb, err := NewRemote(ts.URL, RemoteOptions{ExpectRes: res, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()

	frames := synth.SampleFrames(17, 24)
	want := make([]float64, len(frames))
	local.InferBatchInto(frames, want)

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rep := rb.Replicate()
			got := make([]float64, len(frames))
			for iter := 0; iter < 5; iter++ {
				rep.InferBatchInto(frames, got)
				for i := range want {
					if got[i] != want[i] {
						errs <- fmt.Errorf("worker %d iter %d frame %d: %v, want %v", w, iter, i, got[i], want[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if st := rb.Stats(); st.Errors != 0 {
		t.Fatalf("concurrent socket dispatch failed open: %+v", st)
	}
}

// TestSockWireFailsOpenWhenDown: a wire peer whose socket listener dies
// mid-life must not wedge the proxy — chunks fail open within the retry
// budget like any dead peer, though its /modelz still answers.
func TestSockWireFailsOpenWhenDown(t *testing.T) {
	net_, res := testNet(t, 16)
	local := NewFP32(net_, res)
	defer local.Close()
	ts, ws := newWirePeer(t, local, nil)

	rb, err := NewRemote(ts.URL, RemoteOptions{
		ExpectRes: res, Timeout: 300 * time.Millisecond, Retries: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	frames := synth.SampleFrames(19, 2)
	got := make([]float64, len(frames))
	rb.InferBatchInto(frames, got) // healthy pass establishes the conn
	ws.Close()                     // socket listener dies; /modelz stays up
	rb.InferBatchInto(frames, got)
	for i, v := range got {
		if v != 0 {
			t.Fatalf("frame %d scored %v after wire death, want fail-open 0", i, v)
		}
	}
	if st := rb.Stats(); st.Errors == 0 {
		t.Fatal("wire death did not count a fail-open error")
	}
}

// TestWireServerRejectsGarbage: a stream that breaks framing must close —
// a byte stream that lost sync cannot recover — and must do so without
// wedging or crashing the listener.
func TestWireServerRejectsGarbage(t *testing.T) {
	net_, res := testNet(t, 16)
	local := NewFP32(net_, res)
	defer local.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWireServer(WireServerOptions{Backend: local})
	go ws.Serve(ln)
	defer ws.Close()

	for _, msg := range [][]byte{
		[]byte("not a wire message, nowhere near one......."),
		// right magic, wrong version
		func() []byte {
			var b [sockHeaderLen]byte
			putSockHeader(b[:], batchMagic, 1, 0, 1)
			binary.LittleEndian.PutUint16(b[4:6], 9)
			return b[:]
		}(),
		// probe with an impossible count
		func() []byte {
			var b [sockHeaderLen]byte
			putSockHeader(b[:], batchMagic, 1, sockFlagProbe, maxWireFrames+1)
			return b[:]
		}(),
		// pixel frame with overflowing dims (the batch-codec regression, on the wire)
		func() []byte {
			var b [sockHeaderLen + wireKeyLen + 8]byte
			putSockHeader(b[:], batchMagic, 1, 0, 1)
			binary.LittleEndian.PutUint32(b[sockHeaderLen+wireKeyLen:], 1<<15)
			binary.LittleEndian.PutUint32(b[sockHeaderLen+wireKeyLen+4:], 1<<15)
			return b[:]
		}(),
	} {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(msg); err != nil {
			t.Fatalf("write %q: %v", msg[:4], err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("garbage %x: conn read %v, want EOF (server must drop the conn)", msg[:8], err)
		}
		conn.Close()
	}
}

// TestSockRequestRoundTrip: the request/response codecs must reproduce
// probes, keyed pixel batches and masked responses bit-for-bit, and a v3
// probe is the header plus 32 bytes of key per entry, byte for byte.
func TestSockRequestRoundTrip(t *testing.T) {
	frames := synth.SampleFrames(23, 3)
	keys := make([][32]byte, len(frames))
	for i, f := range frames {
		keys[i] = imaging.ContentKey(f)
	}

	// probe, framed by the client's own writer
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	msg := sockMsg{keys: keys}
	msg.write(bw, 42, nil)
	bw.Flush()
	golden := []byte{'P', 'C', 'V', 'B', 3, 0, 42, 0, 0, 0, sockFlagProbe, 0, 0, 0, byte(len(keys)), 0, 0, 0}
	for i := range keys {
		golden = append(golden, keys[i][:]...)
	}
	if !bytes.Equal(buf.Bytes(), golden) || int64(buf.Len()) != msg.size() {
		t.Fatalf("v3 probe is %d bytes (size() %d), want the %d-byte header + %d x 32-byte keys:\n% x",
			buf.Len(), msg.size(), sockHeaderLen, len(keys), buf.Bytes())
	}
	req := &sockReq{}
	if err := req.read(bufio.NewReader(&buf)); err != nil {
		t.Fatal(err)
	}
	if !req.probe || req.id != 42 || len(req.keys) != len(keys) {
		t.Fatalf("probe decoded %+v", req)
	}
	for i := range keys {
		if req.keys[i] != keys[i] {
			t.Fatalf("probe entry %d mismatch", i)
		}
	}
	var hdr [sockHeaderLen]byte

	// keyed pixels
	buf.Reset()
	putSockHeader(hdr[:], batchMagic, 43, 0, uint32(len(frames)))
	buf.Write(hdr[:])
	var dims [8]byte
	for i, f := range frames {
		buf.Write(keys[i][:])
		binary.LittleEndian.PutUint32(dims[0:4], uint32(f.W))
		binary.LittleEndian.PutUint32(dims[4:8], uint32(f.H))
		buf.Write(dims[:])
		buf.Write(f.Pix)
	}
	// decoded into the same sockReq, as a connection's reader does: nothing
	// of the probe may leak into the pixel request
	if err := req.read(bufio.NewReader(&buf)); err != nil {
		t.Fatal(err)
	}
	if req.probe || req.id != 43 || len(req.frames) != len(frames) {
		t.Fatalf("pixel request decoded %+v", req)
	}
	for i, f := range frames {
		if req.keys[i] != keys[i] || req.frames[i].W != f.W || !bytes.Equal(req.frames[i].Pix, f.Pix) {
			t.Fatalf("pixel frame %d mismatch", i)
		}
	}

	// masked response with bits set past count must be rejected
	buf.Reset()
	putSockHeader(hdr[:], scoreMagic, 44, sockFlagMask, 3)
	buf.Write(hdr[:])
	buf.WriteByte(0xFF) // 8 bits set for 3 entries
	var resp sockResp
	if err := resp.read(bufio.NewReader(&buf)); err == nil {
		t.Fatalf("overfull mask accepted: %+v", resp)
	}
}

// TestResolveWireAddr: wildcard and empty listener hosts resolve against
// the handshake host; concrete hosts pass through.
func TestResolveWireAddr(t *testing.T) {
	for _, tc := range []struct{ httpHost, wire, want string }{
		{"10.0.0.7:8093", ":8094", "10.0.0.7:8094"},
		{"10.0.0.7:8093", "0.0.0.0:8094", "10.0.0.7:8094"},
		{"10.0.0.7:8093", "[::]:8094", "10.0.0.7:8094"},
		{"10.0.0.7:8093", "10.0.0.8:8094", "10.0.0.8:8094"},
		{"example.test:8093", ":9", "example.test:9"},
	} {
		if got := resolveWireAddr(tc.httpHost, tc.wire); got != tc.want {
			t.Errorf("resolveWireAddr(%q, %q) = %q, want %q", tc.httpHost, tc.wire, got, tc.want)
		}
	}
}

// TestWarmProbeChunkAllocBudget pins the garbage one warm chunk costs end
// to end: fleet dispatch (hedge-armed, two peers) -> in-flight cap ->
// socket round trip -> the peer's probe answer from its verdict cache ->
// response decode. It stood at ~2.3 KB a chunk while the serve batcher put a
// 2 ms timer in front of every chunk; with the timer gone the chunk rate
// tripled and the garbage with it, so the path now recycles what it can
// (arms, waiters, timers, per-connection scratch). The budget is a ceiling
// with headroom, not the measured figure.
func TestWarmProbeChunkAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	net_, res := testNet(t, 16)
	local := NewFP32(net_, res)
	defer local.Close()
	remotes := make([]*RemoteBackend, 2)
	for i := range remotes {
		ts, _ := newWirePeer(t, local.Replicate(), NewVerdictMap(0))
		rb, err := NewRemote(ts.URL, RemoteOptions{ExpectRes: res})
		if err != nil {
			t.Fatal(err)
		}
		remotes[i] = rb
	}
	fleet, err := NewFleet(remotes, FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	lanes := []Backend{fleet.Replicate(), fleet.Replicate()}
	frames := synth.SampleFrames(5, 8)
	out := make([]float64, 1)
	one := make([]*imaging.Bitmap, 1)
	dispatch := func(rounds int) {
		for r := 0; r < rounds; r++ {
			for i, f := range frames {
				one[0] = f
				lanes[i%2].InferBatchInto(one, out)
			}
		}
	}
	// every frame through both lanes first, so both peers hold every verdict:
	// on a busy multi-P box a hedge fires now and then, and it must land on a
	// probe hit like the primary, not ship a frame's pixels to the other peer
	for _, f := range frames {
		one[0] = f
		lanes[0].InferBatchInto(one, out)
		lanes[1].InferBatchInto(one, out)
	}
	dispatch(8) // warms pools, hedge trigger and RTO
	if h := fleet.hedgeDelay((*fleet.peers.Load())[0]); h == 0 {
		t.Fatal("hedge trigger unarmed after the warm-up: the budget would not cover the hedge timer")
	}
	const rounds = 64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	dispatch(rounds)
	runtime.ReadMemStats(&m1)
	perChunk := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(rounds*len(frames))
	t.Logf("%.0f B and %.1f mallocs per warm chunk", perChunk, float64(m1.Mallocs-m0.Mallocs)/float64(rounds*len(frames)))
	if perChunk > 1000 {
		t.Fatalf("a warm probe chunk allocates %.0f B, budget 1000", perChunk)
	}
	if st := fleet.Stats(); st.Errors != 0 || fleet.Fallbacks() != 0 {
		t.Fatalf("warm path failed over: %+v, %d fallbacks", st, fleet.Fallbacks())
	}
}

// TestIsStreamEnd: a connection's reader stays quiet about the ways a peer
// hangs up — bare, wrapped by the decoders' fmt.Errorf("%w"), or inside the
// *net.OpError a closed socket reports — and logs anything else.
func TestIsStreamEnd(t *testing.T) {
	opErr := func(err error) error { return &net.OpError{Op: "read", Net: "tcp", Err: err} }
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{io.EOF, true},
		{io.ErrUnexpectedEOF, true},
		{net.ErrClosed, true},
		{fmt.Errorf("engine: wire request header: %w", io.EOF), true},
		{fmt.Errorf("engine: probe entry 2: %w", io.ErrUnexpectedEOF), true},
		{fmt.Errorf("engine: wire frame 0 pixels: %w", opErr(net.ErrClosed)), true},
		{opErr(io.EOF), true},
		{opErr(os.ErrDeadlineExceeded), false},
		{errors.New("engine: not a wire request (magic \"XXXX\")"), false},
		{nil, false},
	} {
		if got := isStreamEnd(tc.err); got != tc.want {
			t.Errorf("isStreamEnd(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}
