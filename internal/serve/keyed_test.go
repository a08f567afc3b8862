package serve

import (
	"math"
	"net"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"percival/internal/core"
	"percival/internal/engine"
	"percival/internal/imaging"
	"percival/internal/synth"
)

// keyedGated is the gated stub backend with the keyed entry: it keeps what
// each dispatch handed it, so a test can hold the lane, build the batch it
// wants, and then read the keys that came down with it. An unkeyed call
// lands in the record with no keys and fails the same comparison.
type keyedGated struct {
	*gatedBackend
	mu    sync.Mutex
	calls []keyedCall
}

type keyedCall struct {
	frames []*imaging.Bitmap
	keys   [][32]byte
}

func (b *keyedGated) Replicate() engine.Backend { return b }

func (b *keyedGated) InferBatchInto(frames []*imaging.Bitmap, out []float64) []float64 {
	return b.InferKeyedInto(frames, nil, out)
}

func (b *keyedGated) InferKeyedInto(frames []*imaging.Bitmap, keys [][32]byte, out []float64) []float64 {
	b.mu.Lock()
	b.calls = append(b.calls, keyedCall{
		frames: append([]*imaging.Bitmap(nil), frames...),
		keys:   append([][32]byte(nil), keys...),
	})
	b.mu.Unlock()
	return b.gatedBackend.InferBatchInto(frames, out)
}

// checkCalls fails unless the backend saw exactly the given batches, each
// with one key per frame and every key the frame's own ContentKey.
func (b *keyedGated) checkCalls(t *testing.T, want ...[]*imaging.Bitmap) {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.calls) != len(want) {
		t.Fatalf("%d dispatches, want %d", len(b.calls), len(want))
	}
	for c, call := range b.calls {
		if !sameFrames(call.frames, want[c]) {
			t.Fatalf("dispatch %d carried %d frames, want %d in submission order", c, len(call.frames), len(want[c]))
		}
		if len(call.keys) != len(call.frames) {
			t.Fatalf("dispatch %d: %d keys for %d frames", c, len(call.keys), len(call.frames))
		}
		for i, f := range call.frames {
			if call.keys[i] != imaging.ContentKey(f) {
				t.Fatalf("dispatch %d: keys[%d] is not frames[%d]'s content key", c, i, i)
			}
		}
	}
}

// awaitQueueDrained yields until the coalescer has taken everything queued
// into its open batch.
func awaitQueueDrained(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(s.shards[0].queue) > 0 {
		if time.Now().After(deadline) {
			t.Fatal("coalescer never drained the queue")
		}
		runtime.Gosched()
	}
}

// TestLaneHandsKeysDown: every batch a lane dispatches to a keyed backend
// carries keys[i] == ContentKey(frames[i]) — a lone SubmitAsync, a blocking
// Submit, and a batch filled behind a busy lane in which a coalesced
// duplicate contributes nothing (one key, one frame, two submitters).
func TestLaneHandsKeysDown(t *testing.T) {
	kb := &keyedGated{gatedBackend: newGatedBackend()}
	s := testServer(t, core.Options{}, Options{MaxBatch: 4, DisableCache: true, Backend: kb})
	frames := synth.SampleFrames(83, 5)

	first := s.SubmitAsync(frames[0])
	kb.nextCall(t) // the lane is busy with frames[0]
	futs := []*Future{
		s.SubmitAsync(frames[1]),
		s.SubmitAsync(frames[2]),
		s.SubmitAsync(frames[1].Clone()), // same pixels: a follower of frames[1]
		s.SubmitAsync(frames[3]),
	}
	awaitInflight(t, s, 4, 1)
	kb.release <- struct{}{}
	kb.nextCall(t)
	kb.release <- struct{}{}
	if r := first.Wait(); r.Status != StatusClassified {
		t.Fatalf("first frame resolved %+v", r)
	}
	wantFrame := []*imaging.Bitmap{frames[1], frames[2], frames[1], frames[3]}
	wantStatus := []Status{StatusClassified, StatusClassified, StatusCoalesced, StatusClassified}
	for i, fut := range futs {
		if r := fut.Wait(); r.Status != wantStatus[i] || r.Score != stubScore(wantFrame[i]) {
			t.Fatalf("submission %d resolved %+v, want %v %v", i, r, wantStatus[i], stubScore(wantFrame[i]))
		}
	}

	done := make(chan Result, 1)
	go func() { done <- s.Submit(frames[4]) }()
	kb.nextCall(t)
	kb.release <- struct{}{}
	if r := <-done; r.Status != StatusClassified || r.Score != stubScore(frames[4]) {
		t.Fatalf("blocking Submit resolved %+v", r)
	}

	kb.checkCalls(t, frames[0:1], frames[1:4], frames[4:5])
}

// TestThinnedBatchKeepsKeysInStep: when the shed deadline drops a request
// out of a batch at dispatch (live != batch), the keys are built from the
// survivors, not from batch positions.
func TestThinnedBatchKeepsKeysInStep(t *testing.T) {
	const deadline = 200 * time.Millisecond
	kb := &keyedGated{gatedBackend: newGatedBackend()}
	s := testServer(t, core.Options{}, Options{MaxBatch: 4, DisableCache: true, Deadline: deadline, Backend: kb})
	frames := synth.SampleFrames(89, 3)

	held := s.SubmitAsync(frames[0])
	kb.nextCall(t)
	stale := s.SubmitAsync(frames[1])
	awaitInflight(t, s, 2, 0)
	awaitQueueDrained(t, s)           // popped young: the coalescer admits it to the open batch
	time.Sleep(deadline + deadline/4) // the deadline reads the wall clock; let it pass for frames[1] only
	fresh := s.SubmitAsync(frames[2]) // joins the same open batch behind it
	awaitInflight(t, s, 3, 0)
	awaitQueueDrained(t, s)
	kb.release <- struct{}{}
	kb.nextCall(t)
	kb.release <- struct{}{}

	if r := held.Wait(); r.Status != StatusClassified {
		t.Fatalf("held frame resolved %+v", r)
	}
	if r := stale.Wait(); r.Status != StatusShed {
		t.Fatalf("frame past the deadline resolved %+v, want shed at dispatch", r)
	}
	if r := fresh.Wait(); r.Status != StatusClassified || r.Score != stubScore(frames[2]) {
		t.Fatalf("fresh frame resolved %+v (a stall longer than the %v deadline between its submit and dispatch would shed it too)", r, deadline)
	}
	kb.checkCalls(t, frames[0:1], frames[2:3])
}

// TestUnkeyedBackendGetsInferBatchInto: a backend without the keyed entry is
// driven exactly as before.
func TestUnkeyedBackendGetsInferBatchInto(t *testing.T) {
	gb := newGatedBackend()
	if _, keyed := engine.Backend(gb).(engine.KeyedBackend); keyed {
		t.Fatal("the plain gated stub grew a keyed entry; this test needs one without")
	}
	s := testServer(t, core.Options{}, Options{MaxBatch: 4, DisableCache: true, Backend: gb})
	f := synth.SampleFrames(97, 1)[0]
	fut := s.SubmitAsync(f)
	if call := gb.nextCall(t); !sameFrames(call, []*imaging.Bitmap{f}) {
		t.Fatalf("InferBatchInto saw %d frames, want the one submitted", len(call))
	}
	gb.release <- struct{}{}
	if r := fut.Wait(); r.Status != StatusClassified || r.Score != stubScore(f) {
		t.Fatalf("resolved %+v", r)
	}
}

// startWirePeer stands up a wire peer the way percival-serve
// -wire-listen mounts it — a replica of svc's engine behind the socket
// listener, probes answered from cache — and dials it over the socket. The
// caller owns the returned remote (a fleet built over it closes it).
func startWirePeer(t *testing.T, svc *core.Percival, cache engine.VerdictCache) (*engine.WireServer, *engine.RemoteBackend) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peerEngine := svc.Engine().Replicate()
	t.Cleanup(peerEngine.Close)
	ws := engine.NewWireServer(engine.WireServerOptions{Backend: peerEngine, Cache: cache})
	go ws.Serve(ln)
	t.Cleanup(ws.Close)
	ts := httptest.NewServer(engine.ModelzHandlerID(nil, peerEngine, svc.Threshold(), ln.Addr().String(), ""))
	t.Cleanup(ts.Close)
	rb, err := engine.NewRemote(ts.URL, engine.RemoteOptions{ExpectRes: svc.InputRes()})
	if err != nil {
		t.Fatal(err)
	}
	return ws, rb
}

// TestServeOverWireAnswersFromProbeAlone is the daemon's front tier end to
// end: serve -> CanaryBackend -> Fleet -> a real wire peer whose verdict
// cache already holds every frame under imaging.ContentKey. Every Submit is
// answered by the peer's probe alone — the key serve hashed at the door is
// the key the peer looks up — with the local engine's score bit for bit, and
// the peer's model never runs.
func TestServeOverWireAnswersFromProbeAlone(t *testing.T) {
	svc := testCore(t, core.Options{})
	frames := synth.SampleFrames(101, 12)
	want := make([]float64, len(frames))
	svc.Engine().InferBatchInto(frames, want)
	cache := engine.NewVerdictMap(0)
	for i, f := range frames {
		cache.StoreVerdict(imaging.ContentKey(f), want[i])
	}
	ws, rb := startWirePeer(t, svc, cache)
	fleet, err := engine.NewFleet([]*engine.RemoteBackend{rb}, engine.FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	s, err := New(svc, Options{
		MaxBatch: 4, Shards: 2, DisableCache: true,
		Backend: engine.NewCanaryBackend(engine.NewRegistry(), fleet),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var wg sync.WaitGroup
	got := make([]Result, len(frames))
	for i, f := range frames {
		wg.Add(1)
		go func(i int, f *imaging.Bitmap) {
			defer wg.Done()
			got[i] = s.Submit(f)
		}(i, f)
	}
	wg.Wait()
	for i, r := range got {
		if r.Status != StatusClassified || math.Float64bits(r.Score) != math.Float64bits(want[i]) {
			t.Fatalf("frame %d resolved %+v over the wire, %v locally", i, r, want[i])
		}
	}
	st := rb.TransportStats()
	if st.FramesDedup != int64(len(frames)) || st.FramesPixels != 0 {
		t.Fatalf("probe answered %d of %d frames, %d sent as pixels", st.FramesDedup, len(frames), st.FramesPixels)
	}
	if n := ws.Stats().FramesScored; n != 0 {
		t.Fatalf("the peer's model scored %d frames", n)
	}
	if fleet.Fallbacks() != 0 || fleet.Stats().Errors != 0 {
		t.Fatalf("dispatch failed over: %d fallbacks, %+v", fleet.Fallbacks(), fleet.Stats())
	}
}
