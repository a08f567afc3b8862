package serve

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"percival/internal/core"
	"percival/internal/engine"
	"percival/internal/imaging"
	"percival/internal/synth"
)

// gateBound turns a hang in the gated tests into a failure: a forward pass
// held, or a verdict awaited, this long is a test that has already gone
// wrong. No passing run waits on it.
const gateBound = 10 * time.Second

// gatedBackend is an engine.Backend whose forward passes park until the test
// lets them go: every InferBatchInto announces its frames on entered and then
// blocks on release, so a test decides exactly which batches are in the
// backend while it submits more work. Nothing here sleeps — the batcher
// tests hold by construction, not because a model happens to be slow.
// Replicas share the gates (Replicate returns the receiver).
//
// A pass still held after gateBound fails the test and opens the gate for
// good: it and every later pass score at once, so a test that stops before
// releasing its passes fails instead of hanging in a blocked Submit or in
// the server's Close, which waits for the lane.
type gatedBackend struct {
	t        *testing.T
	entered  chan []*imaging.Bitmap
	release  chan struct{}
	calls    atomic.Int64
	open     chan struct{} // closed by the first pass held past gateBound
	openOnce sync.Once
}

func newGatedBackend(t *testing.T) *gatedBackend {
	// 64 is past any test's number of forward passes: announcing a call never
	// blocks the lane, and a test may bank releases ahead of the calls
	return &gatedBackend{
		t:       t,
		entered: make(chan []*imaging.Bitmap, 64),
		release: make(chan struct{}, 64),
		open:    make(chan struct{}),
	}
}

func (b *gatedBackend) Name() string              { return "gated-test" }
func (b *gatedBackend) InputRes() int             { return 16 }
func (b *gatedBackend) Replicate() engine.Backend { return b }
func (b *gatedBackend) Warm(int)                  {}
func (b *gatedBackend) Close()                    {}
func (b *gatedBackend) Stats() engine.Stats       { return engine.Stats{} }

func (b *gatedBackend) InferBatchInto(frames []*imaging.Bitmap, out []float64) []float64 {
	call := b.calls.Add(1)
	b.entered <- append([]*imaging.Bitmap(nil), frames...)
	timer := time.NewTimer(gateBound)
	defer timer.Stop()
	select {
	case <-b.release:
	case <-b.open:
	case <-timer.C:
		b.t.Errorf("forward pass %d (%d frames) held %v and never released", call, len(frames), gateBound)
		b.openOnce.Do(func() { close(b.open) })
	}
	out = out[:len(frames)]
	for i, f := range frames {
		out[i] = stubScore(f)
	}
	return out
}

// stubScore is the gated backend's verdict: a pure function of the frame's
// content, so a test can demand it back bit for bit.
func stubScore(f *imaging.Bitmap) float64 {
	k := imaging.ContentKey(f)
	return float64(binary.LittleEndian.Uint32(k[:4])) / (1 << 32)
}

// nextCall waits for the next forward pass to reach the backend. The timeout
// only turns a hang into a failure; no passing run waits on it.
func (b *gatedBackend) nextCall(t *testing.T) []*imaging.Bitmap {
	t.Helper()
	select {
	case call := <-b.entered:
		return call
	case <-time.After(gateBound):
		t.Fatal("no batch reached the backend")
		return nil
	}
}

// await takes fut's verdict, failing the test if none arrives within
// gateBound; want (a format for args) says which verdict was expected. On
// a failure the waiting goroutine exits once the server resolves the
// request, at the latest when its Close flushes the queues.
func await(t *testing.T, fut *Future, want string, args ...any) Result {
	t.Helper()
	got := make(chan Result, 1)
	go func() { got <- fut.Wait() }()
	select {
	case r := <-got:
		return r
	case <-time.After(gateBound):
		t.Fatalf("no verdict within %v: want %s", gateBound, fmt.Sprintf(want, args...))
		return Result{}
	}
}

// noCall asserts the backend has not been entered again.
func (b *gatedBackend) noCall(t *testing.T) {
	t.Helper()
	select {
	case call := <-b.entered:
		t.Fatalf("unexpected forward pass of %d frames", len(call))
	default:
	}
}

// inflight counts the leaders registered in the shards' in-flight tables
// and the followers coalesced behind them — every submission that has
// passed begin and not yet resolved.
func inflight(s *Server) (leaders, followers int) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, r := range sh.pending {
			leaders++
			followers += len(r.followers)
		}
		sh.mu.Unlock()
	}
	return leaders, followers
}

// awaitInflight yields until the pending tables hold exactly the given
// population (the submitting goroutines need the processor to get there).
func awaitInflight(t *testing.T, s *Server, leaders, followers int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		l, f := inflight(s)
		if l == leaders && f == followers {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("in flight: %d leaders / %d followers, want %d / %d", l, f, leaders, followers)
		}
		runtime.Gosched()
	}
}

func sameFrames(a, b []*imaging.Bitmap) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestLoneSubmitDispatchesAtOnce: on an idle shard a single frame reaches
// the backend as a batch of one with nothing else submitted — no timer, no
// second request, is needed to push it out.
func TestLoneSubmitDispatchesAtOnce(t *testing.T) {
	gb := newGatedBackend(t)
	s := testServer(t, core.Options{}, Options{MaxBatch: 4, DisableCache: true, Backend: gb})
	f := synth.SampleFrames(71, 1)[0]
	fut := s.SubmitAsync(f)
	if call := gb.nextCall(t); !sameFrames(call, []*imaging.Bitmap{f}) {
		t.Fatalf("lone frame arrived as a batch of %d", len(call))
	}
	gb.release <- struct{}{}
	if r := await(t, fut, "lone frame classified %v", stubScore(f)); r.Status != StatusClassified || r.Score != stubScore(f) {
		t.Fatalf("lone frame resolved %+v, want classified %v", r, stubScore(f))
	}
	if got := s.Metrics().Batches.Load(); got != 1 {
		t.Fatalf("%d batches for one frame", got)
	}
}

// TestBusyLaneFillsBatchesInQueueOrder: requests submitted while the only
// worker is inside the backend pile up behind it and arrive as ceil(N/cap)
// full-as-possible batches, in submission order.
func TestBusyLaneFillsBatchesInQueueOrder(t *testing.T) {
	const maxBatch, n = 4, 10
	gb := newGatedBackend(t)
	s := testServer(t, core.Options{}, Options{MaxBatch: maxBatch, DisableCache: true, Backend: gb})
	frames := synth.SampleFrames(73, n+1)
	futs := []*Future{s.SubmitAsync(frames[0])}
	gb.nextCall(t) // the lane is now busy with frames[0]
	for _, f := range frames[1:] {
		futs = append(futs, s.SubmitAsync(f))
	}
	gb.noCall(t)
	want := [][]*imaging.Bitmap{frames[1:5], frames[5:9], frames[9:11]}
	for i, w := range want {
		gb.release <- struct{}{}
		if call := gb.nextCall(t); !sameFrames(call, w) {
			t.Fatalf("call %d carried %d frames out of queue order (want %d in order)", i+1, len(call), len(w))
		}
	}
	gb.release <- struct{}{}
	for i, fut := range futs {
		if r := await(t, fut, "frame %d classified %v", i, stubScore(frames[i])); r.Status != StatusClassified || r.Score != stubScore(frames[i]) {
			t.Fatalf("frame %d resolved %+v", i, r)
		}
	}
	if got, want := s.Metrics().Batches.Load(), int64(1+(n+maxBatch-1)/maxBatch); got != want {
		t.Fatalf("%d forward passes, want %d", got, want)
	}
}

// TestTwoShardsTakeTwoLoneFrames: with two shards, a lone frame routed to
// the second does not wait behind the first shard's forward pass — both are
// in the backend at once.
func TestTwoShardsTakeTwoLoneFrames(t *testing.T) {
	gb := newGatedBackend(t)
	s := testServer(t, core.Options{}, Options{Shards: 2, MaxBatch: 4, DisableCache: true, Backend: gb})
	// two sample frames that route to different shards
	samples := synth.SampleFrames(79, 16)
	frames := samples[:1]
	for _, f := range samples[1:] {
		if s.shardFor(imaging.ContentKey(f)) != s.shardFor(imaging.ContentKey(frames[0])) {
			frames = append(frames, f)
			break
		}
	}
	if len(frames) != 2 {
		t.Fatal("every sample frame routes to one shard")
	}
	a := s.SubmitAsync(frames[0])
	first := gb.nextCall(t)
	b := s.SubmitAsync(frames[1])
	second := gb.nextCall(t) // arrives while the first is still held
	if !sameFrames(first, frames[:1]) || !sameFrames(second, frames[1:]) {
		t.Fatalf("calls carried %d and %d frames, want the two lone frames", len(first), len(second))
	}
	gb.release <- struct{}{}
	gb.release <- struct{}{}
	ra := await(t, a, "first lone frame scored %v", stubScore(frames[0]))
	rb := await(t, b, "second lone frame scored %v", stubScore(frames[1]))
	if ra.Score != stubScore(frames[0]) || rb.Score != stubScore(frames[1]) {
		t.Fatalf("scores %v / %v", ra.Score, rb.Score)
	}
}

// TestCloseFlushesHeldAndOpenBatches: Close with one batch inside the
// backend and more frames still queued behind it resolves every request
// exactly once, with the backend's scores bit for bit (ROADMAP 5b).
func TestCloseFlushesHeldAndOpenBatches(t *testing.T) {
	gb := newGatedBackend(t)
	s, err := New(testCore(t, core.Options{}), Options{MaxBatch: 4, DisableCache: true, Backend: gb})
	if err != nil {
		t.Fatal(err)
	}
	frames := synth.SampleFrames(83, 3)
	futs := []*Future{s.SubmitAsync(frames[0])}
	gb.nextCall(t)
	futs = append(futs, s.SubmitAsync(frames[1]), s.SubmitAsync(frames[2])) // queued, cap not reached
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	// Close shuts the queues under closeMu, so once the flag reads true the
	// shard's loop can only flush what is already queued
	for isClosed := false; !isClosed; runtime.Gosched() {
		s.closeMu.RLock()
		isClosed = s.closed
		s.closeMu.RUnlock()
	}
	gb.noCall(t)
	gb.release <- struct{}{}
	if call := gb.nextCall(t); !sameFrames(call, frames[1:]) {
		t.Fatalf("flushed batch carried %d frames, want the 2 left open", len(call))
	}
	gb.release <- struct{}{}
	<-closed
	for i, fut := range futs {
		if r := await(t, fut, "frame %d classified %v", i, stubScore(frames[i])); r.Status != StatusClassified || r.Score != stubScore(frames[i]) {
			t.Fatalf("frame %d resolved %+v, want classified %v", i, r, stubScore(frames[i]))
		}
	}
	m := s.Metrics()
	if m.Classified.Load() != 3 || m.LatencyMS.N() != 3 || m.Shed.Load() != 0 || m.ShedWaitMS.N() != 0 {
		t.Fatalf("resolutions: %d classified (%d latency samples), %d shed — want 3 / 3 / 0",
			m.Classified.Load(), m.LatencyMS.N(), m.Shed.Load())
	}
}

// TestQueueBoundIsExact: a shard holds QueueDepth waiting leaders plus the
// batch inside the model, and nothing more. The ladder is pinned at
// cache-only, where a full queue sheds at once: with one frame in the held
// lane and four queued, a sixth fresh leader sheds, and the five admitted
// each resolve once with the backend's score.
func TestQueueBoundIsExact(t *testing.T) {
	ac := NewAdmissionController(AdmissionOptions{})
	gb := newGatedBackend(t)
	s := testServer(t, core.Options{}, Options{
		Shards: 1, MaxBatch: 4, QueueDepth: 4, DisableCache: true, Backend: gb, Policy: ac,
	})
	frames := synth.SampleFrames(131, 6)
	futs := []*Future{s.SubmitAsync(frames[0])}
	gb.nextCall(t)
	ac.stage.Store(int32(BrownoutCacheOnly))
	// park the EWMA inside the hysteresis band so the admissions below
	// cannot move the pinned stage
	ac.pressure.Store(pressureBits(0.5))
	for _, f := range frames[1:5] {
		futs = append(futs, s.SubmitAsync(f))
	}
	// a sixth leader admitted past the bound would wait for the lane, so
	// take its verdict after the lane opens
	sixth := s.SubmitAsync(frames[5])
	gb.release <- struct{}{}
	if call := gb.nextCall(t); !sameFrames(call, frames[1:5]) {
		t.Fatalf("queued batch carried %d frames, want the 4 queued in order", len(call))
	}
	close(gb.release)
	if r := await(t, sixth, "the sixth leader shed"); r.Status != StatusShed {
		t.Fatalf("leader past a full queue resolved %+v, want shed", r)
	}
	for i, fut := range futs {
		if r := await(t, fut, "frame %d classified %v", i, stubScore(frames[i])); r.Status != StatusClassified || r.Score != stubScore(frames[i]) {
			t.Fatalf("frame %d resolved %+v, want classified %v", i, r, stubScore(frames[i]))
		}
	}
	m := s.Metrics()
	if m.Classified.Load() != 5 || m.LatencyMS.N() != 5 || m.Shed.Load() != 1 {
		t.Fatalf("resolutions: %d classified (%d latency samples), %d shed — want 5 / 5 / 1",
			m.Classified.Load(), m.LatencyMS.N(), m.Shed.Load())
	}
	if l, f := inflight(s); l != 0 || f != 0 {
		t.Fatalf("%d leaders / %d followers still in flight", l, f)
	}
}

// servedLog is an instant backend that records which client's frames each
// forward pass carried.
type servedLog struct {
	owner map[*imaging.Bitmap]int
	live  atomic.Int32 // clients still looping
	mu    sync.Mutex
	calls [][]int
}

func (b *servedLog) Name() string              { return "served-log-test" }
func (b *servedLog) InputRes() int             { return 16 }
func (b *servedLog) Replicate() engine.Backend { return b }
func (b *servedLog) Warm(int)                  {}
func (b *servedLog) Close()                    {}
func (b *servedLog) Stats() engine.Stats       { return engine.Stats{} }

func (b *servedLog) InferBatchInto(frames []*imaging.Bitmap, out []float64) []float64 {
	out = out[:len(frames)]
	who := make([]int, len(frames))
	for i, f := range frames {
		who[i] = b.owner[f]
		out[i] = stubScore(f)
	}
	if b.live.Load() == 2 { // a client looping alone is served alone, rightly
		b.mu.Lock()
		b.calls = append(b.calls, who)
		b.mu.Unlock()
	}
	return out
}

// TestClosedLoopClientsAreNotStarved pins the one-P starvation the lane's
// yield exists for: two closed-loop clients on GOMAXPROCS(1) must never see
// one of them served three forward passes running while the other waits.
// Without runtime.Gosched() in shard.run the scheduler's runnext chain
// (loop -> last-woken client -> loop) serves one client for a whole
// scheduler slice.
func TestClosedLoopClientsAreNotStarved(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	frames := synth.SampleFrames(89, 16)
	log := &servedLog{owner: map[*imaging.Bitmap]int{}}
	for i, f := range frames {
		log.owner[f] = i % 2
	}
	s := testServer(t, core.Options{}, Options{MaxBatch: 4, DisableCache: true, Backend: log})
	log.live.Store(2)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer log.live.Add(-1)
			for i := 0; i < 400; i++ {
				s.Submit(frames[(2*i+c)%len(frames)])
			}
		}(c)
	}
	wg.Wait()
	run, last := 0, -1
	for i, who := range log.calls {
		if len(who) != 1 {
			run, last = 0, -1
			continue
		}
		if who[0] == last {
			run++
		} else {
			run, last = 1, who[0]
		}
		if run >= 3 {
			t.Fatalf("client %d served %d forward passes running (calls %d..%d of %d) while the other waited",
				last, run, i-run+1, i, len(log.calls))
		}
	}
}
