package serve

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"percival/internal/core"
	"percival/internal/engine"
	"percival/internal/imaging"
	"percival/internal/synth"
)

// admClock drives an AdmissionController's time source deterministically.
type admClock struct {
	mu sync.Mutex
	t  time.Time
}

func newAdmClock() *admClock {
	return &admClock{t: time.Unix(1700000000, 0)}
}

func (c *admClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *admClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testController(opts AdmissionOptions) (*AdmissionController, *admClock) {
	c := NewAdmissionController(opts)
	clk := newAdmClock()
	c.now = clk.now
	return c, clk
}

// drive feeds n full-pressure (or zero-pressure) admissions with dt between
// them.
func drive(c *AdmissionController, clk *admClock, n int, qlen, qcap int, dt time.Duration) {
	for i := 0; i < n; i++ {
		clk.advance(dt)
		c.AdmitQueue(qlen, qcap)
	}
}

func TestAdmissionLadderEscalatesAndReleases(t *testing.T) {
	c, clk := testController(AdmissionOptions{
		EnterHold: 50 * time.Millisecond,
		ExitHold:  50 * time.Millisecond,
	})
	if c.Stage() != BrownoutNormal {
		t.Fatalf("fresh controller at stage %v", c.Stage())
	}
	// sustained full queue: the ladder climbs one stage per EnterHold
	drive(c, clk, 200, 64, 64, 5*time.Millisecond)
	if c.Stage() != BrownoutShed {
		t.Fatalf("stage after sustained overload = %v, want %v", c.Stage(), BrownoutShed)
	}
	// load drops: the ladder steps back down to normal, one ExitHold each
	drive(c, clk, 400, 0, 64, 5*time.Millisecond)
	if c.Stage() != BrownoutNormal {
		t.Fatalf("stage after load drop = %v, want %v", c.Stage(), BrownoutNormal)
	}
	if n := c.transitions.Load(); n < 6 {
		t.Fatalf("transitions = %d, want >= 6 (3 up + 3 down)", n)
	}
}

func TestAdmissionLadderHysteresis(t *testing.T) {
	c, clk := testController(AdmissionOptions{
		EnterHold: 50 * time.Millisecond,
		ExitHold:  50 * time.Millisecond,
	})
	// a short burst (shorter than EnterHold) must not move the ladder
	drive(c, clk, 100, 64, 64, 100*time.Microsecond)
	if c.Stage() != BrownoutNormal {
		t.Fatalf("ladder moved on a sub-hold burst: %v", c.Stage())
	}
	// climb a stage or two, then sit inside the hysteresis band: the stage
	// holds — neither climbing (below enter) nor releasing (above exit)
	drive(c, clk, 15, 64, 64, 5*time.Millisecond)
	if c.Stage() != BrownoutCacheOnly && c.Stage() != BrownoutDegraded {
		t.Fatalf("stage after overload = %v, want cache-only or degraded", c.Stage())
	}
	st := c.Stage()
	// drop the EWMA straight into the band (its natural decay from ~1.0
	// would spend another EnterHold above the threshold — a real step, not
	// drift), then hold occupancy there
	c.pressure.Store(pressureBits(0.56))
	drive(c, clk, 500, 36, 64, 5*time.Millisecond) // occupancy 0.56: between exit and enter
	if c.Stage() != st {
		t.Fatalf("stage drifted inside the hysteresis band: %v -> %v", st, c.Stage())
	}
}

func TestAdmissionStageAdjustedKnobs(t *testing.T) {
	c, _ := testController(AdmissionOptions{})
	if got := c.BatchCap(16); got != 16 {
		t.Fatalf("stage-0 batch cap = %d, want 16", got)
	}
	if got := c.ShedDeadline(time.Second); got != time.Second {
		t.Fatalf("stage-0 deadline = %v, want 1s", got)
	}
	c.stage.Store(int32(BrownoutDegraded))
	if got := c.BatchCap(16); got != 8 {
		t.Fatalf("degraded batch cap = %d, want 8", got)
	}
	if got := c.BatchCap(1); got != 1 {
		t.Fatalf("degraded batch cap floor = %d, want 1", got)
	}
	if got := c.ShedDeadline(time.Second); got != 500*time.Millisecond {
		t.Fatalf("degraded deadline = %v, want 500ms", got)
	}
	if got := c.ShedDeadline(0); got != 0 {
		t.Fatalf("disabled deadline must stay disabled, got %v", got)
	}
}

// TestDegradedStageHalvesTheBatcherBite drives the stage-adjusted cap
// through the shard's dispatch loop itself: four frames queued behind a
// held lane ride one forward pass at stage 0 and two at stage 2.
func TestDegradedStageHalvesTheBatcherBite(t *testing.T) {
	for _, tc := range []struct {
		stage BrownoutStage
		want  []int
	}{{BrownoutNormal, []int{4}}, {BrownoutDegraded, []int{2, 2}}} {
		ac := NewAdmissionController(AdmissionOptions{})
		gb := newGatedBackend(t)
		s := testServer(t, core.Options{}, Options{MaxBatch: 4, DisableCache: true, Backend: gb, Policy: ac})
		frames := synth.SampleFrames(97, 5)
		futs := []*Future{s.SubmitAsync(frames[0])}
		gb.nextCall(t)
		ac.stage.Store(int32(tc.stage))
		// park the EWMA inside the hysteresis band so the admissions below
		// cannot move the pinned stage
		ac.pressure.Store(pressureBits(0.5))
		for _, f := range frames[1:] {
			futs = append(futs, s.SubmitAsync(f))
		}
		for _, n := range tc.want {
			gb.release <- struct{}{}
			if call := gb.nextCall(t); len(call) != n {
				t.Fatalf("stage %v: batch of %d, want %d", tc.stage, len(call), n)
			}
		}
		gb.release <- struct{}{}
		for _, fut := range futs {
			if r := await(t, fut, "stage %v: classified", tc.stage); r.Status != StatusClassified {
				t.Fatalf("stage %v: resolved %v", tc.stage, r.Status)
			}
		}
	}
}

// stubWindows is a WindowReporter pinned at a fixed saturation.
type stubWindows struct{ stats []engine.WindowStat }

func (s stubWindows) WindowStats() []engine.WindowStat { return s.stats }

// pressureBits encodes a pressure value for direct injection into the
// controller's EWMA word.
func pressureBits(p float64) uint64 { return math.Float64bits(p) }

// slowBackend is an engine.Backend that sleeps per batch — the jammed-
// pipeline stand-in for admission tests.
type slowBackend struct {
	d   time.Duration
	res int
}

func (b slowBackend) Name() string              { return "slow-test" }
func (b slowBackend) InputRes() int             { return b.res }
func (b slowBackend) Replicate() engine.Backend { return b }
func (b slowBackend) Warm(int)                  {}
func (b slowBackend) Close()                    {}
func (b slowBackend) Stats() engine.Stats       { return engine.Stats{} }

func (b slowBackend) InferBatchInto(frames []*imaging.Bitmap, out []float64) []float64 {
	time.Sleep(b.d)
	out = out[:len(frames)]
	for i := range out {
		out[i] = 0.5
	}
	return out
}

func TestAdmissionRemoteSaturationSignal(t *testing.T) {
	// every peer pinned at its window: remote congestion alone must push
	// pressure past admEnter even though the local queue is empty
	c, clk := testController(AdmissionOptions{
		EnterHold: 50 * time.Millisecond,
		Windows: stubWindows{stats: []engine.WindowStat{
			{Peer: "a", Limit: 1, InFlight: 1},
			{Peer: "b", Limit: 2, InFlight: 2},
		}},
	})
	drive(c, clk, 100, 0, 64, 5*time.Millisecond)
	if c.Stage() < BrownoutCacheOnly {
		t.Fatalf("remote saturation did not engage brownout: stage %v, pressure %.2f",
			c.Stage(), c.Pressure())
	}
}

// TestAdmissionCoalescedPressureSignals covers the two signals that make
// overload visible in a coalescing service, where queue occupancy alone is
// structurally capped by the distinct-creative count: per-pop dispatch ages
// and mass-weighted deadline sheds.
func TestAdmissionCoalescedPressureSignals(t *testing.T) {
	newC := func() *AdmissionController {
		c, _ := testController(AdmissionOptions{})
		c.setDeadline(100 * time.Millisecond)
		return c
	}

	// a leader popped at exactly its shed deadline is a full-pressure sample
	c := newC()
	c.ObserveDispatchWait(100 * time.Millisecond)
	if want := c.opts.Alpha * 1.0; math.Abs(c.Pressure()-want) > 1e-9 {
		t.Fatalf("deadline-age dispatch wait moved pressure to %.4f, want %.4f",
			c.Pressure(), want)
	}

	// a pathological age is clamped: one sample can't inject more than 1.25
	c = newC()
	c.ObserveDispatchWait(10 * time.Second)
	if want := c.opts.Alpha * 1.25; math.Abs(c.Pressure()-want) > 1e-9 {
		t.Fatalf("clamped dispatch wait moved pressure to %.4f, want %.4f",
			c.Pressure(), want)
	}

	// a deadline shed carries its follower mass: one resolution that strands
	// 64 coalesced clients must move pressure like the crowd it shed, not
	// like one EWMA sample
	lone, crowd := newC(), newC()
	lone.ObserveOverloadShed(1)
	crowd.ObserveOverloadShed(64)
	if want := lone.opts.Alpha * 1.25; math.Abs(lone.Pressure()-want) > 1e-9 {
		t.Fatalf("mass-1 shed moved pressure to %.4f, want %.4f", lone.Pressure(), want)
	}
	if crowd.Pressure() < 1.0 {
		t.Fatalf("mass-64 shed moved pressure to %.4f, want near the 1.25 ceiling",
			crowd.Pressure())
	}

	// ladder-driven sheds stay excluded — at stage 3 every leader sheds, and
	// feeding those back in would hold the ladder up after the load is gone
	c = newC()
	c.ObserveShed()
	if c.Pressure() != 0 {
		t.Fatalf("ladder shed moved pressure to %.4f, want 0", c.Pressure())
	}
	if n := c.admSheds.Load(); n != 1 {
		t.Fatalf("admission sheds = %d, want 1", n)
	}
}

// TestServeStage3ShedsAtEdgeButServesCache drives a real server pinned at
// stage 3: fresh leaders shed at admission without occupying queue
// capacity, while verdicts already cached keep being answered.
func TestServeStage3ShedsAtEdgeButServesCache(t *testing.T) {
	ac := NewAdmissionController(AdmissionOptions{})
	s := testServer(t, core.Options{}, Options{
		MaxBatch: 4, Shards: 1, Policy: ac,
	})
	frames := synth.SampleFrames(3, 5)
	// warm a verdict into the cache at stage 0
	if res := s.Submit(frames[0]); res.Status != StatusClassified {
		t.Fatalf("warm submit resolved %v", res.Status)
	}
	ac.stage.Store(int32(BrownoutShed))
	// hold the pressure at the ceiling so AdmitQueue's evaluate cannot
	// release the pinned stage mid-test
	ac.pressure.Store(pressureBits(1.0))
	if res := s.Submit(frames[0]); res.Status != StatusCached {
		t.Fatalf("cached verdict at stage 3 resolved %v, want cached", res.Status)
	}
	if res := s.Submit(frames[1]); res.Status != StatusShed {
		t.Fatalf("fresh leader at stage 3 resolved %v, want shed", res.Status)
	}
	if got := ac.admSheds.Load(); got < 1 {
		t.Fatalf("admission sheds = %d, want >= 1", got)
	}
	// shed waits land in the shed histogram, not the latency histogram
	if n := s.Metrics().ShedWaitMS.N(); n < 1 {
		t.Fatalf("shed wait histogram empty after an admission shed")
	}
	lat := s.Metrics().LatencyMS.N()
	if res := s.Submit(frames[2]); res.Status != StatusShed {
		t.Fatalf("second fresh leader resolved %v, want shed", res.Status)
	}
	if got := s.Metrics().LatencyMS.N(); got != lat {
		t.Fatalf("shed resolution leaked into LatencyMS: %d -> %d", lat, got)
	}
}

// TestServeLadderEngagesAndReleasesUnderHeldLane climbs the ladder on a
// running server from real queue pressure and brings it back — the stage is
// never stored by hand. The lane is a gated stub and the ladder's clock is
// the test's, so nothing sleeps: healthy closed-loop traffic leaves the
// stage at normal; a held lane backs the queue up until fresh leaders shed
// at the edge while the cache keeps answering; an open lane drains the
// queue and the ladder walks back down. Every submission resolves exactly
// once and every model verdict is the backend's, bit for bit (no fail-open).
func TestServeLadderEngagesAndReleasesUnderHeldLane(t *testing.T) {
	const hold = 50 * time.Millisecond
	// Alpha 0.5 lets occupancy cross admEnter with a quarter of the
	// queue still free: at stage 0 a submitter blocks on a full queue, and
	// this test submits from one goroutine
	ac, clk := testController(AdmissionOptions{EnterHold: hold, ExitHold: hold, Alpha: 0.5})
	gb := newGatedBackend(t)
	s := testServer(t, core.Options{}, Options{
		Shards: 1, MaxBatch: 1, QueueDepth: 32, Backend: gb, Policy: ac,
	})
	frames := synth.SampleFrames(113, 72)
	warm, fresh := frames[:8], frames[8:]

	// healthy: one frame at a time through an unblocked lane, the clock
	// running well past EnterHold
	for _, f := range warm {
		gb.release <- struct{}{}
		if r := s.Submit(f); r.Status != StatusClassified || r.Score != stubScore(f) {
			t.Fatalf("healthy submit resolved %+v", r)
		}
		gb.nextCall(t)
		clk.advance(hold)
		if st := ac.Stage(); st != BrownoutNormal {
			t.Fatalf("stage %v under healthy closed-loop load", st)
		}
	}

	// overload: nothing is released, so the first frame holds the lane and
	// the rest fill the queue
	type sub struct {
		f   *imaging.Bitmap
		fut *Future
	}
	var subs []sub
	for ac.Stage() < BrownoutShed {
		if len(subs) == len(fresh) {
			t.Fatalf("ladder stuck at %v (pressure %.2f) after %d submissions behind a held lane",
				ac.Stage(), ac.Pressure(), len(subs))
		}
		q := s.shards[0].queue
		if ac.Stage() == BrownoutNormal && len(q) == cap(q) {
			t.Fatalf("queue filled before the ladder engaged (pressure %.2f)", ac.Pressure())
		}
		f := fresh[len(subs)]
		subs = append(subs, sub{f, s.SubmitAsync(f)})
		clk.advance(hold)
	}
	if r := s.Submit(warm[0]); r.Status != StatusCached || r.Score != stubScore(warm[0]) {
		t.Fatalf("cached frame at stage 3 resolved %+v, want the cached verdict", r)
	}
	edge := fresh[len(subs)]
	if r := s.Submit(edge); r.Status != StatusShed {
		t.Fatalf("fresh leader at stage 3 resolved %v, want shed", r.Status)
	}

	// recovery: open the lane for good; the queue drains
	close(gb.release)
	classified, shed := 0, 0
	for _, sb := range subs {
		switch r := await(t, sb.fut, "shed or classified %v", stubScore(sb.f)); {
		case r.Status == StatusShed:
			shed++
		case r.Status == StatusClassified && r.Score == stubScore(sb.f):
			classified++
		default:
			t.Fatalf("overload submission resolved %+v, want shed or the backend's score %v", r, stubScore(sb.f))
		}
	}
	if classified == 0 || shed == 0 {
		t.Fatalf("overload resolved %d classified / %d shed, want some of each", classified, shed)
	}
	// idle admissions decay the pressure and step the ladder down, one
	// ExitHold a stage; only a fresh leader reaches the controller
	for _, f := range fresh[len(subs)+1:] {
		if ac.Stage() == BrownoutNormal {
			break
		}
		clk.advance(hold)
		s.Submit(f)
	}
	if st := ac.Stage(); st != BrownoutNormal {
		t.Fatalf("ladder stuck at %v (pressure %.2f) after the load dropped", st, ac.Pressure())
	}

	if l, f := inflight(s); l != 0 || f != 0 {
		t.Fatalf("%d leaders / %d followers still in flight", l, f)
	}
	m := s.Metrics()
	if in, out := m.Submitted.Load(), m.Classified.Load()+m.CacheHits.Load()+m.Shed.Load(); in != out {
		t.Fatalf("%d submitted, %d resolved", in, out)
	}
	for i, st := range s.BackendStats() {
		if st.Errors != 0 {
			t.Fatalf("shard %d counted %d fail-open errors", i, st.Errors)
		}
	}
}

// TestServeAdmissionDeadlineShedsBlockedSubmitter covers the
// deadline-at-admission bugfix: a submitter blocked on a full queue past
// the shed deadline sheds instead of waiting to be shed at dispatch.
func TestServeAdmissionDeadlineShedsBlockedSubmitter(t *testing.T) {
	// a backend this slow with queue depth 1 jams the lone shard instantly
	s := testServer(t, core.Options{}, Options{
		MaxBatch: 1, Shards: 1, QueueDepth: 1,
		Deadline: 30 * time.Millisecond,
		Backend:  slowBackend{d: 300 * time.Millisecond, res: 16},
	})
	frames := synth.SampleFrames(6, 9)
	var wg sync.WaitGroup
	sheds := make(chan time.Duration, len(frames))
	for _, f := range frames {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			if res := s.Submit(f); res.Status == StatusShed {
				sheds <- time.Since(start)
			}
		}()
	}
	wg.Wait()
	close(sheds)
	n, fast := 0, 0
	for took := range sheds {
		n++
		if took < 250*time.Millisecond {
			fast++
		}
	}
	if n == 0 {
		t.Fatal("no submission shed despite a jammed queue")
	}
	// requests already inside the pipeline legitimately shed late at
	// dispatch; the admission fix is about the ones still blocked at the
	// queue door — they must resolve around one deadline, not after the
	// pipeline drains (a model pass is 10x the deadline here). The old
	// dispatch-only shedding resolved every one of these at >= 300ms.
	if fast < 2 {
		t.Fatalf("only %d/%d sheds resolved within 250ms — submitters blocked past the admission deadline", fast, n)
	}
}

func TestAdmissionExpose(t *testing.T) {
	c, _ := testController(AdmissionOptions{})
	out := c.Expose()
	for _, want := range []string{
		"percival_serve_brownout_stage 0",
		"percival_serve_admission_pressure",
		"percival_serve_brownout_transitions_total 0",
		"percival_serve_admission_sheds_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Expose output missing %q:\n%s", want, out)
		}
	}
}
