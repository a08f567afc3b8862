package serve

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"percival/internal/core"
	"percival/internal/imaging"
	"percival/internal/squeezenet"
	"percival/internal/synth"
)

// testCore builds a PERCIVAL service around a deterministic untrained small
// network; serve tests exercise the batching mechanics, not verdict quality.
func testCore(t testing.TB, opts core.Options) *core.Percival {
	t.Helper()
	cfg := squeezenet.SmallConfig(16)
	net, err := squeezenet.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	squeezenet.PretrainedInit(net, 1)
	p, err := core.New(net, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func testServer(t testing.TB, copts core.Options, sopts Options) *Server {
	t.Helper()
	s, err := New(testCore(t, copts), sopts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestNewValidatesInputs(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Fatal("nil service must be rejected")
	}
	if _, err := New(testCore(t, core.Options{}), Options{MaxBatch: -1}); err == nil {
		t.Fatal("negative MaxBatch must be rejected")
	}
	// a negative cache size is refused by name; 0 is the default store
	for _, size := range []int{-1, -4096} {
		_, err := New(testCore(t, core.Options{}), Options{CacheSize: size})
		if err == nil || !strings.Contains(err.Error(), strconv.Itoa(size)) {
			t.Fatalf("CacheSize %d: New returned %v, want an error naming the size", size, err)
		}
	}
	// the default queue is 4×GOMAXPROCS×MaxBatch entries across all shards
	old := runtime.GOMAXPROCS(1)
	depth := (Options{Shards: 2}).withDefaults().QueueDepth
	runtime.GOMAXPROCS(old)
	if depth != 64 {
		t.Fatalf("default QueueDepth at GOMAXPROCS=1 with 2 shards = %d, want 64", depth)
	}
	s := testServer(t, core.Options{}, Options{})
	f := synth.SampleFrames(13, 1)[0]
	s.Submit(f)
	if r := s.Submit(f); r.Status != StatusCached {
		t.Fatalf("CacheSize 0: repeat resolved %v, want cached from the default store", r.Status)
	}
}

// TestSubmitMatchesSynchronousClassify is the correctness anchor: a frame
// scored through the batcher must get exactly the score the synchronous
// path produces (both run the same engine over the same warm state).
func TestSubmitMatchesSynchronousClassify(t *testing.T) {
	svc := testCore(t, core.Options{})
	s, err := New(svc, Options{Shards: 2, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i, f := range synth.SampleFrames(7, 12) {
		got := s.Submit(f)
		if got.Status == StatusShed {
			t.Fatalf("frame %d shed with no load", i)
		}
		want := svc.Classify(f)
		if math.Abs(got.Score-want) > 1e-6 {
			t.Fatalf("frame %d: serve score %v, sync score %v", i, got.Score, want)
		}
		if got.Ad != (want >= svc.Threshold()) {
			t.Fatalf("frame %d: verdict mismatch", i)
		}
	}
}

// TestConcurrentSubmitsCoalesceIntoBatches: sixteen callers, two per
// creative, submit while the only worker is held inside the backend. The
// duplicates must attach to their leaders, the eight leaders must ride one
// forward pass, and every caller must get its creative's score — fewer
// model runs than submissions, by construction.
func TestConcurrentSubmitsCoalesceIntoBatches(t *testing.T) {
	gb := newGatedBackend(t)
	s := testServer(t, core.Options{}, Options{MaxBatch: 8, DisableCache: true, Backend: gb})
	frames := synth.SampleFrames(11, 9)
	head := s.SubmitAsync(frames[0])
	gb.nextCall(t) // the lane is busy; everything below queues behind it
	const callers = 16
	results := make([]Result, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = s.Submit(frames[1+c/2])
		}(c)
	}
	awaitInflight(t, s, 9, 8)
	gb.release <- struct{}{}
	if call := gb.nextCall(t); len(call) != 8 {
		t.Fatalf("the 8 queued leaders arrived as a batch of %d", len(call))
	}
	gb.release <- struct{}{}
	wg.Wait()
	await(t, head, "head frame %v %v", StatusClassified, stubScore(frames[0]))
	for c, r := range results {
		if want := stubScore(frames[1+c/2]); r.Status == StatusShed || r.Score != want {
			t.Fatalf("caller %d resolved %+v, want score %v", c, r, want)
		}
	}
	m := s.Metrics()
	if m.Submitted.Load() != 17 || m.Classified.Load() != 9 || m.Coalesced.Load() != 8 || m.Batches.Load() != 2 {
		t.Fatalf("submitted %d classified %d coalesced %d batches %d, want 17 / 9 / 8 / 2",
			m.Submitted.Load(), m.Classified.Load(), m.Coalesced.Load(), m.Batches.Load())
	}
}

// TestCacheHitSkipsModel: a repeat submission must resolve from the sharded
// cache without another forward pass.
func TestCacheHitSkipsModel(t *testing.T) {
	s := testServer(t, core.Options{}, Options{})
	f := synth.SampleFrames(13, 1)[0]
	first := s.Submit(f)
	if first.Status != StatusClassified {
		t.Fatalf("first submission status %v", first.Status)
	}
	classified := s.Metrics().Classified.Load()
	second := s.Submit(f)
	if second.Status != StatusCached {
		t.Fatalf("repeat submission status %v, want cached", second.Status)
	}
	if second.Score != first.Score {
		t.Fatal("cached score differs")
	}
	if got := s.Metrics().Classified.Load(); got != classified {
		t.Fatalf("repeat submission ran the model (%d -> %d)", classified, got)
	}
	if s.CacheLen() == 0 {
		t.Fatal("cache empty after a classified frame")
	}
	s.Cache().Reset()
	if s.CacheLen() != 0 {
		t.Fatal("Cache().Reset left entries behind")
	}
}

// TestVerdictCacheView: the store Cache returns (the engine.VerdictCache the
// daemon hands its wire listener, keyed by imaging.ContentKey) must be the
// same store Submit memoizes into — that identity is what lets a wire peer
// answer a remote front's hash probe from verdicts the local serving edge
// already produced, and vice versa.
func TestVerdictCacheView(t *testing.T) {
	s := testServer(t, core.Options{}, Options{})
	f := synth.SampleFrames(29, 1)[0]
	if _, ok := s.Cache().LookupVerdict(imaging.ContentKey(f)); ok {
		t.Fatal("verdict visible before any classification")
	}
	r := s.Submit(f)
	v, ok := s.Cache().LookupVerdict(imaging.ContentKey(f))
	if !ok || v != r.Score {
		t.Fatalf("LookupVerdict (%v, %v) after Submit scored %v", v, ok, r.Score)
	}

	// a wire-stored verdict must serve later Submits as a cache hit
	g := synth.SampleFrames(31, 1)[0]
	s.Cache().StoreVerdict(imaging.ContentKey(g), 0.625)
	res := s.Submit(g)
	if res.Status != StatusCached || res.Score != 0.625 {
		t.Fatalf("Submit after StoreVerdict got %+v, want cached 0.625", res)
	}
}

// TestInflightCoalescingWithCacheDisabled: submissions of a frame whose
// leader is held in flight must share its one model run even without
// memoization.
func TestInflightCoalescingWithCacheDisabled(t *testing.T) {
	gb := newGatedBackend(t)
	s := testServer(t, core.Options{}, Options{MaxBatch: 4, DisableCache: true, Backend: gb})
	f := synth.SampleFrames(17, 1)[0]
	leader := s.SubmitAsync(f)
	gb.nextCall(t) // the leader is inside the backend until released
	const followers = 7
	var wg sync.WaitGroup
	results := make([]Result, followers)
	for c := 0; c < followers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = s.Submit(f)
		}(c)
	}
	awaitInflight(t, s, 1, followers)
	gb.noCall(t)
	gb.release <- struct{}{}
	wg.Wait()
	if r := await(t, leader, "leader %v %v", StatusClassified, stubScore(f)); r.Status != StatusClassified || r.Score != stubScore(f) {
		t.Fatalf("leader resolved %+v", r)
	}
	for c, r := range results {
		if r.Status != StatusCoalesced || r.Score != stubScore(f) {
			t.Fatalf("follower %d resolved %+v, want coalesced %v", c, r, stubScore(f))
		}
	}
	if got := s.Metrics().Classified.Load(); got != 1 {
		t.Fatalf("%d model runs for one creative", got)
	}
	if s.CacheLen() != 0 {
		t.Fatal("DisableCache must not memoize")
	}
}

// TestDeadlineLoadShedding: with a one-lane worker pinned by a slow batch
// and a tiny deadline, queued requests must resolve StatusShed (verdict
// unknown, fail open) rather than waiting forever.
func TestDeadlineLoadShedding(t *testing.T) {
	s := testServer(t, core.Options{}, Options{
		MaxBatch:   1,
		QueueDepth: 64, Deadline: time.Nanosecond, DisableCache: true,
	})
	frames := synth.SampleFrames(19, 32)
	var wg sync.WaitGroup
	shed := make([]bool, len(frames))
	for i, f := range frames {
		wg.Add(1)
		go func(i int, f *imaging.Bitmap) {
			defer wg.Done()
			r := s.Submit(f)
			shed[i] = r.Status == StatusShed
			if r.Status == StatusShed && (r.Ad || r.Score != 0) {
				t.Error("shed result must fail open with zero score")
			}
		}(i, f)
	}
	wg.Wait()
	anyShed := false
	for _, v := range shed {
		anyShed = anyShed || v
	}
	if !anyShed {
		t.Fatal("nanosecond deadline shed nothing under a 32-deep burst")
	}
	if s.Metrics().Shed.Load() == 0 {
		t.Fatal("shed counter not incremented")
	}
}

// TestSubmitAsyncOverlapsAndResolves: futures resolve to the same verdicts
// the blocking path produces, and Wait is idempotent.
func TestSubmitAsyncOverlapsAndResolves(t *testing.T) {
	svc := testCore(t, core.Options{})
	s, err := New(svc, Options{Shards: 2, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	frames := synth.SampleFrames(23, 10)
	futs := make([]*Future, len(frames))
	for i, f := range frames {
		futs[i] = s.SubmitAsync(f)
	}
	for i, fut := range futs {
		r1 := fut.Wait()
		if r1.Status == StatusShed {
			t.Fatalf("future %d shed with no load", i)
		}
		want := svc.Classify(frames[i])
		if math.Abs(r1.Score-want) > 1e-6 {
			t.Fatalf("future %d: %v != %v", i, r1.Score, want)
		}
		if r2 := fut.Wait(); r2 != r1 {
			t.Fatalf("future %d: second Wait returned %+v, first %+v", i, r2, r1)
		}
	}
	// a cache-hit future resolves immediately
	if r := s.SubmitAsync(frames[0]).Wait(); r.Status != StatusCached {
		t.Fatalf("repeat async status %v, want cached", r.Status)
	}
}

// TestFutureWaitConcurrent: Wait is documented safe to call repeatedly,
// which includes concurrently — resolution must be exclusive (the pooled
// request is released exactly once) and every caller must observe the same
// Result. Regression for a data race on the future's request/result fields;
// `make race` runs this under -race.
func TestFutureWaitConcurrent(t *testing.T) {
	svc := testCore(t, core.Options{})
	s, err := New(svc, Options{Shards: 2, MaxBatch: 4, DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	frames := synth.SampleFrames(31, 8)
	const waiters = 4
	for round := 0; round < 32; round++ {
		fut := s.SubmitAsync(frames[round%len(frames)])
		var wg sync.WaitGroup
		results := make([]Result, waiters)
		for g := 0; g < waiters; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				results[g] = fut.Wait()
			}(g)
		}
		wg.Wait()
		for g := 1; g < waiters; g++ {
			if results[g] != results[0] {
				t.Fatalf("round %d: waiter %d saw %+v, waiter 0 saw %+v",
					round, g, results[g], results[0])
			}
		}
		if results[0].Status == StatusShed {
			t.Fatalf("round %d shed with no load", round)
		}
	}
}

// TestCloseDrainsAndSheds: Close resolves queued work, and submissions
// after Close shed instead of panicking.
func TestCloseDrainsAndSheds(t *testing.T) {
	s, err := New(testCore(t, core.Options{}), Options{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	frames := synth.SampleFrames(29, 6)
	futs := make([]*Future, len(frames))
	for i, f := range frames {
		futs[i] = s.SubmitAsync(f)
	}
	s.Close()
	for i, fut := range futs {
		if r := fut.Wait(); r.Status == StatusShed {
			t.Fatalf("future %d shed by graceful close", i)
		}
	}
	if r := s.Submit(frames[0]); r.Status != StatusShed {
		t.Fatalf("post-close submit status %v, want shed", r.Status)
	}
	s.Close() // idempotent
}

// TestMetricsExposition sanity-checks the Prometheus rendering: the service
// counters, one busy-time series per shard, and no per-lane dispatch,
// pinned or GEMM-pool series.
func TestMetricsExposition(t *testing.T) {
	const shards = 3
	s := testServer(t, core.Options{}, Options{Shards: shards})
	s.Submit(synth.SampleFrames(31, 1)[0])
	text := s.Metrics().Expose()
	want := []string{
		"percival_serve_submitted_total 1",
		"percival_serve_classified_total 1",
		"percival_serve_batches_total 1",
		"percival_serve_latency_ms_count 1",
	}
	for i := 0; i < shards; i++ {
		want = append(want, fmt.Sprintf("percival_serve_lane_busy_ns_total{lane=\"%d\"}", i))
	}
	for _, w := range want {
		if !strings.Contains(text, w) {
			t.Fatalf("exposition missing %q:\n%s", w, text)
		}
	}
	for _, gone := range []string{
		"percival_serve_lane_dispatches_total",
		"percival_serve_lane_pinned",
		"percival_serve_gemm_pool_",
	} {
		if strings.Contains(text, gone) {
			t.Fatalf("exposition carries removed series %q:\n%s", gone, text)
		}
	}
}

// TestSteadyStateSubmitDoesNotAllocate is the zero-alloc gate for the
// batcher hot path: after warmup, Submit (hash, queue, batch, classify,
// resolve, cache insert — across all service goroutines) must not allocate.
func TestSteadyStateSubmitDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	s := testServer(t, core.Options{}, Options{MaxBatch: 4})
	frames := synth.SampleFrames(37, 32)
	for _, f := range frames { // warm: request pool, batch slices, arenas, cache
		s.Submit(f)
	}
	s.Cache().Reset() // measure the full classify path, not the hit path
	i := 0
	allocs := testing.AllocsPerRun(len(frames)*4, func() {
		s.Submit(frames[i%len(frames)])
		i++
	})
	// AllocsPerRun counts mallocs process-wide, so GC-driven sync.Pool
	// evictions can leak fractional allocations into the run; steady state
	// must still average (well) under one allocation per submission.
	if allocs >= 1 {
		t.Fatalf("steady-state Submit allocates %.2f/op, want 0", allocs)
	}
}

// TestRaceStress is the -race stress test: many goroutines × many frames
// with a mixed duplicate-heavy workload, concurrent metrics reads, a cache
// reset mid-flight, and a graceful close racing the last submitters.
func TestRaceStress(t *testing.T) {
	s, err := New(testCore(t, core.Options{}), Options{
		Shards: 4, MaxBatch: 4,
		QueueDepth: 32, Deadline: time.Second, CacheSize: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	frames := synth.SampleFrames(41, 12)
	const goroutines = 16
	perG := 40
	if testing.Short() {
		perG = 10
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				f := frames[(g*7+i)%len(frames)]
				if g%3 == 0 {
					fut := s.SubmitAsync(f)
					fut.Wait()
					fut.Wait()
				} else {
					s.Submit(f)
				}
				if i == perG/2 && g == 1 {
					s.Cache().Reset()
				}
				if i%16 == 0 {
					_ = s.Metrics().Expose()
					_ = s.CacheLen()
				}
			}
		}(g)
	}
	wg.Wait()
	s.Close()
	m := s.Metrics()
	resolved := m.Classified.Load() + m.CacheHits.Load() + m.Coalesced.Load() + m.Shed.Load()
	if resolved != m.Submitted.Load() {
		t.Fatalf("accounting leak: %d resolved of %d submitted", resolved, m.Submitted.Load())
	}
}
