package serve

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"percival/internal/core"
	"percival/internal/engine"
	"percival/internal/imaging"
	"percival/internal/synth"
)

// TestShardRoutingDeterminism: the same content hash must route to the
// same shard on every submission — cache affinity and in-flight coalescing
// depend on it — and distinct creatives should spread over the shard map.
func TestShardRoutingDeterminism(t *testing.T) {
	s := testServer(t, core.Options{}, Options{Shards: 4, MaxBatch: 2})
	if s.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", s.Shards())
	}
	frames := synth.SampleFrames(43, 32)
	for i, f := range frames {
		k := imaging.ContentKey(f)
		first := s.shardFor(k)
		for rep := 0; rep < 3; rep++ {
			if got := s.shardFor(imaging.ContentKey(f)); got != first {
				t.Fatalf("frame %d: shard flapped %d -> %d", i, first.id, got.id)
			}
		}
	}
	seen := map[int]bool{}
	for _, f := range frames {
		seen[s.shardFor(imaging.ContentKey(f)).id] = true
	}
	if len(seen) < 2 {
		t.Fatalf("32 distinct creatives landed on %d shard(s); range partition is degenerate", len(seen))
	}

	// End to end: repeats of a creative must hit the cache (affinity held),
	// and the per-shard dispatch counters must only count model runs on the
	// owner shard.
	for _, f := range frames {
		s.Submit(f)
	}
	for _, f := range frames {
		if r := s.Submit(f); r.Status != StatusCached {
			t.Fatalf("repeat submission status %v, want cached (shard affinity broken)", r.Status)
		}
	}
	var dispatched int64
	for i := range s.Metrics().ShardFrames {
		dispatched += s.Metrics().ShardFrames[i].Load()
	}
	if dispatched != int64(len(frames)) {
		t.Fatalf("shard counters sum to %d dispatched frames, want %d", dispatched, len(frames))
	}
}

// TestShardedSubmitMatchesSynchronousClassify: sharded dispatch must not
// change scores — every shard replica shares the same weights.
func TestShardedSubmitMatchesSynchronousClassify(t *testing.T) {
	svc := testCore(t, core.Options{})
	s, err := New(svc, Options{Shards: 3, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i, f := range synth.SampleFrames(47, 12) {
		got := s.Submit(f)
		if got.Status == StatusShed {
			t.Fatalf("frame %d shed with no load", i)
		}
		want := svc.Classify(f)
		if got.Score != want {
			t.Fatalf("frame %d: sharded score %v, sync score %v", i, got.Score, want)
		}
	}
}

// TestBackendOverride: serve must dispatch through Options.Backend when
// set, regardless of the classifier's default engine.
func TestBackendOverride(t *testing.T) {
	svc := testCore(t, core.Options{})
	fp32, ok := svc.Backends().Get(engine.FP32Name)
	if !ok {
		t.Fatal("classifier has no fp32 backend")
	}
	s, err := New(svc, Options{Shards: 2, Backend: fp32})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	frames := synth.SampleFrames(53, 8)
	for _, f := range frames {
		s.Submit(f)
	}
	var replicaFrames int64
	for _, st := range s.BackendStats() {
		replicaFrames += st.Frames
	}
	if replicaFrames != int64(len(frames)) {
		t.Fatalf("replicas dispatched %d frames, want %d", replicaFrames, len(frames))
	}
	// the override backend itself must not have served traffic (shards run
	// replicas, never the caller's value)
	if st := fp32.Stats(); st.Frames != 0 {
		t.Fatalf("caller's backend served %d frames; shards must use replicas", st.Frames)
	}
}

// TestShardedSteadyStateZeroAlloc is the per-shard zero-alloc gate: after
// Warm and a warmup pass, steady-state Submit across a multi-shard server
// must not allocate.
func TestShardedSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	s := testServer(t, core.Options{}, Options{
		Shards: 2, MaxBatch: 4,
	})
	s.Warm()
	frames := synth.SampleFrames(59, 32)
	for _, f := range frames { // warm: request pool, batch slices, cache state
		s.Submit(f)
	}
	s.ResetCache() // measure the full classify path, not the hit path
	i := 0
	allocs := testing.AllocsPerRun(len(frames)*4, func() {
		s.Submit(frames[i%len(frames)])
		i++
	})
	if allocs >= 1 {
		t.Fatalf("steady-state sharded Submit allocates %.2f/op, want 0", allocs)
	}
}

// TestCachePersistenceRoundTrip: a snapshot taken from one server must
// restore into another — including one with a different shard geometry —
// and serve repeats without model runs.
func TestCachePersistenceRoundTrip(t *testing.T) {
	src := testServer(t, core.Options{}, Options{Shards: 2})
	frames := synth.SampleFrames(61, 12)
	want := make([]Result, len(frames))
	for i, f := range frames {
		want[i] = src.Submit(f)
	}
	var buf bytes.Buffer
	n, err := src.Cache().Snapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(frames) {
		t.Fatalf("snapshot wrote %d entries, want %d", n, len(frames))
	}

	// restore into a fresh server with a different shard and cache geometry
	dst := testServer(t, core.Options{}, Options{Shards: 3, CacheSize: 64})
	m, err := dst.Cache().Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if m != n {
		t.Fatalf("restored %d of %d entries", m, n)
	}
	if dst.CacheLen() != n {
		t.Fatalf("restored cache holds %d entries, want %d", dst.CacheLen(), n)
	}
	for i, f := range frames {
		r := dst.Submit(f)
		if r.Status != StatusCached {
			t.Fatalf("frame %d: status %v after restore, want cached", i, r.Status)
		}
		if r.Score != want[i].Score {
			t.Fatalf("frame %d: restored score %v, original %v", i, r.Score, want[i].Score)
		}
	}
	if got := dst.Metrics().Classified.Load(); got != 0 {
		t.Fatalf("restored server ran the model %d times on cached creatives", got)
	}

	// corrupt magic must be rejected
	bad := append([]byte("XXXX"), buf.Bytes()[4:]...)
	if _, err := dst.Cache().Restore(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}

	// a DisableCache server restores nothing and must say so
	off := testServer(t, core.Options{}, Options{DisableCache: true})
	if k, err := off.Cache().Restore(bytes.NewReader(buf.Bytes())); err != nil || k != 0 {
		t.Fatalf("DisableCache restore reported (%d, %v), want (0, nil)", k, err)
	}
	if off.CacheLen() != 0 {
		t.Fatal("DisableCache server memoized restored entries")
	}
}

// TestMultiShardRaceStress is the -race stress pass over sharded dispatch:
// many goroutines, duplicate-heavy traffic across every shard, the
// admission controller live, snapshots racing submissions, and a graceful
// close.
func TestMultiShardRaceStress(t *testing.T) {
	s, err := New(testCore(t, core.Options{}), Options{
		Shards: 4, MaxBatch: 4,
		QueueDepth: 32, Deadline: time.Second, CacheSize: 64,
		Policy: NewAdmissionController(AdmissionOptions{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	frames := synth.SampleFrames(67, 16)
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
				} else {
					s.Submit(f)
				}
				switch {
				case i == perG/2 && g == 1:
					s.ResetCache()
				case i%16 == 5 && g == 2:
					var buf bytes.Buffer
					if _, err := s.Cache().Snapshot(&buf); err != nil {
						t.Errorf("snapshot under load: %v", err)
					}
				case i%16 == 0:
					_ = s.Metrics().Expose()
					_ = s.BackendStats()
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
