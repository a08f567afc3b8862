package serve

import (
	"bytes"
	"math"
	"runtime"
	"sync"
	"testing"

	"percival/internal/core"
	"percival/internal/engine"
	"percival/internal/imaging"
	"percival/internal/synth"
)

// TestVerdictTiersBitIdentical: one frame read back from every tier that
// memoizes its score — serve's cache on a repeat Submit, a wire peer
// answering the probe from that same store, and a store restored from its
// snapshot — is the model's Classify score bit for bit, on both engines.
func TestVerdictTiersBitIdentical(t *testing.T) {
	frames := synth.SampleFrames(103, 6)
	for _, tc := range []struct {
		name string
		opts core.Options
	}{
		{"fp32", core.Options{}},
		// any agreement passes the gate: the test wants the INT8 engine
		// serving, not the gate's verdict on an untrained net
		{"int8", core.Options{Quantized: true, CalibFrames: frames, ParityMinAgreement: -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc := testCore(t, tc.opts)
			if svc.QuantizedActive() != tc.opts.Quantized {
				t.Fatalf("serving engine %q", svc.Engine().Name())
			}
			want := make([]uint64, len(frames))
			for i, f := range frames {
				want[i] = math.Float64bits(svc.Classify(f))
			}
			check := func(tier string, i int, score float64, ok bool) {
				t.Helper()
				if !ok || math.Float64bits(score) != want[i] {
					t.Fatalf("%s: frame %d reads (%v, %v), Classify scores %v",
						tier, i, score, ok, math.Float64frombits(want[i]))
				}
			}

			s, err := New(svc, Options{MaxBatch: 4})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.Close)
			for i, f := range frames {
				if r := s.Submit(f); r.Status != StatusClassified {
					t.Fatalf("frame %d first Submit resolved %v", i, r.Status)
				}
				r := s.Submit(f)
				check("serve cache", i, r.Score, r.Status == StatusCached)
			}

			ws, rb := startWirePeer(t, svc, s.Cache())
			defer rb.Close()
			out := make([]float64, len(frames))
			rb.InferBatchInto(frames, out)
			for i := range frames {
				check("wire probe", i, out[i], true)
			}
			if st := rb.TransportStats(); st.FramesDedup != int64(len(frames)) || ws.Stats().FramesScored != 0 {
				t.Fatalf("wire probe answered %d of %d frames, peer model scored %d",
					st.FramesDedup, len(frames), ws.Stats().FramesScored)
			}

			var snap bytes.Buffer
			if _, err := s.Cache().Snapshot(&snap); err != nil {
				t.Fatal(err)
			}
			restored := engine.NewVerdictMap(0)
			if _, err := restored.Restore(&snap); err != nil {
				t.Fatal(err)
			}
			for i, f := range frames {
				v, ok := restored.LookupVerdict(imaging.ContentKey(f))
				check("restored snapshot", i, v, ok)
			}
		})
	}
}

// countingBackend scores instantly with stubScore and counts how many times
// each content key reached the model.
type countingBackend struct {
	mu   sync.Mutex
	runs map[[32]byte]int
}

func (b *countingBackend) Name() string              { return "counting-test" }
func (b *countingBackend) InputRes() int             { return 16 }
func (b *countingBackend) Replicate() engine.Backend { return b }
func (b *countingBackend) Warm(int)                  {}
func (b *countingBackend) Close()                    {}
func (b *countingBackend) Stats() engine.Stats       { return engine.Stats{} }

func (b *countingBackend) InferBatchInto(frames []*imaging.Bitmap, out []float64) []float64 {
	out = out[:len(frames)]
	b.mu.Lock()
	for i, f := range frames {
		b.runs[imaging.ContentKey(f)]++
		out[i] = stubScore(f)
	}
	b.mu.Unlock()
	return out
}

// TestEveryKeyScoredOnce: with caching on, concurrent submitters hammering a
// few creatives reach the model exactly once per creative — a submission
// racing a resolving leader either follows it or finds its stored score —
// and every Submit resolves once, as a hit, a follower or a model run.
func TestEveryKeyScoredOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const submitters, perSubmitter, distinct = 8, 200, 20
	cb := &countingBackend{runs: map[[32]byte]int{}}
	s := testServer(t, core.Options{}, Options{Shards: 2, MaxBatch: 4, Backend: cb})
	frames := synth.SampleFrames(107, distinct)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		byStatus = map[Status]int64{}
	)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			seen := map[Status]int64{}
			for i := 0; i < perSubmitter; i++ {
				f := frames[(g*7+i)%distinct]
				r := s.Submit(f)
				if r.Score != stubScore(f) {
					t.Errorf("submitter %d: %v resolved score %v, want %v", g, r.Status, r.Score, stubScore(f))
				}
				seen[r.Status]++
			}
			mu.Lock()
			for st, n := range seen {
				byStatus[st] += n
			}
			mu.Unlock()
		}(g)
	}
	wg.Wait()

	scored := 0
	for _, f := range frames {
		if n := cb.runs[imaging.ContentKey(f)]; n != 1 {
			t.Fatalf("a creative reached the model %d times, want once", n)
		}
	}
	for _, n := range cb.runs {
		scored += n
	}
	if scored != distinct {
		t.Fatalf("the model scored %d frames, want the %d distinct creatives", scored, distinct)
	}
	m := s.Metrics()
	const total = submitters * perSubmitter
	if m.Submitted.Load() != total || byStatus[StatusShed] != 0 ||
		byStatus[StatusClassified]+byStatus[StatusCached]+byStatus[StatusCoalesced] != total {
		t.Fatalf("%d submitted, resolutions %v; want %d, each resolved once and none shed", m.Submitted.Load(), byStatus, total)
	}
	if m.CacheHits.Load()+m.Coalesced.Load()+int64(scored) != m.Submitted.Load() ||
		m.Classified.Load() != int64(scored) || byStatus[StatusClassified] != int64(scored) {
		t.Fatalf("%d hits + %d coalesced + %d scored (classified counter %d) != %d submitted",
			m.CacheHits.Load(), m.Coalesced.Load(), scored, m.Classified.Load(), m.Submitted.Load())
	}
}
