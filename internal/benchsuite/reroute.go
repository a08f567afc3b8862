package benchsuite

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"percival/internal/engine"
	"percival/internal/faultinject"
	"percival/internal/imaging"
	"percival/internal/serve"
	"percival/internal/synth"
)

// flipBackend inverts every verdict it scores — the injected disagreeing
// model the canary rollback gate must catch from live agreement alone.
type flipBackend struct{ engine.Backend }

func (f flipBackend) InferBatchInto(frames []*imaging.Bitmap, out []float64) []float64 {
	res := f.Backend.InferBatchInto(frames, out)
	for i := range res {
		res[i] = 1 - res[i]
	}
	return res
}

func (f flipBackend) Replicate() engine.Backend { return flipBackend{f.Backend.Replicate()} }

// ServeReroute8x2 is the control-plane row: a 3-peer fleet on the rotation
// workload with peer 0 permanently ~100ms slow (healthy, just degraded — the
// case eviction and hedging don't cover). The timed headline is weighted
// routing throughput; around it the row asserts the fleet-control acceptance
// contract:
//
//   - weighted (window-headroom-per-latency) routing sustains goodput >= the
//     static lane-pinned baseline measured on the same run, with verdicts
//     bit-identical to in-process classification throughout;
//   - a live drain+remove of the slow peer plus a live add of a spare,
//     mid-load through Fleet's membership surface, completes with zero
//     fail-open and zero wrong verdicts;
//   - the agreement-gated canary rolls back an injected disagreeing model
//     and promotes an agreeing one, both driven only by the live verdict
//     agreement floor — no wall clock, no manual gate.
func ServeReroute8x2(b *testing.B) {
	svc := PaperService(false)
	// peers 0..2 are the initial fleet (0 always slow); 3 is the spare that
	// joins live during the membership phase
	const nPeers = 4
	injs := make([]*faultinject.Injector, nPeers)
	urls := make([]string, nPeers)
	for i := range urls {
		rep := svc.Engine().Replicate()
		rep.Warm(16)
		mux := http.NewServeMux()
		mux.Handle("POST /classify/batch", engine.BatchHandler(nil, rep))
		mux.Handle("GET /modelz", engine.ModelzHandler(nil, rep, svc.Threshold()))
		injs[i] = faultinject.NewInjector(int64(i + 1))
		ts := httptest.NewServer(faultinject.Middleware(injs[i], mux))
		defer ts.Close()
		urls[i] = ts.URL
	}
	injs[0].Set(faultinject.Fault{Latency: 100 * time.Millisecond, LatencyRate: 1.0})

	dial := func(u string) *engine.RemoteBackend {
		// slow != dead: the per-attempt budget clears the injected latency
		// with room, and EvictAfter stays high so the supervisor never
		// rescues the router — shedding the slow peer is routing's job here
		rb, err := engine.NewRemote(u, engine.RemoteOptions{
			ExpectRes: svc.InputRes(),
			Timeout:   2 * time.Second,
			Retries:   0,
		})
		if err != nil {
			failf(b, "dial %s: %v", u, err)
		}
		return rb
	}

	frames := synth.SampleFrames(19, serveRotationDistinct)
	wants := make([]float64, len(frames))
	for i, f := range frames {
		wants[i] = svc.Classify(f)
	}
	// bit-identity is checked inside client goroutines, where Fatalf is
	// illegal — record atomically, assert from the main flow
	var mismatches atomic.Int64
	var firstMismatch atomic.Value // string
	runWindow := func(srv *serve.Server, check bool) {
		srv.ResetCache()
		var wg sync.WaitGroup
		for c := 0; c < ServeConcurrency; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := range frames {
					j := (c + i) % len(frames)
					r := srv.Submit(frames[j])
					if check && r.Score != wants[j] {
						if mismatches.Add(1) == 1 {
							firstMismatch.Store(fmt.Sprintf(
								"frame %d scored %v, want %v", j, r.Score, wants[j]))
						}
					}
				}
			}(c)
		}
		wg.Wait()
	}
	checkIdentical := func(phase string) {
		if n := mismatches.Load(); n != 0 {
			failf(b, "%s: %d verdicts diverged from in-process classification (first: %v)",
				phase, n, firstMismatch.Load())
		}
	}

	// phase 1: static lane-pinned baseline — the pre-refactor placement, one
	// shard lane stuck on the slow peer — same window count as the timed
	// weighted phase, measured on the same run
	staticFleet, err := engine.NewFleet(
		[]*engine.RemoteBackend{dial(urls[0]), dial(urls[1]), dial(urls[2])},
		engine.FleetOptions{EvictAfter: 50, HedgeQuantile: -1})
	if err != nil {
		failf(b, "%v", err)
	}
	staticSrv, err := serve.New(svc, serve.Options{
		MaxBatch: 16,
		Shards:   3,
		Backend:  staticFleet,
	})
	if err != nil {
		failf(b, "%v", err)
	}
	staticSrv.Warm()
	runWindow(staticSrv, false) // warm pools, arenas, HTTP connections
	staticStart := time.Now()
	for i := 0; i < b.N; i++ {
		runWindow(staticSrv, true)
	}
	staticFPS := float64(b.N*ServeConcurrency*serveRotationDistinct) /
		time.Since(staticStart).Seconds()
	checkIdentical("static baseline")
	staticSrv.Close()
	staticFleet.Close()

	// phase 2: the weighted fleet behind the canary dispatch proxy — the
	// daemon's serving topology — with per-chunk placement by congestion
	// window headroom per unit latency EWMA. Timed: the row's headline.
	reg := engine.NewRegistry()
	fleet, err := engine.NewFleet(
		[]*engine.RemoteBackend{dial(urls[0]), dial(urls[1]), dial(urls[2])},
		engine.FleetOptions{EvictAfter: 50, HedgeQuantile: -1, Router: &engine.WeightedRouter{}})
	if err != nil {
		failf(b, "%v", err)
	}
	defer fleet.Close()
	if err := reg.Register("fleet", fleet); err != nil {
		failf(b, "%v", err)
	}
	serving := engine.NewCanaryBackend(reg, fleet)
	srv, err := serve.New(svc, serve.Options{
		MaxBatch: 16,
		Shards:   3,
		Backend:  serving,
	})
	if err != nil {
		failf(b, "%v", err)
	}
	defer srv.Close()
	srv.Warm()
	// two warm windows: the first seeds every peer's latency EWMA (cold
	// peers are tried optimistically), the second routes on learned weights
	runWindow(srv, false)
	runWindow(srv, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runWindow(srv, true)
	}
	b.StopTimer()
	weightedFPS := float64(b.N*ServeConcurrency*serveRotationDistinct) /
		b.Elapsed().Seconds()
	checkIdentical("weighted routing")
	if weightedFPS < staticFPS {
		failf(b, "weighted goodput %.1f frames/sec < static baseline %.1f",
			weightedFPS, staticFPS)
	}

	// phase 3 (untimed): live membership under load — add the spare, then
	// drain+remove the slow peer, while client windows keep dispatching
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			runWindow(srv, true)
		}
	}()
	membershipErr := func() error {
		if err := fleet.AddPeer(dial(urls[3])); err != nil {
			return fmt.Errorf("live add: %w", err)
		}
		if _, err := fleet.DrainRemovePeer(urls[0], 5*time.Second); err != nil {
			return fmt.Errorf("drain+remove: %w", err)
		}
		return nil
	}()
	close(stop)
	<-done
	if membershipErr != nil {
		failf(b, "%v", membershipErr)
	}
	runWindow(srv, true) // the post-churn topology still serves correctly
	checkIdentical("live membership churn")
	if n := len(fleet.PeerHealth()); n != 3 {
		failf(b, "fleet has %d peers after add+remove, want 3", n)
	}

	// phase 4 (untimed): the agreement-gated canary. First an injected
	// disagreeing model — every shifted chunk disagrees with the fleet's
	// shadow verdict, so the rollout must roll itself back (verdicts served
	// during this probe are intentionally wrong: unchecked windows). Then an
	// agreeing candidate, which must promote to registry default.
	canary := engine.CanaryOptions{
		Fraction: 1, Floor: 0.99, HoldWindow: 64, MinSamples: 16,
		Threshold: svc.Threshold(),
	}
	if err := reg.Register("flip", flipBackend{svc.Engine().Replicate()}); err != nil {
		failf(b, "%v", err)
	}
	if err := reg.BeginCanary("flip", canary); err != nil {
		failf(b, "%v", err)
	}
	for i := 0; i < 30 && reg.CanaryStatus().State != "rolled_back"; i++ {
		runWindow(srv, false)
	}
	if st := reg.CanaryStatus(); st.State != "rolled_back" {
		failf(b, "disagreeing canary not rolled back: %+v", st)
	}
	if def := reg.DefaultName(); def != "fleet" {
		failf(b, "rollback flipped the default to %q", def)
	}
	if err := reg.Register("good", svc.Engine().Replicate()); err != nil {
		failf(b, "%v", err)
	}
	if err := reg.BeginCanary("good", canary); err != nil {
		failf(b, "%v", err)
	}
	for i := 0; i < 30 && reg.CanaryStatus().State != "promoted"; i++ {
		runWindow(srv, true)
	}
	if st := reg.CanaryStatus(); st.State != "promoted" {
		failf(b, "agreeing canary not promoted: %+v", st)
	}
	if def := reg.DefaultName(); def != "good" {
		failf(b, "promotion left the default on %q", def)
	}
	runWindow(srv, true) // promoted topology serves the same verdicts
	checkIdentical("canary rollout")

	// zero fail-open across every phase: no chunk was ever scored by a
	// transport giving up instead of a model
	errs := fleet.Stats().Errors
	for _, st := range srv.BackendStats() {
		errs += st.Errors
	}
	if errs != 0 {
		failf(b, "%d chunks failed open during the control-plane sequence", errs)
	}
	b.ReportMetric(weightedFPS/staticFPS, "weighted/static")
	reportFPS(b, int64(b.N)*ServeConcurrency*serveRotationDistinct)
}
