// Serving: stand the micro-batching classification service up in front of
// a PERCIVAL model and drive it from many concurrent clients — the
// deployment shape for serving heavy traffic, where throughput comes from
// batched forward passes, in-flight coalescing, and the sharded verdict
// cache rather than from per-frame latency alone.
//
// The second act scales the same service across process boundaries: a
// front serve.Server whose dispatch shards proxy every forward pass to two
// backend percival-serve replicas (engine.RemoteBackend, which learns each
// peer's wire listener from GET /modelz and then keeps one hot socket to it
// — spawned in-process here, `-peers` and `-wire-listen` on a real
// deployment), supervised by an engine.Fleet. When a peer dies
// its traffic fails over to the surviving replica (or the local model as a
// last resort), the dead peer is evicted from rotation, and a background
// redialer re-admits it once /modelz answers again — verdicts stay
// identical throughout instead of failing open.
package main

import (
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"percival/internal/core"
	"percival/internal/engine"
	"percival/internal/imaging"
	"percival/internal/serve"
	"percival/internal/squeezenet"
	"percival/internal/synth"
)

func main() {
	// A deterministic reduced-scale model: the example demonstrates the
	// serving machinery, not verdict quality.
	arch := squeezenet.SmallConfig(32)
	model, err := squeezenet.Build(arch)
	if err != nil {
		log.Fatal(err)
	}
	squeezenet.PretrainedInit(model, 1)
	svc, err := core.New(model, arch, core.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// Two dispatch shards, each with its own coalescing batcher and backend
	// replica, partitioned by content-hash range. Batching is work-conserving:
	// a batch leaves the moment a worker is free and fills only while every
	// worker is busy, so there is no batching delay to configure.
	srv, err := serve.New(svc, serve.Options{
		MaxBatch: 16,
		Shards:   2,
		Deadline: time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	srv.Warm()

	// The workload: 32 distinct creatives, each sighted 4 times across the
	// client population — ad creatives repeat, which is exactly what the
	// cache and the in-flight coalescer exploit.
	const distinct, repeats, clients = 32, 4, 8
	g := synth.NewGenerator(7, synth.CrawlStyle())
	frames := make([]*imaging.Bitmap, distinct)
	for i := range frames {
		frames[i], _ = g.Sample()
	}

	fmt.Fprintf(os.Stderr, "submitting %d frames from %d clients...\n", distinct*repeats, clients)
	start := time.Now()
	var wg sync.WaitGroup
	var blocked, shed int64
	var mu sync.Mutex
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < distinct*repeats/clients; i++ {
				res := srv.Submit(frames[(c+i*clients)%distinct])
				mu.Lock()
				if res.Ad {
					blocked++
				}
				if res.Status == serve.StatusShed {
					shed++
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	m := srv.Metrics()
	total := m.Submitted.Load()
	fmt.Printf("served %d frames in %v — %.0f frames/sec\n",
		total, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds())
	fmt.Printf("  model runs   %d (batched into %d forward passes, mean fill %.1f)\n",
		m.Classified.Load(), m.Batches.Load(), m.BatchFill.Mean())
	fmt.Printf("  cache hits   %d\n", m.CacheHits.Load())
	fmt.Printf("  coalesced    %d (attached to in-flight duplicates)\n", m.Coalesced.Load())
	fmt.Printf("  shed         %d\n", shed)
	fmt.Printf("  blocked      %d of %d\n", blocked, total)
	fmt.Printf("  p50 latency  %.2f ms, p99 %.2f ms (model-scored frames)\n",
		m.LatencyMS.Quantile(0.5), m.LatencyMS.Quantile(0.99))
	for i, st := range srv.BackendStats() {
		fmt.Printf("  shard %d      %d frames in %d forward passes (%s replica)\n",
			i, st.Frames, st.Batches, svc.Engine().Name())
	}
	srv.Close()

	// --- Two-tier topology: the same workload, but the front's dispatch
	// shards proxy to two backend model processes over the socket wire,
	// supervised by a self-healing fleet. Each shard pins a preferred
	// peer (round-robin), and verdicts are identical to in-process dispatch
	// because the peers run the exact same pre-processing and forward pass.
	fmt.Println()
	fmt.Println("two-tier: front serve.Server -> 2 remote percival-serve backends (fleet)")
	peers := make([]*engine.RemoteBackend, 2)
	backendSrvs := make([]*httptest.Server, 2)
	wires := make([]*engine.WireServer, 2)
	for i := range peers {
		// a backend daemon: its wire listener scores chunks (and answers
		// key probes from its own verdict store), /modelz advertises it
		rep := svc.Engine().Replicate()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		wires[i] = engine.NewWireServer(engine.WireServerOptions{Backend: rep, Cache: engine.NewVerdictMap(0)})
		go wires[i].Serve(ln)
		defer wires[i].Close()
		mux := http.NewServeMux()
		mux.Handle("GET /modelz", engine.ModelzHandlerID(nil, rep, svc.Threshold(), ln.Addr().String(), ""))
		backendSrvs[i] = httptest.NewServer(mux)
		defer backendSrvs[i].Close()
		rb, err := engine.NewRemote(backendSrvs[i].URL, engine.RemoteOptions{ExpectRes: svc.InputRes()})
		if err != nil {
			log.Fatal(err)
		}
		peers[i] = rb
	}
	// The fleet health-gates the peers: two consecutive chunk failures
	// evict a peer from rotation (re-routing its shard to the survivor),
	// a background redialer probes /modelz with doubling backoff until it
	// answers again, and the local model catches chunks if every peer is
	// out. -evict-after / -redial-max / -hedge-quantile on percival-serve.
	fleet, err := engine.NewFleet(peers, engine.FleetOptions{
		EvictAfter: 2,
		RedialBase: 500 * time.Millisecond,
		RedialMax:  2 * time.Second,
		Fallback:   svc.Engine(),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer fleet.Close()
	front, err := serve.New(svc, serve.Options{
		MaxBatch: 16,
		Shards:   2,
		Deadline: time.Second,
		Backend:  fleet,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer front.Close()
	front.Warm()

	mismatches := 0
	for i, f := range frames {
		res := front.Submit(f)
		if want := svc.Classify(f); res.Score != want {
			mismatches++
			fmt.Printf("  frame %d: proxied %v != in-process %v\n", i, res.Score, want)
		}
	}
	fmt.Printf("  %d/%d proxied verdicts identical to in-process dispatch\n",
		len(frames)-mismatches, len(frames))
	for i, st := range front.BackendStats() {
		fmt.Printf("  shard %d      %d frames in %d proxied passes (%s)\n",
			i, st.Frames, st.Batches, fleet.Name())
	}

	// Kill one backend: the supervisor fails its chunks over to the
	// surviving peer (verdicts stay identical — nothing fails open), trips
	// peer 0 to evicted after two consecutive failures, and keeps probing
	// it in the background. Frames route to shards by content hash, so
	// submit a spread of fresh frames to be sure some land on the dead
	// peer's preferred lane.
	wires[0].Close()
	backendSrvs[0].Close()
	mismatches = 0
	for i := 0; i < 32; i++ {
		fresh, _ := g.Sample()
		res := front.Submit(fresh)
		if want := svc.Classify(fresh); res.Score != want {
			mismatches++
		}
	}
	var failedOpen int64
	for _, st := range front.BackendStats() {
		failedOpen += st.Errors
	}
	fmt.Printf("  peer 0 down: 32/32 frames re-routed, %d verdict mismatches, %d failed open\n",
		mismatches, failedOpen)
	for _, ph := range fleet.PeerHealth() {
		fmt.Printf("  %-24s %s (evictions %d, %d frames served)\n",
			ph.Peer, ph.State, ph.Evictions, ph.Frames)
	}
}
