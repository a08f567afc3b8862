package main

import (
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"percival/internal/core"
	"percival/internal/engine"
	"percival/internal/imaging"
	"percival/internal/serve"
)

const (
	// serveClients is the closed-loop client count: the callers are raster
	// workers that block on a verdict, and the box has two of them.
	serveClients = 2
	// framesPerSize × 11 size classes = 44 frames per serve workload.
	framesPerSize = 4
	// serveMaxBatch: two clients never fill more, and warming all 16 batch
	// sizes of the default made set-up 6–8 s of page-fault noise.
	serveMaxBatch = 4
)

// serveRig drives a serve.Server with closed-loop clients.
type serveRig struct {
	svc     *core.Percival
	srv     *serve.Server
	all     []*imaging.Bitmap   // size-major
	clients [][]*imaging.Bitmap // what each client cycles through
	refs    map[*imaging.Bitmap]float64
	wire    *wireRig // remote_wire only
}

func (r *serveRig) close() {
	r.srv.Close()
	if r.wire != nil {
		r.wire.close()
	}
}

func (r *serveRig) sampleFrames() []*imaging.Bitmap { return onePerSize(r.all, framesPerSize) }

// prepare scores every frame in-process: Submit must return these scores
// bit for bit, whichever engine, batch, cache or wire produced them.
func (r *serveRig) prepare() error {
	r.refs = make(map[*imaging.Bitmap]float64, len(r.all))
	for _, f := range r.all {
		r.refs[f] = r.svc.Classify(f)
	}
	return nil
}

// eachClient runs fn once per client, concurrently, and waits.
func (r *serveRig) eachClient(fn func(c int, frames []*imaging.Bitmap)) {
	var wg sync.WaitGroup
	for c, frames := range r.clients {
		wg.Add(1)
		go func(c int, frames []*imaging.Bitmap) {
			defer wg.Done()
			fn(c, frames)
		}(c, frames)
	}
	wg.Wait()
}

func (r *serveRig) run(d time.Duration, tr *tracer) *phase {
	samples := make([][]op, len(r.clients))
	failed := make([]int, len(r.clients))
	for c := range samples {
		// the fastest workload completes ~4k ops/s across both clients
		samples[c] = make([]op, 0, int(d.Seconds()*8000)+1024)
	}
	serve0 := snapServe(r.srv)
	var wire0 wireCounters
	var scored0 int64
	if r.wire != nil {
		wire0 = r.wire.counters(r.srv)
		scored0 = r.wire.framesScored()
	}
	cpu0 := cpuMS()
	start := time.Now()
	deadline := start.Add(d)
	r.eachClient(func(c int, frames []*imaging.Bitmap) {
		for i := 0; ; i++ {
			f := frames[i%len(frames)]
			t0 := time.Now()
			if !t0.Before(deadline) {
				return
			}
			res := r.srv.Submit(f)
			t1 := time.Now()
			tr.add("serve.Submit", t0, t1, -1, int64(c)<<32|int64(i))
			samples[c] = append(samples[c], op{t1.Sub(start), float64(t1.Sub(t0).Nanoseconds()) / 1e6})
			if res.Status == serve.StatusShed || res.Score != r.refs[f] {
				failed[c]++
			}
		}
	})
	p := &phase{wall: time.Since(start), cpuMS: cpuMS() - cpu0, int8: r.svc.QuantizedActive()}
	p.serve = snapServe(r.srv).since(serve0)
	p.modelFrames = p.serve.classified
	if r.wire != nil {
		p.wire = r.wire.counters(r.srv).since(wire0)
		p.modelFrames = r.wire.framesScored() - scored0
	}
	var ops []op
	for c := range samples {
		p.failed += failed[c]
		ops = append(ops, samples[c]...)
		for _, o := range samples[c] {
			p.latMS = append(p.latMS, o.latMS)
		}
	}
	p.attempted = len(ops)
	p.frames = int64(len(ops))
	// ~0.25 s blocks, but never so short that a block's median rests on
	// fewer than 8 operations
	blocks := int(4*d.Seconds() + 0.5)
	if most := len(ops) / 8; blocks > most {
		blocks = most
	}
	rates, lat := blockStats(ops, blocks)
	p.fps = quietestRate(rates)
	p.p50MS = quietestLatency(lat)
	return p
}

// newServeRig is the set-up the serve workloads share: the seed's frames, the
// model, a warm server, and request/batch pools warmed through the batcher.
func newServeRig(seed int64, quantized bool, opts serve.Options) (*serveRig, error) {
	frames, err := stratifiedFrames(seed, framesPerSize)
	if err != nil {
		return nil, err
	}
	var calib []*imaging.Bitmap
	if quantized {
		calib = onePerSize(frames, framesPerSize)[:8]
	}
	svc, err := buildService(calib)
	if err != nil {
		return nil, err
	}
	opts.MaxBatch = serveMaxBatch
	srv, err := serve.New(svc, opts)
	if err != nil {
		return nil, fmt.Errorf("serve.New: %w", err)
	}
	srv.Warm()
	return &serveRig{svc: svc, srv: srv, all: frames}, nil
}

// uniqueClients gives each client its own half of every size class, so no
// frame is ever in flight or cached twice.
func (r *serveRig) uniqueClients(seed int64) {
	r.clients = splitClients(r.all, framesPerSize, serveClients, seed)
	r.eachClient(func(_ int, frames []*imaging.Bitmap) {
		for _, f := range frames[:4] {
			r.srv.Submit(f)
		}
	})
}

// sharedClients has every client cycle through all frames, each in its own
// seed-shuffled order, and runs one cold pass so whatever caches the
// topology has are full before the timed phase.
func (r *serveRig) sharedClients(seed int64) {
	r.clients = make([][]*imaging.Bitmap, serveClients)
	for c := range r.clients {
		fs := append([]*imaging.Bitmap(nil), r.all...)
		rand.New(rand.NewSource(seed+int64(c))).Shuffle(len(fs), func(i, j int) { fs[i], fs[j] = fs[j], fs[i] })
		r.clients[c] = fs
	}
	r.eachClient(func(_ int, frames []*imaging.Bitmap) {
		for _, f := range frames {
			r.srv.Submit(f)
		}
	})
}

func newServeUnique(seed int64) (rig, error) {
	r, err := newServeRig(seed, false, serve.Options{DisableCache: true})
	if err != nil {
		return nil, err
	}
	r.uniqueClients(seed)
	return r, nil
}

func newServeUniqueInt8(seed int64) (rig, error) {
	r, err := newServeRig(seed, true, serve.Options{DisableCache: true})
	if err != nil {
		return nil, err
	}
	r.uniqueClients(seed)
	return r, nil
}

func newServeRotation(seed int64) (rig, error) {
	r, err := newServeRig(seed, false, serve.Options{})
	if err != nil {
		return nil, err
	}
	r.sharedClients(seed)
	if got := r.srv.CacheLen(); got != len(r.all) {
		r.close()
		return nil, fmt.Errorf("serve_rotation: cache holds %d of %d creatives after the cold pass", got, len(r.all))
	}
	return r, nil
}

// wireRig is the far side of remote_wire: in-process peers, each a model
// replica behind a wire-v2 listener and a /modelz handshake, and the fleet
// of remotes that dials them.
type wireRig struct {
	peers   []*engine.WireServer
	https   []*httptest.Server
	reps    []engine.Backend
	remotes []*engine.RemoteBackend
	fleet   *engine.Fleet
}

// newWireRig starts n peers serving svc's engine and dials them.
func newWireRig(svc *core.Percival, n int) (*wireRig, error) {
	w := &wireRig{}
	for i := 0; i < n; i++ {
		rep := svc.Engine().Replicate()
		rep.Warm(serveMaxBatch)
		w.reps = append(w.reps, rep)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			w.close()
			return nil, fmt.Errorf("wire listener: %w", err)
		}
		ws := engine.NewWireServer(engine.WireServerOptions{Backend: rep, Cache: engine.NewVerdictMap(0)})
		go ws.Serve(ln) // returns when ws.Close closes the listener
		w.peers = append(w.peers, ws)
		mux := http.NewServeMux()
		mux.Handle("POST /classify/batch", engine.BatchHandler(nil, rep))
		mux.Handle("GET /modelz", engine.ModelzHandlerWire(nil, rep, svc.Threshold(), ln.Addr().String()))
		ts := httptest.NewServer(mux)
		w.https = append(w.https, ts)
		rb, err := engine.NewRemote(ts.URL, engine.RemoteOptions{ExpectRes: svc.InputRes(), Transport: "socket"})
		if err != nil {
			w.close()
			return nil, fmt.Errorf("dial wire peer: %w", err)
		}
		w.remotes = append(w.remotes, rb)
	}
	fleet, err := engine.NewFleet(w.remotes, engine.FleetOptions{})
	if err != nil {
		w.close()
		return nil, fmt.Errorf("fleet: %w", err)
	}
	w.fleet = fleet
	return w, nil
}

func (w *wireRig) close() {
	if w.fleet != nil {
		w.fleet.Close() // closes the remotes' transports
	} else {
		for _, rb := range w.remotes {
			rb.Close()
		}
	}
	for _, ws := range w.peers {
		ws.Close()
	}
	for _, ts := range w.https {
		ts.Close()
	}
	for _, rep := range w.reps {
		rep.Close()
	}
}

// framesScored is how many frames the peers' models have scored so far.
func (w *wireRig) framesScored() int64 {
	var n int64
	for _, ws := range w.peers {
		n += ws.Stats().FramesScored
	}
	return n
}

// counters sums the transports', the fleet's and the front shards' counters.
func (w *wireRig) counters(front *serve.Server) wireCounters {
	var c wireCounters
	for _, rb := range w.remotes {
		st := rb.TransportStats()
		c.bytesOut += st.BytesOut
		c.framesPixels += st.FramesPixels
		c.framesDedup += st.FramesDedup
	}
	c.hedges = w.fleet.Hedges()
	c.fallbacks = w.fleet.Fallbacks()
	c.errors = w.fleet.Stats().Errors
	if front != nil {
		for _, st := range front.BackendStats() {
			c.errors += st.Errors
		}
	}
	return c
}

func newRemoteWire(seed int64) (rig, error) {
	frames, err := stratifiedFrames(seed, framesPerSize)
	if err != nil {
		return nil, err
	}
	svc, err := buildService(nil)
	if err != nil {
		return nil, err
	}
	wire, err := newWireRig(svc, 2)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(svc, serve.Options{
		MaxBatch:     serveMaxBatch,
		Shards:       2,
		DisableCache: true,
		Backend:      wire.fleet,
	})
	if err != nil {
		wire.close()
		return nil, fmt.Errorf("serve.New: %w", err)
	}
	srv.Warm()
	r := &serveRig{svc: svc, srv: srv, all: frames, wire: wire}
	// the cold pass carries every creative's pixels to a peer once; from
	// here on the peers answer hash probes from their verdict caches
	r.sharedClients(seed)
	if got := wire.framesScored(); got < int64(len(frames)) {
		r.close()
		return nil, fmt.Errorf("remote_wire: peers scored %d of %d creatives in the cold pass", got, len(frames))
	}
	return r, nil
}
