// Command percival-serve runs PERCIVAL as a standalone classification
// daemon: an HTTP front end over the internal/serve sharded micro-batching
// service, turning many concurrent single-frame requests into batched
// forward passes on the FP32 or INT8 engine. It serves a model that
// percival-train wrote; it never trains one.
//
//	POST /classify        body = PNG/JPEG/GIF (or raw RGBA with ?w=&h= and
//	                      Content-Type: application/octet-stream); every
//	                      frame goes through the batcher, the admission
//	                      ladder and the verdict store
//	                      -> {"score":0.93,"ad":true,"status":"classified"}
//	GET  /modelz          engine/resolution/wire-listener handshake a front
//	                      dials before reaching this daemon over the wire
//	GET  /healthz         liveness + model/engine/shard info; on a -peers
//	                      front also the fleet supervisor's per-peer rows
//	                      (state, evictions, redials, hedge wins, latency)
//	GET  /metrics         Prometheus text exposition (serve counters/histograms,
//	                      fleet per-peer gauges on a -peers front)
//
//	percival-train -res 32 -o m.pcvl      # first, train a model offline
//	percival-serve -model m.pcvl -res 32  # serve it on :8093; -backend auto
//	                                      # (the default) quantizes and
//	                                      # serves INT8 if it passes the
//	                                      # parity gate against FP32
//	percival-serve -pretrained            # deterministic untrained weights (smoke)
//	percival-serve -model m.pcvl -res 224 -backend int8  # paper scale, INT8
//	percival-serve -model m.pcvl -backend fp32  # FP32 only: no INT8 engine
//	percival-serve -shards 4              # sharded dispatch: one batcher,
//	                                      # replica and dispatch worker per
//	                                      # shard (per-shard busy time on
//	                                      # /metrics)
//	percival-serve -admission             # unified admission controller: the
//	                                      # graded brownout ladder gates the
//	                                      # queue door and co-adapts batch
//	                                      # cap and shed deadline under
//	                                      # overload (stage in /healthz)
//	percival-serve -peers h1:8093,h2:8093 # front a self-healing fleet: shards
//	                                      # dispatch to supervised remote
//	                                      # replicas over the socket wire
//	                                      # each peer's /modelz advertises
//	                                      # (peers run -wire-listen),
//	                                      # evicting/redialing dead peers and
//	                                      # hedging slow ones (-evict-after,
//	                                      # -redial-max, -hedge-quantile),
//	                                      # falling back to the local model
//	                                      # when no healthy peer remains
//	percival-serve -wire-listen :8094     # serve the persistent-socket wire
//	                                      # (v3) that makes this daemon a
//	                                      # peer: fronts learn it via /modelz
//	                                      # and keep one hot framed
//	                                      # connection, with key-probe dedup
//	                                      # answered from the verdict cache
//	percival-serve -peers ... -route weighted  # per-chunk least-loaded routing:
//	                                      # every chunk goes to the peer with
//	                                      # the best congestion-window headroom
//	                                      # per unit latency EWMA, instead of
//	                                      # the static shard->peer pinning
//	percival-serve -admin-token s3cret    # authenticated control plane:
//	                                      # POST /admin/peers (live add),
//	                                      # DELETE /admin/peers/{id} (drain +
//	                                      # remove), GET /admin/topology,
//	                                      # POST/DELETE /admin/canary
//	                                      # (agreement-gated model rollout)
//	percival-serve -cache-file v.pcvc     # verdict cache survives restarts
//
// The examples from -shards on need -model or -pretrained as well.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"image"
	"io"
	"log"
	"mime"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"percival/internal/core"
	"percival/internal/engine"
	"percival/internal/imaging"
	"percival/internal/nn"
	"percival/internal/serve"
	"percival/internal/squeezenet"
	"percival/internal/synth"
	"percival/internal/tensor"
)

func main() {
	var (
		addr        = flag.String("addr", ":8093", "listen address")
		res         = flag.Int("res", 32, "classifier input resolution (224 = paper scale)")
		modelPath   = flag.String("model", "", "serve the PCVL weights percival-train wrote to this path")
		pretrained  = flag.Bool("pretrained", false, "serve deterministic untrained weights instead of a model file (smoke/bench)")
		seed        = flag.Int64("seed", 1, "seed for -pretrained's weights and the INT8 calibration frames")
		threshold   = flag.Float64("threshold", 0.5, "ad-probability blocking threshold")
		backendName = flag.String("backend", "auto", "serving engine: fp32, int8, or auto (quantize, and serve INT8 if it passes the parity gate against FP32)")
		shards      = flag.Int("shards", 1, "dispatch shards (content-hash range partitions, each with its own batcher, backend replica and dispatch worker): how many forward passes run at once")
		admission   = flag.Bool("admission", false, "run the unified admission controller: graded brownout (cache-only -> degraded -> shed) gates the queue door and co-adapts batch cap and shed deadline")
		maxBatch    = flag.Int("batch", 16, "max frames per forward pass")
		queue       = flag.Int("queue", 0, "submit queue depth (0 = default)")
		deadline    = flag.Duration("deadline", 500*time.Millisecond, "load-shed deadline (0 disables)")
		cacheSize   = flag.Int("cache", 4096, "verdict cache entries (0 = default, negative is an error)")
		cacheFile   = flag.String("cache-file", "", "verdict-cache snapshot path: loaded at startup, saved on shutdown")
		peers       = flag.String("peers", "", "comma-separated peer percival-serve addresses (host:port); dispatch shards proxy to these supervised remote replicas instead of the local engine")
		peerTimeout = flag.Duration("peer-timeout", 5*time.Second, "per-attempt timeout for remote peer calls")
		peerRetries = flag.Int("peer-retries", 2, "retries per remote batch before failing over (0 = single attempt)")
		evictAfter  = flag.Int("evict-after", 3, "consecutive chunk failures before a peer is evicted from the fleet")
		redialMax   = flag.Duration("redial-max", 15*time.Second, "cap on the evicted-peer redial backoff (base 250ms, doubling)")
		hedgeQ      = flag.Float64("hedge-quantile", 0.99, "latency quantile past which a chunk is hedged to a second peer (<=0 or >=1 disables)")
		hedgeMax    = flag.Duration("hedge-max", 0, "ceiling on the quantile-derived hedge delay (0 = the peer chunk budget); pin near the latency SLO so hedges still fire when the fleet degrades")
		windowMax   = flag.Int("window-max", 0, "cap on each peer's adaptive in-flight congestion window (CUBIC; 0 = default 64 chunks)")
		wireListen  = flag.String("wire-listen", "", "listen for the persistent-socket dispatch wire (v3) on this address and advertise it via /modelz (empty = no front can use this daemon as a peer)")
		route       = flag.String("route", "static", "fleet dispatch policy: static (one peer pinned per shard lane) or weighted (per-chunk least-loaded by congestion-window headroom per unit latency EWMA)")
		adminToken  = flag.String("admin-token", "", "enable the authenticated /admin control plane — live peer add/drain/remove and the model canary — with this bearer token (empty = disabled)")
		drainWait   = flag.Duration("drain-timeout", 5*time.Second, "in-flight quiesce budget when DELETE /admin/peers/{id} drains a peer before removing it")
	)
	flag.Parse()

	svc, backend, err := buildService(*res, *modelPath, *pretrained, *seed, *threshold, *backendName)
	if err != nil {
		log.Fatal("percival-serve: ", err)
	}
	log.Printf("model ready: res=%d engine=%s (parity %.3f), %d KB weights, kernels fp32=%s int8=%s",
		svc.InputRes(), backend.Name(), svc.ParityAgreement(), weightBytes(backend)/1024,
		tensor.GemmKernelName(), tensor.QGemmKernelName())

	// A -peers fleet replaces the dispatch engine with supervised remote
	// replicas: the registry gains one entry per peer (a canary candidate
	// names one), and the serve shards replicate the fleet round-robin so
	// every peer owns its own dispatch lane. The fleet health layer evicts
	// peers after -evict-after consecutive failures, redials them in the
	// background (backoff capped at -redial-max), hedges tail-latency chunks
	// past -hedge-quantile, and falls back to the local model when no
	// healthy peer remains — so a dying fleet degrades to local scoring, not
	// to score-0 fail-open. The local model keeps serving the wire listener
	// and /modelz (`local` below), so two fronts pointed at each other
	// cannot proxy a batch in a cycle.
	reg := svc.Backends()
	local := backend
	// the per-process identity /modelz advertises, so a dialing front (this
	// daemon's own dialPeers and admin API included) can tell "that peer is
	// me" apart from "that peer serves the same model"
	instanceID := newInstanceID()
	router, err := engine.NewRouter(*route)
	if err != nil {
		log.Fatal("percival-serve: ", err)
	}
	var fleet *engine.Fleet
	if *peers != "" {
		remotes, err := dialPeers(reg, *peers, svc.InputRes(), *peerTimeout, *peerRetries, *windowMax, instanceID)
		if err != nil {
			log.Fatal("percival-serve: ", err)
		}
		fleet, err = engine.NewFleet(remotes, engine.FleetOptions{
			EvictAfter:    *evictAfter,
			RedialMax:     *redialMax,
			HedgeQuantile: *hedgeQ,
			HedgeMax:      *hedgeMax,
			Fallback:      local,
			Router:        router,
		})
		if err != nil {
			log.Fatal("percival-serve: ", err)
		}
		backend = fleet
		if *shards < len(remotes) {
			log.Printf("raising -shards %d -> %d so every peer serves a dispatch shard",
				*shards, len(remotes))
			*shards = len(remotes)
		}
	}

	// The canary proxy rides every dispatch lane between serve and the
	// serving path (local engine or fleet): passthrough — one atomic load
	// per batch — until POST /admin/canary starts a rollout, at which point
	// it splits the configured traffic fraction onto the candidate and
	// shadow-scores it against the incumbent.
	serving := engine.NewCanaryBackend(reg, backend)
	opts := serve.Options{
		MaxBatch:   *maxBatch,
		QueueDepth: *queue,
		Deadline:   *deadline,
		CacheSize:  *cacheSize,
		Shards:     *shards,
		Backend:    serving,
	}
	if *admission {
		// the fleet's congestion windows feed its pressure signal automatically
		opts.Policy = serve.NewAdmissionController(serve.AdmissionOptions{})
	}
	srv, err := serve.New(svc, opts)
	if err != nil {
		log.Fatal("percival-serve: ", err)
	}
	// pre-touch every shard replica's arena state so the first client
	// burst classifies without allocating
	srv.Warm()
	if *cacheFile != "" {
		if n, err := loadCache(srv.Cache(), *cacheFile); err != nil {
			if n > 0 {
				// a truncated snapshot is not a cold start: report what made
				// it in before the error so operators can size the damage
				log.Printf("cache restore %s: %v (restored %d verdicts before the error)",
					*cacheFile, err, n)
			} else {
				log.Printf("cache restore %s: %v (serving cold)", *cacheFile, err)
			}
		} else if n > 0 {
			log.Printf("restored %d cached verdicts from %s", n, *cacheFile)
		}
	}

	// The persistent-socket wire listener, what a front dispatches to, serves
	// the local backend and is handed the serving edge's own verdict store:
	// it answers key probes from it and stores what it scores in it, so a
	// front's dedup hit and a local cache hit are the same entry. Binding
	// before the /modelz mount lets the handshake advertise the concrete
	// bound address (":0" included).
	var wire *engine.WireServer
	wireAddr := ""
	if *wireListen != "" {
		ln, err := net.Listen("tcp", *wireListen)
		if err != nil {
			log.Fatal("percival-serve: wire listener: ", err)
		}
		wire = engine.NewWireServer(engine.WireServerOptions{Backend: local, Cache: srv.Cache()})
		go func() {
			if err := wire.Serve(ln); err != nil {
				log.Printf("wire listener: %v", err)
			}
		}()
		wireAddr = ln.Addr().String()
		log.Printf("wire listener on %s (persistent-socket wire v3)", wireAddr)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /classify", classifyHandler(srv))
	mux.Handle("GET /modelz", engine.ModelzHandlerID(reg, local, svc.Threshold(), wireAddr, instanceID))
	mux.HandleFunc("GET /healthz", healthHandler(srv, reg, backend.Name(), wire))
	mux.HandleFunc("GET /metrics", metricsHandler(srv, reg, fleet, wire))
	if *adminToken != "" {
		admin := &adminAPI{
			token:     *adminToken,
			reg:       reg,
			fleet:     fleet,
			srv:       srv,
			localID:   instanceID,
			threshold: svc.Threshold(),
			drainWait: *drainWait,
			dialTmpl: engine.RemoteOptions{
				Timeout:   *peerTimeout,
				Retries:   *peerRetries,
				ExpectRes: svc.InputRes(),
				WindowMax: *windowMax,
			},
		}
		admin.mount(mux)
		log.Printf("admin control plane enabled: /admin/peers, /admin/topology, /admin/canary (router=%s)", router.Name())
	}

	httpSrv := &http.Server{Addr: *addr, Handler: mux}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Print("shutting down: draining in-flight requests")
		// Graceful drain, not drop: finish in-flight HTTP requests, then
		// close the serve layer (which flushes the open batches and
		// resolves every queued future) before snapshotting the cache.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("http shutdown: %v", err)
		}
		cancel()
		if wire != nil {
			// stop the socket wire with the HTTP front: fronts see the
			// connection drop, fail the in-flight chunks over and redial
			// elsewhere
			wire.Close()
		}
		srv.Close()
		if fleet != nil {
			// stop the redial state machines before exit (the local fallback
			// is svc's engine and is closed with the service)
			fleet.Close()
		}
		if *cacheFile != "" {
			if n, err := saveCache(srv.Cache(), *cacheFile); err != nil {
				log.Printf("cache snapshot %s: %v", *cacheFile, err)
			} else {
				log.Printf("saved %d cached verdicts to %s", n, *cacheFile)
			}
		}
	}()
	log.Printf("serving on %s (shards=%d batch<=%d deadline=%v admission=%v)",
		*addr, srv.Shards(), *maxBatch, *deadline, *admission)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal("percival-serve: ", err)
	}
	<-done
}

// dialPeers performs the /modelz handshake with every -peers address,
// validating each peer's input resolution against the local model, and
// registers the resulting remote backends (nameable as canary candidates).
// Addresses are deduplicated at parse time — "h1:8093,h1:8093" (or the
// same host spelled with and without a scheme) used to silently pin the
// peer to two shard lanes, doubling its share of dispatch — and a peer
// whose handshake identity matches this daemon is rejected outright: a
// front proxying batches to itself is a dispatch cycle, never a fleet.
func dialPeers(reg *engine.Registry, list string, res int, timeout time.Duration, retries int, windowMax int, localID string) ([]*engine.RemoteBackend, error) {
	var remotes []*engine.RemoteBackend
	seen := make(map[string]bool)
	for _, addr := range strings.Split(list, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		key := addr
		if !strings.Contains(key, "://") {
			key = "http://" + key
		}
		if u, err := url.Parse(key); err == nil && u.Host != "" {
			key = u.Scheme + "://" + u.Host
		}
		if seen[key] {
			log.Printf("-peers repeats %s; dialing it once", addr)
			continue
		}
		seen[key] = true
		rb, err := engine.NewRemote(addr, engine.RemoteOptions{
			Timeout:   timeout,
			Retries:   retries,
			ExpectRes: res,
			WindowMax: windowMax,
		})
		if err != nil {
			return nil, err
		}
		if localID != "" && rb.InstanceID() == localID {
			rb.Close()
			return nil, fmt.Errorf("peer %s is this daemon (self-dial)", rb.Peer())
		}
		if err := reg.Register(rb.Name(), rb); err != nil {
			return nil, err
		}
		remotes = append(remotes, rb)
		log.Printf("peer ready: %s (res=%d)", rb.Name(), rb.InputRes())
	}
	if len(remotes) == 0 {
		return nil, fmt.Errorf("-peers %q names no peers", list)
	}
	return remotes, nil
}

// loadCache restores the verdict cache from a snapshot file, tolerating a
// missing file (first run).
func loadCache(c *engine.VerdictMap, path string) (int, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return c.Restore(f)
}

// saveCache snapshots the verdict cache atomically (write temp, sync,
// rename). The Sync before the rename matters: renaming an unsynced temp
// file can land a zero-length .pcvc after a crash, which the next startup
// then fails to restore.
func saveCache(c *engine.VerdictMap, path string) (int, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	n, err := c.Snapshot(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return 0, err
	}
	return n, os.Rename(tmp, path)
}

// buildService assembles the core classifier from a model file, or from
// deterministic untrained weights under -pretrained, and returns it with the
// engine -backend names: fp32 builds no INT8 engine; int8 quantizes and
// serves INT8; auto quantizes and serves whichever engine the parity gate
// picked. The daemon never trains: a model comes from percival-train.
func buildService(res int, modelPath string, pretrained bool, seed int64, threshold float64, backend string) (*core.Percival, engine.Backend, error) {
	opts := core.Options{Threshold: threshold, DisableCache: true} // serve owns memoization
	switch backend {
	case engine.FP32Name:
	case "auto", engine.Int8Name:
		opts.Quantized = true
		// representative creatives for calibration and the parity gate
		opts.CalibFrames = synth.SampleFrames(seed+100, 32)
	default:
		return nil, nil, fmt.Errorf("-backend %q: want fp32, int8 or auto", backend)
	}
	if modelPath == "" && !pretrained {
		return nil, nil, fmt.Errorf("no model to serve: train one with `percival-train -res %d -o m.pcvl` "+
			"and pass -model m.pcvl, or pass -pretrained for deterministic untrained weights", res)
	}
	arch := squeezenet.SmallConfig(res)
	if res >= 224 {
		arch = squeezenet.PaperConfig()
	}
	net, err := squeezenet.Build(arch)
	if err != nil {
		return nil, nil, err
	}
	if modelPath != "" {
		if err := nn.LoadFile(modelPath, net); err != nil {
			return nil, nil, fmt.Errorf("load -model at -res %d: %w", res, err)
		}
	} else {
		squeezenet.PretrainedInit(net, seed)
	}
	svc, err := core.New(net, arch, opts)
	if err != nil {
		return nil, nil, err
	}
	if backend == engine.Int8Name {
		b, _ := svc.Backends().Get(engine.Int8Name) // registered: Quantized was set
		return svc, b, nil
	}
	return svc, svc.Engine(), nil
}

// weightBytes is the weight footprint of the engine b: the INT8 engine's own
// when it serves INT8, not the FP32 model it was quantized from.
func weightBytes(b engine.Backend) int {
	if s, ok := b.(interface{ SizeBytes() int }); ok {
		return s.SizeBytes()
	}
	return 0
}

// verdict is the /classify response schema.
type verdict struct {
	Score  float64 `json:"score"`
	Ad     bool    `json:"ad"`
	Status string  `json:"status"`
}

// classifyHandler decodes the request body into a frame and submits it to
// the batching service, so every verdict passes the admission ladder and the
// verdict store. Encoded images are sniffed (PNG/JPEG/GIF, like the
// renderer's decode stage); raw RGBA needs ?w= and ?h=.
func classifyHandler(srv *serve.Server) http.HandlerFunc {
	const maxBody = 32 << 20
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(io.LimitReader(r.Body, maxBody+1))
		if err != nil {
			http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
			return
		}
		if len(body) > maxBody {
			http.Error(w, "frame too large", http.StatusRequestEntityTooLarge)
			return
		}
		frame, err := decodeFrame(r, body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		res := srv.Submit(frame)
		w.Header().Set("Content-Type", "application/json")
		if res.Status == serve.StatusShed {
			// overloaded: the verdict is unknown; the client should render
			// the frame (fail open) and may retry later
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		json.NewEncoder(w).Encode(verdict{Score: res.Score, Ad: res.Ad, Status: res.Status.String()})
	}
}

// decodeFrame interprets the request body as raw RGBA (octet-stream with
// dimensions) or as an encoded image.
func decodeFrame(r *http.Request, body []byte) (*imaging.Bitmap, error) {
	// Content-Type may carry parameters ("application/octet-stream;
	// charset=binary"); compare the parsed media type, not the raw header.
	ct := r.Header.Get("Content-Type")
	if mt, _, err := mime.ParseMediaType(ct); err == nil {
		ct = mt
	}
	if ct == "application/octet-stream" {
		// strconv.Atoi, not fmt.Sscan: Sscan stops at the first
		// non-digit, silently accepting "64abc" as 64
		w, err := strconv.Atoi(r.URL.Query().Get("w"))
		if err != nil {
			return nil, fmt.Errorf("raw frame needs integer ?w=")
		}
		h, err := strconv.Atoi(r.URL.Query().Get("h"))
		if err != nil {
			return nil, fmt.Errorf("raw frame needs integer ?h=")
		}
		if err := engine.CheckFrameDims(w, h); err != nil {
			return nil, fmt.Errorf("raw %v", err)
		}
		if w*h*4 != len(body) {
			return nil, fmt.Errorf("raw frame %dx%d does not match %d bytes", w, h, len(body))
		}
		b := imaging.NewBitmap(w, h)
		copy(b.Pix, body)
		return b, nil
	}
	// bound the claimed size from the header before the decoder sizes its
	// pixel buffers from it
	cfg, _, err := image.DecodeConfig(bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("decode frame: %v", err)
	}
	if err := engine.CheckFrameDims(cfg.Width, cfg.Height); err != nil {
		return nil, fmt.Errorf("encoded %v", err)
	}
	frame, _, err := imaging.Decode(body)
	if err != nil {
		return nil, fmt.Errorf("decode frame: %v", err)
	}
	return frame, nil
}

// metricsHandler renders the serve counters plus each shard replica's
// engine counters — including Errors, the fail-open count that is the only
// sign a remote peer is down (the service itself keeps answering) — and
// the registry entries' counters: the local engine the wire listener scores
// on, and each -peers peer. A -peers front also exposes the fleet
// supervisor: per-peer state/eviction/redial/hedge counters and latency
// EWMAs, plus the fleet-wide hedge and local-fallback totals.
func metricsHandler(srv *serve.Server, reg *engine.Registry, fleet *engine.Fleet, wire *engine.WireServer) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		io.WriteString(w, srv.Metrics().Expose())
		if adm := srv.Admission(); adm != nil {
			io.WriteString(w, adm.Expose())
		}
		for i, st := range srv.BackendStats() {
			fmt.Fprintf(w, "percival_engine_batches_total{shard=\"%d\"} %d\n", i, st.Batches)
			fmt.Fprintf(w, "percival_engine_errors_total{shard=\"%d\"} %d\n", i, st.Errors)
			fmt.Fprintf(w, "percival_engine_state_bytes{shard=\"%d\"} %d\n", i, st.StateBytes)
		}
		for _, name := range reg.Names() {
			if b, ok := reg.Get(name); ok {
				st := b.Stats()
				fmt.Fprintf(w, "percival_engine_backend_frames_total{backend=%q} %d\n", name, st.Frames)
				fmt.Fprintf(w, "percival_engine_backend_errors_total{backend=%q} %d\n", name, st.Errors)
			}
		}
		if wire != nil {
			ws := wire.Stats()
			fmt.Fprintf(w, "percival_wire_sock_conns_total %d\n", ws.Conns)
			fmt.Fprintf(w, "percival_wire_sock_requests_total %d\n", ws.Requests)
			fmt.Fprintf(w, "percival_wire_sock_probe_hits_total %d\n", ws.ProbeHits)
			fmt.Fprintf(w, "percival_wire_sock_probe_misses_total %d\n", ws.ProbeMisses)
			fmt.Fprintf(w, "percival_wire_sock_frames_scored_total %d\n", ws.FramesScored)
			fmt.Fprintf(w, "percival_wire_sock_bytes_in_total %d\n", ws.BytesIn)
			fmt.Fprintf(w, "percival_wire_sock_bytes_out_total %d\n", ws.BytesOut)
			fmt.Fprintf(w, "percival_wire_sock_write_errors_total %d\n", ws.WriteErrors)
		}
		if fleet == nil {
			return
		}
		fmt.Fprintf(w, "percival_fleet_hedges_total %d\n", fleet.Hedges())
		fmt.Fprintf(w, "percival_fleet_hedge_wins_total %d\n", fleet.HedgeWins())
		fmt.Fprintf(w, "percival_fleet_fallbacks_total %d\n", fleet.Fallbacks())
		for _, ph := range fleet.PeerHealth() {
			fmt.Fprintf(w, "percival_fleet_peer_state{peer=%q} %d\n", ph.Peer, ph.StateCode)
			fmt.Fprintf(w, "percival_fleet_peer_consec_fails{peer=%q} %d\n", ph.Peer, ph.ConsecFails)
			fmt.Fprintf(w, "percival_fleet_peer_evictions_total{peer=%q} %d\n", ph.Peer, ph.Evictions)
			fmt.Fprintf(w, "percival_fleet_peer_redials_total{peer=%q} %d\n", ph.Peer, ph.Redials)
			fmt.Fprintf(w, "percival_fleet_peer_hedge_wins_total{peer=%q} %d\n", ph.Peer, ph.HedgeWins)
			fmt.Fprintf(w, "percival_fleet_peer_latency_ewma_ms{peer=%q} %g\n", ph.Peer, ph.LatencyEWMAMS)
			fmt.Fprintf(w, "percival_fleet_peer_cwnd{peer=%q} %g\n", ph.Peer, ph.Cwnd)
			fmt.Fprintf(w, "percival_fleet_peer_window_inflight{peer=%q} %d\n", ph.Peer, ph.WindowInFlight)
			fmt.Fprintf(w, "percival_fleet_peer_window_losses_total{peer=%q} %d\n", ph.Peer, ph.WindowLosses)
			fmt.Fprintf(w, "percival_fleet_peer_rto_ms{peer=%q} %g\n", ph.Peer, ph.RTOMS)
			fmt.Fprintf(w, "percival_fleet_peer_wire_bytes_out_total{peer=%q} %d\n", ph.Peer, ph.WireBytesOut)
			fmt.Fprintf(w, "percival_fleet_peer_wire_bytes_in_total{peer=%q} %d\n", ph.Peer, ph.WireBytesIn)
			fmt.Fprintf(w, "percival_fleet_peer_wire_frames_pixels_total{peer=%q} %d\n", ph.Peer, ph.WireFramesPix)
			fmt.Fprintf(w, "percival_fleet_peer_wire_frames_dedup_total{peer=%q} %d\n", ph.Peer, ph.WireFramesDdup)
			fmt.Fprintf(w, "percival_fleet_peer_wire_dials_total{peer=%q} %d\n", ph.Peer, ph.WireDials)
		}
	}
}

// engineErrors sums every fail-open counter the daemon can reach: the
// shard replicas (batched dispatch) and the registry entries (the local
// engine behind the wire listener, each -peers peer). The two sets never
// share counters — Replicate starts fresh ones.
func engineErrors(srv *serve.Server, reg *engine.Registry) int64 {
	var errs int64
	for _, st := range srv.BackendStats() {
		errs += st.Errors
	}
	for _, name := range reg.Names() {
		if b, ok := reg.Get(name); ok {
			errs += b.Stats().Errors
		}
	}
	return errs
}

// healthHandler reports liveness and engine configuration. EngineErrors
// sums the fail-open counts across shard replicas and registry entries:
// nonzero means some verdicts are score-0 "render it" placeholders, not
// model output. On a -peers front, Peers carries the fleet supervisor's
// per-peer rows — state, failure streak, eviction/redial/hedge counters
// and the latency EWMA — so an evicted peer (and its automatic
// re-admission) is visible from outside without scraping /metrics.
func healthHandler(srv *serve.Server, reg *engine.Registry, engineName string, wire *engine.WireServer) http.HandlerFunc {
	type health struct {
		OK           bool    `json:"ok"`
		Engine       string  `json:"engine"`
		Shards       int     `json:"shards"`
		InputRes     int     `json:"input_res"`
		Threshold    float64 `json:"threshold"`
		CacheLen     int     `json:"cache_len"`
		Submitted    int64   `json:"submitted"`
		Shed         int64   `json:"shed"`
		EngineErrors int64   `json:"engine_errors"`
		// Brownout is the admission ladder's current stage ("normal",
		// "cache-only", "degraded", "shed") with its smoothed pressure
		// signal — only present under -admission.
		Brownout          string                  `json:"brownout_stage,omitempty"`
		AdmissionPressure float64                 `json:"admission_pressure,omitempty"`
		Peers             []engine.PeerHealthInfo `json:"peers,omitempty"`
		// Wire is the persistent-socket listener's counter snapshot — only
		// present under -wire-listen.
		Wire *engine.WireServerStats `json:"wire,omitempty"`
	}
	return func(w http.ResponseWriter, r *http.Request) {
		m := srv.Metrics()
		w.Header().Set("Content-Type", "application/json")
		h := health{
			OK:           true,
			Engine:       engineName,
			Shards:       srv.Shards(),
			InputRes:     srv.Service().InputRes(),
			Threshold:    srv.Service().Threshold(),
			CacheLen:     srv.CacheLen(),
			Submitted:    m.Submitted.Load(),
			Shed:         m.Shed.Load(),
			EngineErrors: engineErrors(srv, reg),
			Peers:        srv.FleetHealth(),
		}
		if adm := srv.Admission(); adm != nil {
			h.Brownout = adm.Stage().String()
			h.AdmissionPressure = adm.Pressure()
		}
		if wire != nil {
			ws := wire.Stats()
			h.Wire = &ws
		}
		json.NewEncoder(w).Encode(h)
	}
}
