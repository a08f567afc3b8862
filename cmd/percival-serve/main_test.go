package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"image"
	"image/color"
	"image/gif"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"percival/internal/core"
	"percival/internal/engine"
	"percival/internal/faultinject"
	"percival/internal/imaging"
	"percival/internal/nn"
	"percival/internal/serve"
	"percival/internal/squeezenet"
	"percival/internal/synth"
)

// testService builds the daemon's classifier the way main does, at smoke
// scale on the FP32 engine (deterministic untrained weights — the tests
// exercise the serving edge, not verdict quality).
func testService(t testing.TB) *core.Percival {
	t.Helper()
	svc, _, err := buildService(16, "", true, 1, 0.5, engine.FP32Name)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestBuildServiceSelectsEngine: -backend is the one engine selector. fp32
// builds no INT8 engine, auto serves what the parity gate picked, int8
// serves INT8 whatever the gate says, and an unknown name is an error.
func TestBuildServiceSelectsEngine(t *testing.T) {
	for _, tc := range []struct {
		backend string
		want    func(svc *core.Percival) string // the engine that must serve
	}{
		{engine.FP32Name, func(*core.Percival) string { return engine.FP32Name }},
		{"auto", func(svc *core.Percival) string { return svc.Backends().DefaultName() }},
		{engine.Int8Name, func(*core.Percival) string { return engine.Int8Name }},
	} {
		svc, b, err := buildService(16, "", true, 1, 0.5, tc.backend)
		if err != nil {
			t.Fatalf("-backend %s: %v", tc.backend, err)
		}
		if got, want := b.Name(), tc.want(svc); got != want {
			t.Errorf("-backend %s serves %s, want %s", tc.backend, got, want)
		}
		_, quantized := svc.Backends().Get(engine.Int8Name)
		if quantized != (tc.backend != engine.FP32Name) {
			t.Errorf("-backend %s: INT8 engine registered = %v", tc.backend, quantized)
		}
		// the gate measures a nonzero agreement whenever it runs
		if ran := svc.ParityAgreement() != 0; ran != quantized {
			t.Errorf("-backend %s: parity gate ran = %v (agreement %v)", tc.backend, ran, svc.ParityAgreement())
		}
		t.Logf("-backend %s serves %s (parity %.3f)", tc.backend, b.Name(), svc.ParityAgreement())
	}
	if _, _, err := buildService(16, "", true, 1, 0.5, "tpu"); err == nil {
		t.Fatal("-backend tpu accepted")
	}
}

// TestBuildServiceRefusesToTrain: with neither a model file nor
// -pretrained the daemon has nothing to serve, and the error names the
// command that makes a model.
func TestBuildServiceRefusesToTrain(t *testing.T) {
	_, _, err := buildService(16, "", false, 1, 0.5, "auto")
	if err == nil || !strings.Contains(err.Error(), "percival-train") {
		t.Fatalf("no model: error %v, want one naming percival-train", err)
	}
}

// TestBuildServiceLoadsModelFile: -model serves the weights in the file,
// whatever -seed says.
func TestBuildServiceLoadsModelFile(t *testing.T) {
	net, err := squeezenet.Build(squeezenet.SmallConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	squeezenet.PretrainedInit(net, 1)
	path := t.TempDir() + "/m.pcvl"
	if err := nn.SaveFile(path, net, false); err != nil {
		t.Fatal(err)
	}
	svc, _, err := buildService(16, path, false, 2, 0.5, engine.FP32Name)
	if err != nil {
		t.Fatal(err)
	}
	want := testService(t)
	for _, f := range synth.SampleFrames(61, 4) {
		if got, want := svc.Classify(f), want.Classify(f); got != want {
			t.Fatalf("served from the file %v, saved weights score %v", got, want)
		}
	}
}

// testFrontend stands up the daemon's HTTP surface over a serve.Server the
// way main wires it (without a wire listener). fleet is nil unless the
// backend is a supervised fleet.
func testFrontend(t testing.TB, svc *core.Percival, srv *serve.Server, reg *engine.Registry, backend engine.Backend, fleet *engine.Fleet) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /classify", classifyHandler(srv))
	mux.Handle("GET /modelz", engine.ModelzHandlerID(reg, backend, svc.Threshold(), "", ""))
	mux.HandleFunc("GET /healthz", healthHandler(srv, reg, backend.Name(), nil))
	mux.HandleFunc("GET /metrics", metricsHandler(srv, reg, fleet, nil))
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// startPeer stands up a backend daemon the way `percival-serve
// -wire-listen` mounts one: a replica of svc's engine behind the wire
// listener, probes answered from its own verdict store, and the /modelz
// handshake advertising the listener — both behind inj when it is non-nil
// (faultinject.Listener on the wire, Middleware on /modelz, so a
// blackholed peer fails its redial probes too).
func startPeer(t testing.TB, svc *core.Percival, inj *faultinject.Injector) (*httptest.Server, *engine.WireServer) {
	t.Helper()
	rep := svc.Engine().Replicate()
	t.Cleanup(rep.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := engine.NewWireServer(engine.WireServerOptions{Backend: rep, Cache: engine.NewVerdictMap(0)})
	var modelz http.Handler = engine.ModelzHandlerID(nil, rep, svc.Threshold(), ln.Addr().String(), "")
	var wln net.Listener = ln
	if inj != nil {
		modelz, wln = faultinject.Middleware(inj, modelz), faultinject.Listener(inj, ln)
	}
	go ws.Serve(wln)
	t.Cleanup(ws.Close)
	ts := httptest.NewServer(modelz)
	t.Cleanup(ts.Close)
	return ts, ws
}

func postFrame(t testing.TB, url string, contentType string, body []byte) (*http.Response, verdict) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v verdict
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusServiceUnavailable {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("decode verdict: %v", err)
		}
	}
	return resp, v
}

// TestDecodeFrameContentTypeParameters: a raw-RGBA upload whose
// Content-Type carries parameters ("application/octet-stream;
// charset=binary") must be treated as raw RGBA, not fall through to image
// sniffing and 400. Regression for the == comparison on the raw header.
func TestDecodeFrameContentTypeParameters(t *testing.T) {
	frame := synth.SampleFrames(3, 1)[0]
	for _, ct := range []string{
		"application/octet-stream",
		"application/octet-stream; charset=binary",
		"APPLICATION/OCTET-STREAM; x=y",
	} {
		r := httptest.NewRequest(http.MethodPost, fmt.Sprintf("/classify?w=%d&h=%d", frame.W, frame.H), nil)
		r.Header.Set("Content-Type", ct)
		got, err := decodeFrame(r, frame.Pix)
		if err != nil {
			t.Fatalf("Content-Type %q: %v", ct, err)
		}
		if got.W != frame.W || got.H != frame.H || !bytes.Equal(got.Pix, frame.Pix) {
			t.Fatalf("Content-Type %q: frame not decoded as raw RGBA", ct)
		}
	}
	// encoded images still sniff
	png, err := imaging.Encode(frame, imaging.PNG)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, "/classify", nil)
	r.Header.Set("Content-Type", "image/png")
	if _, err := decodeFrame(r, png); err != nil {
		t.Fatalf("encoded image: %v", err)
	}
}

// TestDecodeFrameRejectsMalformedDims: dimension parsing must reject
// trailing garbage instead of silently truncating it. Regression for
// fmt.Sscan accepting "?w=64abc" as 64.
func TestDecodeFrameRejectsMalformedDims(t *testing.T) {
	frame := synth.SampleFrames(3, 1)[0]
	good := fmt.Sprintf("w=%d&h=%d", frame.W, frame.H)
	for _, q := range []string{
		fmt.Sprintf("w=%dabc&h=%d", frame.W, frame.H),
		fmt.Sprintf("w=%d%%20&h=%d", frame.W, frame.H), // "64 "
		fmt.Sprintf("w=0x10&h=%d", frame.H),
		fmt.Sprintf("w=&h=%d", frame.H),
		"w=-4&h=-4",
	} {
		r := httptest.NewRequest(http.MethodPost, "/classify?"+q, nil)
		r.Header.Set("Content-Type", "application/octet-stream")
		if _, err := decodeFrame(r, frame.Pix); err == nil {
			t.Errorf("query %q accepted, want rejection", q)
		}
	}
	r := httptest.NewRequest(http.MethodPost, "/classify?"+good, nil)
	r.Header.Set("Content-Type", "application/octet-stream")
	if _, err := decodeFrame(r, frame.Pix); err != nil {
		t.Fatalf("well-formed dims rejected: %v", err)
	}
}

// TestClassifyRejectsWrappingDims: /classify?w=2^62&h=1 with an empty
// octet-stream body (w*h*4 wraps to 0 and "matches" it) used to decode to a bitmap with W=2^62 and no pixels,
// which panicked the dispatch lane's resize — outside net/http's
// per-connection recover, so one unauthenticated request killed the daemon.
// It must be a 400 at the edge, and the server must keep serving.
func TestClassifyRejectsWrappingDims(t *testing.T) {
	svc := testService(t)
	srv, err := serve.New(svc, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	front := testFrontend(t, svc, srv, svc.Backends(), svc.Engine(), nil)
	resp, _ := postFrame(t, front.URL+"/classify?w=4611686018427387904&h=1", "application/octet-stream", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrapping dims status %d, want 400", resp.StatusCode)
	}
	f := synth.SampleFrames(3, 1)[0]
	resp, v := postFrame(t, fmt.Sprintf("%s/classify?w=%d&h=%d", front.URL, f.W, f.H), "application/octet-stream", f.Pix)
	if resp.StatusCode != http.StatusOK || v.Score != svc.Classify(f) {
		t.Fatalf("well-formed frame after the rejection: status %d, verdict %+v", resp.StatusCode, v)
	}
}

// FuzzDecodeFrame drives /classify's body decoder — the raw-RGBA branch with
// its query dimensions and the sniffed PNG/JPEG/GIF branch — and holds every
// accepted frame to the shape the dispatch lanes index by.
func FuzzDecodeFrame(f *testing.F) {
	frame := synth.SampleFrames(3, 1)[0]
	f.Add("application/octet-stream", "4611686018427387904", "1", []byte{})
	f.Add("application/octet-stream; charset=binary", strconv.Itoa(frame.W), strconv.Itoa(frame.H), frame.Pix)
	f.Add("application/octet-stream", "64abc", "-4", frame.Pix)
	for _, format := range []imaging.Format{imaging.PNG, imaging.JPEG, imaging.GIF} {
		enc, err := imaging.Encode(frame, format)
		if err != nil {
			f.Fatal(err)
		}
		f.Add("image/"+string(format), "", "", enc)
	}
	// a well-sized screen whose first frame is an empty rectangle
	pal := color.Palette{color.Black, color.White}
	var empty bytes.Buffer
	if err := gif.EncodeAll(&empty, &gif.GIF{
		Image:  []*image.Paletted{image.NewPaletted(image.Rectangle{}, pal)},
		Delay:  []int{0},
		Config: image.Config{ColorModel: pal, Width: 10, Height: 10},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add("image/gif", "", "", empty.Bytes())
	f.Fuzz(func(t *testing.T, contentType, w, h string, body []byte) {
		q := url.Values{"w": {w}, "h": {h}}
		r := httptest.NewRequest(http.MethodPost, "/classify?"+q.Encode(), nil)
		r.Header.Set("Content-Type", contentType)
		b, err := decodeFrame(r, body)
		if err != nil {
			return
		}
		// edges against len(Pix) first, so the product cannot wrap into a match
		if b.W <= 0 || b.H <= 0 || b.W > len(b.Pix) || b.H > len(b.Pix) || len(b.Pix) != b.W*b.H*4 {
			t.Fatalf("accepted a %dx%d frame with %d pixel bytes", b.W, b.H, len(b.Pix))
		}
	})
}

// TestTwoTierMatchesInProcessDispatch is the acceptance anchor: a front
// daemon whose dispatch shards proxy to two backend daemons over the socket
// wire must answer /classify with verdicts identical to in-process dispatch
// on the same corpus — and fail open when the peers go down.
func TestTwoTierMatchesInProcessDispatch(t *testing.T) {
	svc := testService(t)
	reg := svc.Backends()

	// two backend daemons sharing the front's weights (the deployment would
	// load the same .pcvl on every tier)
	peers := make([]*httptest.Server, 2)
	wires := make([]*engine.WireServer, 2)
	remotes := make([]*engine.RemoteBackend, 2)
	for i := range peers {
		peers[i], wires[i] = startPeer(t, svc, nil)
		rb, err := engine.NewRemote(peers[i].URL, engine.RemoteOptions{
			ExpectRes: svc.InputRes(),
			Timeout:   2 * time.Second,
			Retries:   -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Register(rb.Name(), rb); err != nil {
			t.Fatal(err)
		}
		remotes[i] = rb
	}
	// the topology `percival-serve -peers` builds, minus a local fallback:
	// with every peer down there is nothing left to score a frame
	fleet, err := engine.NewFleet(remotes, engine.FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	srv, err := serve.New(svc, serve.Options{Shards: 2, MaxBatch: 4, Backend: fleet})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	front := testFrontend(t, svc, srv, reg, fleet, fleet)

	frames := synth.SampleFrames(41, 8)
	for i, f := range frames {
		resp, v := postFrame(t,
			fmt.Sprintf("%s/classify?w=%d&h=%d", front.URL, f.W, f.H),
			"application/octet-stream; charset=binary", f.Pix)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("frame %d: status %d", i, resp.StatusCode)
		}
		want := svc.Classify(f)
		if v.Score != want {
			t.Fatalf("frame %d: proxied score %v, in-process %v", i, v.Score, want)
		}
		if v.Ad != (want >= svc.Threshold()) {
			t.Fatalf("frame %d: verdict mismatch", i)
		}
	}

	// every /classify goes through the batcher: naming a registered peer
	// in ?model= is ignored, and the frame is counted as a submission
	named := synth.SampleFrames(43, 1)[0]
	submitted := srv.Metrics().Submitted.Load()
	resp, v := postFrame(t,
		fmt.Sprintf("%s/classify?model=%s&w=%d&h=%d", front.URL, remotes[1].Name(), named.W, named.H),
		"application/octet-stream", named.Pix)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("?model= status %d", resp.StatusCode)
	}
	if want := svc.Classify(named); v.Score != want {
		t.Fatalf("?model= score %v, want %v", v.Score, want)
	}
	if got := srv.Metrics().Submitted.Load(); got != submitted+1 {
		t.Fatalf("?model= request: %d submissions, want %d (it bypassed the batcher)", got, submitted+1)
	}

	// both peers down: the front keeps answering, failing open (score 0,
	// not an ad) instead of erroring or blocking
	for i := range peers {
		wires[i].Close()
		peers[i].Close()
	}
	down := synth.SampleFrames(47, 1)[0]
	resp, v = postFrame(t,
		fmt.Sprintf("%s/classify?w=%d&h=%d", front.URL, down.W, down.H),
		"application/octet-stream", down.Pix)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("peer-down status %d", resp.StatusCode)
	}
	if v.Score != 0 || v.Ad {
		t.Fatalf("peer-down verdict %+v, want fail-open score 0", v)
	}
	// the shard lanes own the /classify traffic, so they count the fail-open
	var errs int64
	for _, bs := range srv.BackendStats() {
		errs += bs.Errors
	}
	if errs == 0 {
		t.Fatal("peer-down dispatch did not count a fail-open error")
	}

	// the fail-open must be visible to operators: /healthz engine_errors
	// and the per-shard /metrics error counters
	hresp, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		EngineErrors int64 `json:"engine_errors"`
	}
	err = json.NewDecoder(hresp.Body).Decode(&h)
	hresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if h.EngineErrors == 0 {
		t.Fatal("healthz engine_errors is 0 after a peer-down fail-open")
	}
	mresp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var exp bytes.Buffer
	_, err = exp.ReadFrom(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(exp.Bytes(), []byte("percival_engine_errors_total")) {
		t.Fatal("/metrics does not expose the per-shard engine error counters")
	}
	if !bytes.Contains(exp.Bytes(), []byte("percival_engine_state_bytes{shard=\"0\"}")) {
		t.Fatal("/metrics does not expose the per-shard warm-state gauge")
	}
}

// TestModelzReportsServingEngine: the handshake a front dials reports the
// engine and input resolution this daemon serves.
func TestModelzReportsServingEngine(t *testing.T) {
	svc := testService(t)
	srv, err := serve.New(svc, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	front := testFrontend(t, svc, srv, svc.Backends(), svc.Engine(), nil)
	hresp, err := http.Get(front.URL + "/modelz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var info engine.ModelzInfo
	if err := json.NewDecoder(hresp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Engine != svc.Engine().Name() || info.InputRes != svc.InputRes() {
		t.Fatalf("modelz %+v, want engine %q res %d", info, svc.Engine().Name(), svc.InputRes())
	}
}

// TestSaveCacheSurvivesRoundTrip: saveCache must leave a snapshot that
// loadCache fully restores (write, sync, atomic rename), and a missing file
// is a clean cold start.
func TestSaveCacheSurvivesRoundTrip(t *testing.T) {
	svc := testService(t)
	srv, err := serve.New(svc, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	frames := synth.SampleFrames(53, 5)
	for _, f := range frames {
		srv.Submit(f)
	}
	path := t.TempDir() + "/verdicts.pcvc"
	if n, err := loadCache(srv.Cache(), path); err != nil || n != 0 {
		t.Fatalf("missing snapshot reported (%d, %v), want clean cold start", n, err)
	}
	n, err := saveCache(srv.Cache(), path)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(frames) {
		t.Fatalf("saved %d verdicts, want %d", n, len(frames))
	}
	srv.Close()

	srv2, err := serve.New(svc, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if m, err := loadCache(srv2.Cache(), path); err != nil || m != n {
		t.Fatalf("restored (%d, %v), want (%d, nil)", m, err, n)
	}
	if r := srv2.Submit(frames[0]); r.Status != serve.StatusCached {
		t.Fatalf("restored verdict status %v, want cached", r.Status)
	}
}

// TestChaosSmokeZeroFailOpen is the daemon-level chaos smoke (`make
// chaos`): a front whose shards dispatch into a supervised fleet of two
// peers, one of them flapping (up -> blackhole -> up) the whole time. Every
// /classify answer must be a real verdict bit-identical to in-process
// classification — zero score-0 fail-opens, zero sheds — and /healthz must
// expose the supervisor's per-peer rows.
func TestChaosSmokeZeroFailOpen(t *testing.T) {
	svc := testService(t)
	reg := svc.Backends()

	remotes := make([]*engine.RemoteBackend, 2)
	var flap *faultinject.Injector
	for i := range remotes {
		inj := faultinject.NewInjector(int64(i))
		peer, _ := startPeer(t, svc, inj)
		if i == 1 {
			flap = inj
		}
		rb, err := engine.NewRemote(peer.URL, engine.RemoteOptions{
			ExpectRes: svc.InputRes(),
			Timeout:   200 * time.Millisecond,
			Retries:   0,
		})
		if err != nil {
			t.Fatal(err)
		}
		remotes[i] = rb
	}
	fleet, err := engine.NewFleet(remotes, engine.FleetOptions{
		EvictAfter: 2,
		RedialBase: 20 * time.Millisecond,
		RedialMax:  100 * time.Millisecond,
		Fallback:   svc.Engine(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	// no front cache: every request reaches the fleet, so the flapping peer's
	// lane keeps meeting the fault instead of a cache hit
	srv, err := serve.New(svc, serve.Options{Shards: 2, MaxBatch: 4, Backend: fleet, DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	front := testFrontend(t, svc, srv, reg, fleet, fleet)

	// flap peer 1 for the whole test: 150ms up, 400ms dead, repeat
	flap.SetSchedule(true,
		faultinject.Phase{Fault: faultinject.Fault{}, For: 150 * time.Millisecond},
		faultinject.Phase{Fault: faultinject.Fault{Blackhole: true}, For: 400 * time.Millisecond},
	)

	frames := synth.SampleFrames(59, 6)
	deadline := time.Now().Add(1500 * time.Millisecond)
	n := 0
	for time.Now().Before(deadline) {
		f := frames[n%len(frames)]
		resp, v := postFrame(t,
			fmt.Sprintf("%s/classify?w=%d&h=%d", front.URL, f.W, f.H),
			"application/octet-stream", f.Pix)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d (a flapping peer must never surface)", n, resp.StatusCode)
		}
		if want := svc.Classify(f); v.Score != want {
			t.Fatalf("request %d: score %v, want %v (fail-open leaked through the fleet)", n, v.Score, want)
		}
		n++
	}
	if n == 0 {
		t.Fatal("no requests issued")
	}
	// the flap really reached the wire: the flapping peer lost chunks
	// (timed out or hedged away) while the fleet kept every verdict real
	if ph := fleet.PeerHealth()[1]; ph.WindowLosses == 0 {
		t.Fatalf("flapping peer never met its fault: %+v", ph)
	}
	if st := fleet.Stats(); st.Errors != 0 {
		t.Fatalf("fleet failed open under flap: %+v", st)
	}
	for _, bs := range srv.BackendStats() {
		if bs.Errors != 0 {
			t.Fatalf("shard replica failed open under flap: %+v", bs)
		}
	}

	// the supervisor is visible from outside: /healthz carries per-peer rows
	hresp, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		Peers []engine.PeerHealthInfo `json:"peers"`
	}
	err = json.NewDecoder(hresp.Body).Decode(&h)
	hresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Peers) != 2 {
		t.Fatalf("healthz peers %+v, want 2 rows", h.Peers)
	}
	mresp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var exp bytes.Buffer
	if _, err := exp.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if !bytes.Contains(exp.Bytes(), []byte("percival_fleet_peer_state")) {
		t.Fatal("/metrics does not expose the fleet supervisor gauges")
	}
}
