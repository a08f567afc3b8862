package engine

import (
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"percival/internal/faultinject"
	"percival/internal/synth"
)

// Peers returns the supervised transports in membership order.
func (f *Fleet) Peers() []*RemoteBackend {
	peers := f.peerList()
	out := make([]*RemoteBackend, len(peers))
	for i, p := range peers {
		out[i] = p.b
	}
	return out
}

// newFaultyPeer stands up a wire peer behind a fault injector (see
// newInjectedPeer), so tests can flip it between healthy, slow, erroring
// and blackholed while a fleet is dispatching to it. Its verdict store
// answers the probes of frames it has scored, as a daemon's does.
func newFaultyPeer(t testing.TB, def Backend) (*httptest.Server, *faultinject.Injector) {
	t.Helper()
	inj := faultinject.NewInjector(1)
	ts, _ := newInjectedPeer(t, def, NewVerdictMap(0), inj)
	return ts, inj
}

// dialFleet dials every peer URL with short chaos-friendly budgets and
// wraps them in a supervised fleet.
func dialFleet(t testing.TB, opts FleetOptions, urls ...string) *Fleet {
	t.Helper()
	remotes := make([]*RemoteBackend, len(urls))
	for i, u := range urls {
		rb, err := NewRemote(u, RemoteOptions{
			Timeout:      300 * time.Millisecond,
			Retries:      0,
			RetryBackoff: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		remotes[i] = rb
	}
	f, err := NewFleet(remotes, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

// waitPeerState polls the fleet health snapshot until the named peer
// reaches want (or the deadline passes).
func waitPeerState(t testing.TB, f *Fleet, peer string, want PeerState, deadline time.Duration) {
	t.Helper()
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		for _, ph := range f.PeerHealth() {
			if ph.Peer == peer && ph.StateCode == want {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("peer %s never reached state %v; health: %+v", peer, want, f.PeerHealth())
}

// TestChaosFlappingPeer is the supervisor's end-to-end contract under a
// flapping peer (up -> blackhole -> up), with traffic flowing throughout:
//   - eviction fires after EvictAfter consecutive chunk failures,
//   - traffic re-routes to the healthy peer with no score-0 verdicts,
//   - the redialer re-admits the peer after it recovers,
//
// all meaningful under -race (`make race` covers this package).
func TestChaosFlappingPeer(t *testing.T) {
	net, res := testNet(t, 16)
	a, b := NewFP32(net, res), NewFP32(net, res)
	defer a.Close()
	defer b.Close()
	tsA, _ := newFaultyPeer(t, a)
	tsB, injB := newFaultyPeer(t, b)

	f := dialFleet(t, FleetOptions{
		EvictAfter:    2,
		RedialBase:    10 * time.Millisecond,
		RedialMax:     50 * time.Millisecond,
		HedgeQuantile: 0.99,
	}, tsA.URL, tsB.URL)
	peerB := f.Peers()[1].Peer()

	frames := synth.SampleFrames(7, 4)
	want := make([]float64, len(frames))
	a.InferBatchInto(frames, want)

	check := func(phase string) {
		out := make([]float64, len(frames))
		f.InferBatchInto(frames, out)
		for i := range out {
			if out[i] != want[i] {
				t.Fatalf("%s: frame %d scored %v, want %v (score-0 fail-open leaked?)",
					phase, i, out[i], want[i])
			}
		}
	}

	// phase 1: both peers up — every chunk verdict matches local dispatch
	for i := 0; i < 4; i++ {
		check("both up")
	}

	// phase 2: peer B blackholes. Concurrent traffic must keep resolving
	// with real verdicts (the supervisor fails over to A), and B must trip
	// to evicted.
	injB.Set(faultinject.Fault{Blackhole: true})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]float64, len(frames))
			for i := 0; i < 6; i++ {
				f.InferBatchInto(frames, out)
				for j := range out {
					if out[j] != want[j] {
						t.Errorf("blackhole phase: frame %d scored %v, want %v", j, out[j], want[j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if st := f.Stats(); st.Errors != 0 {
		t.Fatalf("fail-open errors during failover: %+v", st)
	}
	waitPeerState(t, f, peerB, PeerEvicted, 3*time.Second)

	// phase 3: peer B recovers. The redial state machine must re-admit it
	// off a fresh handshake, without anyone dispatching to it.
	injB.Set(faultinject.Fault{})
	waitPeerState(t, f, peerB, PeerHealthy, 3*time.Second)
	var ph PeerHealthInfo
	for _, p := range f.PeerHealth() {
		if p.Peer == peerB {
			ph = p
		}
	}
	if ph.Evictions == 0 || ph.Redials == 0 {
		t.Fatalf("supervisor counters did not move: %+v", ph)
	}

	// phase 4: the re-admitted peer serves traffic again
	for i := 0; i < 4; i++ {
		check("re-admitted")
	}
	if f.Peers()[1].Stats().Frames == 0 {
		t.Fatal("re-admitted peer never served a frame")
	}
}

// TestChaosFleetFallsBackToLocal: with every peer evicted, chunks must be
// scored by the local fallback backend — identical verdicts, zero
// fail-open — and only fail open when there is no fallback either.
func TestChaosFleetFallsBackToLocal(t *testing.T) {
	net, res := testNet(t, 16)
	local := NewFP32(net, res)
	defer local.Close()
	rep := NewFP32(net, res)
	defer rep.Close()
	ts, inj := newFaultyPeer(t, rep)

	f := dialFleet(t, FleetOptions{
		EvictAfter: 1,
		RedialBase: time.Hour, // keep the peer out for the whole test
		Fallback:   local,
	}, ts.URL)

	frames := synth.SampleFrames(7, 3)
	want := make([]float64, len(frames))
	local.InferBatchInto(frames, want)

	inj.Set(faultinject.Fault{Blackhole: true})
	out := make([]float64, len(frames))
	for i := 0; i < 3; i++ {
		f.InferBatchInto(frames, out)
		for j := range out {
			if out[j] != want[j] {
				t.Fatalf("fallback pass %d: frame %d scored %v, want %v", i, j, out[j], want[j])
			}
		}
	}
	if f.Fallbacks() == 0 {
		t.Fatal("local fallback never engaged")
	}
	if st := f.Stats(); st.Errors != 0 {
		t.Fatalf("fail-open with a live fallback: %+v", st)
	}

	// without a fallback the same situation fails open
	// (heal for the dial-time handshake, then kill the peer again)
	inj.Set(faultinject.Fault{})
	f2 := dialFleet(t, FleetOptions{EvictAfter: 1, RedialBase: time.Hour}, ts.URL)
	inj.Set(faultinject.Fault{Blackhole: true})
	out[0], out[1], out[2] = 9, 9, 9
	f2.InferBatchInto(frames, out)
	if out[0] != 0 || f2.Stats().Errors == 0 {
		t.Fatalf("no-fallback fleet must fail open: out=%v stats=%+v", out, f2.Stats())
	}
}

// TestChaosFailoverPastEightPeers: in a fleet of nine peers whose first
// eight fail every chunk, a chunk still fails over to the ninth and is
// scored — failover tries every routable peer, however large the fleet.
func TestChaosFailoverPastEightPeers(t *testing.T) {
	net, res := testNet(t, 16)
	b := NewFP32(net, res)
	defer b.Close()
	urls := make([]string, 9)
	injs := make([]*faultinject.Injector, len(urls))
	for i := range urls {
		ts, inj := newFaultyPeer(t, b)
		urls[i], injs[i] = ts.URL, inj
	}
	f := dialFleet(t, FleetOptions{
		EvictAfter:    50, // every peer stays routable: failover, not eviction
		HedgeQuantile: -1,
	}, urls...)
	for _, inj := range injs[:8] {
		inj.Set(faultinject.Fault{ErrorRate: 1})
	}

	frames := synth.SampleFrames(7, 2)
	want := make([]float64, len(frames))
	b.InferBatchInto(frames, want)
	out := make([]float64, len(frames))
	f.InferBatchInto(frames, out)
	if st := f.Stats(); st.Errors != 0 {
		t.Fatalf("chunk failed open with a healthy ninth peer: %+v, scores %v", st, out)
	}
	for i := range out {
		if out[i] != want[i] {
			t.Fatalf("frame %d scored %v, want %v", i, out[i], want[i])
		}
	}
	if got := f.Peers()[8].Stats().Frames; got != int64(len(frames)) {
		t.Fatalf("ninth peer scored %d frames, want %d", got, len(frames))
	}
}

// TestChaosHedgeRescuesSlowPeer: a peer past its tail trigger must be
// hedged to the second replica, the hedge must win with a correct verdict,
// and the canceled primary must neither lose the verdict nor leak
// goroutines.
func TestChaosHedgeRescuesSlowPeer(t *testing.T) {
	net, res := testNet(t, 16)
	a, b := NewFP32(net, res), NewFP32(net, res)
	defer a.Close()
	defer b.Close()
	tsA, injA := newFaultyPeer(t, a)
	tsB, _ := newFaultyPeer(t, b)

	f := dialFleet(t, FleetOptions{
		EvictAfter:    50, // hedging, not eviction, is under test
		HedgeQuantile: 0.99,
		HedgeMin:      time.Millisecond,
	}, tsA.URL, tsB.URL)

	frames := synth.SampleFrames(7, 2)
	want := make([]float64, len(frames))
	a.InferBatchInto(frames, want)
	out := make([]float64, len(frames))

	// arm the latency EWMA for peer A with healthy samples; the fleet
	// round-robins, so pin dispatch through a replica preferring A
	ra := f.Replicate()
	if rap, ok := ra.(*fleetReplica); !ok || rap.pref != 0 {
		// Replicate pins round-robin from 0; first replica prefers peer 0
		t.Fatalf("first replica not pinned to peer 0")
	}
	for i := 0; i < 6; i++ {
		ra.InferBatchInto(frames, out)
	}

	before := runtime.NumGoroutine()
	// now make A slow — far past any EWMA-derived trigger
	injA.Set(faultinject.Fault{Latency: 250 * time.Millisecond})
	for i := 0; i < 4; i++ {
		out[0], out[1] = 9, 9
		ra.InferBatchInto(frames, out)
		for j := range out {
			if out[j] != want[j] {
				t.Fatalf("hedged chunk %d: frame %d scored %v, want %v", i, j, out[j], want[j])
			}
		}
	}
	if f.Hedges() == 0 || f.HedgeWins() == 0 {
		t.Fatalf("hedge never fired/won: hedges=%d wins=%d", f.Hedges(), f.HedgeWins())
	}
	var winsB int64
	for _, ph := range f.PeerHealth() {
		if ph.Peer == f.Peers()[1].Peer() {
			winsB = ph.HedgeWins
		}
	}
	if winsB == 0 {
		t.Fatal("per-peer hedge-win counter did not move")
	}

	// hedge cancellation must not leak: every losing arm is canceled and
	// drained before the chunk returns, so the goroutine count settles back
	injA.Set(faultinject.Fault{})
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked across hedged chunks: %d before, %d after",
		before, runtime.NumGoroutine())
}

// TestChaosSlowSiblingNeverFailsOpen: a peer that slows down but keeps
// answering, beside a fast sibling, must never cost a frame its verdict.
// Four lanes of three closed-loop clients send 2-frame chunks for two
// seconds while one peer adds 15 ms to every response, with no local
// fallback: every score must equal the local engine's. Hedge fires and
// timed-out attempts against the slow peer must not leave its chunks
// waiting out their budget for an in-flight slot and failing open.
func TestChaosSlowSiblingNeverFailsOpen(t *testing.T) {
	net, res := testNet(t, 16)
	a, b := NewFP32(net, res), NewFP32(net, res)
	defer a.Close()
	defer b.Close()
	tsA, injA := newFaultyPeer(t, a)
	tsB, _ := newFaultyPeer(t, b)
	f := dialFleet(t, FleetOptions{}, tsA.URL, tsB.URL)

	frames := synth.SampleFrames(7, 24)
	want := make([]float64, len(frames))
	a.InferBatchInto(frames, want)

	injA.Set(faultinject.Fault{Latency: 15 * time.Millisecond})
	stop := time.Now().Add(2 * time.Second)
	var wg sync.WaitGroup
	var chunks, wrong atomic.Int64
	lanes := make([]Backend, 4)
	for l := range lanes {
		lanes[l] = f.Replicate()
		for c := 0; c < 3; c++ {
			wg.Add(1)
			go func(lane Backend, c int) {
				defer wg.Done()
				out := make([]float64, 2)
				for i := c; time.Now().Before(stop); i++ {
					lo := 2 * (i % (len(frames) / 2))
					lane.InferBatchInto(frames[lo:lo+2], out)
					chunks.Add(1)
					if out[0] != want[lo] || out[1] != want[lo+1] {
						wrong.Add(1)
					}
				}
			}(lanes[l], c)
		}
	}
	wg.Wait()
	var failedOpen int64
	for _, lane := range lanes {
		failedOpen += lane.Stats().Errors
	}
	if wrong.Load() != 0 || failedOpen != 0 {
		t.Fatalf("%d of %d chunks scored wrong, %d failed open, with a healthy sibling serving; health %+v",
			wrong.Load(), chunks.Load(), failedOpen, f.PeerHealth())
	}
}

// TestFleetLiveMembership: peers join and leave a dispatching fleet with
// zero fail-open — AddPeer routes immediately, DrainRemovePeer quiesces
// in-flight chunks then removes, dedup and last-peer guards hold, and the
// removed peer's supervision (redial included) is fully torn down.
func TestFleetLiveMembership(t *testing.T) {
	net, res := testNet(t, 16)
	a, b := NewFP32(net, res), NewFP32(net, res)
	defer a.Close()
	defer b.Close()
	tsA, _ := newFaultyPeer(t, a)
	tsB, _ := newFaultyPeer(t, b)

	f := dialFleet(t, FleetOptions{HedgeQuantile: -1}, tsA.URL)
	frames := synth.SampleFrames(7, 3)
	want := make([]float64, len(frames))
	a.InferBatchInto(frames, want)

	// background load across the whole membership change
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]float64, len(frames))
			for {
				select {
				case <-stop:
					return
				default:
				}
				f.InferBatchInto(frames, out)
				for j := range out {
					if out[j] != want[j] {
						t.Errorf("membership churn: frame %d scored %v, want %v", j, out[j], want[j])
						return
					}
				}
			}
		}()
	}

	rbB, err := NewRemote(tsB.URL, RemoteOptions{Timeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.AddPeer(rbB); err != nil {
		t.Fatal(err)
	}
	if err := f.AddPeer(rbB); err == nil {
		t.Fatal("duplicate peer admitted")
	}
	if len(f.PeerHealth()) != 2 {
		t.Fatalf("fleet health after add: %+v", f.PeerHealth())
	}

	// drain + remove the original peer while traffic flows
	peerA := f.Peers()[0].Peer()
	removed, err := f.DrainRemovePeer(peerA, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if removed.Peer() != peerA {
		t.Fatalf("removed %q, want %q", removed.Peer(), peerA)
	}
	if _, err := f.DrainRemovePeer(peerA, time.Second); err == nil {
		t.Fatal("removed the same peer twice")
	}
	// the last peer of a fallback-less fleet must refuse to leave
	if _, err := f.DrainRemovePeer(rbB.Peer(), time.Second); err == nil {
		t.Fatal("drained the last peer of a fallback-less fleet")
	}

	close(stop)
	wg.Wait()
	if st := f.Stats(); st.Errors != 0 {
		t.Fatalf("fail-open during membership churn: %+v", st)
	}
	if len(f.PeerHealth()) != 1 || f.Peers()[0].Peer() != rbB.Peer() {
		t.Fatalf("post-removal membership: %+v", f.PeerHealth())
	}
	// the new peer actually serves
	out := make([]float64, len(frames))
	f.InferBatchInto(frames, out)
	if rbB.Stats().Frames == 0 {
		t.Fatal("admitted peer never served a frame")
	}
}

// TestFleetRoutesAroundStaleSnapshot: a chunk that loaded the membership
// before a peer was admitted, and routes only after every peer it saw was
// drained away, is scored by the admitted peer instead of failing open.
func TestFleetRoutesAroundStaleSnapshot(t *testing.T) {
	net, res := testNet(t, 16)
	a, b := NewFP32(net, res), NewFP32(net, res)
	defer a.Close()
	defer b.Close()
	tsA, _ := newFaultyPeer(t, a)
	tsB, _ := newFaultyPeer(t, b)
	rbB, err := NewRemote(tsB.URL, RemoteOptions{Timeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	f := dialFleet(t, FleetOptions{HedgeQuantile: -1}, tsA.URL)
	// the membership change lands before the first pick, after the chunk
	// loaded its snapshot
	var once sync.Once
	f.beforePick = func() {
		once.Do(func() {
			peerA := f.Peers()[0].Peer()
			if err := f.AddPeer(rbB); err != nil {
				t.Error(err)
			}
			if _, err := f.DrainRemovePeer(peerA, time.Second); err != nil {
				t.Error(err)
			}
		})
	}

	frames := synth.SampleFrames(7, 3)
	want := make([]float64, len(frames))
	a.InferBatchInto(frames, want)
	out := make([]float64, len(frames))
	f.InferBatchInto(frames, out)
	if st := f.Stats(); st.Errors != 0 {
		t.Fatalf("chunk failed open against a stale membership snapshot: %+v", st)
	}
	for i := range out {
		if out[i] != want[i] {
			t.Fatalf("frame %d scored %v, want %v", i, out[i], want[i])
		}
	}
	if rbB.Stats().Frames == 0 {
		t.Fatal("admitted peer never served the chunk")
	}
}

// TestFleetReplicatePinsPeers: replicas pin round-robin (shard-per-peer),
// share the health table, and keep their own counters.
func TestFleetReplicatePinsPeers(t *testing.T) {
	net, res := testNet(t, 16)
	a, b := NewFP32(net, res), NewFP32(net, res)
	defer a.Close()
	defer b.Close()
	tsA, _ := newFaultyPeer(t, a)
	tsB, _ := newFaultyPeer(t, b)
	f := dialFleet(t, FleetOptions{}, tsA.URL, tsB.URL)

	r0 := f.Replicate().(*fleetReplica)
	r1 := f.Replicate().(*fleetReplica)
	r2 := f.Replicate().(*fleetReplica)
	// lanes are raw ordinals; pin maps them onto live membership
	n := len(f.peerList())
	p0, p1, p2 := f.pin(r0.pref, n), f.pin(r1.pref, n), f.pin(r2.pref, n)
	if p0 == p1 || p2 != p0 {
		t.Fatalf("replica pinning %d/%d/%d, want round-robin with wraparound", p0, p1, p2)
	}
	frames := synth.SampleFrames(7, 2)
	out := make([]float64, len(frames))
	r0.InferBatchInto(frames, out)
	if st := r0.Stats(); st.Frames != int64(len(frames)) || st.Batches != 1 {
		t.Fatalf("replica stats %+v", st)
	}
	if st := r1.Stats(); st.Frames != 0 {
		t.Fatalf("sibling replica charged: %+v", st)
	}
	if hr, ok := Backend(r1).(HealthReporter); !ok {
		t.Fatal("replica does not report fleet health")
	} else if len(hr.PeerHealth()) != 2 {
		t.Fatalf("replica health %+v", hr.PeerHealth())
	}
	if _, err := NewFleet(nil, FleetOptions{}); err == nil {
		t.Fatal("empty fleet not rejected")
	}
}

// placementPeers builds bare fleet peers in the given states, enough for
// the placement methods, which read nothing but the state.
func placementPeers(states ...PeerState) []*fleetPeer {
	peers := make([]*fleetPeer, len(states))
	for i, s := range states {
		p := &fleetPeer{}
		p.state.Store(int32(s))
		peers[i] = p
	}
	return peers
}

// TestStaticRouterPinsAndFailsOver: static placement pins lanes
// round-robin and fails over by forward scan off an unroutable preferred
// peer.
func TestStaticRouterPinsAndFailsOver(t *testing.T) {
	f := &Fleet{}
	if f.pin(0, 3) != 0 || f.pin(4, 3) != 1 {
		t.Fatalf("static pinning broke: %d,%d", f.pin(0, 3), f.pin(4, 3))
	}
	peers := placementPeers(PeerHealthy, PeerHealthy, PeerHealthy)
	if got := f.pick(peers, 1, nil, true); got != peers[1] {
		t.Fatal("first attempt not on the preferred peer")
	}
	peers[1].state.Store(int32(PeerEvicted))
	if got := f.pick(peers, 1, nil, true); got == peers[1] || got == nil {
		t.Fatal("unroutable preferred peer still picked")
	}
	// draining peers take no fresh chunks either
	peers = placementPeers(PeerDraining, PeerHealthy)
	if got := f.pick(peers, 0, nil, true); got != peers[1] {
		t.Fatal("draining peer picked for a fresh chunk")
	}
	// all tried -> nil, the dispatcher's fallback signal
	if got := f.pick(peers, 0, peers, false); got != nil {
		t.Fatal("exhausted candidate set did not return nil")
	}
}

// TestStaticPlacementSpreadsDisplacedPicks: with a lane's preferred peer
// evicted, its first-try picks rotate evenly over the survivors instead of
// all landing on the next peer — the reason the fleet keeps a reroute
// counter — and stay even when each is followed by another chunk's failover
// try, which must not move that rotation (a shared counter put all six on
// peer 1).
func TestStaticPlacementSpreadsDisplacedPicks(t *testing.T) {
	for _, interleave := range []bool{false, true} {
		f := &Fleet{}
		peers := placementPeers(PeerEvicted, PeerHealthy, PeerHealthy)
		hits := make(map[*fleetPeer]int)
		for i := 0; i < 6; i++ {
			p := f.pick(peers, f.pin(0, len(peers)), nil, true)
			if p == nil || p == peers[0] {
				t.Fatalf("interleaved %v, pick %d: displaced lane placed on %v", interleave, i, p)
			}
			hits[p]++
			if interleave {
				if q := f.pick(peers, f.pin(1, len(peers)), []*fleetPeer{peers[1]}, false); q != peers[2] {
					t.Fatalf("failover pick %d after peer 1 placed on %v, want peer 2", i, q)
				}
			}
		}
		if hits[peers[1]] != 3 || hits[peers[2]] != 3 {
			t.Fatalf("interleaved %v: displaced picks split %d:%d over peers 1 and 2, want 3:3", interleave, hits[peers[1]], hits[peers[2]])
		}
	}
}

// TestStaticHedgeSkipsPrimaryAndUnroutable: the hedge arm never goes to
// the primary, a draining peer or an evicted one, and is skipped (nil)
// when no other routable peer exists.
func TestStaticHedgeSkipsPrimaryAndUnroutable(t *testing.T) {
	f := &Fleet{}
	peers := placementPeers(PeerHealthy, PeerDraining, PeerEvicted, PeerRedialing, PeerHealthy)
	for pref := range peers {
		for _, primary := range peers {
			h := f.hedgePeer(peers, pref, primary)
			if h == nil || h == primary || !h.routable() {
				t.Fatalf("pref %d: hedge arm %v for primary %v", pref, h, primary)
			}
		}
	}
	peers = placementPeers(PeerHealthy, PeerDraining, PeerEvicted)
	for pref := range peers {
		if h := f.hedgePeer(peers, pref, peers[0]); h != nil {
			t.Fatalf("pref %d: hedged to %v with no other routable peer", pref, h)
		}
	}
	if h := f.hedgePeer(peers[:1], 0, peers[0]); h != nil {
		t.Fatal("one-peer fleet hedged")
	}
}

// TestRedialFollowsMovedWireListener: a peer restarted with its wire
// listener on another port (-wire-listen :0) behind the same /modelz URL is
// re-admitted against the listener it advertises now — not re-admitted
// against the old port, where every chunk would fail over and evict it
// again, forever.
func TestRedialFollowsMovedWireListener(t *testing.T) {
	net_, res := testNet(t, 16)
	a, b := NewFP32(net_, res), NewFP32(net_, res)
	defer a.Close()
	defer b.Close()
	tsA, _ := newWirePeer(t, a, NewVerdictMap(0))

	// peer B: a /modelz that advertises whichever listener is current
	listen := func() (*WireServer, string) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ws := NewWireServer(WireServerOptions{Backend: b, Cache: NewVerdictMap(0)})
		go ws.Serve(ln)
		t.Cleanup(ws.Close)
		return ws, ln.Addr().String()
	}
	oldWire, oldAddr := listen()
	var wireAddr atomic.Value
	wireAddr.Store(oldAddr)
	tsB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ModelzHandlerID(nil, b, 0.5, wireAddr.Load().(string), "").ServeHTTP(w, r)
	}))
	defer tsB.Close()

	f := dialFleet(t, FleetOptions{
		EvictAfter: 1,
		RedialBase: 10 * time.Millisecond,
		RedialMax:  20 * time.Millisecond,
		Fallback:   a,
	}, tsA.URL, tsB.URL)
	peerB := f.Peers()[1]
	f.Replicate()          // lane 0 prefers peer A
	laneB := f.Replicate() // lane 1 prefers peer B
	frames := synth.SampleFrames(7, 3)
	want := make([]float64, len(frames))
	a.InferBatchInto(frames, want)
	out := make([]float64, len(frames))
	laneB.InferBatchInto(frames, out)
	assertBitEqual(t, "before the restart", out, want)

	// restart B's wire on a new port: the handshake moves first, then the
	// old listener dies, so B's next chunk fails over to A and evicts B
	newWire, newAddr := listen()
	for newAddr == oldAddr {
		newWire, newAddr = listen()
	}
	wireAddr.Store(newAddr)
	oldWire.Close()
	laneB.InferBatchInto(frames, out)
	assertBitEqual(t, "failed over", out, want)

	// evicted, then re-admitted off the handshake (the 10 ms redial may
	// beat any poll of the evicted state), B must score its lane over the
	// new listener
	readmitted := func() bool {
		ph := f.PeerHealth()[1]
		return ph.Evictions == 1 && ph.StateCode == PeerHealthy
	}
	for end := time.Now().Add(3 * time.Second); !readmitted(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("peer B not evicted once and re-admitted: %+v", f.PeerHealth()[1])
		}
	}
	before := peerB.Stats().Frames
	fresh := synth.SampleFrames(11, 3)
	wantFresh := make([]float64, len(fresh))
	a.InferBatchInto(fresh, wantFresh)
	laneB.InferBatchInto(fresh, out)
	assertBitEqual(t, "re-admitted", out, wantFresh)
	if got := peerB.Stats().Frames - before; got != int64(len(fresh)) {
		t.Fatalf("re-admitted peer scored %d of %d frames on its own lane", got, len(fresh))
	}
	if st := newWire.Stats(); st.FramesScored != int64(len(fresh)) {
		t.Fatalf("moved listener scored %d frames, want %d: %+v", st.FramesScored, len(fresh), st)
	}
	if f.Fallbacks() != 0 || f.Stats().Errors != 0 || laneB.Stats().Errors != 0 {
		t.Fatalf("%d fallbacks, fleet %+v, lane %+v: want none and no fail-open", f.Fallbacks(), f.Stats(), laneB.Stats())
	}
}
