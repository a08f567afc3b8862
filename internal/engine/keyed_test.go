package engine

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"percival/internal/imaging"
	"percival/internal/synth"
)

// The keyed dispatch seam (KeyedBackend). Most tests here hand the seam
// sentinel keys — keys that are not any frame's ContentKey — against peers
// whose verdict caches hold sentinel scores under exactly those keys. A
// layer that re-hashed the pixels would probe with the real key, miss, ship
// the pixels and come back with the model's score; the sentinel score coming
// back with no pixel on the wire is proof the handed key is the one that
// travelled.

// sentinelKey is frame i's stand-in key; sentinelScore what a peer's cache
// holds under it.
func sentinelKey(i int) [32]byte {
	var k [32]byte
	for j := range k {
		k[j] = 0xA5
	}
	k[0], k[31] = byte(i), byte(i)
	return k
}

func sentinelScore(i int) float64 { return 0.25 + float64(i)/64 }

func sentinelKeys(n int) [][32]byte {
	keys := make([][32]byte, n)
	for i := range keys {
		keys[i] = sentinelKey(i)
	}
	return keys
}

// slowCache is a VerdictCache whose lookups can be made to stall: the wire
// server answers probes inline from it, so a delay here is a slow peer as
// the hedge trigger sees one.
type slowCache struct {
	VerdictCache
	delay atomic.Int64 // nanoseconds per lookup
}

func (c *slowCache) LookupVerdict(key [32]byte) (float64, bool) {
	if d := c.delay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	return c.VerdictCache.LookupVerdict(key)
}

// wirePeerRig is n wire peers over one local engine, each with a verdict
// cache holding the sentinel scores of nframes frames, and a dialed remote
// per peer.
type wirePeerRig struct {
	local   *FP32Backend
	caches  []*slowCache
	servers []*WireServer
	remotes []*RemoteBackend
}

func newWirePeerRig(t *testing.T, n, nframes int) *wirePeerRig {
	t.Helper()
	net_, res := testNet(t, 16)
	r := &wirePeerRig{local: NewFP32(net_, res)}
	t.Cleanup(r.local.Close)
	for p := 0; p < n; p++ {
		cache := &slowCache{VerdictCache: NewVerdictMap(0)}
		for i := 0; i < nframes; i++ {
			cache.StoreVerdict(sentinelKey(i), sentinelScore(i))
		}
		ts, ws := newWirePeer(t, r.local.Replicate(), cache)
		rb, err := NewRemote(ts.URL, RemoteOptions{ExpectRes: res, Timeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		r.caches = append(r.caches, cache)
		r.servers = append(r.servers, ws)
		r.remotes = append(r.remotes, rb)
	}
	return r
}

// assertProbeOnly fails unless every frame so far was answered by a probe:
// no pixels left any front, no peer ran its model.
func (r *wirePeerRig) assertProbeOnly(t *testing.T, wantDedup int64) {
	t.Helper()
	var dedup int64
	for i, rb := range r.remotes {
		st := rb.TransportStats()
		if st.FramesPixels != 0 {
			t.Fatalf("peer %d was sent %d frames' pixels: a layer re-hashed instead of using the handed key", i, st.FramesPixels)
		}
		dedup += st.FramesDedup
	}
	for i, ws := range r.servers {
		if n := ws.Stats().FramesScored; n != 0 {
			t.Fatalf("peer %d's model scored %d frames", i, n)
		}
	}
	if dedup != wantDedup {
		t.Fatalf("%d frames answered by probe, want %d", dedup, wantDedup)
	}
}

func assertSentinelScores(t *testing.T, what string, out []float64) {
	t.Helper()
	for i, v := range out {
		if v != sentinelScore(i) {
			t.Fatalf("%s: frame %d scored %v, want the verdict cached under its handed key, %v", what, i, v, sentinelScore(i))
		}
	}
}

// assertBitEqual fails unless got is want, Float64bits for Float64bits.
func assertBitEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: frame %d scored %v, the local engine %v", what, i, got[i], want[i])
		}
	}
}

// TestWireChunkKeepsHandedKeys: a chunk reset with keys returns exactly those
// from contentKeys — it did not hash; an unkeyed chunk hashes; and a pooled
// chunk carries nothing over from its previous use in either direction.
func TestWireChunkKeepsHandedKeys(t *testing.T) {
	frames := synth.SampleFrames(9, 5)
	handed := sentinelKeys(len(frames))
	var pool chunkPool

	check := func(what string, c *wireChunk, frames []*imaging.Bitmap, want func(i int) [32]byte) {
		t.Helper()
		for pass := 0; pass < 2; pass++ { // the second call must be the first's answer, not a recomputation appended to it
			keys := c.contentKeys()
			if len(keys) != len(frames) {
				t.Fatalf("%s: %d keys for %d frames", what, len(keys), len(frames))
			}
			for i := range frames {
				if keys[i] != want(i) {
					t.Fatalf("%s: key %d is %x, want %x", what, i, keys[i][:4], want(i))
				}
			}
		}
	}
	realKey := func(fs []*imaging.Bitmap) func(int) [32]byte {
		return func(i int) [32]byte { return imaging.ContentKey(fs[i]) }
	}

	c := pool.get(frames, handed)
	handed[0][5] ^= 0xFF // the caller's slice is its own again once get returns
	check("keyed", c, frames, sentinelKey)
	pool.put(c)

	c = pool.get(frames[:3], nil)
	check("unkeyed after keyed", c, frames[:3], realKey(frames[:3]))
	pool.put(c)

	c = pool.get(frames[1:], sentinelKeys(len(frames)-1))
	check("keyed after unkeyed", c, frames[1:], sentinelKey)
	pool.put(c)
}

// TestKeyedDispatchProbesWithHandedKeys: through the daemon's stack below
// the serving layer — a Fleet lane over a real wire peer — a keyed batch is
// answered from the probe alone under the keys it was handed, chunk by
// chunk past BatchChunk; the same frames unkeyed are hashed by the chunk
// and answered under imaging.ContentKey, bit-identical to the local engine.
func TestKeyedDispatchProbesWithHandedKeys(t *testing.T) {
	const n = BatchChunk + 3 // two chunks, the second ragged
	r := newWirePeerRig(t, 1, n)
	frames := synth.SampleFrames(7, n)
	want := make([]float64, n)
	r.local.InferBatchInto(frames, want)
	for i, f := range frames { // what a cold pass would have left behind
		r.caches[0].StoreVerdict(imaging.ContentKey(f), want[i])
	}

	fleet, err := NewFleet(r.remotes, FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	lane := fleet.Replicate().(KeyedBackend)
	out := make([]float64, n)

	assertSentinelScores(t, "sentinel-keyed", InferKeyed(lane, frames, sentinelKeys(n), out))
	r.assertProbeOnly(t, n)

	assertBitEqual(t, "unkeyed", InferKeyed(lane, frames, nil, out), want)
	r.assertProbeOnly(t, 2*n)

	// the serving layer's case: real keys, handed down
	keys := make([][32]byte, n)
	for i, f := range frames {
		keys[i] = imaging.ContentKey(f)
	}
	assertBitEqual(t, "keyed", lane.InferKeyedInto(frames, keys, out), want)
	r.assertProbeOnly(t, 3*n)
	if st := fleet.Stats(); st.Errors != 0 || fleet.Fallbacks() != 0 {
		t.Fatalf("dispatch failed over: %+v, %d fallbacks", st, fleet.Fallbacks())
	}
}

// TestKeyedChunkSharedByFailoverAndHedge: the one chunk a dispatch builds
// carries the handed keys to every peer that sees it — the failover try
// after a dead peer, and the hedge arm racing a slow one.
func TestKeyedChunkSharedByFailoverAndHedge(t *testing.T) {
	const n = 3
	frames := synth.SampleFrames(7, n)
	keys := sentinelKeys(n)
	out := make([]float64, n)

	t.Run("failover", func(t *testing.T) {
		r := newWirePeerRig(t, 2, n)
		fleet, err := NewFleet(r.remotes, FleetOptions{EvictAfter: 50, RedialBase: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		defer fleet.Close()
		lane := fleet.Replicate().(*fleetReplica)
		if lane.pref != 0 {
			t.Fatal("first lane not pinned to peer 0")
		}
		r.servers[0].Close() // peer 0's wire is gone: its try fails, peer 1 takes the chunk
		assertSentinelScores(t, "failover", lane.InferKeyedInto(frames, keys, out))
		r.assertProbeOnly(t, n)
		if got := r.remotes[1].TransportStats().FramesDedup; got != n {
			t.Fatalf("peer 1 answered %d frames, want all %d", got, n)
		}
		if st := lane.Stats(); st.Errors != 0 || fleet.Fallbacks() != 0 {
			t.Fatalf("failover failed open: %+v, %d fallbacks", st, fleet.Fallbacks())
		}
	})

	t.Run("hedge", func(t *testing.T) {
		r := newWirePeerRig(t, 2, n)
		fleet, err := NewFleet(r.remotes, FleetOptions{
			EvictAfter: 50, HedgeQuantile: 0.99, HedgeMin: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer fleet.Close()
		lane := fleet.Replicate().(*fleetReplica)
		const warm = 6 // arms peer 0's latency EWMA
		for i := 0; i < warm; i++ {
			lane.InferKeyedInto(frames, keys, out)
		}
		r.caches[0].delay.Store(int64(100 * time.Millisecond)) // per lookup: far past any trigger
		for i := range out {
			out[i] = -1
		}
		assertSentinelScores(t, "hedged", lane.InferKeyedInto(frames, keys, out))
		if fleet.Hedges() == 0 || fleet.HedgeWins() == 0 {
			t.Fatalf("hedge never fired / won: %d / %d", fleet.Hedges(), fleet.HedgeWins())
		}
		r.caches[0].delay.Store(0)
		// the canceled primary's probe may or may not have been answered; the
		// hedge's was (and a busy box may have hedged a warm-up chunk too)
		if got := r.remotes[1].TransportStats().FramesDedup; got < n {
			t.Fatalf("hedge peer answered %d frames, want at least %d", got, n)
		}
		for i, rb := range r.remotes {
			if st := rb.TransportStats(); st.FramesPixels != 0 {
				t.Fatalf("peer %d was sent pixels: an arm re-hashed", i)
			}
		}
	})
}

// TestKeyedFallbackIgnoresKeys: the local fallback scores pixels; keys that
// match nothing cannot change what it answers.
func TestKeyedFallbackIgnoresKeys(t *testing.T) {
	const n = 3
	r := newWirePeerRig(t, 1, 0)
	fleet, err := NewFleet(r.remotes, FleetOptions{EvictAfter: 1, RedialBase: time.Hour, Fallback: r.local})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	r.servers[0].Close()

	frames := synth.SampleFrames(7, n)
	want := make([]float64, n)
	r.local.InferBatchInto(frames, want)
	assertBitEqual(t, "fallback", fleet.InferKeyedInto(frames, sentinelKeys(n), make([]float64, n)), want)
	if fleet.Fallbacks() == 0 {
		t.Fatal("local fallback never engaged")
	}
}

// TestInferKeyedIntoRejectsMismatchedKeys: a keys slice that is neither
// empty nor one per frame is a caller bug every implementer reports at the
// door, before anything slices it in step with the frames.
func TestInferKeyedIntoRejectsMismatchedKeys(t *testing.T) {
	r := newWirePeerRig(t, 1, 0)
	fleet, err := NewFleet(r.remotes, FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	frames := synth.SampleFrames(3, 2)
	out := make([]float64, len(frames))
	backends := map[string]KeyedBackend{
		"remote":  r.remotes[0],
		"fleet":   fleet,
		"replica": fleet.Replicate().(KeyedBackend),
	}
	for name, b := range backends {
		for _, nkeys := range []int{1, 3} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s took %d keys for %d frames", name, nkeys, len(frames))
					}
				}()
				b.InferKeyedInto(frames, sentinelKeys(nkeys), out)
			}()
		}
	}
	if st := r.remotes[0].TransportStats(); st.Chunks != 0 {
		t.Fatalf("a rejected call still dispatched %d chunks", st.Chunks)
	}
}
