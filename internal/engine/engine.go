// Package engine defines the pluggable inference-backend layer: a Backend
// is one way of turning decoded frames into ad scores (the FP32 arena path,
// the INT8 quantized path, and — behind the same seam — any future remote
// or experimental engine), and a Registry names the backends a service
// knows about so engine selection becomes policy instead of inline
// branching.
//
// Before this layer existed the FP32 and INT8 paths were hard-wired twin
// code paths inside core.Percival (predictArena vs qnet, duplicated across
// Classify/ClassifyBatch/ClassifyBatchInto), and internal/serve could only
// dispatch to the single core.Percival it was constructed with. Backends
// pull that branching out: each backend owns its warm per-goroutine
// inference state (a tensor arena whose slabs hold every buffer of the
// network's forward plan, the scaled frame included), so a serve shard can
// hold its own replica and never contend with its neighbours for them.
//
// State-ownership rule: one Backend value owns one list of warm states, as
// many as the peak number of goroutines that were inside it at once (one
// per serve lane, one per raster worker). The list is the backend's own,
// not a sync.Pool: the collector empties a pool after two cycles without
// use, and a classifier that idles between page loads would then rebuild
// its working set inside the next page's raster path. Replicate shares the
// (read-only) weights but starts an empty list, which is what a dispatch
// shard wants; Close drops the list.
package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"percival/internal/imaging"
	"percival/internal/tensor"
)

// BatchChunk caps the frames per forward pass. Activation buffers scale
// with batch size and a warm state keeps its high-water mark for the life
// of the backend (about 2 MB a frame for the FP32 paper net, 0.6 MB for the
// INT8 one), so an unbounded batch (a 100-image search page at paper
// resolution) would pin hundreds of MB; chunking keeps the pre-processing
// amortization while bounding a state to the footprint of one
// BatchChunk-frame pass.
const BatchChunk = 16

// Stats are a backend's dispatch counters, readable while it serves.
type Stats struct {
	// Batches counts forward passes (chunks, not caller-level batches).
	Batches int64
	// Frames counts frames scored.
	Frames int64
	// Errors counts chunks that failed open (score 0, verdict unknown)
	// because the engine could not produce a real verdict — transport
	// failures past the retry budget on a RemoteBackend. The in-process
	// backends never fail open, so they always report 0.
	Errors int64
	// StateBytes is the warm inference state the backend retains: over
	// every state it has created and not dropped, the size of its arena's
	// slabs as of its last return — exactly what the largest forward plan
	// it ran lays out (FP32: float activations and scratch, and the scaled
	// frame's bytes; INT8: byte activations and scratch, int32
	// accumulators, the logits). Remote backends hold none and report 0.
	StateBytes int64
}

// Backend is one inference engine: pre-processing, forward pass, and the
// warm per-goroutine state both need. Implementations are safe for
// concurrent use; a steady-state InferBatchInto performs no heap
// allocation once a state is warm (see Warm).
type Backend interface {
	// Name identifies the engine ("fp32", "int8") for registries, logs and
	// health endpoints.
	Name() string
	// InputRes is the network input resolution frames are scaled to.
	InputRes() int
	// InferBatchInto scores frames into out (len(out) >= len(frames)) and
	// returns out[:len(frames)]. Scores are the ad-class probability.
	InferBatchInto(frames []*imaging.Bitmap, out []float64) []float64
	// Replicate returns a backend sharing this backend's weights but owning
	// no warm state yet — the per-shard replica serve dispatch wants.
	Replicate() Backend
	// Warm builds one warm state sized for the largest chunk a batch of up
	// to maxBatch frames can produce, so the first real dispatch at any
	// batch size up to it allocates nothing. An in-process engine runs one
	// blank frame to do so, which its Stats do not count.
	Warm(maxBatch int)
	// Close drops the warm states. The backend must not be used after
	// Close.
	Close()
	// Stats returns the dispatch counters.
	Stats() Stats
}

// KeyedBackend is the optional keyed entry of the dispatch seam, for the
// backends whose wire probes a peer's verdict cache by imaging.ContentKey:
// RemoteBackend, Fleet and its replicas. The serving layer keyed every
// frame once, at Submit, and hands that key down instead of each layer
// below re-hashing the bytes. The in-process engines read pixels only.
type KeyedBackend interface {
	Backend
	// InferKeyedInto is InferBatchInto for a caller that holds the frames'
	// content keys: keys is empty, or keys[i] is imaging.ContentKey(frames[i])
	// for every frame — any other length is a caller bug and panics. A wrong
	// key is not detected: the peer would answer for, and memoize under, a
	// frame that was not sent. The keys are the caller's again on return.
	InferKeyedInto(frames []*imaging.Bitmap, keys [][32]byte, out []float64) []float64
}

// InferKeyed scores frames on b, through the keyed entry when b has one.
func InferKeyed(b Backend, frames []*imaging.Bitmap, keys [][32]byte, out []float64) []float64 {
	if kb, ok := b.(KeyedBackend); ok {
		return kb.InferKeyedInto(frames, keys, out)
	}
	return b.InferBatchInto(frames, out)
}

// checkKeys enforces InferKeyedInto's contract before anything slices keys
// in step with the frames.
func checkKeys(frames []*imaging.Bitmap, keys [][32]byte) {
	if len(keys) != 0 && len(keys) != len(frames) {
		panic(fmt.Sprintf("engine: InferKeyedInto: %d keys for %d frames", len(keys), len(frames)))
	}
}

// chunkKeys is keys[lo:hi] of a keyed batch and nil of an unkeyed one.
func chunkKeys(keys [][32]byte, lo, hi int) [][32]byte {
	if len(keys) == 0 {
		return nil
	}
	return keys[lo:hi]
}

// inferState is one goroutine's reusable inference memory: a warm tensor
// arena holding every buffer one forward pass needs.
type inferState struct {
	arena *tensor.Arena
	// counted is this state's share of base.stateBytes.
	counted int64
}

// inferFn scores one chunk of frames (at most BatchChunk) in st's arena: it
// scales each frame and lays it out as the network's input in the plan's
// input region — float planes converted from a scaled frame in the plan's
// byte region for FP32, the scaled bitmaps' own bytes for INT8, the one
// point where the engines differ — and runs the forward pass, whose later
// stages reuse that region once the first has read it. The
// [len(chunk), classes] probabilities it hands back are a view of the arena,
// read before its next pass.
type inferFn func(st *inferState, chunk []*imaging.Bitmap) *tensor.Tensor

// base carries the engine-independent machinery: warm states, chunking and
// stats. Concrete backends embed it and supply infer, and size, which sizes
// a state's arena for an n-frame chunk through the engine's input entry
// (the one infer lays a chunk out through) without running a pass.
type base struct {
	name  string
	res   int
	infer inferFn
	size  func(a *tensor.Arena, n int)

	// states is the idle warm states, last returned first out so the one
	// whose buffers are in cache is the one reused; stateBytes counts them
	// and the ones in use.
	mu         sync.Mutex
	states     []*inferState
	stateBytes int64

	batches atomic.Int64
	frames  atomic.Int64
}

func (b *base) Name() string  { return b.name }
func (b *base) InputRes() int { return b.res }

func (b *base) Stats() Stats {
	b.mu.Lock()
	stateBytes := b.stateBytes
	b.mu.Unlock()
	return Stats{Batches: b.batches.Load(), Frames: b.frames.Load(), StateBytes: stateBytes}
}

func (b *base) getState() *inferState {
	var st *inferState
	b.mu.Lock()
	if n := len(b.states); n > 0 {
		st, b.states = b.states[n-1], b.states[:n-1]
	}
	b.mu.Unlock()
	if st == nil {
		st = &inferState{arena: tensor.NewArena()}
	}
	return st
}

func (b *base) putState(st *inferState) {
	size := int64(st.arena.Bytes())
	b.mu.Lock()
	b.stateBytes += size - st.counted
	st.counted = size
	b.states = append(b.states, st)
	b.mu.Unlock()
}

// InferBatchInto scores frames in chunked forward passes, amortizing
// pre-processing through the warm arena.
func (b *base) InferBatchInto(frames []*imaging.Bitmap, out []float64) []float64 {
	if len(frames) == 0 {
		return out[:0]
	}
	st := b.getState()
	out = out[:len(frames)]
	for lo := 0; lo < len(frames); lo += BatchChunk {
		hi := lo + BatchChunk
		if hi > len(frames) {
			hi = len(frames)
		}
		chunk := frames[lo:hi]
		probs := b.infer(st, chunk)
		k := probs.Shape[1]
		for i := range chunk {
			out[lo+i] = float64(probs.Data[i*k+1]) // class 1 = ad
		}
		b.batches.Add(1)
	}
	b.putState(st)
	b.frames.Add(int64(len(frames)))
	return out
}

// Warm sizes one state for the largest chunk a batch of up to maxBatch
// frames can produce, then runs one blank frame in it: the network's forward
// plan for that chunk is compiled on its first use and recorded in the
// state, every buffer of it allocated, and the weights packed, so every
// batch up to that chunk runs in the same plan, a prefix of each of its
// regions, without allocating. The pages of a buffer past the first frame
// are touched first by the first batch that large. Warm's frame is not
// counted in Stats.
func (b *base) Warm(maxBatch int) {
	n := min(max(maxBatch, 1), BatchChunk)
	st := b.getState()
	b.size(st.arena, n)
	b.infer(st, []*imaging.Bitmap{imaging.NewBitmap(b.res, b.res)})
	b.putState(st)
}

// Close drops the warm states for the collector to take.
func (b *base) Close() {
	b.mu.Lock()
	b.states, b.stateBytes = nil, 0
	b.mu.Unlock()
}
