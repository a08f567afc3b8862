// Package serve turns PERCIVAL's synchronous per-caller classifier into a
// concurrent micro-batching service: many goroutines Submit single frames
// into per-shard queues, and each shard's one dispatch loop takes what is
// queued as a batch and runs it through a warm engine.Backend replica (FP32
// or INT8, whichever the selection policy chose) in one forward pass.
// This is the throughput story the paper's deployment needs at scale:
// per-frame latency is already hardware-bound, so serving millions of users
// is about amortizing forward passes and never classifying the same creative
// twice.
//
// The service layers four mechanisms in front of the model:
//
//   - dispatch sharding: submissions are partitioned by content-hash range
//     over Options.Shards independent shards, each owning its own queue,
//     dispatch loop, in-flight table, and backend replica (own arena pool —
//     shards never contend for inference state);
//   - a verdict cache keyed by frame content hash: one engine.VerdictMap
//     per server, split into lock domains of its own;
//   - in-flight request coalescing: a frame identical to one already being
//     classified attaches to the in-flight request instead of queueing a
//     duplicate model run (ad creatives repeat — that is the point);
//   - bounded queues with backpressure and deadline load-shedding: when the
//     system cannot keep up, requests older than the deadline resolve to
//     StatusShed ("verdict unknown", render the frame) instead of growing
//     the queue without bound.
//
// Batching is work-conserving: the shard's loop takes a batch the moment it
// is free, and requests that arrive while the model runs wait in the bounded
// queue to form the next one (see shard.run). No timer holds a frame back
// while a lane sits idle, so there is no batching delay to tune — an idle
// service answers a lone frame as a batch of one, and a loaded one fills
// batches by itself because requests queue behind the forward pass already
// running. (The linger timer and its fixed / AIMD policies that used to
// decide this were removed: the wait was two thirds of a warm wire frame and
// bought no measurable per-frame saving; PERFORMANCE.md "Work-conserving
// batcher".)
//
// Counters and latency histograms are exported through internal/metrics and
// rendered by cmd/percival-serve's /metrics endpoint.
package serve

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"time"

	"percival/internal/core"
	"percival/internal/engine"
	"percival/internal/imaging"
	"percival/internal/metrics"
)

// Status reports how a submission was resolved.
type Status uint8

// Submission outcomes.
const (
	// StatusClassified: the model scored this frame (it led a batch slot).
	StatusClassified Status = iota
	// StatusCached: the verdict came from the content-hash cache.
	StatusCached
	// StatusCoalesced: an identical frame was already in flight; this
	// request attached to it and shares its verdict.
	StatusCoalesced
	// StatusShed: the service was overloaded and rejected the request past
	// its deadline. The verdict is unknown; callers must fail open (render
	// the frame) — dropping content is worse than showing an ad.
	StatusShed
)

// String names the status for logs and JSON verdicts.
func (s Status) String() string {
	switch s {
	case StatusClassified:
		return "classified"
	case StatusCached:
		return "cached"
	case StatusCoalesced:
		return "coalesced"
	case StatusShed:
		return "shed"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// Result is one resolved classification.
type Result struct {
	// Score is the ad probability (0 when Status is StatusShed).
	Score float64
	// Ad applies the service threshold to Score; always false for shed
	// requests (verdict unknown fails open).
	Ad bool
	// Status records how the verdict was produced.
	Status Status
}

// Options tunes the batching service. The zero value gets sensible
// defaults from New.
type Options struct {
	// MaxBatch caps frames per dispatched forward pass (default 16,
	// matching the engine batch chunk so one dispatch is one forward pass).
	MaxBatch int
	// QueueDepth bounds the submit queues in total entries across shards
	// (default 4*GOMAXPROCS*MaxBatch). A full shard queue blocks submitters —
	// backpressure, not buffering. The bound is exact: a shard holds its
	// share of QueueDepth waiting leaders plus the one batch inside the
	// model, and nothing between the queue and the lane.
	QueueDepth int
	// Deadline sheds requests that waited longer than this before their
	// batch was dispatched (0 disables shedding).
	Deadline time.Duration
	// CacheSize bounds the verdict cache in entries (default 4096). A
	// negative size is an error; DisableCache is the off switch.
	CacheSize int
	// DisableCache turns verdict memoization off. In-flight coalescing
	// stays active.
	DisableCache bool
	// Shards is the number of independent dispatch shards; submissions are
	// partitioned by content-hash range, each shard owning its own queue,
	// in-flight table, backend replica and one dispatch loop (default 1).
	// It is the service's one concurrency knob: a forward pass fans its
	// products out across the GEMM pool, and Shards of them run at once.
	Shards int
	// Backend overrides the inference engine (default: the classifier's
	// active backend). Each shard replicates it, so the value passed here
	// never serves traffic directly.
	Backend engine.Backend
	// Policy, when set, hands admission to the unified controller: graded
	// brownout at the queue door, stage-adjusted batch cap and shed deadline
	// (its remote congestion feed defaults to the service backend when that
	// reports windows). Nil keeps plain bounded-queue backpressure.
	Policy *AdmissionController
}

func (o Options) withDefaults() Options {
	if o.MaxBatch == 0 {
		o.MaxBatch = 16
	}
	if o.Shards == 0 {
		o.Shards = 1
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 4 * runtime.GOMAXPROCS(0) * o.MaxBatch
	}
	return o
}

// Metrics are the service's live counters and histograms, exported through
// internal/metrics and safe to read while the server runs.
type Metrics struct {
	// Submitted counts every Submit/SubmitAsync call.
	Submitted metrics.Counter
	// CacheHits counts verdicts served from the cache.
	CacheHits metrics.Counter
	// Coalesced counts requests that attached to an in-flight duplicate.
	Coalesced metrics.Counter
	// Classified counts frames actually scored by the model.
	Classified metrics.Counter
	// Shed counts requests rejected with verdict-unknown.
	Shed metrics.Counter
	// Batches counts dispatched forward passes.
	Batches metrics.Counter
	// BatchFill records frames per dispatched batch.
	BatchFill *metrics.Histogram
	// LatencyMS records enqueue→resolve latency for model-scored frames.
	// Shed resolutions are deliberately excluded: their waits are capped by
	// the deadline, not by how fast the service answers, and would flatten
	// the tail this histogram exists to show. They go to ShedWaitMS instead.
	LatencyMS *metrics.Histogram
	// ShedWaitMS records enqueue→shed wait for rejected requests.
	ShedWaitMS *metrics.Histogram
	// ShardFrames counts model-dispatched frames per shard (routing and
	// balance observability).
	ShardFrames []metrics.Counter
	// LaneBusyNS accumulates nanoseconds each shard's loop spent inside
	// the model (indexed by shard) — shard occupancy is its rate over wall
	// time.
	LaneBusyNS []metrics.Counter
}

// Expose renders every metric in Prometheus text exposition format.
func (m *Metrics) Expose() string {
	s := metrics.ExposeCounter("percival_serve_submitted_total", &m.Submitted) +
		metrics.ExposeCounter("percival_serve_cache_hits_total", &m.CacheHits) +
		metrics.ExposeCounter("percival_serve_coalesced_total", &m.Coalesced) +
		metrics.ExposeCounter("percival_serve_classified_total", &m.Classified) +
		metrics.ExposeCounter("percival_serve_shed_total", &m.Shed) +
		metrics.ExposeCounter("percival_serve_batches_total", &m.Batches) +
		m.BatchFill.Expose("percival_serve_batch_fill") +
		m.LatencyMS.Expose("percival_serve_latency_ms") +
		m.ShedWaitMS.Expose("percival_serve_shed_wait_ms")
	for i := range m.ShardFrames {
		s += fmt.Sprintf("percival_serve_shard_frames_total{shard=\"%d\"} %d\n",
			i, m.ShardFrames[i].Load())
	}
	for i := range m.LaneBusyNS {
		s += fmt.Sprintf("percival_serve_lane_busy_ns_total{lane=\"%d\"} %d\n",
			i, m.LaneBusyNS[i].Load())
	}
	return s
}

// request is one in-flight submission. Requests are pooled: the done
// channel is allocated once and reused, so a steady-state Submit performs
// no heap allocation.
type request struct {
	frame     *imaging.Bitmap
	key       [32]byte // imaging.ContentKey(frame), hashed once in begin
	enq       time.Time
	score     float64
	status    Status
	done      chan struct{} // buffered(1): resolver never blocks
	followers []*request    // coalesced duplicates, guarded by the shard's mu
}

// shard is one independent dispatch lane: a content-hash range of the key
// space with its own submit queue, dispatch loop, in-flight table, and
// backend replica. A shard's arena state is its own — two shards never
// contend for inference buffers.
type shard struct {
	srv     *Server
	id      int
	backend engine.Backend

	// mu guards pending, the in-flight leader per key: a submission of a
	// frame that is already being scored attaches to it as a follower
	// instead of queueing a duplicate model run.
	mu      sync.Mutex
	pending map[[32]byte]*request

	queue chan *request
	done  chan struct{} // closed when run returns
}

// Server is the sharded micro-batching classification service.
type Server struct {
	svc    *core.Percival
	opts   Options
	adm    *AdmissionController // Options.Policy; nil without admission control
	shards []*shard
	cache  *engine.VerdictMap // nil (holds nothing) with DisableCache

	reqPool sync.Pool

	// closeMu serializes submissions against Close: submitters hold the
	// read side across pending-registration and the queue send, and Close
	// closes the shard queues under the write side, so no queue is ever
	// closed under an in-flight sender and closed==true means they are shut.
	closeMu sync.RWMutex
	closed  bool

	met Metrics
}

// New builds and starts a Server in front of a core.Percival service.
func New(svc *core.Percival, opts Options) (*Server, error) {
	if svc == nil {
		return nil, fmt.Errorf("serve: nil classifier service")
	}
	opts = opts.withDefaults()
	if opts.MaxBatch < 1 {
		return nil, fmt.Errorf("serve: MaxBatch %d < 1", opts.MaxBatch)
	}
	if opts.QueueDepth < 1 {
		return nil, fmt.Errorf("serve: QueueDepth %d < 1", opts.QueueDepth)
	}
	if opts.Shards < 1 {
		return nil, fmt.Errorf("serve: Shards %d < 1", opts.Shards)
	}
	if opts.CacheSize < 0 {
		return nil, fmt.Errorf("serve: CacheSize %d < 0", opts.CacheSize)
	}
	backend := opts.Backend
	if backend == nil {
		backend = svc.Engine()
	}
	s := &Server{
		svc:  svc,
		opts: opts,
		adm:  opts.Policy,
	}
	if !opts.DisableCache {
		s.cache = engine.NewVerdictMap(opts.CacheSize)
	}
	s.met.BatchFill = metrics.NewHistogram([]float64{1, 2, 4, 8, 16, 32, 64})
	s.met.LatencyMS = metrics.NewHistogram(nil)
	s.met.ShedWaitMS = metrics.NewHistogram(nil)
	s.met.ShardFrames = make([]metrics.Counter, opts.Shards)
	s.met.LaneBusyNS = make([]metrics.Counter, opts.Shards)
	if ac := s.adm; ac != nil {
		ac.setDeadline(opts.Deadline)
		if ac.opts.Windows == nil {
			if wr, ok := backend.(engine.WindowReporter); ok {
				ac.opts.Windows = wr
			}
		}
	}
	s.reqPool.New = func() any {
		return &request{done: make(chan struct{}, 1)}
	}

	// split the queue budget evenly across shards, rounding up
	queueDepth := (opts.QueueDepth + opts.Shards - 1) / opts.Shards
	s.shards = make([]*shard, opts.Shards)
	for i := range s.shards {
		sh := &shard{
			srv:     s,
			id:      i,
			backend: backend.Replicate(),
			pending: map[[32]byte]*request{},
			queue:   make(chan *request, queueDepth),
			done:    make(chan struct{}),
		}
		s.shards[i] = sh
		go sh.run()
	}
	return s, nil
}

// shardFor partitions the key space by content-hash range: the leading 4
// bytes of the (uniform, cryptographic) hash are treated as a fixed-point
// fraction of the keyspace and scaled to the shard count, so the same
// content hash always routes to the same shard and its in-flight table.
func (s *Server) shardFor(k [32]byte) *shard {
	hi := uint64(binary.BigEndian.Uint32(k[0:4]))
	return s.shards[int(hi*uint64(len(s.shards))>>32)]
}

// Service returns the wrapped classifier (model introspection, stats).
func (s *Server) Service() *core.Percival { return s.svc }

// Metrics returns the live service metrics.
func (s *Server) Metrics() *Metrics { return &s.met }

// Shards reports the dispatch-shard count.
func (s *Server) Shards() int { return len(s.shards) }

// BackendStats returns each shard replica's engine dispatch counters.
func (s *Server) BackendStats() []engine.Stats {
	out := make([]engine.Stats, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.backend.Stats()
	}
	return out
}

// FleetHealth reports per-peer supervisor state when the shards dispatch
// into a supervised fleet (engine.HealthReporter), nil for local backends.
// Every shard's backend is a replica of Options.Backend, and replicas share
// one health table, so shard 0's answer is the fleet's.
func (s *Server) FleetHealth() []engine.PeerHealthInfo {
	if hr, ok := s.shards[0].backend.(engine.HealthReporter); ok {
		return hr.PeerHealth()
	}
	return nil
}

// WindowStats reports per-peer in-flight cap state when the shards
// dispatch into remotes (engine.WindowReporter), nil for local backends. Replicas share their peers' windows, so shard 0's answer is the
// fleet's.
func (s *Server) WindowStats() []engine.WindowStat {
	if wr, ok := s.shards[0].backend.(engine.WindowReporter); ok {
		return wr.WindowStats()
	}
	return nil
}

// Admission returns the unified admission controller when one is the
// service's policy, nil otherwise.
func (s *Server) Admission() *AdmissionController { return s.adm }

// Warm builds every shard replica's inference state at the largest batch
// a shard can dispatch — sized for that batch and run on one blank frame
// each, whose forward plan then serves every batch up to it — so the first
// real burst allocates nothing.
func (s *Server) Warm() {
	for _, sh := range s.shards {
		sh.backend.Warm(s.opts.MaxBatch)
	}
}

// Cache returns the verdict store Submit reads and fills, nil with
// DisableCache. The daemon's wire listener answers hash probes from it and
// stores wire-scored verdicts in it, so a creative the daemon has already
// scored never pulls pixels over the wire again; -cache-file snapshots it.
func (s *Server) Cache() *engine.VerdictMap { return s.cache }

// CacheLen reports the number of memoized verdicts.
func (s *Server) CacheLen() int { return s.cache.Len() }

// result materializes a Result from a resolved request.
func (s *Server) result(r *request) Result {
	if r.status == StatusShed {
		return Result{Status: StatusShed}
	}
	return Result{Score: r.score, Ad: r.score >= s.svc.Threshold(), Status: r.status}
}

// getRequest checks a pooled request out for one submission.
func (s *Server) getRequest(frame *imaging.Bitmap, key [32]byte) *request {
	r := s.reqPool.Get().(*request)
	r.frame = frame
	r.key = key
	r.enq = time.Now()
	r.score = 0
	r.status = StatusClassified
	return r
}

func (s *Server) putRequest(r *request) {
	r.frame = nil
	r.followers = r.followers[:0]
	s.reqPool.Put(r)
}

// begin starts one submission: cache lookup, shard routing, in-flight
// coalescing, or leader enqueue. It returns either an immediate result
// (ok=true) or the request to wait on.
//
// A miss looks the cache up a second time under the shard's lock before it
// registers as leader, and resolve stores a score before it takes the
// leader out of the in-flight table under that lock: a submission either
// finds the leader and follows it or finds its score, and never starts a
// second model run for a key that is being resolved.
func (s *Server) begin(frame *imaging.Bitmap) (Result, bool, *request) {
	s.met.Submitted.Inc()
	key := imaging.ContentKey(frame)
	shd := s.shardFor(key)

	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		s.met.Shed.Inc()
		return Result{Status: StatusShed}, true, nil
	}

	v, hit := s.cache.LookupVerdict(key)
	if !hit {
		shd.mu.Lock()
		if v, hit = s.cache.LookupVerdict(key); hit {
			shd.mu.Unlock()
		}
	}
	if hit {
		s.closeMu.RUnlock()
		s.met.CacheHits.Inc()
		return Result{Score: v, Ad: v >= s.svc.Threshold(), Status: StatusCached}, true, nil
	}
	// a miss holds shd.mu from here
	if leader, ok := shd.pending[key]; ok {
		f := s.getRequest(nil, key)
		leader.followers = append(leader.followers, f)
		shd.mu.Unlock()
		s.closeMu.RUnlock()
		return Result{}, false, f
	}
	r := s.getRequest(frame, key)
	shd.pending[key] = r
	shd.mu.Unlock()

	// Bounded queue with stage-graded admission. Normal operation blocks
	// the submitter on a full queue (backpressure) — but never past the
	// shed deadline: a request that cannot even enter the queue in time is
	// already doomed, and shedding it here keeps it from occupying bounded
	// capacity just to be shed at dispatch. Under brownout (stage >= 1)
	// admission stops blocking entirely, and at stage 3 new leader work is
	// shed at the edge; cache and coalesce hits were already served above.
	stage := BrownoutNormal
	if s.adm != nil {
		stage = s.adm.AdmitQueue(len(shd.queue), cap(shd.queue))
	}
	switch {
	case stage >= BrownoutShed:
		s.adm.ObserveShed()
		shd.resolveShed(r)
	case stage >= BrownoutCacheOnly:
		select {
		case shd.queue <- r:
		default:
			s.adm.ObserveShed()
			shd.resolveShed(r)
		}
	default:
		if !shd.enqueue(r, s.opts.Deadline) {
			// a door shed under normal stage is overload ground truth: the
			// queue stayed full for the whole deadline — feed it, weighted by
			// every follower that coalesced behind the doomed leader
			n := shd.resolveShed(r)
			if s.adm != nil {
				s.adm.ObserveOverloadShed(n)
			}
		}
	}
	s.closeMu.RUnlock()
	return Result{}, false, r
}

// enqueue submits a leader to the shard's bounded queue, blocking at most d
// (0: unbounded backpressure, the pre-deadline contract). Reports false when
// the wait exhausted the shed deadline — the caller sheds immediately
// instead of queueing a request that can only be shed later.
func (sh *shard) enqueue(r *request, d time.Duration) bool {
	select {
	case sh.queue <- r:
		return true
	default:
	}
	if d <= 0 {
		sh.queue <- r
		return true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case sh.queue <- r:
		return true
	case <-timer.C:
		return false
	}
}

// Submit classifies one frame through the batching service, blocking until
// its batch resolves (or the request is shed). Safe for arbitrary
// concurrency; the steady state allocates nothing.
//
// The frame is immutable until Submit returns: it is hashed once, on entry,
// and that key is its identity in every layer below — verdict cache,
// in-flight table and, through engine.KeyedBackend, the wire probe a peer
// answers and memoizes under. Pixels changed in flight would be scored and
// cached, here and on the peer, under the key of the pixels that were hashed.
func (s *Server) Submit(frame *imaging.Bitmap) Result {
	res, done, r := s.begin(frame)
	if done {
		return res
	}
	<-r.done
	res = s.result(r)
	s.putRequest(r)
	return res
}

// Future is a pending asynchronous classification from SubmitAsync.
type Future struct {
	s    *Server
	r    *request
	once sync.Once
	res  Result
}

// Wait blocks until the verdict is available. Safe to call repeatedly,
// including from concurrent goroutines: resolution is exclusive (the pooled
// request is consumed exactly once), and every caller returns the same
// Result.
func (f *Future) Wait() Result {
	f.once.Do(f.resolve)
	return f.res
}

// resolve consumes the underlying pooled request. It must run at most once:
// a second put of the same request would hand one pooled value to two
// submissions.
func (f *Future) resolve() {
	if f.r == nil {
		return
	}
	<-f.r.done
	f.res = f.s.result(f.r)
	f.s.putRequest(f.r)
	f.r = nil
}

// Immediate reads the verdict without blocking: it is there if SubmitAsync
// resolved it on submission (a cache hit, or a shed at the door), and false
// if the frame went to a shard, however soon its batch resolves.
func (f *Future) Immediate() (Result, bool) {
	if f.s != nil {
		return Result{}, false
	}
	return f.res, true
}

// SubmitAsync starts a classification and returns a Future, letting the
// caller overlap other work (rasterization) with the in-flight batch. As
// with Submit the frame is immutable until the result resolves — here, until
// Wait returns: a caller that goes on drawing into the buffer submits a
// Clone. The browser submits bitmaps that nothing draws into afterwards.
func (s *Server) SubmitAsync(frame *imaging.Bitmap) *Future {
	res, done, r := s.begin(frame)
	if done {
		return &Future{res: res}
	}
	return &Future{s: s, r: r}
}

// batchCap is the stage-adjusted frames-per-dispatch cap.
func (s *Server) batchCap() int {
	if s.adm != nil {
		return s.adm.BatchCap(s.opts.MaxBatch)
	}
	return s.opts.MaxBatch
}

// shedDeadline is the stage-adjusted shed deadline.
func (s *Server) shedDeadline() time.Duration {
	if s.adm != nil {
		return s.adm.ShedDeadline(s.opts.Deadline)
	}
	return s.opts.Deadline
}

// run is the shard's one dispatch loop, and it is work-conserving: it
// blocks for a first request, takes whatever else is already queued, up to
// the batch cap, without blocking, and runs that batch through the shard's
// warm backend replica. No frame waits out a timer beside an idle lane, and
// a loaded shard fills its batches from the queue that builds behind the
// running forward pass. After Close it dispatches what is still queued, then
// returns.
func (sh *shard) run() {
	defer close(sh.done)
	s := sh.srv
	frames := make([]*imaging.Bitmap, 0, s.opts.MaxBatch)
	keys := make([][32]byte, 0, s.opts.MaxBatch) // keys[i] is frames[i]'s, hashed once in begin
	live := make([]*request, 0, s.opts.MaxBatch)
	scores := make([]float64, s.opts.MaxBatch)
	for r := range sh.queue {
		frames, keys, live = frames[:0], keys[:0], live[:0]
		batchCap, deadline := s.batchCap(), s.shedDeadline()
		for ok := true; ok; {
			// pop time is dispatch time: the leader's queue age feeds the
			// pressure signal (see ObserveDispatchWait), and a leader past
			// the deadline is shed instead of taking a batch slot
			age := time.Since(r.enq)
			if s.adm != nil {
				s.adm.ObserveDispatchWait(age)
			}
			if deadline > 0 && age > deadline {
				n := sh.resolveShed(r)
				if s.adm != nil {
					s.adm.ObserveOverloadShed(n)
				}
			} else {
				live = append(live, r)
				frames = append(frames, r.frame)
				keys = append(keys, r.key)
			}
			if len(live) >= batchCap {
				break
			}
			select {
			case r, ok = <-sh.queue:
			default:
				ok = false
			}
		}
		if len(live) == 0 {
			continue
		}
		start := time.Now()
		out := engine.InferKeyed(sh.backend, frames, keys, scores[:len(live)])
		s.met.LaneBusyNS[sh.id].Add(time.Since(start).Nanoseconds())
		s.met.Batches.Inc()
		s.met.BatchFill.Observe(float64(len(live)))
		s.met.Classified.Add(int64(len(live)))
		s.met.ShardFrames[sh.id].Add(int64(len(live)))
		for i, r := range live {
			sh.resolve(r, out[i])
		}
		// Yield before parking on the queue. Resolving just made the batch's
		// submitters runnable; without the yield, on one P the scheduler's
		// runnext hand-off (loop -> last-woken client -> loop) runs the next
		// forward pass for that one client while the first-woken ones sit in
		// the run queue for a whole scheduler slice. Yielding lets every woken
		// client resubmit first, so the next batch carries all of them.
		runtime.Gosched()
	}
}

// resolve publishes a model verdict: memoize, release the in-flight slot,
// fan the score out to coalesced followers, wake the leader. The score is
// stored before the slot is released (see begin).
func (sh *shard) resolve(r *request, score float64) {
	s := sh.srv
	s.met.LatencyMS.Observe(float64(time.Since(r.enq).Nanoseconds()) / 1e6)
	s.cache.StoreVerdict(r.key, score)
	followers := sh.release(r)
	for _, f := range followers {
		f.score = score
		f.status = StatusCoalesced
		s.met.Coalesced.Inc()
		f.done <- struct{}{}
	}
	r.score = score
	r.status = StatusClassified
	r.done <- struct{}{}
}

// resolveShed rejects a request (and any coalesced followers) with
// verdict-unknown, returning how many submissions that resolved — the
// request mass a deadline shed feeds into the admission pressure signal.
// The wait goes to ShedWaitMS, never LatencyMS — shed waits are
// deadline-capped, not service-time-driven (see Metrics.LatencyMS).
func (sh *shard) resolveShed(r *request) int {
	s := sh.srv
	s.met.ShedWaitMS.Observe(float64(time.Since(r.enq).Nanoseconds()) / 1e6)
	followers := sh.release(r)
	for _, f := range followers {
		f.status = StatusShed
		s.met.Shed.Inc()
		f.done <- struct{}{}
	}
	r.status = StatusShed
	s.met.Shed.Inc()
	r.done <- struct{}{}
	return 1 + len(followers)
}

// release takes a leader out of the in-flight table and hands back the
// followers that attached to it; none can attach after it returns.
func (sh *shard) release(r *request) []*request {
	sh.mu.Lock()
	if sh.pending[r.key] == r {
		delete(sh.pending, r.key)
	}
	followers := r.followers
	r.followers = nil
	sh.mu.Unlock()
	return followers
}

// Close drains the service: it waits for in-flight submitters, closes every
// shard's queue, waits for each shard's loop to dispatch what is still
// queued (it is flushed, not dropped), and closes the shard backend
// replicas. Submissions racing with Close resolve as StatusShed. The
// server must not be used after Close.
func (s *Server) Close() {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return
	}
	s.closed = true
	for _, sh := range s.shards {
		close(sh.queue)
	}
	s.closeMu.Unlock()
	for _, sh := range s.shards {
		<-sh.done
		sh.backend.Close()
	}
}
