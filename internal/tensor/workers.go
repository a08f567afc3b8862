package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The package keeps one persistent pool of worker goroutines, sized by
// GOMAXPROCS, that every parallel kernel (all three GEMM variants) shares.
// Spawning goroutines per GEMM call — the previous design — costs scheduler
// round-trips on every convolution; the pool pays that cost once.
//
// Work distribution is cooperative: parallelFor enqueues lightweight helper
// tasks and the calling goroutine immediately starts chewing through the same
// atomic part counter, so a fully busy pool degrades to inline execution
// instead of deadlocking or queueing behind other callers.

var (
	workCh      = make(chan func(), 256)
	workerCount atomic.Int32
	workerMu    sync.Mutex
)

// ensureWorkers grows the pool to the current GOMAXPROCS. Workers are never
// torn down; they block on the channel when idle.
func ensureWorkers() int {
	want := int32(runtime.GOMAXPROCS(0))
	if workerCount.Load() >= want {
		return int(want)
	}
	workerMu.Lock()
	for workerCount.Load() < want {
		go func() {
			for f := range workCh {
				f()
			}
		}()
		workerCount.Add(1)
	}
	workerMu.Unlock()
	return int(want)
}

// parallelFor executes body(part) for every part in [0, parts), spreading the
// parts across the worker pool and the calling goroutine. It returns once all
// parts have completed. body must be safe to run concurrently for distinct
// parts.
//
// Completion is tracked by a counter of finished parts, not by helper-task
// teardown: under concurrent load a helper may sit queued behind other
// callers' work, and once the parts are exhausted it must cost nothing —
// a stale helper claims no part, never touches body's captures (which the
// caller may recycle immediately after return), and the caller never waits
// on it.
func parallelFor(parts int, body func(part int)) {
	if parts <= 0 {
		return
	}
	if parts == 1 {
		body(0)
		return
	}
	workers := ensureWorkers()
	var next, pending atomic.Int32
	pending.Store(int32(parts))
	done := make(chan struct{})
	run := func() {
		for {
			p := int(next.Add(1)) - 1
			if p >= parts {
				return
			}
			body(p)
			if pending.Add(-1) == 0 {
				close(done)
			}
		}
	}
	helpers := workers - 1
	if helpers > parts-1 {
		helpers = parts - 1
	}
	for i := 0; i < helpers; i++ {
		select {
		case workCh <- run:
		default:
			// Pool queue is full (heavy concurrent traffic): the caller
			// covers the remaining parts itself rather than blocking.
		}
	}
	run()
	<-done
}
