package engine

import (
	"context"
	"testing"
	"time"
)

func TestWindowRTO(t *testing.T) {
	w := newPeerWindow()
	if got := w.RTO(); got != 0 {
		t.Fatalf("RTO before %d samples = %v, want 0 (no opinion)", windowRTOSamples, got)
	}
	// fast steady samples: mean+4dev is tiny, so the floor must hold
	for i := 0; i < 20; i++ {
		w.OnSuccess(2 * time.Millisecond)
	}
	if got := w.RTO(); got != 200*time.Millisecond {
		t.Fatalf("RTO on fast peer = %v, want floored at 200ms", got)
	}
	// slow samples push the RTO above the floor
	for i := 0; i < 40; i++ {
		w.OnSuccess(300 * time.Millisecond)
	}
	if got := w.RTO(); got <= 200*time.Millisecond {
		t.Fatalf("RTO on slow peer = %v, want above the floor", got)
	}
}

func TestWindowAcquireGating(t *testing.T) {
	w := newPeerWindow()
	ctx := context.Background()
	limit := w.Stat().Limit
	for i := 0; i < limit; i++ {
		if !w.Acquire(ctx) {
			t.Fatal("could not fill window")
		}
	}
	// one acquire past the limit must block until a release
	got := make(chan bool, 1)
	go func() {
		got <- w.Acquire(ctx)
	}()
	select {
	case <-got:
		t.Fatal("Acquire succeeded beyond the window")
	case <-time.After(20 * time.Millisecond):
	}
	w.Release()
	select {
	case ok := <-got:
		if !ok {
			t.Fatal("Acquire returned false after release")
		}
	case <-time.After(time.Second):
		t.Fatal("Acquire did not wake on release")
	}

	// a blocked acquire must honour context cancellation
	cctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if w.Acquire(cctx) {
		t.Fatal("Acquire succeeded on cancelled context with full window")
	}
	if w.Stat().Blocked < 2 {
		t.Fatalf("blocked counter = %d, want >= 2", w.Stat().Blocked)
	}

	// losses never shrink the limit: after a burst of them a drained
	// window still admits its full limit without a single wait
	for i := 0; i < limit; i++ {
		w.Release()
	}
	for i := 0; i < 20; i++ {
		w.OnLoss()
	}
	blocked := w.Stat().Blocked
	for i := 0; i < limit; i++ {
		if !w.Acquire(cctx) {
			t.Fatalf("after 20 losses the window admitted %d of its %d slots", i, limit)
		}
	}
	if st := w.Stat(); st.Blocked != blocked || st.InFlight != limit || st.Losses != 20 {
		t.Fatalf("after 20 losses and %d acquires: %+v, want %d blocked, %d in flight, 20 losses",
			limit, st, blocked, limit)
	}
}

func TestWindowReset(t *testing.T) {
	w := newPeerWindow()
	for i := 0; i < 20; i++ {
		w.OnSuccess(5 * time.Millisecond)
	}
	w.OnLoss()
	w.Reset()
	if n := w.RTT().N(); n != 0 {
		t.Fatalf("RTT estimator kept %d samples across Reset", n)
	}
}
