// Package faultinject is a reusable fault-injection harness for the serving
// tier: an http.RoundTripper wrapper (client side), an http.Handler
// middleware (server side) and a net.Listener wrapper (server side, for the
// framed socket wire) that inject added latency, synthetic errors and
// blackholes — either under manual control (Set) or on a timed schedule of
// phases (SetSchedule), which is how tests and benchmarks script a flapping
// peer (up -> blackhole -> up) without touching the code under test.
//
// The classifier sits inline in the rendering path, so the fleet layer's
// contract is "never block a page under any backend condition"; this
// package is how that contract is exercised: internal/engine's fleet tests
// and the `make chaos` CI smoke drive their peers through an Injector.
package faultinject

import (
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"
)

// Fault is one fault configuration. The zero value injects nothing.
type Fault struct {
	// Latency is added to affected requests before they proceed (bounded by
	// the request context, so a canceled caller never waits it out).
	Latency time.Duration
	// LatencyRate is the fraction of requests Latency applies to; 0 with a
	// non-zero Latency means every request (a uniformly slow peer), values
	// in (0, 1) model a peer whose tail is poisoned (a "20% slow" peer).
	LatencyRate float64
	// ErrorRate is the fraction of requests answered with a synthetic
	// failure: a transport error on the client side, a 503 from Middleware,
	// a closed connection from Listener.
	ErrorRate float64
	// Blackhole swallows affected requests entirely: no response until the
	// caller's context expires — the failure mode of a dead host, as opposed
	// to ErrorRate's fast failure of a live-but-broken one.
	Blackhole bool
}

// Phase is one step of a timed schedule.
type Phase struct {
	// Fault applies for the phase's duration.
	Fault Fault
	// For is how long the phase lasts. The final phase of a non-cycling
	// schedule holds forever once reached.
	For time.Duration
}

// Injector decides the fault applied to each request. Safe for concurrent
// use; the zero value injects nothing. Deterministic given a seed: the rate
// rolls come from a private PRNG, not the global one.
type Injector struct {
	mu     sync.Mutex
	rng    *rand.Rand
	manual Fault
	phases []Phase
	cycle  bool
	start  time.Time
}

// NewInjector returns an injector that injects nothing until Set or
// SetSchedule configures it.
func NewInjector(seed int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed))}
}

// Set pins the current fault, clearing any schedule. Set(Fault{}) heals.
func (in *Injector) Set(f Fault) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.manual = f
	in.phases = nil
}

// SetSchedule starts a timed schedule from now. With cycle the phases
// repeat (a flapping peer); without it the last phase holds once reached.
func (in *Injector) SetSchedule(cycle bool, phases ...Phase) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.manual = Fault{}
	in.phases = append([]Phase(nil), phases...)
	in.cycle = cycle
	in.start = time.Now()
}

// Fault returns the fault in effect right now.
func (in *Injector) Fault() Fault {
	in.mu.Lock()
	defer in.mu.Unlock()
	if len(in.phases) == 0 {
		return in.manual
	}
	elapsed := time.Since(in.start)
	if in.cycle {
		var total time.Duration
		for _, p := range in.phases {
			total += p.For
		}
		if total > 0 {
			elapsed %= total
		}
	}
	for _, p := range in.phases {
		if elapsed < p.For {
			return p.Fault
		}
		elapsed -= p.For
	}
	return in.phases[len(in.phases)-1].Fault
}

// roll reports whether an event with the given rate fires.
func (in *Injector) roll(rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rng.Float64() < rate
}

// decide resolves the per-request actions from the current fault.
func (in *Injector) decide() (delay time.Duration, fail, blackhole bool) {
	f := in.Fault()
	if f.Blackhole {
		return 0, false, true
	}
	if f.Latency > 0 && (f.LatencyRate == 0 || in.roll(f.LatencyRate)) {
		delay = f.Latency
	}
	return delay, in.roll(f.ErrorRate), false
}

// injectedError is the synthetic client-side transport failure.
type injectedError struct{}

func (injectedError) Error() string   { return "faultinject: injected transport error" }
func (injectedError) Timeout() bool   { return false }
func (injectedError) Temporary() bool { return true }

// Transport is a client-side http.RoundTripper that injects the Injector's
// current fault in front of Base (http.DefaultTransport when nil).
type Transport struct {
	Base http.RoundTripper
	Inj  *Injector
}

// RoundTrip applies the current fault, then delegates to Base.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	delay, fail, blackhole := t.Inj.decide()
	ctx := req.Context()
	if blackhole {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	if delay > 0 {
		timer := time.NewTimer(delay)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		}
	}
	if fail {
		return nil, injectedError{}
	}
	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	return base.RoundTrip(req)
}

// Middleware wraps a server-side handler with the Injector's current fault:
// blackholed requests hang until the client gives up, delayed requests wait
// out the added latency, failed requests answer 503.
func Middleware(in *Injector, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		delay, fail, blackhole := in.decide()
		if blackhole {
			// No response at all: the client's per-attempt timeout is what
			// ends this request, exactly like a dead host holding a socket.
			// The body must be drained first — with unread body bytes the
			// HTTP/1.x server never starts the background read that detects
			// the client abort, and r.Context() would never fire.
			io.Copy(io.Discard, r.Body)
			<-r.Context().Done()
			return
		}
		if delay > 0 {
			timer := time.NewTimer(delay)
			select {
			case <-timer.C:
			case <-r.Context().Done():
				timer.Stop()
				return
			}
		}
		if fail {
			http.Error(w, "faultinject: injected error", http.StatusServiceUnavailable)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// Listener wraps a server-side listener so every connection it accepts
// carries the Injector's current fault — Middleware's twin for a peer that
// speaks a framed byte stream instead of HTTP. Blackhole swallows the
// server's writes and holds its reads until the fault clears or the
// connection is closed: a dead host holding a socket. Latency delays a
// write (at LatencyRate). ErrorRate closes the connection in place of a
// write: a live peer dropping the link. Faults apply per Write call, so a
// server that writes each message whole never has one split.
func Listener(in *Injector, ln net.Listener) net.Listener {
	return &faultListener{Listener: ln, in: in}
}

type faultListener struct {
	net.Listener
	in *Injector
}

func (l *faultListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &faultConn{Conn: c, in: l.in, closed: make(chan struct{})}, nil
}

// heldReadPoll is how often a read held by a blackhole checks whether the
// fault has cleared (a schedule can clear it without any call to observe).
const heldReadPoll = 2 * time.Millisecond

type faultConn struct {
	net.Conn
	in        *Injector
	closeOnce sync.Once
	closed    chan struct{}
}

func (c *faultConn) Read(p []byte) (int, error) {
	for c.in.Fault().Blackhole {
		select {
		case <-c.closed:
			return 0, net.ErrClosed
		case <-time.After(heldReadPoll):
		}
	}
	return c.Conn.Read(p)
}

func (c *faultConn) Write(p []byte) (int, error) {
	delay, fail, blackhole := c.in.decide()
	if blackhole {
		return len(p), nil
	}
	if delay > 0 {
		timer := time.NewTimer(delay)
		select {
		case <-timer.C:
		case <-c.closed:
			timer.Stop()
			return 0, net.ErrClosed
		}
	}
	if fail {
		c.Close()
		return 0, injectedError{}
	}
	return c.Conn.Write(p)
}

func (c *faultConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}
