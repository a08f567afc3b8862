package faultinject

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	})
}

// TestInjectorManual: Set pins a fault and Set(Fault{}) heals.
func TestInjectorManual(t *testing.T) {
	in := NewInjector(1)
	if f := in.Fault(); f != (Fault{}) {
		t.Fatalf("fresh injector has fault %+v", f)
	}
	in.Set(Fault{Blackhole: true})
	if !in.Fault().Blackhole {
		t.Fatal("Set(Blackhole) not in effect")
	}
	in.Set(Fault{})
	if f := in.Fault(); f != (Fault{}) {
		t.Fatalf("healed injector has fault %+v", f)
	}
}

// TestInjectorSchedule: a timed schedule walks its phases, and a cycling
// schedule wraps around (the flapping-peer shape).
func TestInjectorSchedule(t *testing.T) {
	in := NewInjector(1)
	in.SetSchedule(false,
		Phase{Fault: Fault{}, For: 30 * time.Millisecond},
		Phase{Fault: Fault{Blackhole: true}, For: 30 * time.Millisecond},
		Phase{Fault: Fault{}, For: 30 * time.Millisecond},
	)
	if in.Fault().Blackhole {
		t.Fatal("phase 0 should be healthy")
	}
	time.Sleep(40 * time.Millisecond)
	if !in.Fault().Blackhole {
		t.Fatal("phase 1 should blackhole")
	}
	time.Sleep(35 * time.Millisecond)
	if in.Fault().Blackhole {
		t.Fatal("phase 2 should be healthy")
	}
	// non-cycling: the last phase holds forever
	time.Sleep(40 * time.Millisecond)
	if in.Fault().Blackhole {
		t.Fatal("last phase should hold")
	}

	in.SetSchedule(true,
		Phase{Fault: Fault{Blackhole: true}, For: 20 * time.Millisecond},
		Phase{Fault: Fault{}, For: 20 * time.Millisecond},
	)
	if !in.Fault().Blackhole {
		t.Fatal("cycling phase 0 should blackhole")
	}
	time.Sleep(45 * time.Millisecond) // one full cycle + 5ms: back in phase 0
	if !in.Fault().Blackhole {
		t.Fatal("cycling schedule did not wrap")
	}
}

// TestMiddlewareFaults: the server-side wrapper must pass healthy traffic,
// 503 on error injection, and hang blackholed requests until the client's
// deadline — never answer them.
func TestMiddlewareFaults(t *testing.T) {
	in := NewInjector(1)
	ts := httptest.NewServer(Middleware(in, okHandler()))
	defer ts.Close()

	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy status %d", resp.StatusCode)
	}

	in.Set(Fault{ErrorRate: 1})
	resp, err = http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("error-injected status %d, want 503", resp.StatusCode)
	}

	in.Set(Fault{Blackhole: true})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL, nil)
	if _, err := http.DefaultClient.Do(req); err == nil {
		t.Fatal("blackholed request got a response")
	}
}

// TestTransportFaults: the client-side wrapper injects without the server
// ever seeing the request, and added latency is observable.
func TestTransportFaults(t *testing.T) {
	hits := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		io.WriteString(w, "ok")
	}))
	defer ts.Close()

	in := NewInjector(1)
	client := &http.Client{Transport: &Transport{Inj: in}}

	in.Set(Fault{ErrorRate: 1})
	if _, err := client.Get(ts.URL); err == nil {
		t.Fatal("injected transport error not surfaced")
	}
	if hits != 0 {
		t.Fatalf("server saw %d requests through an error-injected transport", hits)
	}

	in.Set(Fault{Blackhole: true})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL, nil)
	if _, err := client.Do(req); err == nil {
		t.Fatal("blackholed transport returned a response")
	}

	in.Set(Fault{Latency: 40 * time.Millisecond})
	start := time.Now()
	resp, err := client.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if d := time.Since(start); d < 40*time.Millisecond {
		t.Fatalf("latency injection took %v, want >= 40ms", d)
	}
}

// TestLatencyRate: a partial latency rate slows some requests and not
// others (the "20% slow peer" shape), deterministically per seed.
func TestLatencyRate(t *testing.T) {
	in := NewInjector(7)
	in.Set(Fault{Latency: time.Hour, LatencyRate: 0.5})
	slow := 0
	for i := 0; i < 64; i++ {
		if d, _, _ := in.decide(); d > 0 {
			slow++
		}
	}
	if slow == 0 || slow == 64 {
		t.Fatalf("LatencyRate 0.5 slowed %d/64 requests", slow)
	}
	// rate 0 with latency set means every request
	in.Set(Fault{Latency: time.Millisecond})
	if d, _, _ := in.decide(); d != time.Millisecond {
		t.Fatalf("zero rate with latency should always apply, got %v", d)
	}
}

// TestInjectorConcurrentScheduleMutation hammers one injector from many
// goroutines — decide/Fault readers racing Set and SetSchedule writers —
// the way a chaos benchmark's driver rewrites phases while request
// goroutines are mid-flight. The race detector is the real assertion; the
// invariant checked is that a decided fault is always one a configured
// phase could produce.
func TestInjectorConcurrentScheduleMutation(t *testing.T) {
	in := NewInjector(3)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				delay, _, blackhole := in.decide()
				if blackhole {
					t.Error("no configured phase blackholes")
					return
				}
				if delay != 0 && delay != 3*time.Millisecond {
					t.Errorf("decided delay %v matches no configured phase", delay)
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		switch i % 3 {
		case 0:
			in.Set(Fault{ErrorRate: 0.5})
		case 1:
			in.SetSchedule(true,
				Phase{Fault: Fault{Latency: 3 * time.Millisecond}, For: time.Millisecond},
				Phase{Fault: Fault{}, For: time.Millisecond},
			)
		case 2:
			in.Set(Fault{})
		}
	}
	close(stop)
	wg.Wait()
}

// TestTransportScheduleConcurrent composes a timed phase schedule with the
// client-side RoundTripper under concurrent requests: a healthy → failing →
// healthy schedule must fail some in-flight traffic mid-schedule and none
// once the final phase holds.
func TestTransportScheduleConcurrent(t *testing.T) {
	ts := httptest.NewServer(okHandler())
	defer ts.Close()
	in := NewInjector(5)
	client := &http.Client{Transport: &Transport{Inj: in}}
	in.SetSchedule(false,
		Phase{Fault: Fault{}, For: 30 * time.Millisecond},
		Phase{Fault: Fault{ErrorRate: 1}, For: 30 * time.Millisecond},
		Phase{Fault: Fault{}, For: time.Millisecond},
	)

	var ok, injected, other atomic.Int64
	var wg sync.WaitGroup
	deadline := time.Now().Add(90 * time.Millisecond)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				resp, err := client.Get(ts.URL)
				switch {
				case err == nil:
					resp.Body.Close()
					ok.Add(1)
				case errors.Is(err, injectedError{}):
					injected.Add(1)
				default:
					other.Add(1)
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if other.Load() != 0 {
		t.Fatalf("%d non-injected failures", other.Load())
	}
	if ok.Load() == 0 || injected.Load() == 0 {
		t.Fatalf("schedule did not exercise both phases under concurrency: ok=%d injected=%d",
			ok.Load(), injected.Load())
	}
	// the non-cycling schedule's last phase holds: traffic is clean again
	for i := 0; i < 8; i++ {
		resp, err := client.Get(ts.URL)
		if err != nil {
			t.Fatalf("request after heal phase failed: %v", err)
		}
		resp.Body.Close()
	}
}

// echoPeer serves 4-byte echo messages through Listener(in, ...) and hands
// the test each accepted server-side connection.
func echoPeer(t *testing.T, in *Injector) (dial func() (client, server net.Conn)) {
	t.Helper()
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := Listener(in, raw)
	t.Cleanup(func() { ln.Close() })
	accepted := make(chan net.Conn, 1)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- c
			go func() {
				defer c.Close()
				msg := make([]byte, 4)
				for {
					if _, err := io.ReadFull(c, msg); err != nil {
						return
					}
					if _, err := c.Write(msg); err != nil {
						return
					}
				}
			}()
		}
	}()
	return func() (net.Conn, net.Conn) {
		t.Helper()
		c, err := net.Dial("tcp", raw.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c, <-accepted
	}
}

// readMsg reads one 4-byte message from c within d.
func readMsg(c net.Conn, d time.Duration) (string, error) {
	c.SetReadDeadline(time.Now().Add(d))
	msg := make([]byte, 4)
	_, err := io.ReadFull(c, msg)
	return string(msg), err
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// TestListenerFaults: the socket-level wrapper passes healthy traffic,
// delays writes under Latency, drops the connection under ErrorRate, and
// under Blackhole swallows writes and holds reads until the fault clears
// or the connection is closed — never answering while it holds.
func TestListenerFaults(t *testing.T) {
	in := NewInjector(1)
	dial := echoPeer(t, in)

	c, _ := dial()
	c.Write([]byte("ping"))
	if got, err := readMsg(c, 2*time.Second); err != nil || got != "ping" {
		t.Fatalf("healthy echo %q, %v", got, err)
	}

	in.Set(Fault{Latency: 40 * time.Millisecond})
	start := time.Now()
	c.Write([]byte("slow"))
	if got, err := readMsg(c, 2*time.Second); err != nil || got != "slow" {
		t.Fatalf("delayed echo %q, %v", got, err)
	}
	if d := time.Since(start); d < 40*time.Millisecond {
		t.Fatalf("latency injection took %v, want >= 40ms", d)
	}

	in.Set(Fault{ErrorRate: 1})
	c.Write([]byte("fail"))
	if _, err := readMsg(c, 2*time.Second); err != io.EOF {
		t.Fatalf("error-injected echo read %v, want EOF (connection closed)", err)
	}

	// blackhole set before the peer reads: the request is held, not lost
	in.Set(Fault{Blackhole: true})
	c, _ = dial()
	c.Write([]byte("held"))
	if _, err := readMsg(c, 60*time.Millisecond); !isTimeout(err) {
		t.Fatalf("blackholed echo read %v, want a timeout", err)
	}
	in.Set(Fault{})
	if got, err := readMsg(c, 2*time.Second); err != nil || got != "held" {
		t.Fatalf("held request after the fault cleared: %q, %v", got, err)
	}

	// a blackholed server's writes vanish, and closing the connection
	// releases its held read
	in.Set(Fault{Blackhole: true})
	c, srv := dial()
	if n, err := srv.Write([]byte("lost")); n != 4 || err != nil {
		t.Fatalf("blackholed write (%d, %v), want swallowed (4, nil)", n, err)
	}
	if _, err := readMsg(c, 60*time.Millisecond); !isTimeout(err) {
		t.Fatalf("swallowed write reached the client: %v", err)
	}
	srv.Close()
	if _, err := readMsg(c, 2*time.Second); err != io.EOF {
		t.Fatalf("read after the server closed its held connection: %v, want EOF", err)
	}
}
