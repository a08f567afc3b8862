package engine

// Wire v3: the persistent-socket dispatch wire, the one way a front reaches
// its peers. One hot TCP connection per peer carries multiplexed
// request/response messages (the PCVB/PCVS magics from remotehttp.go, grown
// a request ID and a flags word — the full format is documented in
// remotehttp.go's header comment) on a connection that never goes cold.
// Request IDs let responses return out of order, so the chunks a peer's
// in-flight cap admits really are concurrently in flight on one
// connection; a request that outlives its RTO deadline is abandoned
// client-side (its ID is forgotten; a late response is dropped) and counts
// as a loss.
//
// On top of the framing sits the hash-first dedup tier: a probe message
// carries each frame's 32-byte content key, the peer answers what its
// verdict cache already knows, and only the misses are sent as (keyed)
// pixels. On cache-warm traffic a ~200 KB frame costs 32 bytes on the wire.
// Pixels that do travel are written straight from each frame's backing
// buffer to the socket — no per-chunk body assembly.
//
// sockettransport-style stream framing (see ndn-dpdk): the reader is a
// single goroutine per connection that routes responses to waiters by ID;
// writers serialize whole messages under a write lock. A protocol error
// anywhere kills the connection — a byte stream that lost framing cannot
// resync — and the next round trip redials.

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"math/bits"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"percival/internal/imaging"
)

const (
	// sockHeaderLen is the message prefix: magic, version, id, flags,
	// count.
	sockHeaderLen = 4 + 2 + 4 + 4 + 4
	// sockFlagProbe marks a request as a key probe (content keys, no
	// pixels); sockFlagMask marks a response as a probe answer (hit bitmask
	// + scores for the set bits). Any other flag bit is a protocol error.
	sockFlagProbe = 1 << 0
	sockFlagMask  = 1 << 0
	// wireKeyLen is the content-key length (imaging.ContentKey), and so
	// the length of one probe entry.
	wireKeyLen = 32
	// maxSockPixelBytes bounds one pixel message's total pixel payload —
	// the same budget the HTTP endpoint enforces via MaxBytesReader.
	maxSockPixelBytes = int64(BatchChunk) * maxWireFrameBytes
	// sockBufSize sizes the per-connection read/write buffers.
	sockBufSize = 64 << 10
)

// putSockHeader writes a message header into dst[:sockHeaderLen].
func putSockHeader(dst []byte, magic string, id, flags, count uint32) {
	copy(dst[:4], magic)
	binary.LittleEndian.PutUint16(dst[4:6], wireVersionSock)
	binary.LittleEndian.PutUint32(dst[6:10], id)
	binary.LittleEndian.PutUint32(dst[10:14], flags)
	binary.LittleEndian.PutUint32(dst[14:18], count)
}

// peekN returns the stream's next n bytes without copying them out of br's
// buffer (n must fit it); they are valid until the caller's next read, which
// is normally br.Discard(n). A stream that ends inside the n bytes is an
// unexpected EOF, as io.ReadFull would report it.
func peekN(br *bufio.Reader, n int) ([]byte, error) {
	b, err := br.Peek(n)
	if err == io.EOF && len(b) > 0 {
		err = io.ErrUnexpectedEOF
	}
	return b, err
}

// readSockHeader reads and validates one message prefix: magic, version
// and the entry-count bound every decoder checks before it sizes anything.
func readSockHeader(br *bufio.Reader, magic, what string) (id, flags, count uint32, err error) {
	hdr, err := peekN(br, sockHeaderLen)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("engine: wire %s header: %w", what, err)
	}
	if string(hdr[:4]) != magic {
		return 0, 0, 0, fmt.Errorf("engine: not a wire %s (magic %q)", what, hdr[:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != wireVersionSock {
		return 0, 0, 0, fmt.Errorf("engine: wire %s version %d, want %d", what, v, wireVersionSock)
	}
	id = binary.LittleEndian.Uint32(hdr[6:10])
	flags = binary.LittleEndian.Uint32(hdr[10:14])
	count = binary.LittleEndian.Uint32(hdr[14:18])
	br.Discard(sockHeaderLen)
	if count == 0 || count > maxWireFrames {
		return 0, 0, 0, fmt.Errorf("engine: wire %s of %d entries (1..%d)", what, count, maxWireFrames)
	}
	return id, flags, count, nil
}

// resized returns s with length n, reusing its backing array when it is
// large enough. The contents are the caller's to overwrite.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// sockReq is one decoded request: a key probe (keys) or a keyed pixel
// batch (keys+frames).
type sockReq struct {
	id     uint32
	probe  bool
	keys   [][32]byte
	frames []*imaging.Bitmap
}

// read decodes one request message from the stream into req, validating
// every bound before allocating and reusing req's slices where they are
// large enough (a connection's probes all decode into one sockReq). This is
// the server's untrusted-input surface (fuzzed by FuzzWireMsg).
func (req *sockReq) read(br *bufio.Reader) error {
	id, flags, count, err := readSockHeader(br, batchMagic, "request")
	if err != nil {
		return err
	}
	if flags != 0 && flags != sockFlagProbe {
		return fmt.Errorf("engine: wire request flags %#x", flags)
	}
	req.id, req.probe = id, flags == sockFlagProbe
	req.keys = resized(req.keys, int(count))
	req.frames = req.frames[:0]
	if req.probe {
		for i := range req.keys {
			ent, err := peekN(br, wireKeyLen)
			if err != nil {
				return fmt.Errorf("engine: probe entry %d: %w", i, err)
			}
			copy(req.keys[i][:], ent)
			br.Discard(wireKeyLen)
		}
		return nil
	}
	var total int64
	for i := range req.keys {
		fh, err := peekN(br, wireKeyLen+8)
		if err != nil {
			return fmt.Errorf("engine: wire frame %d header: %w", i, err)
		}
		copy(req.keys[i][:], fh[:wireKeyLen])
		w := int(binary.LittleEndian.Uint32(fh[wireKeyLen : wireKeyLen+4]))
		h := int(binary.LittleEndian.Uint32(fh[wireKeyLen+4:]))
		br.Discard(wireKeyLen + 8)
		if err := CheckFrameDims(w, h); err != nil {
			return fmt.Errorf("engine: wire frame %d: %w", i, err)
		}
		if total += int64(w) * int64(h) * 4; total > maxSockPixelBytes {
			return fmt.Errorf("engine: wire request pixel payload exceeds %d bytes", maxSockPixelBytes)
		}
		b := imaging.NewBitmap(w, h)
		if _, err := io.ReadFull(br, b.Pix); err != nil {
			return fmt.Errorf("engine: wire frame %d pixels: %w", i, err)
		}
		req.frames = append(req.frames, b)
	}
	return nil
}

// sockResp is one decoded response: either plain scores (count of them)
// or a probe answer (hit mask over count entries, scores for the set bits).
type sockResp struct {
	id     uint32
	masked bool
	count  int
	mask   []byte
	scores []float64
}

// wireSize is the response's on-the-wire byte count (accounting).
func (r *sockResp) wireSize() int64 {
	return int64(sockHeaderLen + len(r.mask) + 8*len(r.scores))
}

// readBody decodes what follows a response header, reusing r's mask and
// score slices where they are large enough — the connection's reader
// decodes each response straight into the scratch of the round trip that
// waits for it.
func (r *sockResp) readBody(br *bufio.Reader, flags, count uint32) error {
	if flags != 0 && flags != sockFlagMask {
		return fmt.Errorf("engine: wire response flags %#x", flags)
	}
	r.masked, r.count, r.mask = flags == sockFlagMask, int(count), r.mask[:0]
	nscores := r.count
	if r.masked {
		r.mask = resized(r.mask, (r.count+7)/8)
		if _, err := io.ReadFull(br, r.mask); err != nil {
			return fmt.Errorf("engine: wire response mask: %w", err)
		}
		// bits past count must be clear, or the score count is ambiguous
		if extra := len(r.mask)*8 - r.count; extra > 0 && r.mask[len(r.mask)-1]>>(8-extra) != 0 {
			return fmt.Errorf("engine: wire response mask sets bits past entry %d", count)
		}
		nscores = 0
		for _, m := range r.mask {
			nscores += bits.OnesCount8(m)
		}
	}
	r.scores = resized(r.scores, nscores)
	for i := range r.scores {
		b, err := peekN(br, 8)
		if err != nil {
			return fmt.Errorf("engine: wire response score %d: %w", i, err)
		}
		r.scores[i] = math.Float64frombits(binary.LittleEndian.Uint64(b))
		br.Discard(8)
	}
	return nil
}

// sockCall is one round trip's rendezvous with the connection's reader: the
// reader decodes the response whose ID matches straight into resp and sends
// the outcome (nil, or the connection's fatal error) on done. Calls are
// pooled with everything a warm round trip needs — the channel, the
// response and request scratch, the attempt timer — so one costs no garbage.
type sockCall struct {
	done  chan error // buffered(1): the reader never blocks
	resp  sockResp
	buf   []byte      // request framing scratch
	timer *time.Timer // attempt deadline; stopped and drained between uses
	// abandoned marks a call that returned without collecting done: the
	// reader (or dropConn) may still write to it, so it is never recycled
	abandoned bool
}

// sockTransport is the wire client: one hot connection, lazily dialed and
// redialed, multiplexing round trips by request ID. Shared across a peer's
// replicas like the in-flight cap.
type sockTransport struct {
	host string // the peer's HTTP host: error text, wildcard listener hosts

	mu     sync.Mutex // addr + connection lifecycle + pending tables + nextID
	addr   string     // wire listener address, resolved against host
	wmu    sync.Mutex // serializes whole-message writes (never held with mu)
	conn   *sockConn  // the hot connection new round trips use; nil: dial
	nextID uint32
	calls  sync.Pool // *sockCall

	stats transportCounters
}

// sockConn is one connection and the round trips waiting on it.
type sockConn struct {
	net.Conn
	bw      *bufio.Writer
	pending map[uint32]*sockCall
	// retired marks a connection Close detached from the transport: no new
	// round trip uses it, and it closes once the last pending one is done
	retired bool
}

// newSockTransport aims a transport at the wire listener a peer's
// handshake advertised.
func newSockTransport(host, wireAddr string) *sockTransport {
	return &sockTransport{host: host, addr: resolveWireAddr(host, wireAddr)}
}

// Close retires the hot connection: round trips already in flight on it
// finish (a fleet removes a drained peer while a chunk that raced the drain
// may still be waiting on it), and it closes when the last one does. Close
// is not terminal — sibling replicas share the transport, and the next round
// trip dials a fresh connection.
func (t *sockTransport) Close() {
	t.mu.Lock()
	sc := t.conn
	t.conn = nil
	idle := sc != nil && len(sc.pending) == 0
	if sc != nil {
		sc.retired = true
	}
	t.mu.Unlock()
	if idle {
		sc.Close()
	}
}

// warm pre-dials the connection so the first dispatch pays no setup.
func (t *sockTransport) warm(ctx context.Context) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.conn != nil {
		return nil
	}
	return t.dialLocked(ctx, time.Time{})
}

// repoint aims the transport at the wire listener a fresh handshake
// advertised — a peer restarted with another -wire-listen port has moved
// it — and retires the current connection, which belongs to the peer as it
// was before the fleet evicted it: the next round trip dials the listener
// the peer advertises now.
func (t *sockTransport) repoint(wireAddr string) {
	t.mu.Lock()
	t.addr = resolveWireAddr(t.host, wireAddr)
	t.mu.Unlock()
	t.Close()
}

// dialLocked establishes the connection (by deadline, when it is set) and
// starts its reader. Caller holds t.mu.
func (t *sockTransport) dialLocked(ctx context.Context, deadline time.Time) error {
	d := net.Dialer{Deadline: deadline}
	conn, err := d.DialContext(ctx, "tcp", t.addr)
	if err != nil {
		return fmt.Errorf("engine: peer %s wire dial %s: %w", t.host, t.addr, err)
	}
	sc := &sockConn{Conn: conn, bw: bufio.NewWriterSize(conn, sockBufSize), pending: make(map[uint32]*sockCall)}
	t.conn = sc
	t.stats.dials.Add(1)
	go t.readLoop(sc, bufio.NewReaderSize(conn, sockBufSize))
	return nil
}

// dropConn closes a dead connection: its in-flight round trips fail with err
// (tryChunk's retry loop redials) and, if it was the hot one, the
// next call redials.
func (t *sockTransport) dropConn(sc *sockConn, err error) {
	t.mu.Lock()
	if t.conn == sc {
		t.conn = nil
	}
	for id, c := range sc.pending {
		delete(sc.pending, id)
		c.done <- err
	}
	t.mu.Unlock()
	sc.Close()
}

// forget removes round trip id from sc's table and reports whether that
// left a retired sc with nothing to wait for, so the caller closes it.
func (t *sockTransport) forget(sc *sockConn, id uint32) (c *sockCall, closeNow bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c = sc.pending[id]
	delete(sc.pending, id)
	return c, sc.retired && len(sc.pending) == 0
}

// readLoop is the connection's single reader: it routes responses to their
// waiting round trips by ID, decoding each into its waiter's scratch. A
// response whose ID is unknown answers a request that already timed out
// client-side — decoded into a spare and dropped, the timeout was the loss
// signal.
func (t *sockTransport) readLoop(sc *sockConn, br *bufio.Reader) {
	var spare sockResp
	for {
		id, flags, count, err := readSockHeader(br, scoreMagic, "response")
		if err != nil {
			t.dropConn(sc, err)
			return
		}
		c, closeNow := t.forget(sc, id)
		resp := &spare
		if c != nil {
			resp = &c.resp
		}
		resp.id = id
		err = resp.readBody(br, flags, count)
		if err == nil {
			t.stats.bytesIn.Add(resp.wireSize())
		}
		if c != nil {
			c.done <- err
		}
		if err != nil {
			t.dropConn(sc, err)
			return
		}
		if closeNow {
			sc.Close() // retired and drained: the next read ends the loop
		}
	}
}

// sockMsg is one request for call to frame and write: a probe of every key
// (frames nil), or the keyed pixels of the frames at idx.
type sockMsg struct {
	keys   [][32]byte
	frames []*imaging.Bitmap
	idx    []int
}

// size is the message's on-the-wire byte count (accounting).
func (m sockMsg) size() int64 {
	if m.frames == nil {
		return int64(sockHeaderLen + len(m.keys)*wireKeyLen)
	}
	n := int64(sockHeaderLen)
	for _, i := range m.idx {
		n += wireKeyLen + 8 + int64(len(m.frames[i].Pix))
	}
	return n
}

// write frames the message under request ID id. The framing is built in buf
// (returned for reuse); pixels go straight from each frame's backing buffer
// to the socket — bufio passes large writes through. Write errors are
// sticky; the caller's Flush surfaces them.
func (m sockMsg) write(bw *bufio.Writer, id uint32, buf []byte) []byte {
	buf = resized(buf, sockHeaderLen)
	if m.frames == nil {
		putSockHeader(buf, batchMagic, id, sockFlagProbe, uint32(len(m.keys)))
		for i := range m.keys {
			buf = append(buf, m.keys[i][:]...)
		}
		bw.Write(buf)
		return buf
	}
	putSockHeader(buf, batchMagic, id, 0, uint32(len(m.idx)))
	for _, i := range m.idx {
		buf = append(buf, m.keys[i][:]...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(m.frames[i].W))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(m.frames[i].H))
		bw.Write(buf)
		bw.Write(m.frames[i].Pix)
		buf = buf[:0]
	}
	return buf
}

// stopTimer stops t and discards a tick it may already have delivered, so
// the next Reset starts from an empty channel.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// getCall checks a pooled round-trip rendezvous out.
func (t *sockTransport) getCall() *sockCall {
	if c, _ := t.calls.Get().(*sockCall); c != nil {
		return c
	}
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	return &sockCall{done: make(chan error, 1), timer: timer}
}

// call runs one request/response exchange: register c under a fresh ID,
// write the message, await the response the reader decodes into c.resp.
// The attempt ends at deadline or when ctx does, whichever is first; either
// abandons the ID (and c) — in-flight accounting stays with the caller,
// which holds the window slot.
func (t *sockTransport) call(ctx context.Context, deadline time.Time, c *sockCall, msg sockMsg) error {
	t.mu.Lock()
	if t.conn == nil {
		if err := t.dialLocked(ctx, deadline); err != nil {
			t.mu.Unlock()
			return err
		}
	}
	sc := t.conn
	t.nextID++
	id := t.nextID
	sc.pending[id] = c
	t.mu.Unlock()

	t.wmu.Lock()
	sc.SetWriteDeadline(deadline)
	c.buf = msg.write(sc.bw, id, c.buf)
	err := sc.bw.Flush()
	t.wmu.Unlock()
	if err != nil {
		c.abandoned = true // dropConn's notice to c.done is never collected
		t.dropConn(sc, err)
		return err
	}
	t.stats.bytesOut.Add(msg.size())
	c.timer.Reset(time.Until(deadline))
	select {
	case err = <-c.done:
		stopTimer(c.timer)
		return err
	case <-ctx.Done():
		err = ctx.Err()
	case <-c.timer.C:
		err = context.DeadlineExceeded
	}
	c.abandoned = true
	if _, closeNow := t.forget(sc, id); closeNow {
		sc.Close()
	}
	return err
}

// roundTrip scores one chunk over the socket: key probe first, then pixels
// for the misses only. Scores land in out[:len(chunk.frames)].
func (t *sockTransport) roundTrip(ctx context.Context, deadline time.Time, chunk *wireChunk, out []float64) error {
	t.stats.chunks.Add(1)
	var missArr [BatchChunk]int
	miss := missArr[:0]
	keys := chunk.contentKeys()
	n := len(keys)
	c := t.getCall()
	resp := &c.resp
	if err := t.call(ctx, deadline, c, sockMsg{keys: keys}); err != nil {
		return t.endCall(c, err)
	}
	if !resp.masked || resp.count != n {
		return t.endCall(c, fmt.Errorf("engine: peer %s wire: probe answered %d/%v, want %d/mask",
			t.host, resp.count, resp.masked, n))
	}
	si := 0
	for i := 0; i < n; i++ {
		if resp.mask[i/8]&(1<<(i%8)) != 0 {
			out[i] = resp.scores[si]
			si++
		} else {
			miss = append(miss, i)
		}
	}
	t.stats.framesDedup.Add(int64(n - len(miss)))
	if len(miss) == 0 {
		return t.endCall(c, nil)
	}
	if err := t.call(ctx, deadline, c, sockMsg{keys: keys, frames: chunk.frames, idx: miss}); err != nil {
		return t.endCall(c, err)
	}
	if resp.masked || resp.count != len(miss) {
		return t.endCall(c, fmt.Errorf("engine: peer %s wire: %d scores for %d frames",
			t.host, resp.count, len(miss)))
	}
	for j, i := range miss {
		out[i] = resp.scores[j]
	}
	t.stats.framesPixels.Add(int64(len(miss)))
	return t.endCall(c, nil)
}

// endCall recycles a round trip's sockCall unless a call abandoned it, and
// passes the round trip's error through.
func (t *sockTransport) endCall(c *sockCall, err error) error {
	if !c.abandoned {
		t.calls.Put(c)
	}
	return err
}

// resolveWireAddr resolves a peer's advertised wire listener against its
// HTTP host: an empty or wildcard listener host (":8094", "0.0.0.0:8094",
// "[::]:8094") means "same host as the handshake".
func resolveWireAddr(httpHost, wireAddr string) string {
	host, port, err := net.SplitHostPort(wireAddr)
	if err != nil {
		return wireAddr
	}
	if host == "" || host == "0.0.0.0" || host == "::" {
		if h, _, err := net.SplitHostPort(httpHost); err == nil {
			host = h
		} else {
			host = httpHost
		}
		return net.JoinHostPort(host, port)
	}
	return wireAddr
}

// VerdictCache answers wire hash probes and absorbs wire-scored verdicts.
// VerdictMap implements it: a peer with a serving edge hands the listener
// the serve.Server's own store, a bare model process a store of its own.
type VerdictCache interface {
	// LookupVerdict reports a memoized score by imaging.ContentKey.
	LookupVerdict(key [32]byte) (float64, bool)
	// StoreVerdict memoizes a freshly-scored verdict.
	StoreVerdict(key [32]byte, score float64)
}

// WireServerStats is the wire listener's counter snapshot (/metrics).
type WireServerStats struct {
	Conns        int64 `json:"conns"`
	Requests     int64 `json:"requests"`
	ProbeHits    int64 `json:"probe_hits"`
	ProbeMisses  int64 `json:"probe_misses"`
	FramesScored int64 `json:"frames_scored"`
	BytesIn      int64 `json:"bytes_in"`
	BytesOut     int64 `json:"bytes_out"`
	WriteErrors  int64 `json:"write_errors"`
}

// WireServerOptions configures a WireServer.
type WireServerOptions struct {
	// Backend scores the pixel messages (probe misses). Required.
	Backend Backend
	// Cache answers probes and memoizes wire-scored verdicts. Optional:
	// without it every probe misses and nothing is memoized — correct but
	// dedup-blind.
	Cache VerdictCache
	// MaxConcurrent bounds concurrent forward passes across all
	// connections (default 2×GOMAXPROCS): the multiplexed wire would
	// otherwise let one proxy's whole in-flight cap fan out into
	// unbounded goroutines.
	MaxConcurrent int
}

// WireServer is the peer side of the persistent-socket wire: an accept
// loop over framed v3 messages, answering probes from the verdict cache
// inline and scoring pixel batches on the backend (concurrently per
// request ID, so responses overtake each other exactly as the multiplexed
// client expects).
type WireServer struct {
	backend Backend
	cache   VerdictCache
	sem     chan struct{}

	mu     sync.Mutex
	lns    []net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	conns_       atomic.Int64
	requests     atomic.Int64
	probeHits    atomic.Int64
	probeMisses  atomic.Int64
	framesScored atomic.Int64
	bytesIn      atomic.Int64
	bytesOut     atomic.Int64
	writeErrors  atomic.Int64
}

// NewWireServer builds a wire listener over a backend and optional cache.
func NewWireServer(opts WireServerOptions) *WireServer {
	if opts.Backend == nil {
		panic("engine: WireServer needs a backend")
	}
	maxc := opts.MaxConcurrent
	if maxc <= 0 {
		maxc = 2 * runtime.GOMAXPROCS(0)
	}
	return &WireServer{
		backend: opts.Backend,
		cache:   opts.Cache,
		sem:     make(chan struct{}, maxc),
		conns:   make(map[net.Conn]struct{}),
	}
}

// Stats snapshots the server's wire counters.
func (s *WireServer) Stats() WireServerStats {
	return WireServerStats{
		Conns:        s.conns_.Load(),
		Requests:     s.requests.Load(),
		ProbeHits:    s.probeHits.Load(),
		ProbeMisses:  s.probeMisses.Load(),
		FramesScored: s.framesScored.Load(),
		BytesIn:      s.bytesIn.Load(),
		BytesOut:     s.bytesOut.Load(),
		WriteErrors:  s.writeErrors.Load(),
	}
}

// Serve accepts connections on ln until Close (which returns nil) or a
// listener error. Multiple Serve calls on different listeners are allowed.
func (s *WireServer) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return net.ErrClosed
	}
	s.lns = append(s.lns, ln)
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.conns_.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops the listeners, closes every connection and waits the
// handlers out.
func (s *WireServer) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for _, ln := range s.lns {
		ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// handleConn reads requests until the stream breaks: probes are answered
// inline (cache lookups, no model time) out of per-connection scratch, pixel
// batches score on a bounded pool of goroutines so a deep client window maps
// to concurrent forward passes without unbounded fan-out. Any protocol error
// closes the connection — framing cannot resync mid-stream.
func (s *WireServer) handleConn(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(countingReader{r: conn, n: &s.bytesIn}, sockBufSize)
	var wmu sync.Mutex
	var reqWG sync.WaitGroup
	defer reqWG.Wait()
	req := &sockReq{}
	var answer []byte // probe responses are built here, one at a time
	for {
		if err := req.read(br); err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if !closed && !isStreamEnd(err) {
				log.Printf("engine: wire conn %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		s.requests.Add(1)
		if req.probe {
			answer = s.answerProbe(conn, &wmu, req, answer)
			continue
		}
		reqWG.Add(1)
		s.sem <- struct{}{}
		go func(req *sockReq) {
			defer func() { <-s.sem; reqWG.Done() }()
			s.scorePixels(conn, &wmu, req)
		}(req)
		req = &sockReq{} // the scoring goroutine owns the decoded one
	}
}

// isStreamEnd reports whether err wraps a clean or mid-message stream end —
// the client closing its hot connection, not a protocol violation worth
// logging.
func isStreamEnd(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed)
}

// answerProbe replies with the verdict cache's view of the probed keys:
// hit bitmask + scores for the hits. The message is built in buf, which is
// returned for the connection's next probe.
func (s *WireServer) answerProbe(conn net.Conn, wmu *sync.Mutex, req *sockReq, buf []byte) []byte {
	n := len(req.keys)
	buf = resized(buf, sockHeaderLen+(n+7)/8)
	putSockHeader(buf, scoreMagic, req.id, sockFlagMask, uint32(n))
	clear(buf[sockHeaderLen:])
	hits := 0
	if s.cache != nil {
		for i, k := range req.keys {
			if v, ok := s.cache.LookupVerdict(k); ok {
				buf[sockHeaderLen+i/8] |= 1 << (i % 8) // indexed afresh: the append below may move buf
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
				hits++
			}
		}
	}
	s.probeHits.Add(int64(hits))
	s.probeMisses.Add(int64(n - hits))
	s.writeMsg(conn, wmu, buf)
	return buf
}

// scorePixels runs the batch on the backend, memoizes the verdicts under
// the client-supplied content keys, and replies with plain scores. The keys
// are taken on trust (re-deriving them would put the SHA-256 the probe saves
// back on the peer), so whoever can open a wire connection can plant a score
// under any key in this cache — the peer's serving cache, in the daemon.
// The wire listener is for the fleet's own fronts (-wire-listen belongs on a
// private interface), which send the key their serving edge hashed from the
// very pixels they send; /classify and /classify/batch take pixels only.
func (s *WireServer) scorePixels(conn net.Conn, wmu *sync.Mutex, req *sockReq) {
	out := make([]float64, len(req.frames))
	s.backend.InferBatchInto(req.frames, out)
	s.framesScored.Add(int64(len(req.frames)))
	if s.cache != nil {
		for i, k := range req.keys[:len(req.frames)] {
			s.cache.StoreVerdict(k, out[i])
		}
	}
	buf := make([]byte, sockHeaderLen, sockHeaderLen+8*len(out))
	putSockHeader(buf, scoreMagic, req.id, 0, uint32(len(out)))
	for _, v := range out {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	s.writeMsg(conn, wmu, buf)
}

// writeMsg writes one whole response under the connection's write lock. A
// failed write closes the connection: the client's reader notices and
// redials.
func (s *WireServer) writeMsg(conn net.Conn, wmu *sync.Mutex, buf []byte) {
	wmu.Lock()
	_, err := conn.Write(buf)
	wmu.Unlock()
	if err != nil {
		s.writeErrors.Add(1)
		conn.Close()
		return
	}
	s.bytesOut.Add(int64(len(buf)))
}
