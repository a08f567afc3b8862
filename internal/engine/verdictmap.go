package engine

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
)

// defaultVerdicts is a store's capacity when its size is left 0.
const defaultVerdicts = 4096

// VerdictMap is the verdict store: a bounded map from imaging.ContentKey to
// the model's score, evicting the oldest insertion first (creatives repeat
// within short windows, so true LRU order buys nothing). serve's cache and a
// wire peer's probe answers live in one.
//
// The map is split into lock domains by key so concurrent submitters do not
// queue on one mutex; FIFO order holds within a domain. A nil *VerdictMap is
// a store that holds nothing — lookups miss, stores are dropped — which is
// what a service with caching disabled carries. Safe for concurrent use.
type VerdictMap struct {
	domains []verdictDomain // a power of two of them
}

// verdictDomain is one lock domain: a map plus its insertion ring. Until
// the domain is full, order is the keys in insertion order; from then on it
// is a ring whose oldest entry is order[next].
type verdictDomain struct {
	mu    sync.Mutex
	max   int
	m     map[[32]byte]float64
	order [][32]byte
	next  int

	// The domains sit by value in one slice; without the pad neighbouring
	// domains' mutexes and cursors share a cache line and false-share
	// under multi-lane load.
	_ [64]byte
}

// NewVerdictMap builds a store bounded to max entries; max <= 0 gets the
// default, 4096. (core.New and serve.New reject a negative size before it
// gets here.) Stores of 1024 entries and more are split into 16 lock
// domains — 256 entries each at the default — and smaller ones are one
// domain, so their eviction order is exactly global FIFO.
func NewVerdictMap(max int) *VerdictMap {
	if max <= 0 {
		max = defaultVerdicts
	}
	n := 1
	if max >= 1024 {
		n = 16
	}
	per := (max + n - 1) / n
	v := &VerdictMap{domains: make([]verdictDomain, n)}
	for i := range v.domains {
		v.domains[i].max = per
		v.domains[i].m = make(map[[32]byte]float64, per)
	}
	return v
}

func (v *VerdictMap) domain(key [32]byte) *verdictDomain {
	// the key is a cryptographic hash: any 4 of its bytes are uniform (serve
	// routes dispatch shards on bytes 0..3, so these are independent of it)
	return &v.domains[binary.LittleEndian.Uint32(key[8:12])&uint32(len(v.domains)-1)]
}

// LookupVerdict reports the score stored under key.
func (v *VerdictMap) LookupVerdict(key [32]byte) (float64, bool) {
	if v == nil {
		return 0, false
	}
	d := v.domain(key)
	d.mu.Lock()
	s, ok := d.m[key]
	d.mu.Unlock()
	return s, ok
}

// StoreVerdict stores score under key, evicting the domain's oldest entry
// when it is full. Storing over an existing key replaces its score and
// keeps its place in the eviction order.
func (v *VerdictMap) StoreVerdict(key [32]byte, score float64) {
	if v == nil {
		return
	}
	d := v.domain(key)
	d.mu.Lock()
	if _, ok := d.m[key]; !ok {
		if len(d.order) < d.max {
			d.order = append(d.order, key)
		} else {
			delete(d.m, d.order[d.next])
			d.order[d.next] = key
			d.next = (d.next + 1) % d.max
		}
	}
	d.m[key] = score
	d.mu.Unlock()
}

// Reset drops every stored verdict (creative-rotation epochs, benchmarks).
func (v *VerdictMap) Reset() {
	if v == nil {
		return
	}
	for i := range v.domains {
		d := &v.domains[i]
		d.mu.Lock()
		clear(d.m)
		d.order = d.order[:0]
		d.next = 0
		d.mu.Unlock()
	}
}

// Len reports the number of stored verdicts.
func (v *VerdictMap) Len() int {
	if v == nil {
		return 0
	}
	n := 0
	for i := range v.domains {
		d := &v.domains[i]
		d.mu.Lock()
		n += len(d.m)
		d.mu.Unlock()
	}
	return n
}

// Snapshot format, PCVC v1 (little-endian): the magic "PCVC", a uint16
// version (1), a uint32 entry count, then per entry the 32-byte key and the
// score's float64 bits.
const (
	snapshotMagic   = "PCVC"
	snapshotVersion = 1
	snapshotHeader  = 4 + 2 + 4
	snapshotEntry   = 32 + 8
)

// Snapshot writes every stored verdict to w and reports how many it wrote.
// Each lock domain is written oldest entry first, so a store that is not
// being written to snapshots to the same bytes every time, and a restore
// into a smaller store keeps the newest entries. Safe while the store is in
// use: each domain is locked only while its entries are copied out.
func (v *VerdictMap) Snapshot(w io.Writer) (int, error) {
	buf := make([]byte, snapshotHeader)
	copy(buf, snapshotMagic)
	binary.LittleEndian.PutUint16(buf[4:], snapshotVersion)
	n := 0
	if v != nil {
		for i := range v.domains {
			d := &v.domains[i]
			d.mu.Lock()
			for j := range d.order {
				k := d.order[(d.next+j)%len(d.order)]
				buf = append(buf, k[:]...)
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d.m[k]))
			}
			n += len(d.order)
			d.mu.Unlock()
		}
	}
	binary.LittleEndian.PutUint32(buf[6:], uint32(n))
	if _, err := w.Write(buf); err != nil {
		return 0, err
	}
	return n, nil
}

// Restore reads a snapshot and stores its entries in order — past the
// store's capacity the oldest are evicted like any other insert — and
// reports how many entries it read. A stream that ends early restores every
// complete entry before the error; the header's count is never used to size
// anything. A nil store checks the header and keeps nothing.
func (v *VerdictMap) Restore(r io.Reader) (int, error) {
	br := bufio.NewReader(r)
	var hdr [snapshotHeader]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, fmt.Errorf("engine: verdict snapshot header: %w", err)
	}
	if string(hdr[:4]) != snapshotMagic {
		return 0, fmt.Errorf("engine: not a verdict snapshot (magic %q)", hdr[:4])
	}
	if ver := binary.LittleEndian.Uint16(hdr[4:]); ver != snapshotVersion {
		return 0, fmt.Errorf("engine: verdict snapshot version %d, want %d", ver, snapshotVersion)
	}
	if v == nil {
		return 0, nil
	}
	count := binary.LittleEndian.Uint32(hdr[6:])
	var e [snapshotEntry]byte
	for i := uint32(0); i < count; i++ {
		if _, err := io.ReadFull(br, e[:]); err != nil {
			return int(i), fmt.Errorf("engine: verdict snapshot entry %d of %d: %w", i, count, err)
		}
		v.StoreVerdict([32]byte(e[:32]), math.Float64frombits(binary.LittleEndian.Uint64(e[32:])))
	}
	return int(count), nil
}
