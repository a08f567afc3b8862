package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"
	"testing"
)

// verdictKey is a content-key-shaped key: uniform bytes, so keys spread over
// a store's lock domains the way imaging.ContentKey's do.
func verdictKey(i int) [32]byte {
	return sha256.Sum256(binary.LittleEndian.AppendUint64(nil, uint64(i)))
}

// TestVerdictMap: bounded FIFO semantics, update-in-place, reset.
func TestVerdictMap(t *testing.T) {
	m := NewVerdictMap(3)
	key := func(i byte) [32]byte { var k [32]byte; k[0] = i; return k }
	for i := byte(0); i < 5; i++ {
		m.StoreVerdict(key(i), float64(i))
	}
	if m.Len() != 3 {
		t.Fatalf("len %d, want 3 (bounded)", m.Len())
	}
	if _, ok := m.LookupVerdict(key(0)); ok {
		t.Fatal("oldest entry not evicted")
	}
	if v, ok := m.LookupVerdict(key(4)); !ok || v != 4 {
		t.Fatalf("newest entry %v %v", v, ok)
	}
	m.StoreVerdict(key(4), 9) // update must not evict
	if m.Len() != 3 {
		t.Fatalf("update grew the map to %d", m.Len())
	}
	if v, _ := m.LookupVerdict(key(4)); v != 9 {
		t.Fatalf("update not applied: %v", v)
	}
	m.StoreVerdict(key(5), 5) // the updated key kept its place: 2 is the oldest
	if _, ok := m.LookupVerdict(key(2)); ok {
		t.Fatal("update moved the key in the eviction order")
	}
	m.Reset()
	if m.Len() != 0 {
		t.Fatalf("reset left %d entries", m.Len())
	}
	for i := byte(0); i < 5; i++ { // the ring starts over after a reset
		m.StoreVerdict(key(i), float64(i))
	}
	if _, ok := m.LookupVerdict(key(1)); ok || m.Len() != 3 {
		t.Fatalf("after reset: len %d, key 1 present %v", m.Len(), ok)
	}
}

// TestVerdictMapCapacityRule: 0 and negative sizes are the default store —
// never a zero-length ring to index modulo — and the lock-domain count
// follows the capacity: one below 1024, 16 from there.
func TestVerdictMapCapacityRule(t *testing.T) {
	for _, size := range []int{0, -1, -4096} {
		m := NewVerdictMap(size)
		if len(m.domains) != 16 || m.domains[0].max != defaultVerdicts/16 {
			t.Fatalf("size %d: %d domains of %d, want the default 16 of %d",
				size, len(m.domains), m.domains[0].max, defaultVerdicts/16)
		}
		for i := 0; i < 4; i++ {
			m.StoreVerdict(verdictKey(i), 1) // must not panic
		}
		if _, ok := m.LookupVerdict(verdictKey(0)); !ok || m.Len() != 4 {
			t.Fatalf("size %d: default store kept %d of 4 entries", size, m.Len())
		}
	}
	for _, tc := range []struct{ size, domains int }{{1, 1}, {10, 1}, {1023, 1}, {1024, 16}, {5000, 16}} {
		m := NewVerdictMap(tc.size)
		if len(m.domains) != tc.domains || len(m.domains)*m.domains[0].max < tc.size {
			t.Fatalf("size %d: %d domains of %d, want %d holding at least the size",
				tc.size, len(m.domains), m.domains[0].max, tc.domains)
		}
	}
}

// TestVerdictMapFIFOOrderDeterministic drives the ring through several
// wrap-arounds and checks that eviction is exactly insertion-ordered: after
// inserting keys 0..n-1 into a store of capacity c, precisely the last c
// keys remain, for every prefix length.
func TestVerdictMapFIFOOrderDeterministic(t *testing.T) {
	const capacity = 4
	m := NewVerdictMap(capacity)
	for i := 0; i < 3*capacity+1; i++ {
		m.StoreVerdict(verdictKey(i), float64(i))
		oldest := max(i+1-capacity, 0)
		for j := 0; j <= i; j++ {
			v, ok := m.LookupVerdict(verdictKey(j))
			if j < oldest {
				if ok {
					t.Fatalf("after %d inserts: key %d should be FIFO-evicted", i+1, j)
				}
				continue
			}
			if !ok || v != float64(j) {
				t.Fatalf("after %d inserts: key %d reads (%v, %v) (oldest live %d)", i+1, j, v, ok, oldest)
			}
		}
	}
}

// TestVerdictMapNilHoldsNothing: a nil store — what a service with caching
// disabled carries — misses every lookup, drops every store, snapshots as
// empty, and restores nothing from a valid snapshot while still refusing a
// malformed one.
func TestVerdictMapNilHoldsNothing(t *testing.T) {
	var m *VerdictMap
	m.StoreVerdict(verdictKey(1), 0.5)
	if _, ok := m.LookupVerdict(verdictKey(1)); ok || m.Len() != 0 {
		t.Fatal("a nil store kept a verdict")
	}
	m.Reset()
	var buf bytes.Buffer
	if n, err := m.Snapshot(&buf); n != 0 || err != nil || buf.Len() != snapshotHeader {
		t.Fatalf("nil snapshot (%d, %v) of %d bytes, want an empty snapshot", n, err, buf.Len())
	}
	full := NewVerdictMap(0)
	full.StoreVerdict(verdictKey(1), 0.5)
	buf.Reset()
	full.Snapshot(&buf)
	if n, err := m.Restore(bytes.NewReader(buf.Bytes())); n != 0 || err != nil {
		t.Fatalf("nil restore reported (%d, %v), want (0, nil)", n, err)
	}
	if _, err := m.Restore(bytes.NewReader([]byte("XXXX\x01\x00\x00\x00\x00\x00"))); err == nil {
		t.Fatal("nil restore accepted a bad magic")
	}
}

// TestSnapshotDeterministic: a snapshot writes each domain oldest first, so
// restoring 100 entries into a one-domain store of 10 keeps exactly the 10
// newest, and two snapshots of one store — wrapped rings included — are the
// same bytes, as is the snapshot of a store restored from it.
func TestSnapshotDeterministic(t *testing.T) {
	src := NewVerdictMap(100)
	for i := 0; i < 100; i++ {
		src.StoreVerdict(verdictKey(i), float64(i))
	}
	var buf bytes.Buffer
	if n, err := src.Snapshot(&buf); err != nil || n != 100 {
		t.Fatalf("snapshot (%d, %v), want 100 entries", n, err)
	}
	small := NewVerdictMap(10)
	if n, err := small.Restore(bytes.NewReader(buf.Bytes())); err != nil || n != 100 {
		t.Fatalf("restore (%d, %v), want 100 read", n, err)
	}
	for i := 0; i < 100; i++ {
		v, ok := small.LookupVerdict(verdictKey(i))
		if newest := i >= 90; ok != newest || (ok && v != float64(i)) {
			t.Fatalf("entry %d: (%v, %v) after restore into 10, want present only for the 10 newest", i, v, ok)
		}
	}

	m := NewVerdictMap(0) // 16 domains of 256
	for i := 0; i < 6000; i++ {
		m.StoreVerdict(verdictKey(i), float64(i)/3)
	}
	var a, b, c bytes.Buffer
	m.Snapshot(&a)
	m.Snapshot(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two snapshots of one store differ")
	}
	again := NewVerdictMap(0)
	again.Restore(bytes.NewReader(a.Bytes()))
	again.Snapshot(&c)
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("a store restored from a snapshot snapshots differently")
	}
}

// TestSnapshotReadsParentFormat: a PCVC v1 stream encoded byte by byte, as
// earlier daemons wrote -cache-file, restores with every score's bits —
// negative zero and NaN payloads included — and a wrong magic or version is
// refused before anything is stored.
func TestSnapshotReadsParentFormat(t *testing.T) {
	scores := []float64{0.25, math.Copysign(0, -1), math.Float64frombits(0x7ff8000000000123), 1}
	stream := []byte("PCVC")
	stream = binary.LittleEndian.AppendUint16(stream, 1)
	stream = binary.LittleEndian.AppendUint32(stream, uint32(len(scores)))
	for i, s := range scores {
		k := verdictKey(i)
		stream = append(stream, k[:]...)
		stream = binary.LittleEndian.AppendUint64(stream, math.Float64bits(s))
	}
	m := NewVerdictMap(0)
	if n, err := m.Restore(bytes.NewReader(stream)); err != nil || n != len(scores) {
		t.Fatalf("restore (%d, %v), want %d", n, err, len(scores))
	}
	for i, s := range scores {
		if v, ok := m.LookupVerdict(verdictKey(i)); !ok || math.Float64bits(v) != math.Float64bits(s) {
			t.Fatalf("entry %d restored (%v, %v), want bits %#x", i, v, ok, math.Float64bits(s))
		}
	}
	for name, bad := range map[string][]byte{
		"magic":   append([]byte("PCVB"), stream[4:]...),
		"version": append(append([]byte("PCVC"), 2, 0), stream[6:]...),
	} {
		fresh := NewVerdictMap(0)
		if n, err := fresh.Restore(bytes.NewReader(bad)); err == nil || n != 0 || fresh.Len() != 0 {
			t.Fatalf("wrong %s restored (%d, %v) into %d entries, want refused", name, n, err, fresh.Len())
		}
	}
}

// TestRestoreCacheTruncatedEntries: a snapshot cut off mid-stream (the
// crash-during-save shape) must restore every complete entry, report that
// partial count, and return an error — never claim a cold start or hang.
func TestRestoreCacheTruncatedEntries(t *testing.T) {
	src := NewVerdictMap(0)
	const entries = 6
	for i := 0; i < entries; i++ {
		src.StoreVerdict(verdictKey(i), float64(i))
	}
	var buf bytes.Buffer
	if n, err := src.Snapshot(&buf); err != nil || n != entries {
		t.Fatalf("snapshot (%d, %v), want %d entries", n, err, entries)
	}
	keep := 3
	// chop off the last entries plus half of entry keep, so the stream dies
	// mid-entry
	cut := buf.Bytes()[:snapshotHeader+keep*snapshotEntry+snapshotEntry/2]
	dst := NewVerdictMap(0)
	restored, err := dst.Restore(bytes.NewReader(cut))
	if err == nil {
		t.Fatal("truncated snapshot restored without error")
	}
	if restored != keep || dst.Len() != keep {
		t.Fatalf("restored %d entries (%d held) from a snapshot truncated after %d", restored, dst.Len(), keep)
	}

	// a zero-length file — the artifact a missing fsync leaves — must also
	// fail loudly with a zero count
	if k, err := dst.Restore(bytes.NewReader(nil)); err == nil || k != 0 {
		t.Fatalf("empty snapshot reported (%d, %v), want (0, error)", k, err)
	}
}

// TestRestoreCacheOverlargeCount: a header whose count exceeds the actual
// entry stream must restore what is there and error — and it must never
// size an allocation off the untrusted count.
func TestRestoreCacheOverlargeCount(t *testing.T) {
	src := NewVerdictMap(0)
	src.StoreVerdict(verdictKey(1), 0.5)
	src.StoreVerdict(verdictKey(2), 0.75)
	var buf bytes.Buffer
	if _, err := src.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	lying := append([]byte{}, buf.Bytes()...)
	binary.LittleEndian.PutUint32(lying[6:10], 1<<31) // claims 2^31 entries

	dst := NewVerdictMap(0)
	restored, err := dst.Restore(bytes.NewReader(lying))
	if err == nil {
		t.Fatal("over-large count accepted")
	}
	if restored != 2 || dst.Len() != 2 {
		t.Fatalf("restored %d entries (%d held), want the 2 actually present", restored, dst.Len())
	}
}

// TestVerdictMapConcurrent is the store's -race pass: stores, lookups,
// snapshots and resets from many goroutines at once, on a sharded store.
func TestVerdictMapConcurrent(t *testing.T) {
	m := NewVerdictMap(1024)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf bytes.Buffer
			for i := 0; i < 500; i++ {
				k := verdictKey(g*1000 + i%300)
				m.StoreVerdict(k, float64(i))
				m.LookupVerdict(k)
				switch {
				case g == 0 && i == 250:
					m.Reset()
				case g == 1 && i%100 == 0:
					buf.Reset()
					if _, err := m.Snapshot(&buf); err != nil {
						t.Error(err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n := m.Len(); n > 1024 {
		t.Fatalf("store holds %d entries, capacity 1024", n)
	}
}
