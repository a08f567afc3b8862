package tensor

import (
	"testing"
	"unsafe"
)

// TestArenaBestFit pins the free-list policy the one-pass Warm leans on: Get
// takes the smallest buffer that is large enough, a miss allocates without
// disturbing the free list, and what comes back is sliced to the request.
func TestArenaBestFit(t *testing.T) {
	a := NewArena()
	big, mid, small := a.Get(100), a.Get(40), a.Get(10)
	if got := a.Bytes(); got != 4*150 {
		t.Fatalf("Bytes = %d after allocating 150 float32, want 600", got)
	}
	a.Put(big)
	a.Put(small)
	a.Put(mid)

	got := a.Get(30)
	if &got[0] != &mid[0] || len(got) != 30 || cap(got) != 40 {
		t.Fatalf("Get(30) over free {100,10,40}: len %d cap %d, want the 40-buffer sliced to 30", len(got), cap(got))
	}
	a.Put(got) // comes back at its full capacity
	if again := a.Get(40); &again[0] != &mid[0] || len(again) != 40 {
		t.Fatal("Put(Get(30)) did not return the 40-buffer whole")
	}
	a.Put(mid)

	miss := a.Get(101)
	if len(miss) != 101 || len(a.free) != 3 {
		t.Fatalf("Get(101): len %d with %d buffers left free, want a new buffer and all 3 still free", len(miss), len(a.free))
	}
	if got := a.Bytes(); got != 4*251 {
		t.Fatalf("Bytes = %d after the miss, want 1004", got)
	}
	if got := a.Get(100); &got[0] != &big[0] {
		t.Fatal("Get(100) did not take the exact-size buffer")
	}
	if got := a.Get(1); &got[0] != &small[0] {
		t.Fatal("Get(1) did not take the smallest buffer")
	}

	a.Put(nil)
	a.Put(make([]float32, 0))
	if len(a.free) != 1 {
		t.Fatalf("zero-capacity Put changed the free list: %d buffers, want 1", len(a.free))
	}

	// The typed lists follow the same policy and count their element sizes.
	u, w := a.GetU8(64), a.GetI32(8)
	a.PutU8(u)
	a.PutI32(w)
	if got := a.GetU8(5); &got[0] != &u[0] || len(got) != 5 {
		t.Fatal("GetU8(5) did not reuse the freed 64-byte buffer sliced to 5")
	}
	if got := a.GetI32(8); &got[0] != &w[0] {
		t.Fatal("GetI32(8) did not reuse the freed buffer")
	}
	if got := a.Bytes(); got != 4*251+64+4*8 {
		t.Fatalf("Bytes = %d, want %d", got, 4*251+64+4*8)
	}
}

// TestArenaGetTensorOnLargerBuffer: a tensor drawn from a larger buffer has
// exactly its shape's length, and the buffer goes back whole.
func TestArenaGetTensorOnLargerBuffer(t *testing.T) {
	a := NewArena()
	a.Put(make([]float32, 50))
	x := a.GetTensor(2, 3, 4)
	if len(x.Data) != 24 || len(x.Shape) != 3 || x.Shape[0] != 2 || x.Shape[1] != 3 || x.Shape[2] != 4 {
		t.Fatalf("GetTensor(2,3,4): shape %v len %d", x.Shape, len(x.Data))
	}
	if a.Bytes() != 0 {
		t.Fatalf("GetTensor allocated %d bytes with a fitting buffer free", a.Bytes())
	}
	a.PutTensor(x)
	if y := a.GetTensor(50); len(y.Data) != 50 || a.Bytes() != 0 {
		t.Fatalf("PutTensor did not return the buffer at full capacity: len %d, %d bytes allocated", len(y.Data), a.Bytes())
	}
}

// TestU8BuffersAreWordAligned pins the rule quadWords leans on: every byte
// buffer Arena.GetU8 or GetScratchU8 hands out starts word-aligned, however
// few bytes were asked for — the Go allocator packs allocations below 16
// bytes at any byte offset, so each small request of an odd size would
// otherwise leave the next one misaligned.
func TestU8BuffersAreWordAligned(t *testing.T) {
	aligned := func(b []uint8) bool { return uintptr(unsafe.Pointer(unsafe.SliceData(b)))%4 == 0 }
	var keep [][]uint8 // held, so the allocator cannot hand a slot back
	for n := 1; n <= 16; n++ {
		for i := 0; i < 4; i++ {
			b := NewArena().GetU8(n)
			p := GetScratchU8(n)
			if !aligned(b) || !aligned(*p) {
				t.Fatalf("%d bytes: arena buffer at %p, scratch buffer at %p, want both 4-aligned", n, unsafe.SliceData(b), unsafe.SliceData(*p))
			}
			keep = append(keep, b, *p)
		}
	}
	_ = keep
}
