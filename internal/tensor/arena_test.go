package tensor

import (
	"testing"
	"unsafe"
)

// TestArenaReusesBuffersExactly pins what a forward plan leans on: Slabs hands back
// each slab whole, grows one only when a plan asks for more than it holds —
// to exactly that — and otherwise returns the same memory, so a warm arena
// allocates nothing and Bytes is the slabs' size.
func TestArenaReusesBuffersExactly(t *testing.T) {
	a := NewArena()
	f, u, i := a.Slabs(100, 40, 8)
	if len(f) != 100 || len(u) != 40 || len(i) != 8 {
		t.Fatalf("Slabs(100, 40, 8): lengths %d, %d, %d", len(f), len(u), len(i))
	}
	if got, want := a.Bytes(), 4*100+40+4*8; got != want {
		t.Fatalf("Bytes = %d, want %d", got, want)
	}
	f2, u2, i2 := a.Slabs(10, 40, 0)
	if &f2[0] != &f[0] || len(f2) != 100 || &u2[0] != &u[0] || &i2[0] != &i[0] {
		t.Fatal("a smaller request did not return the same, whole slabs")
	}
	f3, u3, _ := a.Slabs(101, 1, 0)
	if len(f3) != 101 || &u3[0] != &u[0] {
		t.Fatalf("Slabs(101, ...): float slab %d long, byte slab moved: want only the float slab grown, to 101", len(f3))
	}
	if got, want := a.Bytes(), 4*101+40+4*8; got != want {
		t.Fatalf("Bytes = %d after growing, want %d", got, want)
	}
	if allocs := testing.AllocsPerRun(10, func() { a.Slabs(101, 40, 8); a.Tensors(3) }); allocs != 0 {
		t.Fatalf("a warm arena allocates %v times a request", allocs)
	}
	if hs := a.Tensors(2); len(hs) != 2 || &hs[0] != &a.Tensors(3)[0] {
		t.Fatal("Tensors did not reuse its headers")
	}
}

// TestU8BuffersAreWordAligned pins the rule quadWords leans on: every byte
// buffer an Arena's byte slab or GetScratchU8 hands out starts word-aligned,
// however few bytes were asked for — the Go allocator packs allocations
// below 16 bytes at any byte offset, so each small request of an odd size
// would otherwise leave the next one misaligned. A forward plan places its
// byte regions at multiples of 64 bytes from the slab's start.
func TestU8BuffersAreWordAligned(t *testing.T) {
	aligned := func(b []uint8) bool { return uintptr(unsafe.Pointer(unsafe.SliceData(b)))%4 == 0 }
	var keep [][]uint8 // held, so the allocator cannot hand a slot back
	for n := 1; n <= 16; n++ {
		for i := 0; i < 4; i++ {
			_, b, _ := NewArena().Slabs(0, n, 0)
			p := GetScratchU8(n)
			if !aligned(b) || !aligned(*p) {
				t.Fatalf("%d bytes: arena slab at %p, scratch buffer at %p, want both 4-aligned", n, unsafe.SliceData(b), unsafe.SliceData(*p))
			}
			keep = append(keep, b, *p)
		}
	}
	_ = keep
}
