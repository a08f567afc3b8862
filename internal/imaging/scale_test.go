package imaging

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// resizeBilinearRef is the float64 reference implementation (the pre-table
// scalar code), kept for equivalence testing and the speedup benchmark.
func resizeBilinearRef(src, dst *Bitmap) {
	w, h := dst.W, dst.H
	if src.W == w && src.H == h {
		copy(dst.Pix, src.Pix)
		return
	}
	xRatio := float64(src.W-1) / float64(maxInt(w-1, 1))
	yRatio := float64(src.H-1) / float64(maxInt(h-1, 1))
	for y := 0; y < h; y++ {
		sy := float64(y) * yRatio
		y0 := int(sy)
		y1 := y0 + 1
		if y1 >= src.H {
			y1 = src.H - 1
		}
		fy := sy - float64(y0)
		for x := 0; x < w; x++ {
			sx := float64(x) * xRatio
			x0 := int(sx)
			x1 := x0 + 1
			if x1 >= src.W {
				x1 = src.W - 1
			}
			fx := sx - float64(x0)
			di := (y*w + x) * 4
			for c := 0; c < 4; c++ {
				p00 := float64(src.Pix[(y0*src.W+x0)*4+c])
				p01 := float64(src.Pix[(y0*src.W+x1)*4+c])
				p10 := float64(src.Pix[(y1*src.W+x0)*4+c])
				p11 := float64(src.Pix[(y1*src.W+x1)*4+c])
				top := p00 + (p01-p00)*fx
				bot := p10 + (p11-p10)*fx
				dst.Pix[di+c] = uint8(top + (bot-top)*fy + 0.5)
			}
		}
	}
}

// resizeBilinearFixedRef is the per-pixel 8.8 fixed-point loop the separable
// scaler replaced: two horizontal blends and one vertical blend per channel,
// rounded once. ResizeBilinearInto must match it byte for byte.
func resizeBilinearFixedRef(src, dst *Bitmap) {
	w, h := dst.W, dst.H
	if src.W == w && src.H == h {
		copy(dst.Pix, src.Pix)
		return
	}
	xRatio := float64(src.W-1) / float64(maxInt(w-1, 1))
	yRatio := float64(src.H-1) / float64(maxInt(h-1, 1))
	for y := 0; y < h; y++ {
		sy := float64(y) * yRatio
		y0 := int(sy)
		y1 := min(y0+1, src.H-1)
		wy := uint32((sy-float64(y0))*256 + 0.5)
		r0, r1 := src.Pix[y0*src.W*4:], src.Pix[y1*src.W*4:]
		for x := 0; x < w; x++ {
			sx := float64(x) * xRatio
			x0 := int(sx)
			x1 := min(x0+1, src.W-1)
			wx := uint32((sx-float64(x0))*256 + 0.5)
			for c := 0; c < 4; c++ {
				top := uint32(r0[x0*4+c])*(256-wx) + uint32(r0[x1*4+c])*wx
				bot := uint32(r1[x0*4+c])*(256-wx) + uint32(r1[x1*4+c])*wx
				dst.Pix[(y*w+x)*4+c] = uint8((top*(256-wy) + bot*wy + 1<<15) >> 16)
			}
		}
	}
}

// benchSizes are the bench's creative sizes (synth.AdSizes then
// synth.ContentSizes; imaging cannot import synth).
var benchSizes = [][2]int{
	{728, 90}, {300, 250}, {160, 600}, {320, 50}, {336, 280}, {468, 60},
	{640, 360}, {400, 300}, {128, 128}, {320, 240}, {600, 400},
}

// TestResizeBilinearMatchesFixedRef pins the separable scaler to the
// per-pixel fixed-point loop byte for byte, on the portable and the
// dispatching row passes: the bench's creative sizes to 224×224, degenerate
// and odd sources, identity, the 8×8 and 16×16 hash and thumbnail downscales,
// an upscale, and output widths that leave ragged vector ends or need more
// than one column strip.
func TestResizeBilinearMatchesFixedRef(t *testing.T) {
	defer func() { resizePortable = false }()
	rng := rand.New(rand.NewSource(35))
	var cases [][4]int
	for _, s := range benchSizes {
		cases = append(cases, [4]int{s[0], s[1], 224, 224}, [4]int{s[0], s[1], 8, 8}, [4]int{s[0], s[1], ThumbEdge, ThumbEdge})
	}
	for _, s := range [][2]int{{1, 1}, {3, 500}, {500, 3}, {225, 223}, {30, 20}, {1, 7}, {7, 1}} {
		cases = append(cases, [4]int{s[0], s[1], 224, 224})
	}
	cases = append(cases, [4]int{224, 224, 224, 224}, [4]int{97, 31, 97, 31})
	for _, w := range []int{1, 2, 3, 5, 97, 257, 300} {
		cases = append(cases, [4]int{640, 360, w, 37}, [4]int{30, 20, w, 5}, [4]int{2, 2, w, 3})
	}
	for _, portable := range []bool{true, false} {
		resizePortable = portable
		for _, c := range cases {
			src := randomBitmap(rng, c[0], c[1])
			want := NewBitmap(c[2], c[3])
			resizeBilinearFixedRef(src, want)
			got := NewBitmap(c[2], c[3])
			ResizeBilinearInto(src, got)
			for i := range want.Pix {
				if got.Pix[i] != want.Pix[i] {
					t.Fatalf("portable=%v %dx%d→%dx%d: pix[%d]=%d want %d", portable, c[0], c[1], c[2], c[3], i, got.Pix[i], want.Pix[i])
				}
			}
		}
	}
}

// TestResizeBilinearRejectsShortPix checks the buffers are measured before
// any kernel reads them: a Pix shorter than its dimensions, on either side,
// panics with a message naming both sizes.
func TestResizeBilinearRejectsShortPix(t *testing.T) {
	full := func(w, h int) *Bitmap { return NewBitmap(w, h) }
	short := func(w, h int) *Bitmap { b := NewBitmap(w, h); b.Pix = b.Pix[:len(b.Pix)-1]; return b }
	for _, c := range []struct {
		name     string
		src, dst *Bitmap
	}{
		{"short src", short(300, 250), full(224, 224)},
		{"short dst", full(300, 250), short(224, 224)},
		{"short identity", short(224, 224), full(224, 224)},
		{"empty src", &Bitmap{W: 0, H: 0}, full(8, 8)},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				want := fmt.Sprintf("from %dx%d (%d bytes) to %dx%d (%d bytes)", c.src.W, c.src.H, len(c.src.Pix), c.dst.W, c.dst.H, len(c.dst.Pix))
				if !strings.Contains(msg, want) {
					t.Errorf("%s: panic %q, want one naming %q", c.name, msg, want)
				}
			}()
			ResizeBilinearInto(c.src, c.dst)
		}()
	}
}

func randomBitmap(rng *rand.Rand, w, h int) *Bitmap {
	b := NewBitmap(w, h)
	for i := range b.Pix {
		b.Pix[i] = uint8(rng.Intn(256))
	}
	return b
}

// TestResizeBilinearMatchesReference checks the fixed-point table path stays
// within 1 intensity step of the float64 reference (8.8 weights round the
// blend fractions) across representative shapes, including identity,
// upscaling, and extreme aspect ratios.
func TestResizeBilinearMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cases := [][4]int{
		{640, 480, 224, 224}, {64, 64, 64, 64}, {30, 20, 224, 224},
		{224, 224, 32, 32}, {3, 500, 32, 32}, {500, 3, 64, 16}, {1, 1, 16, 16},
	}
	for _, cse := range cases {
		src := randomBitmap(rng, cse[0], cse[1])
		want := NewBitmap(cse[2], cse[3])
		resizeBilinearRef(src, want)
		got := NewBitmap(cse[2], cse[3])
		ResizeBilinearInto(src, got)
		for i := range want.Pix {
			if d := math.Abs(float64(int(got.Pix[i]) - int(want.Pix[i]))); d > 1 {
				t.Fatalf("%v: pix[%d]=%d reference %d (diff %v > 1)", cse, i, got.Pix[i], want.Pix[i], d)
			}
		}
	}
}

// TestResizeBilinearIntoNoAllocs checks the steady-state resize (tables
// cached) performs no heap allocation — it sits on the zero-alloc Classify
// path.
func TestResizeBilinearIntoNoAllocs(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	rng := rand.New(rand.NewSource(32))
	src := randomBitmap(rng, 300, 200)
	dst := NewBitmap(224, 224)
	ResizeBilinearInto(src, dst) // warm the table cache
	allocs := testing.AllocsPerRun(10, func() {
		ResizeBilinearInto(src, dst)
	})
	if allocs != 0 {
		t.Fatalf("steady-state ResizeBilinearInto allocates %v times per call, want 0", allocs)
	}
}

// TestResizeBilinearConcurrent exercises the table cache from multiple
// goroutines (run under -race in the imaging test sweep).
func TestResizeBilinearConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	src := randomBitmap(rng, 123, 77)
	want := NewBitmap(224, 224)
	ResizeBilinearInto(src, want)
	done := make(chan bool, 8)
	for g := 0; g < 8; g++ {
		go func() {
			dst := NewBitmap(224, 224)
			for i := 0; i < 20; i++ {
				ResizeBilinearInto(src, dst)
			}
			ok := true
			for i := range want.Pix {
				if dst.Pix[i] != want.Pix[i] {
					ok = false
					break
				}
			}
			done <- ok
		}()
	}
	for g := 0; g < 8; g++ {
		if !<-done {
			t.Fatal("concurrent resize mismatch")
		}
	}
}

// BenchmarkResizeBilinearInto measures the per-frame scaling cost on the
// classification pre-processing path (typical decoded frame → 224×224).
func BenchmarkResizeBilinearInto(b *testing.B) {
	rng := rand.New(rand.NewSource(34))
	src := randomBitmap(rng, 640, 480)
	dst := NewBitmap(224, 224)
	ResizeBilinearInto(src, dst)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ResizeBilinearInto(src, dst)
	}
}

// BenchmarkResizeBilinearBenchSizes cycles the bench's eleven creative
// sizes into 224×224, the scaling every never-cached frame of the repo
// benchmark's serve_unique* and page_render_* workloads pays: ns/op is one
// frame.
func BenchmarkResizeBilinearBenchSizes(b *testing.B) {
	rng := rand.New(rand.NewSource(36))
	srcs := make([]*Bitmap, len(benchSizes))
	for i, s := range benchSizes {
		srcs[i] = randomBitmap(rng, s[0], s[1])
	}
	dst := NewBitmap(224, 224)
	for _, src := range srcs {
		ResizeBilinearInto(src, dst)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ResizeBilinearInto(srcs[i%len(srcs)], dst)
	}
}

// BenchmarkResizeBilinearRef benchmarks the float64 reference loop for the
// speedup comparison recorded in PERFORMANCE.md.
func BenchmarkResizeBilinearRef(b *testing.B) {
	rng := rand.New(rand.NewSource(34))
	src := randomBitmap(rng, 640, 480)
	dst := NewBitmap(224, 224)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resizeBilinearRef(src, dst)
	}
}
