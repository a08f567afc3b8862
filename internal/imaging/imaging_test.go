package imaging

import (
	"image/color"
	"math/rand"
	"testing"
	"testing/quick"
)

var (
	red   = color.RGBA{255, 0, 0, 255}
	white = color.RGBA{255, 255, 255, 255}
	black = color.RGBA{0, 0, 0, 255}
)

func randBitmap(rng *rand.Rand, w, h int) *Bitmap {
	b := NewBitmap(w, h)
	rng.Read(b.Pix)
	return b
}

func TestSetAtAndBounds(t *testing.T) {
	b := NewBitmap(4, 4)
	b.Set(1, 2, red)
	if b.At(1, 2) != red {
		t.Fatalf("At = %v", b.At(1, 2))
	}
	// out-of-bounds: no panic, zero reads
	b.Set(-1, 0, red)
	b.Set(0, 99, red)
	if (b.At(-1, 0) != color.RGBA{}) || (b.At(99, 0) != color.RGBA{}) {
		t.Fatal("out-of-bounds At should be zero")
	}
}

func TestNewBitmapPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBitmap(0, 5)
}

func TestFillRectClipsAndFills(t *testing.T) {
	b := NewBitmap(8, 8)
	b.FillRect(-5, -5, 4, 4, red)
	if b.At(0, 0) != red || b.At(3, 3) != red {
		t.Fatal("rect not filled")
	}
	if b.At(4, 4) == red {
		t.Fatal("rect overfilled")
	}
	b.FillRect(6, 6, 100, 100, white)
	if b.At(7, 7) != white {
		t.Fatal("clipped rect not filled")
	}
}

func TestClearAndIsCleared(t *testing.T) {
	b := NewBitmap(4, 4)
	b.Fill(red)
	if b.IsCleared() {
		t.Fatal("filled bitmap reported cleared")
	}
	b.Clear()
	if !b.IsCleared() {
		t.Fatal("cleared bitmap not detected")
	}
}

func TestStrokeRect(t *testing.T) {
	b := NewBitmap(10, 10)
	b.StrokeRect(0, 0, 10, 10, 2, red)
	if b.At(0, 0) != red || b.At(9, 9) != red || b.At(1, 5) != red {
		t.Fatal("border missing")
	}
	if b.At(5, 5) == red {
		t.Fatal("interior painted")
	}
}

func TestFillCircle(t *testing.T) {
	b := NewBitmap(21, 21)
	b.FillCircle(10, 10, 5, red)
	if b.At(10, 10) != red || b.At(10, 5) != red {
		t.Fatal("circle missing pixels")
	}
	if b.At(10, 3) == red || b.At(0, 0) == red {
		t.Fatal("circle overdrawn")
	}
}

func TestFillTriangle(t *testing.T) {
	b := NewBitmap(20, 20)
	b.FillTriangle(0, 0, 19, 0, 0, 19, red)
	if b.At(1, 1) != red {
		t.Fatal("triangle interior missing")
	}
	if b.At(19, 19) == red {
		t.Fatal("opposite corner painted")
	}
}

func TestLinearGradientV(t *testing.T) {
	b := NewBitmap(4, 10)
	b.LinearGradientV(0, 0, 4, 10, black, white)
	top, bottom := b.At(0, 0), b.At(0, 9)
	if top.R >= bottom.R {
		t.Fatalf("gradient not increasing: %v -> %v", top, bottom)
	}
}

func TestSubImage(t *testing.T) {
	src := NewBitmap(10, 10)
	src.FillRect(4, 4, 7, 7, red)
	sub := src.SubImage(4, 4, 7, 7)
	if sub.W != 3 || sub.H != 3 || sub.At(0, 0) != red || sub.At(2, 2) != red {
		t.Fatal("subimage wrong")
	}
	// degenerate subimage
	d := src.SubImage(8, 8, 2, 2)
	if d.W != 1 || d.H != 1 {
		t.Fatal("degenerate subimage should be 1x1")
	}
}

// TestFillRectMatchesSet holds the row-doubling fill to a per-pixel Set loop
// over clipped, degenerate and whole-bitmap rectangles.
func TestFillRectMatchesSet(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		w, h := 1+rng.Intn(40), 1+rng.Intn(30)
		got := randBitmap(rng, w, h)
		want := got.Clone()
		x0, y0 := rng.Intn(w+20)-10, rng.Intn(h+20)-10
		x1, y1 := x0+rng.Intn(w+10)-3, y0+rng.Intn(h+10)-3
		c := color.RGBA{uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256))}
		if trial%10 == 0 {
			got.Fill(c)
			x0, y0, x1, y1 = 0, 0, w, h
		} else {
			got.FillRect(x0, y0, x1, y1, c)
		}
		for y := y0; y < y1; y++ {
			for x := x0; x < x1; x++ {
				want.Set(x, y, c)
			}
		}
		for i := range want.Pix {
			if got.Pix[i] != want.Pix[i] {
				t.Fatalf("%dx%d rect (%d,%d)-(%d,%d): byte %d is %d, want %d",
					w, h, x0, y0, x1, y1, i, got.Pix[i], want.Pix[i])
			}
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	b := NewBitmap(2, 2)
	b.Fill(red)
	c := b.Clone()
	c.Fill(white)
	if b.At(0, 0) != red {
		t.Fatal("clone shares pixels")
	}
}

func TestResizeBilinearIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := randBitmap(rng, 7, 5)
	r := ResizeBilinear(b, 7, 5)
	for i := range b.Pix {
		if b.Pix[i] != r.Pix[i] {
			t.Fatal("identity resize changed pixels")
		}
	}
}

func TestResizeBilinearSolidStaysSolid(t *testing.T) {
	b := NewBitmap(13, 9)
	b.Fill(color.RGBA{37, 99, 201, 255})
	r := ResizeBilinear(b, 224, 224)
	for i := 0; i < len(r.Pix); i += 4 {
		if r.Pix[i] != 37 || r.Pix[i+1] != 99 || r.Pix[i+2] != 201 {
			t.Fatalf("solid color distorted at %d: %v", i, r.Pix[i:i+4])
		}
	}
}

func TestResizeBilinearDownscalePreservesStructure(t *testing.T) {
	// left half black, right half white; downscale must keep the split
	b := NewBitmap(100, 100)
	b.Fill(black)
	b.FillRect(50, 0, 100, 100, white)
	r := ResizeBilinear(b, 10, 10)
	if r.At(1, 5).R > 60 {
		t.Fatalf("left half should stay dark: %v", r.At(1, 5))
	}
	if r.At(8, 5).R < 200 {
		t.Fatalf("right half should stay bright: %v", r.At(8, 5))
	}
}

func TestToTensorLayoutAndRange(t *testing.T) {
	b := NewBitmap(2, 2)
	b.Set(0, 0, color.RGBA{255, 0, 128, 255})
	tns := ToTensor(b)
	if tns.Shape[0] != 1 || tns.Shape[1] != 4 || tns.Shape[2] != 2 || tns.Shape[3] != 2 {
		t.Fatalf("shape %v", tns.Shape)
	}
	// Pixel (0, 0) of channel c is element c·2·2.
	if tns.Data[0] != 1 { // R
		t.Fatal("R channel wrong")
	}
	if tns.Data[4] != 0 { // G
		t.Fatal("G channel wrong")
	}
	if v := tns.Data[8]; v < 0.49 || v > 0.51 { // B = 128/255
		t.Fatalf("B channel %v", v)
	}
	for _, v := range tns.Data {
		if v < 0 || v > 1 {
			t.Fatalf("value %v outside [0,1]", v)
		}
	}
}

func TestBatchToTensor(t *testing.T) {
	a := NewBitmap(3, 3)
	a.Fill(white)
	b := NewBitmap(3, 3)
	b.Fill(black)
	batch := BatchToTensor([]*Bitmap{a, b})
	if batch.Shape[0] != 2 {
		t.Fatalf("batch shape %v", batch.Shape)
	}
	if batch.Data[0] != 1 || batch.Data[4*3*3] != 0 { // R of pixel (0, 0) in each image
		t.Fatal("batch values wrong")
	}
}

func TestBatchToTensorRejectsMixedSizes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BatchToTensor([]*Bitmap{NewBitmap(2, 2), NewBitmap(3, 3)})
}

func TestPrepareInputShape(t *testing.T) {
	b := NewBitmap(300, 250) // IAB medium rectangle
	tns := PrepareInput(b, 64)
	if tns.Shape[2] != 64 || tns.Shape[3] != 64 {
		t.Fatalf("shape %v", tns.Shape)
	}
}

func TestPerceptualHashToleratesRescale(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// structured image: gradient + rect, so the aHash has signal
	b := NewBitmap(64, 64)
	b.LinearGradientV(0, 0, 64, 64, black, white)
	b.FillRect(10, 10, 30, 30, red)
	_ = rng
	h1 := PerceptualHash(b)
	scaled := ResizeBilinear(b, 97, 41)
	h2 := PerceptualHash(scaled)
	if d := HammingDistance(h1, h2); d > 8 {
		t.Fatalf("rescaled image hash distance %d too large", d)
	}
	if !NearDuplicate(h1, h2, 8) {
		t.Fatal("rescale should be near-duplicate")
	}
	inverted := NewBitmap(64, 64)
	inverted.LinearGradientV(0, 0, 64, 64, white, black)
	h3 := PerceptualHash(inverted)
	if NearDuplicate(h1, h3, 8) {
		t.Fatal("inverted image should not be near-duplicate")
	}
}

// TestContentKeyDistinguishesAndIsZeroAlloc: ContentKey is the canonical
// wire/cache key — same content and dims agree, any pixel or dimension
// change differs, and computing it costs no allocations.
func TestContentKeyDistinguishesAndIsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randBitmap(rng, 16, 16)
	if ContentKey(a) != ContentKey(a.Clone()) {
		t.Fatal("identical bitmaps must key equal")
	}
	b := a.Clone()
	b.Set(5, 5, red)
	if ContentKey(a) == ContentKey(b) {
		t.Fatal("different pixels keyed equal")
	}
	c := &Bitmap{W: 8, H: 32, Pix: append([]uint8(nil), a.Pix...)}
	if ContentKey(a) == ContentKey(c) {
		t.Fatal("dimension change should alter key")
	}
	if allocs := testing.AllocsPerRun(100, func() { ContentKey(a) }); allocs != 0 {
		t.Fatalf("ContentKey allocates %v per run, want 0", allocs)
	}
}

func TestHammingDistanceProperty(t *testing.T) {
	f := func(a, b uint64) bool {
		d := HammingDistance(a, b)
		return d == HammingDistance(b, a) && d >= 0 && d <= 64 &&
			(a != b || d == 0) && (a == b || d > 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCodecRoundTripPNG(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	b := randBitmap(rng, 12, 9)
	// PNG is lossless: exact roundtrip (force opaque alpha to avoid
	// premultiplication differences in decode paths)
	for i := 3; i < len(b.Pix); i += 4 {
		b.Pix[i] = 255
	}
	data, err := Encode(b, PNG)
	if err != nil {
		t.Fatal(err)
	}
	dec, format, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if format != PNG {
		t.Fatalf("sniffed format %q", format)
	}
	for i := range b.Pix {
		if b.Pix[i] != dec.Pix[i] {
			t.Fatalf("png roundtrip differs at %d", i)
		}
	}
}

func TestCodecRoundTripJPEGApproximate(t *testing.T) {
	b := NewBitmap(32, 32)
	b.Fill(color.RGBA{200, 100, 50, 255})
	data, err := Encode(b, JPEG)
	if err != nil {
		t.Fatal(err)
	}
	dec, format, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if format != JPEG {
		t.Fatalf("format %q", format)
	}
	// lossy: tolerate small error
	for i := 0; i < len(b.Pix); i += 4 {
		for c := 0; c < 3; c++ {
			diff := int(b.Pix[i+c]) - int(dec.Pix[i+c])
			if diff < -12 || diff > 12 {
				t.Fatalf("jpeg error too large at %d: %d vs %d", i+c, b.Pix[i+c], dec.Pix[i+c])
			}
		}
	}
}

func TestCodecGIF(t *testing.T) {
	b := NewBitmap(8, 8)
	b.Fill(red)
	data, err := Encode(b, GIF)
	if err != nil {
		t.Fatal(err)
	}
	dec, format, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if format != GIF || dec.W != 8 {
		t.Fatalf("gif decode: %q %dx%d", format, dec.W, dec.H)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, _, err := Decode([]byte("not an image")); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestEncodeRejectsUnknownFormat(t *testing.T) {
	if _, err := Encode(NewBitmap(2, 2), Format("webp")); err == nil {
		t.Fatal("expected error for unsupported format")
	}
}
