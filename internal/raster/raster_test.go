package raster

import (
	"image/color"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"percival/internal/dom"
	"percival/internal/imaging"
	"percival/internal/layout"
)

// memFetcher serves encoded bitmaps from a map.
func memFetcher(images map[string]*imaging.Bitmap) Fetcher {
	return func(src string) ([]byte, bool) {
		bm, ok := images[src]
		if !ok {
			return nil, false
		}
		data, err := imaging.Encode(bm, imaging.PNG)
		if err != nil {
			return nil, false
		}
		return data, true
	}
}

// blockBySubstr blocks frames whose src contains a marker.
type blockBySubstr struct {
	marker   string
	inspects atomic.Int64
}

func (b *blockBySubstr) InspectFrame(src string, frame *imaging.Bitmap) bool {
	b.inspects.Add(1)
	return strings.Contains(src, b.marker)
}

func redBitmap(w, h int) *imaging.Bitmap {
	b := imaging.NewBitmap(w, h)
	b.Fill(color.RGBA{255, 0, 0, 255})
	return b
}

func renderPage(t *testing.T, html string, images map[string]*imaging.Bitmap, inspector FrameInspector, workers int) (*imaging.Bitmap, DecodeStats) {
	t.Helper()
	doc := dom.Parse(html)
	sizer := func(src string) (int, int, bool) {
		bm, ok := images[src]
		if !ok {
			return 0, 0, false
		}
		return bm.W, bm.H, true
	}
	box := layout.Layout(doc, 800, sizer)
	items := layout.BuildDisplayList(box)
	r := NewRasterizer(workers, memFetcher(images), inspector)
	surface, stats, err := r.Raster(items, 800, box.H)
	if err != nil {
		t.Fatal(err)
	}
	return surface, stats
}

func TestRasterDrawsImage(t *testing.T) {
	images := map[string]*imaging.Bitmap{"http://x/a.png": redBitmap(100, 50)}
	surface, stats := renderPage(t, `<img src="http://x/a.png">`, images, nil, 2)
	if stats.Decodes != 1 {
		t.Fatalf("decodes %d", stats.Decodes)
	}
	// layout places the image at (0,0)
	if c := surface.At(10, 10); c.R != 255 || c.G != 0 {
		t.Fatalf("image pixels missing: %v", c)
	}
}

func TestRasterBlocksFlaggedFrames(t *testing.T) {
	images := map[string]*imaging.Bitmap{
		"http://ads/banner.png": redBitmap(100, 50),
		"http://x/photo.png":    redBitmap(100, 50),
	}
	html := `<img src="http://ads/banner.png"><img src="http://x/photo.png">`
	insp := &blockBySubstr{marker: "ads/"}
	surface, stats := renderPage(t, html, images, insp, 2)
	if stats.Blocked != 1 {
		t.Fatalf("blocked %d", stats.Blocked)
	}
	// first image slot (y in [0,50)) must be blank (white), second drawn
	if c := surface.At(10, 10); c.R != 255 || c.G != 255 {
		t.Fatalf("blocked slot not blank: %v", c)
	}
	if c := surface.At(10, 60); c.R != 255 || c.G != 0 {
		t.Fatalf("allowed image missing: %v", c)
	}
}

func TestDecodeOncePerResource(t *testing.T) {
	// the same image referenced many times decodes and inspects once
	images := map[string]*imaging.Bitmap{"http://x/a.png": redBitmap(40, 40)}
	var html strings.Builder
	for i := 0; i < 12; i++ {
		html.WriteString(`<img src="http://x/a.png">`)
	}
	insp := &blockBySubstr{marker: "never"}
	_, stats := renderPage(t, html.String(), images, insp, 4)
	if stats.Decodes != 1 {
		t.Fatalf("decodes %d, want 1 (deferred decode cache)", stats.Decodes)
	}
	if got := insp.inspects.Load(); got != 1 {
		t.Fatalf("inspects %d, want 1", got)
	}
}

func TestRasterMissingResourceErrors(t *testing.T) {
	doc := dom.Parse(`<img src="http://gone/404.png">`)
	box := layout.Layout(doc, 800, nil)
	items := layout.BuildDisplayList(box)
	r := NewRasterizer(1, memFetcher(nil), nil)
	_, _, err := r.Raster(items, 800, box.H)
	if err == nil {
		t.Fatal("expected fetch error")
	}
}

func TestRasterCorruptImageErrors(t *testing.T) {
	fetch := func(string) ([]byte, bool) { return []byte("garbage"), true }
	doc := dom.Parse(`<img src="http://x/bad.png">`)
	box := layout.Layout(doc, 800, nil)
	items := layout.BuildDisplayList(box)
	r := NewRasterizer(1, fetch, nil)
	_, _, err := r.Raster(items, 800, box.H)
	if err == nil || !strings.Contains(err.Error(), "decode") {
		t.Fatalf("err = %v", err)
	}
}

func TestParallelWorkersProduceSameSurface(t *testing.T) {
	images := map[string]*imaging.Bitmap{}
	var html strings.Builder
	for i := 0; i < 8; i++ {
		src := "http://x/img" + string(rune('a'+i)) + ".png"
		bm := imaging.NewBitmap(120, 40)
		bm.Fill(color.RGBA{uint8(i * 30), 100, 200, 255})
		images[src] = bm
		html.WriteString(`<img src="` + src + `">`)
	}
	s1, _ := renderPage(t, html.String(), images, nil, 1)
	s8, _ := renderPage(t, html.String(), images, nil, 8)
	if imaging.ContentKey(s1) != imaging.ContentKey(s8) {
		t.Fatal("worker count changed rendered output")
	}
}

// drawImageNearest is the per-pixel blit drawImageClipped replaced, kept as
// its oracle: two divisions, an At and a Set per pixel.
func drawImageNearest(s, frame *imaging.Bitmap, it *layout.DisplayItem, cx0, cy0, cx1, cy1 int) {
	x0, y0 := max(it.X, cx0), max(it.Y, cy0)
	x1, y1 := min(it.X+it.W, cx1), min(it.Y+it.H, cy1)
	if x1 <= x0 || y1 <= y0 || it.W <= 0 || it.H <= 0 {
		return
	}
	for y := y0; y < y1; y++ {
		sy := (y - it.Y) * frame.H / it.H
		for x := x0; x < x1; x++ {
			sx := (x - it.X) * frame.W / it.W
			s.Set(x, y, frame.At(sx, sy))
		}
	}
}

// TestDrawImageMatchesNearest draws frames 1:1, downscaled and upscaled
// (integer and non-integer ratios) into boxes that cross tile edges, hang
// off every side of the surface and start at negative coordinates, tile by
// tile as rasterTile does, and holds every surface byte to the oracle.
func TestDrawImageMatchesNearest(t *testing.T) {
	const sw, sh = 600, 530
	rng := rand.New(rand.NewSource(17))
	randFrame := func(w, h int) *imaging.Bitmap {
		b := imaging.NewBitmap(w, h)
		rng.Read(b.Pix)
		return b
	}
	cases := []struct {
		name       string
		fw, fh     int
		x, y, w, h int
	}{
		{"1:1 inside a tile", 120, 90, 10, 20, 120, 90},
		{"1:1 across tile edges", 300, 250, 200, 180, 300, 250},
		{"1:1 off the right and bottom", 120, 100, 530, 470, 120, 100},
		{"1:1 negative origin", 90, 70, -30, -20, 90, 70},
		{"1:1 wider than a tile", 640, 40, -20, 300, 640, 40},
		{"down 2x", 300, 250, 240, 100, 150, 125},
		{"down non-integer", 728, 90, 0, 400, 468, 60},
		{"up 4x", 40, 30, 230, 240, 160, 120},
		{"up non-integer", 97, 41, 100, 250, 300, 250},
		{"mixed across the surface edge", 160, 600, 500, -10, 200, 550},
		{"one pixel", 1, 1, 255, 255, 3, 2},
	}
	for _, c := range cases {
		frame := randFrame(c.fw, c.fh)
		it := &layout.DisplayItem{Kind: layout.ItemImage, X: c.x, Y: c.y, W: c.w, H: c.h}
		got := randFrame(sw, sh)
		want := got.Clone()
		for ty := 0; ty*TileSize < sh; ty++ {
			for tx := 0; tx*TileSize < sw; tx++ {
				x0, y0 := tx*TileSize, ty*TileSize
				x1, y1 := min(x0+TileSize, sw), min(y0+TileSize, sh)
				drawImageClipped(got, frame, it, x0, y0, x1, y1)
				drawImageNearest(want, frame, it, x0, y0, x1, y1)
			}
		}
		for i := range want.Pix {
			if got.Pix[i] != want.Pix[i] {
				t.Fatalf("%s: surface pixel (%d,%d) channel %d is %d, want %d",
					c.name, i/4%sw, i/4/sw, i%4, got.Pix[i], want.Pix[i])
			}
		}
	}
}

func TestTileCount(t *testing.T) {
	r := NewRasterizer(2, memFetcher(nil), nil)
	surface, stats, err := r.Raster(nil, 800, 600)
	if err != nil {
		t.Fatal(err)
	}
	// 800x600 at 256px tiles = 4x3
	if stats.Tiles != 12 {
		t.Fatalf("tiles %d", stats.Tiles)
	}
	if surface.W != 800 || surface.H != 600 {
		t.Fatalf("surface %dx%d", surface.W, surface.H)
	}
}

func TestWorkerCountClamped(t *testing.T) {
	r := NewRasterizer(0, memFetcher(nil), nil)
	if r.Workers != 1 {
		t.Fatalf("workers %d", r.Workers)
	}
}

func TestBlockedFrameStaysBlockedOnReuse(t *testing.T) {
	// second raster pass with the same rasterizer reuses the cleared cache
	images := map[string]*imaging.Bitmap{"http://ads/x.png": redBitmap(60, 60)}
	insp := &blockBySubstr{marker: "ads/"}
	doc := dom.Parse(`<img src="http://ads/x.png">`)
	sizer := func(string) (int, int, bool) { return 60, 60, true }
	box := layout.Layout(doc, 800, sizer)
	items := layout.BuildDisplayList(box)
	r := NewRasterizer(2, memFetcher(images), insp)
	if _, _, err := r.Raster(items, 800, box.H); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Raster(items, 800, box.H); err != nil {
		t.Fatal(err)
	}
	if insp.inspects.Load() != 1 {
		t.Fatalf("inspects %d, want 1 (cache must remember the verdict)", insp.inspects.Load())
	}
}
