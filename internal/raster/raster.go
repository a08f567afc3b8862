// Package raster implements the final rendering stage and PERCIVAL's choke
// point (§3.1): display items are binned into tiles, each tile is rasterized
// by a worker from a pool of raster threads, and every encoded image is
// decoded exactly once (deferred decoding, like Blink's
// DecodingImageGenerator) with the decoded buffer handed to a FrameInspector
// *before* it is drawn. If the inspector flags the frame, its buffer is
// cleared and the ad never reaches the surface.
package raster

import (
	"encoding/binary"
	"fmt"
	"image/color"
	"sync"

	"percival/internal/imaging"
	"percival/internal/layout"
)

// TileSize is the square tile edge, matching Blink's raster granularity.
const TileSize = 256

// FrameInspector sees every decoded image frame before rasterization.
// Implementations must be safe for concurrent use: raster workers run in
// parallel and the paper's design goal is to run one classifier instance per
// worker (§3.1 "Run multiple instances of PERCIVAL in parallel").
type FrameInspector interface {
	// InspectFrame examines the decoded pixels of the resource. Returning
	// true blocks the frame: the caller clears the buffer before drawing.
	InspectFrame(src string, frame *imaging.Bitmap) bool
}

// Fetcher resolves an image URL to its encoded bytes.
type Fetcher func(src string) ([]byte, bool)

// DecodeStats counts work done during one raster pass.
type DecodeStats struct {
	Decodes  int // images decoded
	Inspects int // frames shown to the inspector
	Blocked  int // frames cleared
	Tiles    int // tiles rasterized
}

// Rasterizer renders display lists into a surface bitmap.
type Rasterizer struct {
	// Workers is the raster thread-pool size (Blink runs several raster
	// threads; 4 is Chromium's default on desktop).
	Workers int
	// Fetch resolves encoded image bytes.
	Fetch Fetcher
	// Inspector, when non-nil, is PERCIVAL's hook.
	Inspector FrameInspector

	mu      sync.Mutex
	decoded map[string]*decodeEntry // post-inspection frame cache
}

// decodeEntry is a singleflight slot: the first worker to need a resource
// performs the decode and inspection; concurrent workers wait on the Once.
type decodeEntry struct {
	once  sync.Once
	frame *imaging.Bitmap // nil when blocked
	err   error
}

// NewRasterizer constructs a rasterizer with the given worker count.
func NewRasterizer(workers int, fetch Fetcher, inspector FrameInspector) *Rasterizer {
	if workers < 1 {
		workers = 1
	}
	return &Rasterizer{
		Workers:   workers,
		Fetch:     fetch,
		Inspector: inspector,
		decoded:   map[string]*decodeEntry{},
	}
}

// WasBlocked reports whether src was decoded during a raster pass and
// cleared by the inspector.
func (r *Rasterizer) WasBlocked(src string) bool {
	r.mu.Lock()
	e, seen := r.decoded[src]
	r.mu.Unlock()
	if !seen {
		return false
	}
	// ensure the decode has completed before reading the verdict
	e.once.Do(func() {})
	return e.err == nil && e.frame == nil
}

// decodeAndInspect returns the ready-to-draw frame for src, running the
// decode + inspection exactly once per resource (concurrent raster workers
// needing the same resource wait for the first decode). A cleared (blocked)
// frame is represented by nil.
func (r *Rasterizer) decodeAndInspect(src string, stats *DecodeStats) (*imaging.Bitmap, error) {
	r.mu.Lock()
	e, ok := r.decoded[src]
	if !ok {
		e = &decodeEntry{}
		r.decoded[src] = e
	}
	r.mu.Unlock()

	e.once.Do(func() {
		data, ok := r.Fetch(src)
		if !ok {
			e.err = fmt.Errorf("raster: resource %q unavailable", src)
			return
		}
		frame, _, err := imaging.Decode(data)
		if err != nil {
			e.err = fmt.Errorf("raster: decode %q: %w", src, err)
			return
		}
		blocked := false
		if r.Inspector != nil {
			blocked = r.Inspector.InspectFrame(src, frame)
		}
		r.mu.Lock()
		stats.Decodes++
		if r.Inspector != nil {
			stats.Inspects++
		}
		if blocked {
			stats.Blocked++
		}
		r.mu.Unlock()
		if blocked {
			frame.Clear()
			return // e.frame stays nil
		}
		e.frame = frame
	})
	return e.frame, e.err
}

// Raster renders the display list into a surface of the given dimensions.
// Tiles are distributed over the worker pool; each worker decodes (and
// inspects) the images intersecting its tiles. Returns the surface and
// statistics. Resources that fail to fetch or decode render as empty slots,
// as a browser would show a broken image.
func (r *Rasterizer) Raster(items []layout.DisplayItem, w, h int) (*imaging.Bitmap, DecodeStats, error) {
	if w <= 0 {
		w = layout.DefaultViewportW
	}
	if h <= 0 {
		h = TileSize
	}
	surface := imaging.NewBitmap(w, h)
	surface.Fill(color.RGBA{255, 255, 255, 255})

	tilesX := (w + TileSize - 1) / TileSize
	tilesY := (h + TileSize - 1) / TileSize
	type tile struct{ tx, ty int }
	tiles := make(chan tile, tilesX*tilesY)
	for ty := 0; ty < tilesY; ty++ {
		for tx := 0; tx < tilesX; tx++ {
			tiles <- tile{tx, ty}
		}
	}
	close(tiles)

	var stats DecodeStats
	stats.Tiles = tilesX * tilesY
	var wg sync.WaitGroup
	var firstErr error
	var errMu sync.Mutex
	for wk := 0; wk < r.Workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range tiles {
				if err := r.rasterTile(items, surface, t.tx, t.ty, &stats); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return surface, stats, firstErr
}

// rasterTile draws the display items intersecting one tile. Each worker
// writes only within its tile bounds, so the shared surface needs no lock.
func (r *Rasterizer) rasterTile(items []layout.DisplayItem, surface *imaging.Bitmap, tx, ty int, stats *DecodeStats) error {
	x0, y0 := tx*TileSize, ty*TileSize
	x1, y1 := x0+TileSize, y0+TileSize
	if x1 > surface.W {
		x1 = surface.W
	}
	if y1 > surface.H {
		y1 = surface.H
	}
	for i := range items {
		it := &items[i]
		if it.X >= x1 || it.Y >= y1 || it.X+it.W <= x0 || it.Y+it.H <= y0 {
			continue // no intersection
		}
		switch it.Kind {
		case layout.ItemRect:
			fillClipped(surface, it.X, it.Y, it.X+it.W, it.Y+it.H, x0, y0, x1, y1, it.Color)
		case layout.ItemText:
			drawTextClipped(surface, it, x0, y0, x1, y1)
		case layout.ItemPattern:
			drawPatternClipped(surface, it, x0, y0, x1, y1)
		case layout.ItemImage:
			frame, err := r.decodeAndInspect(it.Src, stats)
			if err != nil {
				return err
			}
			if frame == nil {
				continue // blocked: leave the slot blank
			}
			drawImageClipped(surface, frame, it, x0, y0, x1, y1)
		}
	}
	return nil
}

func fillClipped(s *imaging.Bitmap, rx0, ry0, rx1, ry1, cx0, cy0, cx1, cy1 int, c color.RGBA) {
	if rx0 < cx0 {
		rx0 = cx0
	}
	if ry0 < cy0 {
		ry0 = cy0
	}
	if rx1 > cx1 {
		rx1 = cx1
	}
	if ry1 > cy1 {
		ry1 = cy1
	}
	s.FillRect(rx0, ry0, rx1, ry1, c)
}

// drawPatternClipped paints the §2.2/§7 adversarial overlay: interleaved
// stripes in a photographic palette (sky over the top half, foliage over the
// bottom) covering half the box. The composite's statistics shift toward the
// content class — corrupting screenshots of the region and fooling
// element-based perceptual blockers — while every other stripe of the
// underlying creative stays visible to a human, and the decoded frame that
// PERCIVAL inspects is untouched.
func drawPatternClipped(s *imaging.Bitmap, it *layout.DisplayItem, cx0, cy0, cx1, cy1 int) {
	sky := color.RGBA{140, 190, 235, 255}
	foliage := color.RGBA{85, 125, 65, 255}
	mid := it.Y + it.H/2
	for y := it.Y; y < it.Y+it.H; y++ {
		if (y-it.Y)%4 >= 2 {
			continue // leave alternating stripes of the creative visible
		}
		c := sky
		if y >= mid {
			c = foliage
		}
		fillClipped(s, it.X, y, it.X+it.W, y+1, cx0, cy0, cx1, cy1, c)
	}
}

// drawTextClipped paints text as line blocks (glyph rendering is out of
// scope; the raster cost model only needs pixels written).
func drawTextClipped(s *imaging.Bitmap, it *layout.DisplayItem, cx0, cy0, cx1, cy1 int) {
	lineH := 18
	for y := it.Y; y < it.Y+it.H; y += lineH {
		fillClipped(s, it.X, y+4, it.X+it.W*3/4, y+10, cx0, cy0, cx1, cy1, it.Color)
	}
}

// drawImageClipped scales the frame into the item's box by nearest
// neighbour, writing only within the clip rect (at most one tile wide). A
// frame drawn at its own size is copied a clipped row at a time; otherwise
// each destination column's source offset is computed once for the item, not
// once per pixel.
func drawImageClipped(s *imaging.Bitmap, frame *imaging.Bitmap, it *layout.DisplayItem, cx0, cy0, cx1, cy1 int) {
	x0, y0 := it.X, it.Y
	x1, y1 := it.X+it.W, it.Y+it.H
	if x0 < cx0 {
		x0 = cx0
	}
	if y0 < cy0 {
		y0 = cy0
	}
	if x1 > cx1 {
		x1 = cx1
	}
	if y1 > cy1 {
		y1 = cy1
	}
	if x1 <= x0 || y1 <= y0 || it.W <= 0 || it.H <= 0 {
		return
	}
	fstride, sstride := frame.W*4, s.W*4
	if frame.W == it.W && frame.H == it.H {
		n := (x1 - x0) * 4
		for y := y0; y < y1; y++ {
			so := (y-it.Y)*fstride + (x0-it.X)*4
			do := y*sstride + x0*4
			copy(s.Pix[do:do+n], frame.Pix[so:so+n])
		}
		return
	}
	var cols [TileSize]int
	off := cols[:x1-x0]
	for i := range off {
		off[i] = (x0 + i - it.X) * frame.W / it.W * 4
	}
	for y := y0; y < y1; y++ {
		sy := (y - it.Y) * frame.H / it.H
		src := frame.Pix[sy*fstride : (sy+1)*fstride]
		dst := s.Pix[y*sstride+x0*4 : y*sstride+x1*4]
		for i, so := range off {
			binary.LittleEndian.PutUint32(dst[i*4:], binary.LittleEndian.Uint32(src[so:]))
		}
	}
}
