package imaging

import (
	"bytes"
	"fmt"
	"image"
	"image/color"
	"image/gif"
	"image/jpeg"
	"image/png"
	"io"
	"math/rand"
	"sort"
	"testing"
)

// fromImageAt is the per-pixel conversion FromImage replaced, kept as its
// oracle: one At(x, y).RGBA() per pixel, each channel's high byte.
func fromImageAt(img image.Image) *Bitmap {
	bounds := img.Bounds()
	b := NewBitmap(bounds.Dx(), bounds.Dy())
	for y := 0; y < b.H; y++ {
		for x := 0; x < b.W; x++ {
			r, g, bl, a := img.At(bounds.Min.X+x, bounds.Min.Y+y).RGBA()
			b.Set(x, y, color.RGBA{uint8(r >> 8), uint8(g >> 8), uint8(bl >> 8), uint8(a >> 8)})
		}
	}
	return b
}

// sameBitmap reports the first byte at which got and want differ.
func sameBitmap(got, want *Bitmap) error {
	if got.W != want.W || got.H != want.H {
		return fmt.Errorf("%dx%d, want %dx%d", got.W, got.H, want.W, want.H)
	}
	for i := range want.Pix {
		if got.Pix[i] != want.Pix[i] {
			return fmt.Errorf("pixel (%d,%d) channel %d is %d, want %d",
				i/4%want.W, i/4/want.W, i%4, got.Pix[i], want.Pix[i])
		}
	}
	return nil
}

// boundedUniform is a bounded solid image, a type image/draw has no fast
// path for.
type boundedUniform struct {
	*image.Uniform
	r image.Rectangle
}

func (u *boundedUniform) Bounds() image.Rectangle { return u.r }

// oracleImages returns one image of every shape the stdlib decoders (and
// image/draw's fast paths) distinguish, at odd sizes and non-zero origins.
func oracleImages(rng *rand.Rand) map[string]image.Image {
	odd := image.Rect(0, 0, 13, 7)
	imgs := map[string]image.Image{}

	rgba := image.NewRGBA(image.Rect(-2, 3, 15, 12))
	rng.Read(rgba.Pix)
	imgs["RGBA offset"] = rgba
	imgs["RGBA SubImage"] = rgba.SubImage(image.Rect(1, 4, 10, 11))

	nrgba := image.NewNRGBA(odd)
	rng.Read(nrgba.Pix)
	for i := 3; i < len(nrgba.Pix); i += 4 {
		switch i / 4 % 5 {
		case 0:
			nrgba.Pix[i] = 0 // transparent, colour bytes nonzero
		case 1:
			nrgba.Pix[i] = 255
		}
	}
	imgs["NRGBA translucent"] = nrgba
	imgs["NRGBA SubImage"] = nrgba.SubImage(image.Rect(3, 1, 12, 6))

	for _, r := range []image.YCbCrSubsampleRatio{
		image.YCbCrSubsampleRatio444, image.YCbCrSubsampleRatio422, image.YCbCrSubsampleRatio420,
		image.YCbCrSubsampleRatio440, image.YCbCrSubsampleRatio411, image.YCbCrSubsampleRatio410,
	} {
		y := image.NewYCbCr(image.Rect(0, 0, 17, 11), r)
		rng.Read(y.Y)
		rng.Read(y.Cb)
		rng.Read(y.Cr)
		imgs["YCbCr "+r.String()] = y
		// an odd offset moves the chroma phase inside each block
		imgs["YCbCr SubImage "+r.String()] = y.SubImage(image.Rect(1, 3, 16, 10))
	}
	yo := image.NewYCbCr(image.Rect(-3, 2, 10, 9), image.YCbCrSubsampleRatio420)
	rng.Read(yo.Y)
	rng.Read(yo.Cb)
	rng.Read(yo.Cr)
	imgs["YCbCr offset 420"] = yo
	ya := image.NewNYCbCrA(odd, image.YCbCrSubsampleRatio420)
	rng.Read(ya.Y)
	rng.Read(ya.Cb)
	rng.Read(ya.Cr)
	rng.Read(ya.A)
	imgs["NYCbCrA 420"] = ya

	// a GIF frame inside its logical screen, with translucent entries
	palette := color.Palette{
		color.RGBA{0, 0, 0, 0},
		color.RGBA{255, 0, 0, 255},
		color.RGBA{40, 20, 10, 128}, // premultiplied translucent
		color.NRGBA{200, 100, 50, 77},
		color.NRGBA{9, 99, 199, 0},
		color.Gray{143},
	}
	pal := image.NewPaletted(image.Rect(3, 5, 20, 14), palette)
	for i := range pal.Pix {
		pal.Pix[i] = uint8(rng.Intn(len(palette)))
	}
	imgs["Paletted offset"] = pal

	gray := image.NewGray(odd)
	rng.Read(gray.Pix)
	imgs["Gray"] = gray
	gray16 := image.NewGray16(odd)
	rng.Read(gray16.Pix)
	imgs["Gray16"] = gray16
	cmyk := image.NewCMYK(odd)
	rng.Read(cmyk.Pix)
	imgs["CMYK"] = cmyk
	nrgba64 := image.NewNRGBA64(odd)
	rng.Read(nrgba64.Pix)
	imgs["NRGBA64"] = nrgba64
	rgba64 := image.NewRGBA64(odd)
	rng.Read(rgba64.Pix)
	imgs["RGBA64"] = rgba64
	alpha := image.NewAlpha(odd)
	rng.Read(alpha.Pix)
	imgs["Alpha"] = alpha
	imgs["bounded Uniform"] = &boundedUniform{image.NewUniform(color.NRGBA{10, 20, 30, 40}), image.Rect(4, 4, 9, 7)}
	return imgs
}

// TestFromImageMatchesAt holds the bulk draw.Draw conversion byte-for-byte
// to the per-pixel At().RGBA() >> 8 oracle on every image shape a decoder
// produces, and on the generic path for the rest.
func TestFromImageMatchesAt(t *testing.T) {
	for name, img := range oracleImages(rand.New(rand.NewSource(31))) {
		if err := sameBitmap(FromImage(img), fromImageAt(img)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// encodedSamples returns a w×h picture (gradient plus noise) in every codec
// Decode sniffs: an opaque PNG (decoded as RGBA), a translucent PNG (NRGBA),
// a colour and a grey JPEG (YCbCr 4:2:0, Gray), and a GIF whose frame sits
// inside a larger screen (Paletted at a non-zero origin).
func encodedSamples(t testing.TB, w, h int) map[string][]byte {
	rng := rand.New(rand.NewSource(int64(w*h + 5)))
	src := NewBitmap(w, h)
	src.LinearGradientV(0, 0, w, h, color.RGBA{20, 60, 200, 255}, color.RGBA{250, 180, 10, 255})
	for i := 0; i < len(src.Pix); i += 4 {
		src.Pix[i] ^= uint8(rng.Intn(32))
	}
	out := map[string][]byte{}
	encode := func(name string, fn func(io.Writer) error) {
		var buf bytes.Buffer
		if err := fn(&buf); err != nil {
			t.Fatalf("encode %s: %v", name, err)
		}
		out[name] = buf.Bytes()
	}
	encode("png", func(w io.Writer) error { return png.Encode(w, src.ToImage()) })
	encode("jpeg", func(w io.Writer) error { return jpeg.Encode(w, src.ToImage(), nil) })

	translucent := src.ToImage()
	for i := 3; i < len(translucent.Pix); i += 4 {
		translucent.Pix[i] = uint8(i / 4 % 256)
		for c := i - 3; c < i; c++ { // keep it a valid premultiplied RGBA
			translucent.Pix[c] = min(translucent.Pix[c], translucent.Pix[i])
		}
	}
	encode("png translucent", func(w io.Writer) error { return png.Encode(w, translucent) })

	gray := image.NewGray(image.Rect(0, 0, w, h))
	for i := range gray.Pix {
		gray.Pix[i] = src.Pix[4*i+1]
	}
	encode("jpeg gray", func(w io.Writer) error { return jpeg.Encode(w, gray, nil) })

	frame := image.NewPaletted(image.Rect(3, 2, w+3, h+2), color.Palette{
		color.RGBA{0, 0, 0, 0}, color.RGBA{255, 255, 255, 255}, color.RGBA{200, 30, 30, 255}, color.RGBA{10, 90, 160, 255},
	})
	for i := range frame.Pix {
		frame.Pix[i] = src.Pix[4*i] >> 6
	}
	encode("gif offset frame", func(wr io.Writer) error {
		return gif.EncodeAll(wr, &gif.GIF{
			Image: []*image.Paletted{frame}, Delay: []int{0},
			Config: image.Config{ColorModel: frame.Palette, Width: w + 6, Height: h + 4},
		})
	})
	return out
}

// TestDecodeMatchesOracle decodes every sample through Decode and through
// image.Decode + the per-pixel oracle: the zero-copy adoption of an RGBA
// buffer and the bulk conversion must both be invisible.
func TestDecodeMatchesOracle(t *testing.T) {
	for name, data := range encodedSamples(t, 37, 23) {
		got, _, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		img, _, err := image.Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if err := sameBitmap(got, fromImageAt(img)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestDecodeAllocs: decoding a 336×280 creative (the IAB large rectangle)
// into a Bitmap costs at most a few allocations more than the stdlib decoder
// alone (the bitmap, its pixels), not one per pixel or per row. The
// decoder's own count grows with the compressed size (flate allocates
// Huffman tables per block) and is not ours to bound.
func TestDecodeAllocs(t *testing.T) {
	for name, data := range encodedSamples(t, 336, 280) {
		decoder := testing.AllocsPerRun(3, func() {
			if _, _, err := image.Decode(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		})
		ours := testing.AllocsPerRun(3, func() {
			if _, _, err := Decode(data); err != nil {
				t.Fatal(err)
			}
		})
		if ours > decoder+3 {
			t.Errorf("%s: Decode of 336×280 costs %v allocations, image.Decode %v", name, ours, decoder)
		}
	}
}

// FuzzDecode feeds arbitrary bytes to Decode behind the daemon's guard
// (DecodeConfig first, and the claimed size bounded before any pixel buffer
// is sized from it); any input Decode accepts must equal the per-pixel
// oracle applied to what image.Decode returns.
func FuzzDecode(f *testing.F) {
	seeds := encodedSamples(f, 9, 5)
	names := make([]string, 0, len(seeds))
	for name := range seeds {
		names = append(names, name)
	}
	sort.Strings(names) // seed#N names the same input every run
	for _, name := range names {
		f.Add(seeds[name])
	}
	f.Add([]byte("not an image"))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, _, err := image.DecodeConfig(bytes.NewReader(data))
		if err != nil || cfg.Width <= 0 || cfg.Height <= 0 || cfg.Width > 512 || cfg.Height > 512 {
			return
		}
		got, _, err := Decode(data)
		if err != nil {
			return
		}
		img, _, err := image.Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("Decode accepted what image.Decode rejects: %v", err)
		}
		if len(got.Pix) != 4*got.W*got.H {
			t.Fatalf("%dx%d bitmap holds %d bytes", got.W, got.H, len(got.Pix))
		}
		if err := sameBitmap(got, fromImageAt(img)); err != nil {
			t.Fatal(err)
		}
	})
}
