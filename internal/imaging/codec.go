package imaging

import (
	"bytes"
	"fmt"
	"image"
	"image/gif"
	"image/jpeg"
	"image/png"
)

// Format identifies an encoded image format. Advertisers serve creatives in
// several formats (§3.1: "JPG, PNG, or GIF"); the raster hook abstracts over
// all of them because it sees only decoded pixels.
type Format string

// Supported encoded-image formats.
const (
	PNG  Format = "png"
	JPEG Format = "jpeg"
	GIF  Format = "gif"
)

// Encode serializes the bitmap in the given format.
func Encode(b *Bitmap, f Format) ([]byte, error) {
	var buf bytes.Buffer
	var err error
	switch f {
	case PNG:
		err = png.Encode(&buf, b.ToImage())
	case JPEG:
		err = jpeg.Encode(&buf, b.ToImage(), &jpeg.Options{Quality: 85})
	case GIF:
		err = gif.Encode(&buf, b.ToImage(), nil)
	default:
		return nil, fmt.Errorf("imaging: unknown format %q", f)
	}
	if err != nil {
		return nil, fmt.Errorf("imaging: encode %s: %w", f, err)
	}
	return buf.Bytes(), nil
}

// Decode parses an encoded image (PNG, JPEG or GIF — sniffed from the
// payload, as Blink's image decoders do) into a Bitmap.
func Decode(data []byte) (*Bitmap, Format, error) {
	img, name, err := image.Decode(bytes.NewReader(data))
	if err != nil {
		return nil, "", fmt.Errorf("imaging: decode: %w", err)
	}
	// a GIF's first frame may be an empty rectangle inside its screen
	if img.Bounds().Empty() {
		return nil, "", fmt.Errorf("imaging: decode: empty %s image", name)
	}
	// the decoder's own buffer is ours: an RGBA image (an opaque PNG) whose
	// rows are tight from the origin already is the bitmap's layout
	if m, ok := img.(*image.RGBA); ok && m.Rect.Min == (image.Point{}) && m.Stride == 4*m.Rect.Dx() {
		w, h := m.Rect.Dx(), m.Rect.Dy()
		return &Bitmap{W: w, H: h, Pix: m.Pix[:4*w*h]}, Format(name), nil
	}
	return FromImage(img), Format(name), nil
}
