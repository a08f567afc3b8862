package imaging

import (
	"crypto/sha256"
	"encoding/binary"
	"math/bits"
)

// ContentKey is the frame's identity, the one key every verdict cache in the
// tree uses (the serving layer's cache, the remote-dispatch wire):
// SHA-256 of the pixel buffer with the dimensions XOR-folded into the leading
// bytes, so two buffers of equal byte-length but different shapes cannot
// collide. Computed with sha256.Sum256 (stack-allocated state), so keying a
// frame on the submit hot path performs no heap allocation. A remote peer
// answering a hash probe from its cache, a -cache-file snapshot and the local
// serve layer memoizing a verdict must agree on this key byte-for-byte.
func ContentKey(b *Bitmap) [32]byte {
	k := sha256.Sum256(b.Pix)
	var dims [8]byte
	binary.LittleEndian.PutUint32(dims[0:], uint32(b.W))
	binary.LittleEndian.PutUint32(dims[4:], uint32(b.H))
	for i, d := range dims {
		k[i] ^= d
	}
	return k
}

// PerceptualHash computes an 8×8 average hash: the image is downscaled to
// 8×8 grayscale and each bit records whether that cell is brighter than the
// mean. Visually-similar images (rescaled, recompressed ad creatives) map to
// nearby hashes; the crawler treats small Hamming distances as duplicates.
func PerceptualHash(b *Bitmap) uint64 {
	small := ResizeBilinear(b, 8, 8)
	var gray [64]float64
	var mean float64
	for i := 0; i < 64; i++ {
		r := float64(small.Pix[i*4])
		g := float64(small.Pix[i*4+1])
		bl := float64(small.Pix[i*4+2])
		gray[i] = 0.299*r + 0.587*g + 0.114*bl
		mean += gray[i]
	}
	mean /= 64
	var h uint64
	for i := 0; i < 64; i++ {
		if gray[i] > mean {
			h |= 1 << uint(i)
		}
	}
	return h
}

// HammingDistance counts differing bits between two perceptual hashes.
func HammingDistance(a, b uint64) int { return bits.OnesCount64(a ^ b) }

// NearDuplicate reports whether two perceptual hashes are within the
// given Hamming radius (a radius of 5 works well for rescaled creatives).
func NearDuplicate(a, b uint64, radius int) bool {
	return HammingDistance(a, b) <= radius
}

// ThumbEdge is the square edge of comparison thumbnails.
const ThumbEdge = 16

// Thumbnail returns a 16×16 downscale used for second-stage duplicate
// confirmation: the 64-bit aHash is a cheap prefilter but collides on
// images that share layout; the thumbnail comparison is color-aware.
func Thumbnail(b *Bitmap) *Bitmap { return ResizeBilinear(b, ThumbEdge, ThumbEdge) }

// MeanAbsDiff computes the mean absolute per-channel difference (0..255)
// between two same-sized bitmaps.
func MeanAbsDiff(a, b *Bitmap) float64 {
	if a.W != b.W || a.H != b.H {
		return 255
	}
	var sum int
	for i := range a.Pix {
		d := int(a.Pix[i]) - int(b.Pix[i])
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return float64(sum) / float64(len(a.Pix))
}
