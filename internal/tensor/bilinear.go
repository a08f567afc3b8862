package tensor

import (
	"encoding/binary"
	"fmt"
)

// The two row passes of a separable bilinear scaler over RGBA bytes in 8.8
// fixed point. Between them a pixel is a uint64 of four u16 lanes, channel c
// in bits 16c…16c+15: a horizontal blend of two bytes with weights summing to
// 256 is at most 255·256 = 65280, so it fits a lane unrounded, and the vertical
// pass rounds once, at the end.

// BilinearColsU16 is the horizontal pass over one source row: for output
// column j, lane c of dst[j] is src[offs[j]+c]·wts[8j] + src[offs[j]+4+c]·wts[8j+4]
// — the left and right pixel of the column's source pair. wts holds eight
// u16 per column, its two weights (summing to 256) each repeated for the four
// channels. offs must be nondecreasing, as a scaler's column offsets are: only
// the first and the last are checked, and every pair lies between them. The
// vector body (four columns a step) never reads past the last pair.
func BilinearColsU16(dst []uint64, src []uint8, offs []int, wts []uint16) {
	n := len(dst)
	if n == 0 {
		return
	}
	_, _ = offs[n-1], wts[8*n-1]
	if offs[0] < 0 || offs[n-1] > len(src)-8 {
		panic(fmt.Sprintf("tensor: BilinearColsU16 pairs at [%d, %d] outside a %d-byte row", offs[0], offs[n-1], len(src)))
	}
	if haveQuantASM && n >= 4 {
		bilinearColsU16x4(&dst[0], &src[0], &offs[0], &wts[0], int64(n))
		return
	}
	BilinearColsU16Portable(dst, src, offs, wts)
}

// BilinearColsU16Portable is BilinearColsU16's SWAR body: both pixels of a
// pair come from one 8-byte load and are widened into lanes, so one multiply
// weighs all four channels.
func BilinearColsU16Portable(dst []uint64, src []uint8, offs []int, wts []uint16) {
	for j := range dst {
		p := binary.LittleEndian.Uint64(src[offs[j] : offs[j]+8])
		w := wts[8*j : 8*j+8]
		dst[j] = widenU8x4(uint32(p))*uint64(w[0]) + widenU8x4(uint32(p>>32))*uint64(w[4])
	}
}

// widenU8x4 spreads four bytes into the four u16 lanes of a uint64.
func widenU8x4(v uint32) uint64 {
	x := uint64(v)
	x = (x | x<<16) & 0x0000FFFF0000FFFF
	return (x | x<<8) & 0x00FF00FF00FF00FF
}

// BilinearRowsU8 is the vertical pass: byte c of output pixel i is
// (top·(256−wy) + bot·wy + 2¹⁵) >> 16 over lane c of top[i] and bot[i], wy
// in [0, 256], written to dst[4i+c]. The sum stays below 2²⁴, so the result
// equals blending the two rows' unrounded sums in 32-bit arithmetic.
func BilinearRowsU8(dst []uint8, top, bot []uint64, wy uint16) {
	n := len(top)
	if n == 0 {
		return
	}
	_, _ = bot[n-1], dst[4*n-1]
	if haveQuantASM && n >= 8 {
		bilinearRowsU8x8(&dst[0], &top[0], &bot[0], int64(n), int64(wy))
		return
	}
	BilinearRowsU8Portable(dst, top, bot, wy)
}

// BilinearRowsU8Portable is BilinearRowsU8's SWAR body. Each 16-bit sum is
// split into its high and low byte, a = 256·ah + al, so that every product
// fits its lane: with H = ah·(256−wy) + bh·wy and L = al·(256−wy) + bl·wy,
// both at most 65280, the result is (H + (L >> 8) + 128) >> 8, and that sum
// never exceeds 65408.
func BilinearRowsU8Portable(dst []uint8, top, bot []uint64, wy uint16) {
	const lo = 0x00FF00FF00FF00FF
	iw, w := uint64(256-wy), uint64(wy)
	for i, a := range top {
		b := bot[i]
		hi := (a>>8&lo)*iw + (b>>8&lo)*w
		l := (a&lo)*iw + (b&lo)*w
		r := (hi + (l >> 8 & lo) + 0x0080008000800080) >> 8 & lo
		r = (r | r>>8) & 0x0000FFFF0000FFFF
		binary.LittleEndian.PutUint32(dst[4*i:4*i+4], uint32(r|r>>16))
	}
}
